import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from znsynth.fourier import Signal, forward
from znsynth.lattice import GridShape, all_coords, decode, encode, negate_indices


def character(a, b, shape: GridShape) -> complex:
    """e^(-2*pi*i * (a.b mod N) / N), read off the forward transform of a point mass at a."""
    row = forward(Signal.delta(shape, encode(a, shape))).values
    return row[encode(b, shape)] * shape.size**0.5


def dot(a, b, shape: GridShape) -> int:
    """(a.b) mod N, read off the phase of character(a, b)."""
    turns = -np.angle(character(a, b, shape)) / (2 * np.pi)
    return round(turns * shape.modulus) % shape.modulus


class TestGridShape:
    def test_size(self):
        assert GridShape(7, 2).size == 49
        assert GridShape(2, 10).size == 1024

    @pytest.mark.parametrize("n,d", [(1, 1), (0, 2), (5, 0), (3, -1)])
    def test_rejects_degenerate(self, n, d):
        with pytest.raises(ValueError):
            GridShape(n, d)

    def test_rejects_unaddressable(self):
        with pytest.raises(ValueError, match="addressable"):
            GridShape(2, 70)

    def test_str(self):
        assert str(GridShape(16, 2)) == "16x2"


class TestIndexing:
    def test_row_major_order(self):
        shape = GridShape(3, 2)
        # last coordinate fastest
        assert encode((0, 0), shape) == 0
        assert encode((0, 1), shape) == 1
        assert encode((1, 0), shape) == 3
        assert encode((2, 2), shape) == 8

    @pytest.mark.parametrize("n,d", [(10, 1), (7, 3), (4, 5), (47, 2)])
    def test_bijection(self, n, d):
        shape = GridShape(n, d)
        for idx in range(shape.size):
            assert encode(decode(idx, shape), shape) == idx

    def test_encode_reduces_mod_n(self):
        shape = GridShape(5, 2)
        assert encode((7, -1), shape) == encode((2, 4), shape)

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError):
            decode(25, GridShape(5, 2))

    def test_all_coords_matches_decode(self):
        shape = GridShape(4, 3)
        coords = all_coords(shape)
        for idx in (0, 1, 17, 63):
            assert tuple(coords[idx]) == decode(idx, shape)

    def test_negate_indices(self):
        shape = GridShape(6, 2)
        idx = np.arange(shape.size)
        neg = negate_indices(idx, shape)
        assert np.array_equal(negate_indices(neg, shape), idx)
        assert neg[encode((1, 2), shape)] == encode((5, 4), shape)


class TestDot:
    """The modular dot product in the forward transform's kernel."""

    def test_zero_vector_annihilates(self):
        assert dot((0, 0), (3, 5), GridShape(7, 2)) == 0

    def test_hand_values(self):
        assert dot((1, 1), (3, 5), GridShape(7, 2)) == 1  # 8 mod 7
        assert dot((2, 3), (4, 6), GridShape(5, 2)) == 1  # 26 mod 5

    def test_no_overflow_with_huge_inputs(self):
        shape = GridShape(97, 2)
        a = (10**30, 10**30 + 1)
        b = (10**29, 10**29 + 7)
        expected = sum(x * y for x, y in zip(a, b)) % 97
        assert dot(a, b, shape) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension|coordinates"):
            dot((1, 2, 3), (1, 2), GridShape(5, 2))


class TestCharacter:
    """The additive characters that the forward transform pairs a signal with."""

    def test_trivial(self):
        assert character((0,), (3,), GridShape(7, 1)) == pytest.approx(1.0)

    def test_quarter_rotation(self):
        # dot = 1 on Z_4 is a quarter turn in the negative direction
        val = character((1,), (1,), GridShape(4, 1))
        assert val == pytest.approx(-1j, abs=1e-12)

    def test_three_eighths(self):
        val = character((1,), (3,), GridShape(8, 1))
        assert val == pytest.approx(np.exp(-3j * np.pi / 4), abs=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        shape = GridShape(11, 3)
        for _ in range(50):
            a = tuple(rng.integers(0, 11, size=3).tolist())
            b = tuple(rng.integers(0, 11, size=3).tolist())
            assert abs(abs(character(a, b, shape)) - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 30),
        data=st.data(),
    )
    def test_multiplicative_in_second_argument(self, n, data):
        d = data.draw(st.integers(1, 3))
        shape = GridShape(n, d)
        point = st.tuples(*([st.integers(0, n - 1)] * d))
        a = data.draw(point)
        b = data.draw(point)
        c = data.draw(point)
        bc = tuple((x + y) % n for x, y in zip(b, c))
        lhs = character(a, b, shape) * character(a, c, shape)
        assert lhs == pytest.approx(character(a, bc, shape), abs=1e-10)

    @pytest.mark.parametrize("n,d", [(6, 1), (3, 2), (4, 2)])
    def test_orthogonality(self, n, d):
        shape = GridShape(n, d)
        coords = [decode(i, shape) for i in range(shape.size)]
        for m in coords:
            total = sum(character(x, m, shape) for x in coords)
            expected = shape.size if all(c == 0 for c in m) else 0.0
            assert abs(total - expected) < 1e-8 * shape.size
