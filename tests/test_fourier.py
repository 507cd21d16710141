import math

import numpy as np
import pytest

from znsynth.fourier import (
    SUPPORT_RTOL,
    FreqSet,
    Signal,
    Spectrum,
    forward,
    indicator_spectrum,
    inverse,
    support,
)
from znsynth.inequalities import lp_norm
from znsynth.lattice import GridShape, encode, negate_indices

from helpers import (
    convolve_oracle,
    dft_oracle,
    idft_oracle,
    random_bandlimited,
    random_signal,
)


class TestValidation:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected"):
            Signal(GridShape(4, 1), np.zeros(5))

    def test_rejects_nan(self):
        v = np.zeros(4, dtype=complex)
        v[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Signal(GridShape(4, 1), v)

    def test_values_read_only(self):
        f = Signal.delta(GridShape(4, 1))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_freqset_normalizes(self):
        S = FreqSet.from_indices(GridShape(4, 1), [3, 1, 3])
        assert S.members.tolist() == [1, 3]
        assert S.size == 2

    def test_freqset_range(self):
        with pytest.raises(ValueError):
            FreqSet.from_indices(GridShape(4, 1), [4])


class TestForward:
    def test_delta_gives_flat_spectrum(self):
        for shape in (GridShape(5, 1), GridShape(4, 2), GridShape(3, 3)):
            F = forward(Signal.delta(shape))
            assert np.allclose(F.values, shape.size**-0.5, atol=1e-12)

    def test_constant_gives_delta(self):
        shape = GridShape(8, 1)
        F = forward(Signal.constant(shape, 1.0))
        expected = np.zeros(8, dtype=complex)
        expected[0] = math.sqrt(8)
        assert np.allclose(F.values, expected, atol=1e-12)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(42)
        for shape in (GridShape(4, 2), GridShape(6, 1), GridShape(3, 3)):
            for _ in range(5):
                f = random_signal(shape, rng)
                assert np.allclose(forward(f).values, dft_oracle(f), atol=1e-10)


class TestInverse:
    def test_flat_spectrum_gives_delta(self):
        shape = GridShape(6, 1)
        F = Spectrum(shape, np.full(6, 6**-0.5, dtype=complex))
        f = inverse(F)
        expected = np.zeros(6, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(f.values, expected, atol=1e-12)

    def test_delta_spectrum_gives_constant(self):
        shape = GridShape(9, 1)
        F = Spectrum(shape, np.zeros(9, dtype=complex))
        values = F.values.copy()
        values[0] = 3.0  # sqrt(9)
        f = inverse(Spectrum(shape, values))
        assert np.allclose(f.values, 1.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        shape = GridShape(5, 2)
        for _ in range(10):
            f = random_signal(shape, rng)
            back = inverse(forward(f))
            assert np.allclose(back.values, f.values, atol=1e-10 * np.abs(f.values).max())

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        shape = GridShape(4, 2)
        F = Spectrum(shape, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        assert np.allclose(inverse(F).values, idft_oracle(F), atol=1e-10)


class TestPlancherelAndLinearity:
    def test_plancherel(self):
        rng = np.random.default_rng(11)
        for shape in (GridShape(7, 1), GridShape(4, 2), GridShape(2, 5)):
            for _ in range(20):
                f = random_signal(shape, rng)
                a = lp_norm(forward(f), 2)
                b = lp_norm(f, 2)
                assert abs(a - b) <= 1e-10 * b

    def test_linearity(self):
        rng = np.random.default_rng(12)
        shape = GridShape(6, 2)
        f, g = random_signal(shape, rng), random_signal(shape, rng)
        al, be = 2.0 - 1.5j, -0.25 + 3j
        combined = forward(Signal(shape, al * f.values + be * g.values))
        split = al * forward(f).values + be * forward(g).values
        assert np.allclose(combined.values, split, atol=1e-10 * np.abs(split).max())


class TestIndicatorSpectrum:
    def test_origin_only(self):
        shape = GridShape(7, 1)
        g = indicator_spectrum(FreqSet.from_indices(shape, [0]))
        assert np.allclose(g.values, 7**-0.5, atol=1e-12)

    def test_full_grid(self):
        shape = GridShape(4, 2)
        g = indicator_spectrum(FreqSet.full(shape))
        expected = np.zeros(16, dtype=complex)
        expected[0] = 4.0  # N^(d/2)
        assert np.allclose(g.values, expected, atol=1e-12)

    def test_coordinate_subspace(self):
        # H = {(x, 0)} in Z_4^2: transform lives on {(0, m)} with value 1
        shape = GridShape(4, 2)
        H = FreqSet.from_indices(shape, [encode((x, 0), shape) for x in range(4)])
        g = indicator_spectrum(H)
        expected = np.zeros(16, dtype=complex)
        for m in range(4):
            expected[encode((0, m), shape)] = 1.0
        assert np.allclose(g.values, expected, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            indicator_spectrum(FreqSet(GridShape(4, 1)))


class TestConvolve:
    """The direct-sum convolution oracle, and the transform's convolution theorem."""

    def test_delta_is_identity(self):
        rng = np.random.default_rng(5)
        shape = GridShape(6, 1)
        f = random_signal(shape, rng)
        out = convolve_oracle(f, Signal.delta(shape))
        assert np.allclose(out, f.values, atol=1e-12)

    def test_delta_translation(self):
        shape = GridShape(5, 2)
        a, b = (1, 2), (3, 4)
        out = convolve_oracle(Signal.delta(shape, encode(a, shape)),
                              Signal.delta(shape, encode(b, shape)))
        expected = np.zeros(25, dtype=complex)
        expected[encode((4, 1), shape)] = 1.0  # (a+b) mod 5
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_direct_sum_oracle(self):
        # f*g = N^(d/2) inverse(forward(f) forward(g))
        rng = np.random.default_rng(6)
        for shape in (GridShape(6, 1), GridShape(3, 2)):
            f, g = random_signal(shape, rng), random_signal(shape, rng)
            product = Spectrum(shape, forward(f).values * forward(g).values)
            via_transform = shape.size**0.5 * inverse(product).values
            assert np.allclose(via_transform, convolve_oracle(f, g), atol=1e-10)

    def test_frequency_product_identity(self):
        # forward(f*g) = N^(d/2) forward(f) forward(g)
        rng = np.random.default_rng(8)
        shape = GridShape(6, 1)
        f, g = random_signal(shape, rng), random_signal(shape, rng)
        lhs = forward(Signal(shape, convolve_oracle(f, g))).values
        rhs = 6**0.5 * forward(f).values * forward(g).values
        assert np.allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())


class TestSpectralReproduction:
    def test_symmetric_set_literal_kernel(self):
        # for S = -S the kernel is real and f = N^(-d/2) * (f * 1S_hat)
        rng = np.random.default_rng(9)
        shape = GridShape(8, 1)
        S = FreqSet.from_indices(shape, [1, 4, 7])
        f = random_bandlimited(shape, S, rng)
        repro = 8**-0.5 * convolve_oracle(f, indicator_spectrum(S))
        assert np.allclose(repro, f.values, atol=1e-9 * max(1, np.abs(f.values).max()))

    def test_general_set_conjugate_kernel(self):
        # without symmetry the reproducing kernel is the conjugate transform
        rng = np.random.default_rng(10)
        shape = GridShape(9, 1)
        S = FreqSet.from_indices(shape, [1, 2, 5])
        f = random_bandlimited(shape, S, rng)
        kernel = Signal(shape, np.conj(indicator_spectrum(S).values))
        repro = 9**-0.5 * convolve_oracle(f, kernel)
        assert np.allclose(repro, f.values, atol=1e-9 * max(1, np.abs(f.values).max()))


class TestSupport:
    def test_bandlimited_support_contained(self):
        rng = np.random.default_rng(13)
        shape = GridShape(4, 2)
        S = FreqSet.from_indices(shape, [0, 3, 7, 9])
        f = random_bandlimited(shape, S, rng)
        supp = support(forward(f))
        assert np.isin(supp.members, S.members).all()

    def test_threshold_scales_with_peak(self):
        shape = GridShape(8, 1)
        values = np.zeros(8, dtype=complex)
        values[2] = 1e6
        values[5] = 1e-5  # below 1e-9 * 1e6 cutoff
        assert support(Spectrum(shape, values)).members.tolist() == [2]

    def test_configurable_tolerance(self):
        # the cutoff is the module constant SUPPORT_RTOL, relative to max(1, peak)
        shape = GridShape(8, 1)
        values = np.zeros(8, dtype=complex)
        values[2] = 1.0
        values[5] = 0.5 * SUPPORT_RTOL
        assert support(Spectrum(shape, values)).members.tolist() == [2]
        values[5] = 2.0 * SUPPORT_RTOL
        assert support(Spectrum(shape, values)).members.tolist() == [2, 5]

    def test_set_operations(self):
        shape = GridShape(6, 1)
        S = FreqSet.from_indices(shape, [1, 2])
        assert negate_indices(S.members, shape).tolist() == [5, 4]
        assert S.symmetrized().members.tolist() == [1, 2, 4, 5]
