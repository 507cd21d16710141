import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from znsynth.errors import BoundViolation, SupportViolation
from znsynth.fourier import FreqSet, Signal, Spectrum, forward, indicator_spectrum, inverse
from znsynth.inequalities import (
    bound_holds,
    dual_exponent,
    lp_norm,
    vanishing_threshold,
    verify_indicator_bound,
    verify_support_bound,
)
from znsynth.lattice import GridShape, encode

from helpers import lp_oracle, random_bandlimited, random_signal


class TestDualExponent:
    def test_endpoints(self):
        assert dual_exponent(1) == math.inf
        assert dual_exponent(math.inf) == 1.0
        assert dual_exponent(2) == 2.0

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
    def test_involution(self, p):
        assert dual_exponent(dual_exponent(p)) == p

    def test_holder_pair(self):
        p = 4.0
        q = dual_exponent(p)
        assert 1 / p + 1 / q == pytest.approx(1.0)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            dual_exponent(0.5)


class TestLpNorm:
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
    def test_delta(self, p):
        assert lp_norm(Signal.delta(GridShape(9, 1)), p) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_constant(self, p):
        shape = GridShape(4, 2)
        f = Signal.constant(shape, 1.0)
        assert lp_norm(f, p) == pytest.approx(shape.size ** (1 / p))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        f = random_signal(GridShape(9, 1), rng)
        assert lp_norm(f, 3) == pytest.approx(lp_oracle(f.values, 3), rel=1e-12)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            lp_norm(Signal.delta(GridShape(4, 1)), 0.9)

    def test_rejects_nan_exponent(self):
        with pytest.raises(ValueError, match="exponent must satisfy p >= 1, got nan"):
            lp_norm(np.ones(4), math.nan)

    def test_zero_signal(self):
        f = Signal(GridShape(4, 1), np.zeros(4))
        assert lp_norm(f, 2) == 0.0
        assert lp_norm(f, math.inf) == 0.0


def _subspace_h(shape: GridShape) -> FreqSet:
    # H = {(x, 0)}: the 1-dim coordinate subgroup of an NxN grid
    return FreqSet.from_indices(
        shape, (encode((x, 0), shape) for x in range(shape.modulus))
    )


class TestSupportBound:
    def test_point_mass_full_set_is_tight(self):
        shape = GridShape(6, 1)
        report = verify_support_bound(Signal.delta(shape), FreqSet.full(shape), 2)
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(1.0)
        assert report.slack_ratio == pytest.approx(1.0)

    def test_subspace_transform_is_tight_at_p2(self):
        # f = transform of 1H on Z_4^2; spectrum lives exactly on H.
        # By hand: ||f||_inf = 1, ||f||_2 = 2, coefficient sqrt(4/16) = 1/2.
        shape = GridShape(4, 2)
        H = _subspace_h(shape)
        f = indicator_spectrum(H)
        report = verify_support_bound(f, H, 2)
        assert report.lhs == pytest.approx(1.0, rel=1e-12)
        assert report.rhs == pytest.approx(1.0, rel=1e-12)
        assert report.slack_ratio == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_random_sweep_theorem_regime(self, p):
        rng = np.random.default_rng(100 + int(10 * p))
        for _ in range(100):
            shape = GridShape(int(rng.integers(2, 9)), int(rng.integers(1, 3)))
            size = int(rng.integers(1, shape.size + 1))
            S = FreqSet(shape, rng.choice(shape.size, size=size, replace=False))
            f = random_bandlimited(shape, S, rng)
            report = verify_support_bound(f, S, p)
            assert report.slack_ratio >= 1 - 1e-9

    def test_stated_coefficient_fails_below_two(self):
        # point mass, S = everything, p = 1: rhs = N^(-d/2) < 1 = lhs
        from znsynth.errors import BoundViolation

        shape = GridShape(4, 1)
        with pytest.raises(BoundViolation):
            verify_support_bound(Signal.delta(shape), FreqSet.full(shape), 1)

    @pytest.mark.parametrize("p", [1, 1.25, 1.5, 2])
    def test_corrected_low_exponent_coefficient_holds(self, p):
        # for p <= 2 the provable form is ||f||_inf <= |S|^(1/2) N^(-d/2) ||f||_p
        rng = np.random.default_rng(int(100 * p))
        for _ in range(100):
            shape = GridShape(int(rng.integers(2, 9)), int(rng.integers(1, 3)))
            size = int(rng.integers(1, shape.size + 1))
            S = FreqSet(shape, rng.choice(shape.size, size=size, replace=False))
            f = random_bandlimited(shape, S, rng)
            lhs = lp_norm(f, math.inf)
            rhs = math.sqrt(size) * shape.size**-0.5 * lp_norm(f, p)
            assert lhs <= rhs * (1 + 1e-9)

    def test_rejects_infinite_p(self):
        shape = GridShape(4, 1)
        with pytest.raises(ValueError):
            verify_support_bound(Signal.delta(shape), FreqSet.full(shape), math.inf)

    def test_support_violation_names_frequencies(self):
        shape = GridShape(8, 1)
        f = inverse(Spectrum(shape, np.eye(1, 8, 3).ravel()))  # spectrum at {3}
        with pytest.raises(SupportViolation) as err:
            verify_support_bound(f, FreqSet.from_indices(shape, [0, 1]), 2)
        assert "3" in str(err.value)

    def test_zero_signal_passes_with_infinite_slack(self):
        shape = GridShape(4, 1)
        f = Signal(shape, np.zeros(4))
        report = verify_support_bound(f, FreqSet.from_indices(shape, [1]), 2)
        assert report.slack_ratio == math.inf

    def test_empty_set_passes_with_infinite_slack(self):
        # only the zero signal has its spectrum in the empty set
        shape = GridShape(4, 1)
        report = verify_support_bound(Signal(shape, np.zeros(4)), FreqSet(shape), 2)
        assert (report.lhs, report.rhs, report.slack_ratio) == (0.0, 0.0, math.inf)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 6])
    def test_rhs_is_the_coefficient_times_the_norm(self, p):
        rng = np.random.default_rng(int(10 * p))
        for _ in range(50):
            shape = GridShape(int(rng.integers(2, 9)), int(rng.integers(1, 3)))
            size = int(rng.integers(1, shape.size + 1))
            S = FreqSet(shape, rng.choice(shape.size, size=size, replace=False))
            f = random_bandlimited(shape, S, rng)
            coeff = math.sqrt(S.size / shape.modulus ** (2.0 * shape.dim / p))
            try:
                rhs = verify_support_bound(f, S, p).rhs
            except BoundViolation:
                continue  # p < 2: the stated coefficient can fail
            assert rhs == coeff * lp_norm(f, p)


class TestIndicatorBound:
    @pytest.mark.parametrize("p", [1, 4 / 3, 2, 4, math.inf])
    def test_subspace_equality_every_p(self, p):
        shape = GridShape(4, 2)
        H = _subspace_h(shape)
        f = indicator_spectrum(H)
        report = verify_indicator_bound(f, H, p)
        assert report.slack_ratio == pytest.approx(1.0, rel=1e-9)

    def test_rejects_nan_exponent(self):
        H = _subspace_h(GridShape(4, 2))
        with pytest.raises(ValueError, match="exponent must satisfy p >= 1, got nan"):
            verify_indicator_bound(indicator_spectrum(H), H, math.nan)

    def test_flat_spectrum_point_set(self):
        # f with spectrum = delta at 0: both sides equal N^(-d/2)
        shape = GridShape(8, 1)
        F = np.zeros(8, dtype=complex)
        F[0] = 1.0
        f = inverse(Spectrum(shape, F))
        report = verify_indicator_bound(f, FreqSet.from_indices(shape, [0]), 2)
        assert report.lhs == pytest.approx(8**-0.5, rel=1e-12)
        assert report.rhs == pytest.approx(8**-0.5, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 6, math.inf])
    def test_random_sweep(self, p):
        rng = np.random.default_rng(hash(p) % 2**32)
        for _ in range(80):
            shape = GridShape(int(rng.integers(2, 9)), int(rng.integers(1, 3)))
            size = int(rng.integers(1, shape.size + 1))
            S = FreqSet(shape, rng.choice(shape.size, size=size, replace=False))
            f = random_bandlimited(shape, S, rng)
            assert verify_indicator_bound(f, S, p).slack_ratio >= 1 - 1e-9


class TestVanishingThreshold:
    def test_critical_size_gives_one(self):
        # |S| = N^(2d/p) exactly
        assert vanishing_threshold(16, GridShape(16, 1), 2) == pytest.approx(1.0)
        assert vanishing_threshold(9, GridShape(9, 2), 4) == pytest.approx(1.0)

    def test_hand_value(self):
        assert vanishing_threshold(4, GridShape(16, 1), 2) == pytest.approx(0.5)

    def test_subcritical_decay_is_monotone(self):
        # alpha = 1/2, p = 1.5 < 2d/alpha = 4: strictly decreasing in N
        values = [
            vanishing_threshold(math.ceil(n**0.5), GridShape(n, 1), 1.5)
            for n in (8, 16, 32, 64)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_critical_exponent_does_not_decay(self):
        values = [
            vanishing_threshold(n, GridShape(n, 1), 2) for n in (8, 16, 32, 64)
        ]
        assert all(v == pytest.approx(1.0) for v in values)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            vanishing_threshold(4, GridShape(8, 1), math.inf)
        with pytest.raises(ValueError):
            vanishing_threshold(0, GridShape(8, 1), 2)

    def test_rejects_nan_exponent(self):
        with pytest.raises(ValueError):
            vanishing_threshold(4, GridShape(8, 1), math.nan)

    _GRID = [
        (s, n, d, p)
        for s in (1, 2, 3, 5, 17, 100)
        for n in (2, 3, 8, 9, 16, 31, 64, 1024)
        for d in (1, 2, 3)
        for p in (1, 1.1, 1.25, 4 / 3, 1.5, 2, 2.5, 3, 4, 6, 7.5)
    ]

    def test_is_the_support_size_expression_bit_for_bit(self):
        for s, n, d, p in self._GRID:
            expected = math.sqrt(s / n ** (2.0 * d / p))
            assert vanishing_threshold(s, GridShape(n, d), p) == expected, (s, n, d, p)

    def test_agrees_with_the_product_form(self):
        for s, n, d, p in self._GRID:
            product = math.sqrt(s) * n ** (-d / p)
            value = vanishing_threshold(s, GridShape(n, d), p)
            assert value == pytest.approx(product, rel=1e-12, abs=0), (s, n, d, p)


class TestIndicatorDualNormBound:
    """||1S_hat||_p' <= |S|^(1/2) N^(d/p' - d/2) for p >= 2, so that p' <= 2.

    Plancherel gives ||1S_hat||_2 = |S|^(1/2); norm comparison on counting
    measure does the rest.
    """

    @staticmethod
    def bound(S, p):
        q = dual_exponent(p)
        return math.sqrt(S.size) * S.shape.modulus ** (S.shape.dim * (1 / q - 1 / 2))

    def test_origin_plancherel(self):
        S = FreqSet.from_indices(GridShape(8, 1), [0])
        assert self.bound(S, 2) == pytest.approx(1.0)
        assert lp_norm(indicator_spectrum(S), 2) == pytest.approx(1.0)

    def test_full_line_at_p_infinity(self):
        shape = GridShape(8, 1)
        S = FreqSet.full(shape)
        bound = self.bound(S, math.inf)  # p' = 1
        assert bound == pytest.approx(8.0)
        measured = lp_norm(indicator_spectrum(S), 1)
        assert measured == pytest.approx(math.sqrt(8))
        assert measured <= bound

    def test_random_sets(self):
        rng = np.random.default_rng(21)
        shape = GridShape(4, 2)
        for _ in range(200):
            S = FreqSet(shape, rng.choice(16, size=4, replace=False))
            measured = lp_norm(indicator_spectrum(S), dual_exponent(4))  # p' = 4/3
            assert bound_holds(measured, self.bound(S, 4))


class TestNormNesting:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.sampled_from([2.5, 3.0, 4.0, 6.0]))
    def test_high_exponent_chain(self, seed, p):
        # ||f||_2 <= N^(d(1/2 - 1/p)) ||f||_p for p >= 2
        shape = GridShape(6, 1)
        f = random_signal(shape, np.random.default_rng(seed))
        lhs = lp_norm(f, 2)
        rhs = shape.size ** (0.5 - 1 / p) * lp_norm(f, p)
        assert lhs <= rhs * (1 + 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.sampled_from([1.0, 1.25, 1.5, 2.0]))
    def test_low_exponent_chain(self, seed, p):
        # ||f||_2 <= ||f||_p for p <= 2 (counting measure)
        f = random_signal(GridShape(6, 1), np.random.default_rng(seed))
        assert lp_norm(f, 2) <= lp_norm(f, p) * (1 + 1e-10)


class TestUncertaintyEquality:
    def test_subspace_support_product(self):
        from znsynth.fourier import support

        shape = GridShape(4, 2)
        H = _subspace_h(shape)
        supp = support(forward(Signal(shape, H.indicator())))
        assert supp.size * H.size == shape.size
