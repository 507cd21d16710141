import math
import warnings

import numpy as np
import pytest

from znsynth import constructions
from znsynth.constructions import (
    SubspaceSpec,
    empirical_lambda_constant,
    hayes_tail_bound,
    hayes_tail_experiment,
    indicator_signal_norm_bound,
    lambda_constant_check,
    lambda_p_search,
    normalized_indicator_norms,
    normalized_indicator_signal,
    phi,
    random_set,
    rejection_sample_flat,
    rejection_sample_small_norm,
    subspace_pair,
)
from znsynth.errors import SamplingBudgetExceeded
from znsynth.fourier import FreqSet, forward, indicator_spectrum, support
from znsynth.inequalities import dual_exponent, lp_norm, verify_indicator_bound
from znsynth.lattice import GridShape, encode, negate_indices
from znsynth.rng import spawn_generators

from helpers import complex_indicator_norms


class TestRandomSet:
    def test_full_size_is_whole_grid(self):
        shape = GridShape(5, 2)
        S = random_set(shape, shape.size, seed=0)
        assert S.members.tolist() == list(range(25))

    def test_deterministic_in_seed(self):
        shape = GridShape(16, 1)
        a = random_set(shape, 5, seed=123)
        b = random_set(shape, 5, seed=123)
        assert np.array_equal(a.members, b.members)

    def test_single_point_uniformity(self):
        # 10^4 seeds, one point each: every cell within 5 sigma of uniform
        shape = GridShape(8, 1)
        counts = np.zeros(8)
        for seed in range(10_000):
            counts[random_set(shape, 1, seed=seed).members[0]] += 1
        expected = 10_000 / 8
        sigma = math.sqrt(10_000 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expected) <= 5 * sigma)

    @pytest.mark.parametrize("size", [0, 26])
    def test_size_range(self, size):
        with pytest.raises(ValueError):
            random_set(GridShape(5, 2), size, seed=0)


class TestPhi:
    def test_full_line_vanishes(self):
        shape = GridShape(12, 1)
        assert phi(FreqSet.full(shape)).phi < 1e-9

    def test_two_points_in_z4(self):
        stat = phi(FreqSet.from_indices(GridShape(4, 1), [0, 1]))
        assert stat.phi == pytest.approx(math.sqrt(2), rel=1e-12)
        assert stat.arg_max == (1,)
        assert stat.set_size == 2

    def test_coordinate_subspace_peaks_at_annihilator(self):
        shape = GridShape(4, 2)
        H = FreqSet.from_indices(shape, [encode((x, 0), shape) for x in range(4)])
        stat = phi(H)
        assert stat.phi == pytest.approx(4.0, rel=1e-12)
        # ties at (0,1), (0,2), (0,3); smallest linear index wins
        assert stat.arg_max == (0, 1)

    def test_trivial_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            S = random_set(GridShape(9, 1), int(rng.integers(1, 9)), seed=rng)
            assert phi(S).phi <= S.size + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        for shape in (GridShape(12, 1), GridShape(5, 2)):
            S = random_set(shape, 4, seed=rng)
            coords = np.stack(np.unravel_index(S.members, shape.axes), axis=1)
            for shift in range(1, 4):
                t = np.full(shape.dim, shift)
                moved = np.ravel_multi_index(
                    tuple(((coords + t) % shape.modulus).T), shape.axes
                )
                translated = FreqSet(shape, moved)
                assert phi(translated).phi == pytest.approx(phi(S).phi, abs=1e-9)

    def test_complement_matches_on_line(self):
        rng = np.random.default_rng(4)
        shape = GridShape(16, 1)
        for _ in range(10):
            S = random_set(shape, int(rng.integers(1, 16)), seed=rng)
            if S.size == shape.size:
                continue
            assert phi(S.complement()).phi == pytest.approx(phi(S).phi, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phi(FreqSet(GridShape(4, 1)))


class TestHayesTail:
    def test_zero_threshold_certain(self):
        report = hayes_tail_experiment(GridShape(16, 1), 4, a=0.0, trials=50, seed=0)
        assert report.empirical == 1.0
        assert report.bound == 1.0

    def test_above_trivial_bound_never(self):
        report = hayes_tail_experiment(GridShape(16, 1), 4, a=4.5, trials=50, seed=0)
        assert report.empirical == 0.0

    @pytest.mark.parametrize("size", [0, 26])
    def test_size_range(self, size):
        with pytest.raises(ValueError):
            hayes_tail_experiment(GridShape(5, 2), size, a=1.0, trials=4, seed=0)

    def test_bound_formula(self):
        assert hayes_tail_bound(64, 16, 8.0) == pytest.approx(
            2 * 64 * math.e**2 * math.exp(-64 / 16)
        )

    def test_mini_tail_run(self):
        report = hayes_tail_experiment(
            GridShape(64, 1), 16, a=16**0.75, trials=200, seed=7
        )
        assert report.passed
        assert 0.0 <= report.empirical <= 1.0

    # Pinned from the one-FFT-per-trial implementation; the batched blocks
    # must reproduce it exactly.  The 64x1 case ends on a partial block.
    @pytest.mark.parametrize("args, workers, expected", [
        ((GridShape(32, 2), 16, 12.0, 300, 3), 1, 0.023333333333333334),
        ((GridShape(64, 1), 16, 16**0.75, 257, 5), 2, 0.16342412451361868),
        ((GridShape(4, 3), 5, 4.0, 97, 2), 3, 0.7628865979381443),
    ])
    def test_golden_empirical(self, args, workers, expected):
        assert hayes_tail_experiment(*args, workers=workers).empirical == expected

    def test_worker_count_does_not_change_result(self):
        kwargs = dict(shape=GridShape(32, 1), size=8, a=5.0, trials=64, seed=11)
        a = hayes_tail_experiment(**kwargs, workers=1)
        b = hayes_tail_experiment(**kwargs, workers=4)
        assert a.empirical == b.empirical


class TestNormalizedIndicatorSignal:
    def test_origin_value_and_sup(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            shape = GridShape(int(rng.integers(3, 17)), 1)
            S = random_set(shape, int(rng.integers(1, shape.size + 1)), seed=rng)
            f = normalized_indicator_signal(S)
            assert f.values[0] == pytest.approx(1.0, abs=1e-12)
            assert lp_norm(f, math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_origin_set_gives_constant_one(self):
        f = normalized_indicator_signal(FreqSet.from_indices(GridShape(8, 1), [0]))
        assert np.allclose(f.values, 1.0, atol=1e-12)

    def test_spectrum_sits_exactly_on_s(self):
        shape = GridShape(9, 1)
        S = FreqSet.from_indices(shape, [1, 2, 5])
        F = forward(normalized_indicator_signal(S))
        assert support(F).members.tolist() == [1, 2, 5]
        assert np.allclose(F.values[S.members], shape.size**0.5 / S.size, atol=1e-12)


class TestNormalizedIndicatorNorms:
    """The real-transform norms against the complex signal's lp_norm."""

    @pytest.mark.parametrize("n, d", [(16, 1), (17, 1), (2, 1), (8, 2), (9, 2), (4, 3), (5, 3)])
    def test_matches_complex_route(self, n, d):
        shape = GridShape(n, d)
        rng = np.random.default_rng(n * 10 + d)
        for size in (1, 2, shape.size // 3 or 1, shape.size):
            S = random_set(shape, size, seed=rng)
            for p in (1, 1.2, 2, 4, 5, 30):
                got = normalized_indicator_norms(S, p)
                assert got == pytest.approx(complex_indicator_norms(S, p), rel=1e-12)

    @pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
    def test_rejects_bad_exponent(self, p):
        S = FreqSet.from_indices(GridShape(8, 1), [1, 2])
        with pytest.raises(ValueError, match="finite p >= 1"):
            normalized_indicator_norms(S, p)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError, match="non-empty"):
            normalized_indicator_norms(FreqSet(GridShape(8, 1)), 2)

    @pytest.mark.parametrize("shape, size, p, target", [
        (GridShape(64, 1), 8, 5.0, 1.1),
        (GridShape(9, 2), 6, 4.0, 1.43),
        (GridShape(16, 2), 10, 1.2, 28.8),
    ])
    def test_small_norm_sampler_matches_complex_statistic(self, monkeypatch, shape, size, p, target):
        found = [rejection_sample_small_norm(shape, size, p, target, max_draws=100, seed=s)
                 for s in range(4)]
        monkeypatch.setattr(constructions, "normalized_indicator_norms", complex_indicator_norms)
        for s, real in enumerate(found):
            ref = rejection_sample_small_norm(shape, size, p, target, max_draws=100, seed=s)
            assert real.set.members.tolist() == ref.set.members.tolist()
            assert real.draws == ref.draws
            assert real.statistic == pytest.approx(ref.statistic, rel=1e-12)


class TestIndicatorSignalNormBound:
    def test_full_grid_is_tight(self):
        shape = GridShape(8, 1)
        bound = indicator_signal_norm_bound(FreqSet.full(shape), 3)
        assert bound == pytest.approx(1.0, rel=1e-9)

    def test_singleton(self):
        shape = GridShape(8, 1)
        S = FreqSet.from_indices(shape, [3])
        f = normalized_indicator_signal(S)
        assert lp_norm(f, 2) == pytest.approx(8 ** (1 / 2), rel=1e-12)
        assert indicator_signal_norm_bound(S, 2) >= 8 ** (1 / 2)

    def test_random_sets_honor_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            shape = GridShape(int(rng.integers(4, 33)), 1)
            S = random_set(shape, int(rng.integers(1, shape.size + 1)), seed=rng)
            indicator_signal_norm_bound(S, 2.5)  # raises on violation


class TestSubspacePair:
    @pytest.mark.parametrize("n", [4, 8, 9])
    def test_sizes_multiply(self, n):
        shape = GridShape(n, 2)
        H, Hp = subspace_pair(shape, SubspaceSpec(axes=(0,)))
        assert H.size == n and Hp.size == n
        assert H.size * Hp.size == shape.size

    def test_three_dim_split(self):
        shape = GridShape(3, 3)
        H, Hp = subspace_pair(shape, SubspaceSpec(axes=(0, 2)))
        assert H.size == 9 and Hp.size == 3

    def test_transform_constant_on_annihilator(self):
        shape = GridShape(4, 2)
        H, Hp = subspace_pair(shape, SubspaceSpec(axes=(0,)))
        g = indicator_spectrum(H)
        on = g.values[Hp.members]
        assert np.allclose(on, 1.0, atol=1e-12)  # N^(K - d/2) = 1 here
        off = np.delete(g.values, Hp.members)
        assert np.allclose(off, 0.0, atol=1e-12)

    def test_uncertainty_equality(self):
        for n, axes in ((4, (0,)), (8, (1,)), (9, (0,))):
            shape = GridShape(n, 2)
            H, _ = subspace_pair(shape, SubspaceSpec(axes=axes))
            supp = support(forward(indicator_spectrum(H)))
            assert supp.size * H.size == shape.size

    def test_equality_at_every_exponent(self):
        shape = GridShape(8, 2)
        H, Hp = subspace_pair(shape, SubspaceSpec(axes=(1,)))
        for X in (H, Hp):
            f = indicator_spectrum(X)
            for p in (1, 2, 4, math.inf):
                assert verify_indicator_bound(f, X, p).slack_ratio == pytest.approx(
                    1.0, rel=1e-9
                )

    def test_degenerate_warns(self):
        shape = GridShape(4, 2)
        with pytest.warns(UserWarning, match="degenerate"):
            H, Hp = subspace_pair(shape, SubspaceSpec(axes=()))
        assert H.members.tolist() == [0]
        assert Hp.size == shape.size

    def test_bad_axes(self):
        with pytest.raises(ValueError):
            subspace_pair(GridShape(4, 2), SubspaceSpec(axes=(2,)))


class TestRejectionSampling:
    def test_flat_found_on_z32(self):
        found = rejection_sample_flat(GridShape(32, 1), 6, epsilon=0.1,
                                      max_draws=5000, seed=2)
        assert found.statistic <= 6 ** 0.6
        assert found.set.size == 6

    def test_flat_budget_failure_reports_best(self):
        # no 4-subset of Z_16 satisfies phi <= 4^0.6 (exhaustively false),
        # so any budget must fail
        with pytest.raises(SamplingBudgetExceeded, match="best seen"):
            rejection_sample_flat(GridShape(16, 1), 4, epsilon=0.1,
                                  max_draws=50, seed=0)

    def test_small_norm_found_quickly(self):
        shape = GridShape(64, 1)
        found = rejection_sample_small_norm(
            shape, 8, p=5.0, target=2 ** 0.2, max_draws=200, seed=3
        )
        f = normalized_indicator_signal(found.set)
        assert lp_norm(f, 5) <= 2 ** 0.2
        assert lp_norm(f, math.inf) == pytest.approx(1.0, abs=1e-12)


class TestLambdaMachinery:
    def test_single_character_constant_is_one(self):
        shape = GridShape(16, 1)
        S = FreqSet.from_indices(shape, [5])
        c = empirical_lambda_constant(S, 4, trials=16, seed=0)
        assert c == pytest.approx(1.0, abs=1e-10)

    def test_flat_probe_lower_bound(self):
        # the all-equal probe makes the constant dominate the indicator norm
        rng = np.random.default_rng(9)
        shape = GridShape(32, 1)
        for _ in range(10):
            S = random_set(shape, 6, seed=rng)
            c = empirical_lambda_constant(S, 4, trials=8, seed=rng)
            flat_ratio = (
                shape.size ** (-1 / 4)
                * lp_norm(indicator_spectrum(S), 4)
                * shape.size**0.5
                / math.sqrt(S.size)
            )
            assert c >= flat_ratio - 1e-9

    def test_search_rejects_small_p(self):
        with pytest.raises(ValueError):
            lambda_p_search(GridShape(16, 1), 4, p=2.0, budget=1, seed=0)

    def test_search_beats_random_baseline(self):
        shape = GridShape(32, 1)
        size, p = 6, 4.0
        cand = lambda_p_search(shape, size, p, budget=2, seed=5, trials=32)
        baseline = max(
            empirical_lambda_constant(random_set(shape, size, seed=1000 + i), p,
                                      trials=32, seed=2000 + i)
            for i in range(50)
        )
        assert cand.empirical_constant <= baseline + 1e-12

    def test_search_deterministic_and_worker_invariant(self):
        kwargs = dict(shape=GridShape(32, 1), size=6, p=4.0, budget=3, seed=8,
                      trials=16)
        a = lambda_p_search(**kwargs)
        b = lambda_p_search(**kwargs)
        c = lambda_p_search(**kwargs, workers=3)
        assert np.array_equal(a.set.members, b.set.members)
        assert a.empirical_constant == b.empirical_constant
        assert np.array_equal(a.set.members, c.set.members)
        assert a.empirical_constant == c.empirical_constant

    # Pinned from the one-FFT-per-candidate implementation; scoring a swap
    # position in one batch must reproduce it exactly.
    @pytest.mark.parametrize("kwargs, members, constant", [
        (dict(shape=GridShape(64, 1), size=8, p=4.0, budget=4, seed=7),
         [1, 8, 12, 21, 24, 26, 27, 55], 1.1798055308852835),
        (dict(shape=GridShape(8, 2), size=5, p=3.0, budget=2, seed=1, trials=16,
              workers=2),
         [16, 37, 56, 57, 59], 1.0791989858836675),
    ])
    def test_search_golden(self, kwargs, members, constant):
        cand = lambda_p_search(**kwargs)
        assert cand.set.members.tolist() == members
        assert cand.empirical_constant == constant

    def test_search_without_swaps_returns_a_start_set(self):
        # pinned from the one-FFT-per-candidate implementation, where an
        # empty candidate list left each restart's start set unchanged
        shape = GridShape(64, 1)
        cand = lambda_p_search(shape, 8, 4.0, budget=3, seed=7, max_swaps=0)
        starts = [np.sort(g.choice(shape.size, size=8, replace=False)).tolist()
                  for g in spawn_generators(7, 3)]
        assert cand.set.members.tolist() == [3, 12, 17, 36, 39, 46, 49, 55]
        assert cand.set.members.tolist() in starts
        assert cand.empirical_constant == 1.2289754866144895
        with pytest.raises(ValueError):
            lambda_p_search(shape, 8, 4.0, budget=3, seed=7, max_swaps=-1)

    def test_probe_blocks_do_not_change_result(self, monkeypatch):
        kwargs = dict(shape=GridShape(32, 1), size=6, p=4.0, budget=2, seed=8,
                      trials=16)
        a = lambda_p_search(**kwargs)
        monkeypatch.setattr(constructions, "PROBE_BLOCK_POINTS", 1)
        b = lambda_p_search(**kwargs)
        assert np.array_equal(a.set.members, b.set.members)
        assert a.empirical_constant == b.empirical_constant

    def test_certified_constant_passes_indicator_check(self):
        cand = lambda_p_search(GridShape(32, 1), 6, 4.0, budget=2, seed=5, trials=32)
        assert lambda_constant_check(cand.set, 4.0, cand.empirical_constant * 1.01)

    def test_indicator_check_origin_set(self):
        # ||1S_hat||_p for S = {0} equals N^(d/p - d/2); C = 1 is exact
        shape = GridShape(8, 1)
        S = FreqSet.from_indices(shape, [0])
        assert lambda_constant_check(S, 4.0, 1.0)

    def test_indicator_check_annihilator_closed_form(self):
        # S = H_perp on Z_4^2, K = 1: the transform of 1S is the indicator
        # of H with value 1, so ||1S_hat||_4 = 4^(1/4) and the check needs
        # exactly C >= 2 * 4^(-1/4) = sqrt(2)
        shape = GridShape(4, 2)
        _, Hp = subspace_pair(shape, SubspaceSpec(axes=(0,)))
        assert lp_norm(indicator_spectrum(Hp), 4.0) == pytest.approx(4 ** 0.25)
        needed = 2 * 4 ** (-1 / 4)
        assert lambda_constant_check(Hp, 4.0, needed * 1.000001)
        assert not lambda_constant_check(Hp, 4.0, needed * 0.98)

    def test_indicator_norm_product_bound(self):
        # certified sets satisfy ||1S_hat||_p * ||1S_hat||_p' <= C |S|
        cand = lambda_p_search(GridShape(32, 1), 6, 4.0, budget=2, seed=12, trials=32)
        g = indicator_spectrum(cand.set)
        C = cand.empirical_constant * 1.01
        product = lp_norm(g, 4.0) * lp_norm(g, dual_exponent(4.0))
        assert product <= C * cand.set.size * (1 + 1e-9)
