import hashlib
import inspect
import itertools
import math

import numpy as np
import pytest

from znsynth.errors import EnumerationBudgetExceeded, RecoveryError
from znsynth.fourier import FreqSet, Signal, Spectrum, forward
from znsynth.inequalities import lp_norm
from znsynth.lattice import GridShape
from znsynth.recovery import (
    FEASIBILITY_TOL,
    MATCH_TOL,
    RecoveryProblem,
    brute_force_recover,
    feasibility_error,
    free_parameter_count,
    mask_spectrum,
    objective_and_gradient,
    random_instance,
    reconstruction_basis,
    recover,
    separation_check,
    symmetric_hidden_set,
)

from helpers import low_band_problem, reference_descent


def _problem(shape, truth_values, hidden_indices, p, delta=1.0):
    shape = GridShape(*shape)
    truth = Signal(shape, np.asarray(truth_values, dtype=float))
    hidden = FreqSet.from_indices(shape, hidden_indices)
    observed = mask_spectrum(forward(truth), hidden)
    return RecoveryProblem(
        shape=shape, observed=observed, hidden=hidden, p=p, delta=delta
    ), truth


class TestMask:
    def test_single_entry_zeroed(self):
        shape = GridShape(8, 1)
        F = forward(Signal.constant(shape, 2.0))
        masked = mask_spectrum(F, FreqSet.from_indices(shape, [0]))
        assert masked.values[0] == 0.0
        assert np.array_equal(masked.values[1:], F.values[1:])

    def test_all_hidden(self):
        shape = GridShape(4, 1)
        F = forward(Signal.delta(shape))
        masked = mask_spectrum(F, FreqSet.full(shape))
        assert np.all(masked.values == 0.0)

    def test_unmask_round_trip(self):
        shape = GridShape(8, 1)
        rng = np.random.default_rng(0)
        F = forward(Signal(shape, rng.standard_normal(8)))
        S = FreqSet.from_indices(shape, [2, 6])
        masked = mask_spectrum(F, S)
        restored = masked.values.copy()
        restored[S.members] = F.values[S.members]
        assert np.array_equal(restored, F.values)


class TestProblemConstruction:
    def test_symmetrizes_hidden_with_warning(self):
        shape = GridShape(8, 1)
        truth = Signal(shape, np.eye(1, 8, 0).ravel())
        with pytest.warns(UserWarning, match="symmetrized"):
            problem = RecoveryProblem(
                shape=shape,
                observed=forward(truth),
                hidden=FreqSet.from_indices(shape, [1]),
                p=2.0,
                delta=1.0,
            )
        assert problem.hidden.members.tolist() == [1, 7]

    def test_c_size_consistency(self):
        problem, _ = _problem((8, 1), [1, 0, 0, 0, 1, 0, 0, 0], [2, 6], p=2.0)
        k = 2 * 1 / 2.0
        assert problem.k == k
        assert problem.c_size == pytest.approx(2 / 8**k)
        assert problem.threshold == pytest.approx(1 / (2 * math.sqrt(problem.c_size)))

    def test_c_size_two_dimensional(self):
        # |hidden| = c_size * N^k with k = 2d/p; on Z_4^2 at p = 2, k = 2
        shape = GridShape(4, 2)
        truth = Signal(shape, np.eye(1, 16, 5).ravel())
        hidden = FreqSet.from_indices(shape, [1, 3])  # (0,1) and (0,3) pair
        problem = RecoveryProblem(
            shape=shape,
            observed=mask_spectrum(forward(truth), hidden),
            hidden=hidden,
            p=2.0,
            delta=1.0,
        )
        assert problem.k == pytest.approx(2.0)
        assert problem.c_size == pytest.approx(2 / 4**2)
        # the coefficient of the support-size bound is exactly sqrt(c_size)
        assert math.sqrt(2 / 4 ** (2 * 2 / 2.0)) == pytest.approx(
            math.sqrt(problem.c_size)
        )

    def test_rejects_asymmetric_observed(self):
        shape = GridShape(8, 1)
        values = np.zeros(8, dtype=complex)
        values[1] = 1.0 + 1.0j  # no conjugate partner at -1
        with pytest.raises(ValueError, match="conjugate"):
            RecoveryProblem(
                shape=shape,
                observed=Spectrum(shape, values),
                hidden=FreqSet.from_indices(shape, [4]),
                p=2.0,
                delta=1.0,
            )

    def test_rejects_bad_exponent_and_delta(self):
        shape = GridShape(8, 1)
        F = forward(Signal.delta(shape))
        S = FreqSet.from_indices(shape, [4])
        with pytest.raises(ValueError):
            RecoveryProblem(shape=shape, observed=F, hidden=S, p=0.5, delta=1.0)
        with pytest.raises(ValueError):
            RecoveryProblem(shape=shape, observed=F, hidden=S, p=2.0, delta=0.0)
        with pytest.raises(ValueError):
            RecoveryProblem(
                shape=shape, observed=F, hidden=FreqSet(shape), p=2.0, delta=1.0
            )

    @pytest.mark.parametrize("p, delta", [(math.nan, 1.0), (2.0, math.nan)])
    def test_rejects_nan_exponent_and_delta(self, p, delta):
        shape = GridShape(8, 1)
        F = forward(Signal.delta(shape))
        S = FreqSet.from_indices(shape, [4])
        with pytest.raises(ValueError):
            RecoveryProblem(shape=shape, observed=F, hidden=S, p=p, delta=delta)

    def test_threshold_is_delta_over_twice_root_c_size(self):
        problems = [
            random_instance(GridShape(*grid), size, seed=seed)[0]
            for grid, size in (((8, 1), 2), ((16, 1), 3), ((4, 2), 2), ((9, 1), 1))
            for seed in range(5)
        ]
        problems.append(_problem((4, 2), np.eye(1, 16, 5).ravel(), [1, 3], p=2.0,
                                 delta=0.75)[0])
        for problem in problems:
            assert problem.threshold == problem.delta / (2.0 * math.sqrt(problem.c_size))


class TestSeparation:
    def test_binary_nonconstant(self):
        f = Signal(GridShape(8, 1), [0, 1, 0, 0, 1, 0, 0, 0])
        assert separation_check(f, 1.0)

    def test_constant_excluded(self):
        f = Signal.constant(GridShape(8, 1), 1.0)
        assert not separation_check(f, 1.0)

    def test_midpoint_value_fails(self):
        f = Signal(GridShape(4, 1), [0.0, 0.5, 1.0, 0.0])
        assert not separation_check(f, 1.0)

    def test_complex_rejected(self):
        f = Signal(GridShape(4, 1), [0, 1j, 0, 0])
        with pytest.raises(ValueError, match="real"):
            separation_check(f, 1.0)


class TestCertificate:
    """recover's verdict: unique iff the norm is strictly below the threshold.

    On 4x1 with the self-paired frequency 2 hidden, at p = 2, the threshold
    is delta itself (|S| / N^(2d/p) = 1/4).  The truth [1, 0, 1, 0] loses
    its frequency-2 half, so the minimizer is 0.5 everywhere, of norm 1.
    """

    @staticmethod
    def _certificate(truth, delta):
        problem, _ = _problem((4, 1), truth, [2], p=2.0, delta=delta)
        return recover(problem).certificate

    def test_zero_norm(self):
        cert = self._certificate([0, 0, 0, 0], 1.0)
        assert cert.norm_at_solution == 0.0
        assert cert.unique

    def test_boundary_is_excluded(self):
        cert = self._certificate([1, 0, 1, 0], 1.0)
        assert cert.norm_at_solution == cert.threshold == 1.0
        assert not cert.unique

    def test_plain_arithmetic(self):
        cert = self._certificate([1, 0, 1, 0], 1.02)
        assert cert.norm_at_solution == 1.0 < cert.threshold
        assert cert.unique


class TestParameterization:
    def test_every_parameter_vector_is_feasible(self):
        problem, _ = _problem(
            (16, 1), np.eye(1, 16, 3).ravel(), [2, 5, 11, 14], p=2.0
        )
        rng = np.random.default_rng(1)
        t = free_parameter_count(problem)
        assert t == 4  # two free (re, im) pairs
        g0, B = problem.basis
        for _ in range(20):
            g = Signal(problem.shape, g0 + B @ rng.standard_normal(t))
            assert feasibility_error(problem, g) < 1e-12
            assert np.abs(g.values.imag).max() < 1e-12

    def test_self_paired_frequency_single_parameter(self):
        problem, _ = _problem((8, 1), [1, 0, 0, 0, 0, 0, 0, 0], [4], p=2.0)
        assert free_parameter_count(problem) == 1

    def test_basis_is_built_once_and_read_only(self):
        problem, _ = _problem((8, 1), [1, 0, 0, 0, 0, 0, 0, 0], [2, 6], p=2.0)
        g0, B = problem.basis
        assert problem.basis[0] is g0 and problem.basis[1] is B
        for array in (g0, B):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for p in (2.0, 3.0, 4.0):
            problem, _ = _problem(
                (16, 1),
                rng.integers(0, 2, size=16).astype(float),
                [1, 15, 6, 10],
                p=p,
            )
            t = free_parameter_count(problem)
            for _ in range(5):
                v = rng.standard_normal(t)
                obj, grad = objective_and_gradient(problem, v)
                h = 1e-6
                for i in range(t):
                    e = np.zeros(t)
                    e[i] = h
                    num = (
                        objective_and_gradient(problem, v + e)[0]
                        - objective_and_gradient(problem, v - e)[0]
                    ) / (2 * h)
                    assert grad[i] == pytest.approx(num, rel=1e-5, abs=1e-8)

    def test_objective_midpoint_convexity_along_feasible_segments(self):
        rng = np.random.default_rng(3)
        problem, _ = _problem(
            (16, 1), rng.integers(0, 2, size=16).astype(float), [3, 13], p=2.5
        )
        t = free_parameter_count(problem)
        for _ in range(100):
            a = rng.standard_normal(t)
            b = rng.standard_normal(t)
            fa = objective_and_gradient(problem, a)[0]
            fb = objective_and_gradient(problem, b)[0]
            fm = objective_and_gradient(problem, (a + b) / 2)[0]
            assert fm <= (fa + fb) / 2 + 1e-9


class TestBasisDigests:
    """reconstruction_basis's g0 and B bytes, pinned by sha256.

    Each hidden set mixes self-paired members (one cosine column) with
    (m, -m) pairs (a cosine and a sine column), or holds only the former.
    """

    @pytest.mark.parametrize("grid, hidden, digest", [
        ((8, 1), [1, 4, 7],
         "c347f4d4000ff5d7b8bef03d71d76efb6a033c348c74779466775a9200dc54e0"),
        ((16, 1), [2, 5, 8, 11, 14],
         "fa5f0fed7f7cf970bbd870f8ed0528688513a475163abacde978742d41086533"),
        ((9, 1), [0, 2, 7],
         "95059118b0b706816bf1f65111e20cc9c5c522defecfc811e163c4b160f147af"),
        ((4, 2), [2, 5, 8, 15],
         "20a97198da2a101be218daf5c0b4fd49e276c14524441715acd689cdff89b808"),
        ((6, 2), [3, 8, 21, 34],
         "f19a8ecae84a9e53509490f28662b8e91692f5f3aeee2d5373ba2e79940eebf2"),
        ((2, 3), [1, 6],
         "143d8fe376fa23395081df808fb50e9696307e3406482cb469c58d42e134e8b5"),
    ])
    def test_basis_bytes(self, grid, hidden, digest):
        size = GridShape(*grid).size
        truth = np.random.default_rng(size).integers(0, 2, size).astype(float)
        problem, _ = _problem(grid, truth, hidden, p=2.0)
        g0, B = reconstruction_basis(problem)
        # the layout, too: matmuls on an F-ordered B round differently
        assert B.flags.c_contiguous
        h = hashlib.sha256()
        h.update(g0.tobytes())
        h.update(B.tobytes())
        assert h.hexdigest() == digest


class TestRecover:
    def test_verdict_is_read_off_the_reported_threshold(self):
        for seed in range(4):
            problem, _ = random_instance(GridShape(8, 1), 2, seed=seed)
            cert = recover(problem, alphabet=(0.0, 1.0)).certificate
            assert cert.threshold == problem.threshold
            assert cert.unique == (cert.norm_at_solution < cert.threshold)

    def test_pinned_when_hidden_coefficient_is_zero(self):
        # truth has no energy at the hidden frequency: constraints pin all
        truth_values = [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]  # period 4
        problem, truth = _problem((8, 1), truth_values, [1, 7], p=2.0)
        assert abs(forward(truth).values[1]) < 1e-12
        result = recover(problem)
        assert np.allclose(result.signal.values, truth.values, atol=1e-8)
        assert result.converged

    def test_objective_never_exceeds_truth(self):
        problem, truth = _problem(
            (8, 1), [0, 1, 0, 0, 0, 0, 0, 0], [2, 6], p=2.0
        )
        result = recover(problem)
        assert result.objective <= lp_norm(truth, 2.0) + 1e-6

    def test_full_hidden_unrecoverable(self):
        shape = GridShape(4, 1)
        problem = RecoveryProblem(
            shape=shape,
            observed=forward(Signal.delta(shape)),
            hidden=FreqSet.full(shape),
            p=2.0,
            delta=1.0,
        )
        with pytest.raises(RecoveryError, match="hidden"):
            recover(problem)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_rejects_meaningless_tolerance(self, tol):
        problem, _ = random_instance(GridShape(8, 1), 2, seed=1)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            recover(problem, tol=tol, max_iters=50)

    def test_seeded_instances_recover_exactly(self):
        for seed in range(12):
            shape = GridShape(16 if seed % 2 else 8, 1)
            problem, truth = random_instance(shape, 2 + seed % 3, seed=seed)
            result = recover(problem, alphabet=(0.0, 1.0))
            assert result.certificate.unique
            assert np.abs(result.signal.values - truth.values).max() < 1e-6

    def test_two_dimensional_instances_recover_exactly(self):
        for seed in range(6):
            problem, truth = random_instance(GridShape(4, 2), 2, seed=900 + seed)
            result = recover(problem, alphabet=(0.0, 1.0))
            assert np.abs(result.signal.values - truth.values).max() < 1e-6
            oracle = brute_force_recover(problem, (0.0, 1.0))
            assert np.allclose(oracle.signal.values, result.signal.values)

    def test_result_feasible_without_alphabet(self):
        problem, _ = random_instance(GridShape(16, 1), 2, seed=5)
        result = recover(problem)
        assert feasibility_error(problem, result.signal) <= 1e-7
        assert not result.snapped


class TestBruteForce:
    def test_single_constant_alphabet(self):
        shape = GridShape(4, 1)
        truth = Signal.constant(shape, 2.0)
        problem = RecoveryProblem(
            shape=shape,
            observed=mask_spectrum(forward(truth), FreqSet.from_indices(shape, [2])),
            hidden=FreqSet.from_indices(shape, [2]),
            p=2.0,
            delta=1.0,
        )
        result = brute_force_recover(problem, [2.0])
        assert result.feasible_count == 1
        assert not result.ambiguous
        assert np.allclose(result.signal.values, 2.0)

    def test_every_frequency_hidden(self):
        shape = GridShape(4, 1)
        problem = RecoveryProblem(
            shape=shape,
            observed=forward(Signal.delta(shape)),
            hidden=FreqSet.from_indices(shape, [0, 1, 2, 3]),
            p=2.0,
            delta=1.0,
        )
        with pytest.raises(RecoveryError, match="every frequency is hidden"):
            brute_force_recover(problem, (0.0, 1.0))

    def test_budget_guard(self):
        problem, _ = _problem((16, 1), np.zeros(16), [8], p=2.0)
        with pytest.raises(EnumerationBudgetExceeded):
            brute_force_recover(problem, [0.0, 1.0, 2.0, 3.0], budget=1000)

    def test_matches_solver_on_valid_instances(self):
        for seed in range(8):
            problem, truth = random_instance(GridShape(8, 1), 2, seed=100 + seed)
            solved = recover(problem, alphabet=(0.0, 1.0))
            oracle = brute_force_recover(problem, (0.0, 1.0))
            assert np.allclose(oracle.signal.values, solved.signal.values, atol=1e-9)
            assert not oracle.ambiguous

    def test_ambiguity_on_threshold_violator(self):
        # 1 on evens vs 1 on odds: spectra differ only at frequency N/2,
        # both binary, both separated, equal norms -> a genuine tie
        shape = GridShape(8, 1)
        evens = Signal(shape, (np.arange(8) % 2 == 0).astype(float))
        odds = Signal(shape, (np.arange(8) % 2 == 1).astype(float))
        hidden = FreqSet.from_indices(shape, [4])
        assert np.allclose(
            mask_spectrum(forward(evens), hidden).values,
            mask_spectrum(forward(odds), hidden).values,
            atol=1e-12,
        )
        problem = RecoveryProblem(
            shape=shape,
            observed=mask_spectrum(forward(evens), hidden),
            hidden=hidden,
            p=2.0,
            delta=1.0,
        )
        # the instance must violate the uniqueness threshold
        assert not lp_norm(evens, 2.0) < problem.threshold
        result = brute_force_recover(problem, (0.0, 1.0))
        assert result.ambiguous
        assert result.feasible_count >= 2

    def test_difference_chain_on_the_tie(self):
        # h = evens - odds is hidden-band-limited with ||h||_inf >= delta,
        # which forces at least one candidate to the threshold or above
        shape = GridShape(8, 1)
        evens = Signal(shape, (np.arange(8) % 2 == 0).astype(float))
        odds = Signal(shape, (np.arange(8) % 2 == 1).astype(float))
        h = Signal(shape, evens.values - odds.values)
        supp = [int(i) for i in np.nonzero(np.abs(forward(h).values) > 1e-9)[0]]
        assert supp == [4]
        assert np.abs(h.values).max() >= 1.0
        c_size = 1 / 8 ** (2 * 1 / 2.0)
        threshold = 1.0 / (2 * math.sqrt(c_size))
        assert max(lp_norm(evens, 2.0), lp_norm(odds, 2.0)) >= threshold


class TestAlphabetDecode:
    def test_enumeration_matches_exhaustive_oracle(self):
        from znsynth.recovery import alphabet_candidates

        for seed in range(10):
            problem, _ = random_instance(
                GridShape(8, 1), 2 + seed % 3, seed=300 + seed, well_posed=False
            )
            cands = alphabet_candidates(problem, (0.0, 1.0))
            oracle = brute_force_recover(problem, (0.0, 1.0))
            assert len(cands) == oracle.feasible_count

    def test_decode_handles_far_continuous_minimizer(self):
        # at small exponents the continuous minimizer can sit more than
        # half a level from the truth; the enumeration still decodes it
        from znsynth.recovery import alphabet_candidates

        problem, truth = random_instance(
            GridShape(8, 1), 3, seed=70_004, well_posed=False
        )
        assert len(alphabet_candidates(problem, (0.0, 1.0))) == 1
        result = recover(problem, alphabet=(0.0, 1.0))
        assert np.abs(result.signal.values - truth.values).max() < 1e-9

    def test_budget_falls_back_to_none(self):
        from znsynth.recovery import alphabet_candidates

        problem, _ = random_instance(GridShape(16, 1), 4, seed=1, well_posed=False)
        assert alphabet_candidates(problem, (0.0, 1.0), limit=2) is None

    def test_tie_instance_yields_two_candidates(self):
        from znsynth.recovery import alphabet_candidates

        shape = GridShape(8, 1)
        evens = Signal(shape, (np.arange(8) % 2 == 0).astype(float))
        hidden = FreqSet.from_indices(shape, [4])
        problem = RecoveryProblem(
            shape=shape,
            observed=mask_spectrum(forward(evens), hidden),
            hidden=hidden,
            p=2.0,
            delta=1.0,
        )
        assert len(alphabet_candidates(problem, (0.0, 1.0))) == 2


class TestLowBandPaths:
    """The p = 1 subgradient loop and the rounding fallback, pinned on 64x1.

    random_instance never reaches the fallback with the binary alphabet, so
    these instances are built by hand (see helpers.low_band_problem).
    """

    def test_subgradient_loop_is_pinned(self):
        problem, _ = low_band_problem(1.0)
        result = recover(problem, max_iters=200)
        assert result.objective == 1.2853301576626757
        assert result.iterations == 200
        assert result.converged is False
        assert feasibility_error(problem, result.signal) <= FEASIBILITY_TOL

    def test_rounding_fallback_decodes_the_point_mass(self):
        from znsynth.recovery import alphabet_candidates

        problem, truth = low_band_problem(2.0)
        assert alphabet_candidates(problem, (0.0, 1.0)) is None
        result = recover(problem, alphabet=(0.0, 1.0))
        assert result.snapped is True
        assert np.array_equal(result.signal.values, truth.values)
        assert result.certificate.unique is True

    def test_infeasible_rounding_returns_the_raw_minimizer(self):
        problem, _ = low_band_problem(2.0, (np.arange(64) < 8).astype(float))
        result = recover(problem, alphabet=(0.0, 1.0))
        assert result.snapped is False
        assert np.array_equal(result.signal.values, recover(problem).signal.values)


class TestInstanceGeneration:
    def test_well_posed_instances_are_unique(self):
        from znsynth.recovery import alphabet_candidates

        for seed in range(8):
            problem, _ = random_instance(GridShape(8, 1), 4, seed=500 + seed)
            assert len(alphabet_candidates(problem, (0.0, 1.0))) == 1

    def test_symmetric_hidden_set_sizes(self):
        shape = GridShape(16, 1)
        for size in (2, 3, 4):
            S = symmetric_hidden_set(shape, size, seed=size)
            assert S.size == size
            assert S.symmetrized().members.tolist() == S.members.tolist()

    def test_odd_size_on_odd_modulus_uses_the_fixed_point(self):
        # Z_9 has one self-paired frequency (0), so size 3 needs 0 plus a pair
        shape = GridShape(9, 1)
        S = symmetric_hidden_set(shape, 3, seed=0)
        assert S.symmetrized().members.tolist() == S.members.tolist()
        assert 0 in S.members.tolist()

    def test_impossible_size_raises(self):
        # more elements than the grid has
        with pytest.raises(ValueError):
            symmetric_hidden_set(GridShape(9, 1), 10, seed=0)

    def test_instances_satisfy_threshold(self):
        for seed in range(10):
            problem, truth = random_instance(GridShape(16, 1), 3, seed=seed)
            assert lp_norm(truth, problem.p) < problem.threshold
            assert separation_check(truth, problem.delta)


class TestInstanceInputs:
    @pytest.mark.parametrize("kwargs", [
        {"delta": 0.0},
        {"delta": -1.0},
        {"p_grid": (math.inf,)},
        {"p_grid": (0.5,)},
        {"p_grid": ()},
        {"hidden_size": 0},
    ])
    def test_rejected_before_the_first_draw(self, kwargs):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        args = {"shape": GridShape(8, 1), "hidden_size": 2, "seed": rng, **kwargs}
        with pytest.raises(ValueError):
            random_instance(**args)
        assert rng.bit_generator.state == state

    def test_failure_says_why_each_draw_was_rejected(self):
        with pytest.raises(RecoveryError) as err:
            random_instance(GridShape(8, 1), 4, seed=175, max_tries=8)
        assert str(err.value) == (
            "no instance satisfying the uniqueness threshold found in 8 draws "
            "(grid 8x1, hidden size 4): 1 not separated, 6 with no admissible "
            "exponent, 1 ambiguous; smallest norm / limit 0.905724"
        )

    def test_failure_without_a_separated_draw(self):
        with pytest.raises(RecoveryError, match="5 not separated, 0 with no "
                           "admissible exponent, 0 ambiguous; smallest norm / "
                           "limit none"):
            random_instance(GridShape(8, 1), 2, seed=0, delta=5.0, max_tries=5)


def _instances_digest(instances) -> str:
    """sha256 over p, delta, hidden members, observed and truth of each instance.

    A None instance (a draw that raised RecoveryError) hashes as a marker.
    """
    h = hashlib.sha256()
    for instance in instances:
        if instance is None:
            h.update(b"RecoveryError")
            continue
        problem, truth = instance
        h.update(f"{problem.p.hex()} {problem.delta.hex()}".encode())
        h.update(problem.hidden.members.tobytes())
        h.update(problem.observed.values.tobytes())
        h.update(truth.values.tobytes())
    return h.hexdigest()


def _instance_or_none(*args, **kwargs):
    try:
        return random_instance(*args, **kwargs)
    except RecoveryError:
        return None


class TestGoldenInstances:
    """random_instance and symmetric_hidden_set outputs, pinned by digest.

    Gate 7 and the benchmark solve these draws, so any change to the
    generator calls or the threshold test shows here as a new digest.
    """

    def test_gate_7_instances(self):
        draws = (
            random_instance(GridShape(8 if i % 2 == 0 else 16, 1), 2 + i % 3,
                            seed=70_000 + i)
            for i in range(100)
        )
        assert _instances_digest(draws) == (
            "cccd31d2f486a1c53cb8fd4dcb1696901ca121e894b8a31c264c9bbd7ee8aa28"
        )

    def test_ill_posed_8x1_instances(self):
        draws = (
            random_instance(GridShape(8, 1), 2 + seed % 3, seed=seed, well_posed=False)
            for seed in range(90_000, 90_100)
        )
        assert _instances_digest(draws) == (
            "7d9270e50f5702c33e18d5011b763ae696e29b933903e6a98999d4fa440c9af4"
        )

    @pytest.mark.parametrize("alphabet, digest", [
        ((0.0, 1.0, 2.0), "59a0110fe16cfb796bddd1e029adcdfb39721373a7d6b10dc49980df8e4f7dd9"),
        ((-1.0, 0.5, 3.0), "403a8a7b7d75efefca7f80ca276683018cf28619b7422101142fb810c18e2e23"),
    ])
    def test_three_level_alphabets(self, alphabet, digest):
        draws = (
            _instance_or_none(GridShape(*grid), size, seed=seed, alphabet=alphabet,
                              well_posed=seed % 2 == 0)
            for grid in ((4, 2), (9, 1))
            for size in (1, 2)
            for seed in range(3)
        )
        assert _instances_digest(draws) == digest

    @pytest.mark.parametrize("grid, size, seed, members", [
        ((16, 1), 3, 0, [6, 8, 10]),
        ((9, 1), 3, 1, [0, 2, 7]),
        ((4, 2), 4, 2, [1, 3, 4, 12]),
        ((8, 1), 1, 3, [4]),
        ((5, 2), 5, 4, [0, 10, 14, 15, 16]),
        ((6, 3), 6, 5, [6, 21, 30, 102, 108, 150]),
    ])
    def test_hidden_set_members(self, grid, size, seed, members):
        assert symmetric_hidden_set(GridShape(*grid), size, seed).members.tolist() == members


class TestGoldenEnumerations:
    """Exact outputs of the two enumerators on fixed instances, compared with ==."""

    def test_oracle_on_unique_16x1_instance(self):
        problem, _ = random_instance(GridShape(16, 1), 3, seed=5)
        assert problem.p == 1.3
        assert problem.hidden.members.tolist() == [5, 8, 11]
        result = brute_force_recover(problem, (0.0, 1.0))
        assert result.signal.values.real.tolist() == [
            1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0
        ]
        assert result.objective == 2.3281789044302967
        assert result.feasible_count == 1
        assert result.ambiguous is False
        assert result.runner_up_gap is None

    def test_binary_ambiguous_instance(self):
        from znsynth.recovery import alphabet_candidates

        problem, _ = random_instance(
            GridShape(8, 1), 3, seed=90008, well_posed=False
        )
        assert problem.p == 1.5
        assert problem.hidden.members.tolist() == [0, 2, 6]
        cands = alphabet_candidates(problem, (0.0, 1.0))
        assert [c.values.real.tolist() for c in cands] == [
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 1, 1, 1, 0, 1, 1],
            [0, 1, 1, 0, 1, 1, 1, 0],
        ]
        oracle = brute_force_recover(problem, (0.0, 1.0))
        assert oracle.signal.values.real.tolist() == [0, 0, 0, 0, 1, 0, 0, 0]
        assert oracle.objective == 1.0
        assert oracle.feasible_count == 3
        assert oracle.ambiguous is False
        assert oracle.runner_up_gap == 1.924017738212866

    def test_three_level_ambiguous_instance(self):
        from znsynth.recovery import alphabet_candidates

        alphabet = (0.0, 1.0, 2.0)
        problem, _ = random_instance(
            GridShape(8, 1), 2, seed=0, alphabet=alphabet, well_posed=False
        )
        assert problem.p == 1.1
        assert problem.hidden.members.tolist() == [0, 4]
        cands = alphabet_candidates(problem, alphabet)
        assert [c.values.real.tolist() for c in cands] == [
            [0, 0, 0, 0, 2, 0, 0, 0],
            [0, 1, 0, 1, 2, 1, 0, 1],
            [0, 2, 0, 2, 2, 2, 0, 2],
        ]
        oracle = brute_force_recover(problem, alphabet)
        assert oracle.objective == 2.0
        assert oracle.feasible_count == 3
        assert oracle.runner_up_gap == 3.208884275408767

    @pytest.mark.parametrize("hidden_size, seed, alphabet", [
        (3, 90008, (0.0, 1.0)), (2, 0, (0.0, 1.0, 2.0)),
    ])
    def test_candidates_do_not_depend_on_block_size(
        self, monkeypatch, hidden_size, seed, alphabet
    ):
        from znsynth import recovery

        problem, _ = random_instance(
            GridShape(8, 1), hidden_size, seed=seed, alphabet=alphabet, well_posed=False
        )
        whole = recovery.alphabet_candidates(problem, alphabet)
        monkeypatch.setattr(recovery, "CANDIDATE_BLOCK_POINTS", 1)  # a row per block
        blocked = recovery.alphabet_candidates(problem, alphabet)
        assert len(whole) == 3
        assert [c.values.tolist() for c in blocked] == [c.values.tolist() for c in whole]


class TestGoldenDescent:
    """Exact outputs of the descent alone (no alphabet) on fixed instances.

    At p = 2 the minimum-energy completion is already the minimizer, so that
    descent stops at its first gradient check; the others take Armijo steps,
    and one runs into the iteration cap.
    """

    @pytest.mark.parametrize(
        "grid, hidden_size, seed, p, objective, iterations, converged, digest",
        [
            ((9, 1), 1, 2, 2.0, "0x1.3f49c0b9ad4dbp+0", 1, True,
             "98b3e44661a1555333db2d6ce2b609d7"),
            ((8, 1), 1, 5, 2.5, "0x1.bae93665f3b07p-1", 188, True,
             "b332ebe266cd5232fd2f1a6ef6b3e78f"),
            ((16, 1), 3, 0, 1.5, "0x1.803dd25d1a777p+0", 40, True,
             "984bbf82d134165b1c7af7bbcbb52d7b"),
            ((16, 1), 4, 2, 1.9, "0x1.c7f1bb20b37c8p-1", 14, True,
             "f1318a323e35cfd311e8441d956010c9"),
            ((8, 1), 2, 2, 1.3, "0x1.b1c551b020df5p+0", 544, True,
             "9bcebe703599fc1929109242c0a50c2e"),
            ((8, 1), 3, 2, 1.1, "0x1.e0bb5ce40f81dp+0", 38, True,
             "b694b8179a1a741b525d3cd9fc967624"),
            ((16, 1), 2, 0, 1.1, "0x1.1471ad6a83c8fp+2", 1000, False,
             "20bd24030e32b3f1195f17e373ee5c45"),
            ((4, 2), 2, 0, 1.5, "0x1.09a7de978e5ecp+1", 13, True,
             "e47e8feee6e8bca3d81896d9541e956e"),
            ((4, 2), 3, 3, 1.3, "0x1.29f40f50e1cc6p+1", 20, True,
             "b4a5e99b4b4c294d2d0e7cef6d9be3e3"),
        ],
    )
    def test_descent_is_pinned(
        self, grid, hidden_size, seed, p, objective, iterations, converged, digest
    ):
        problem, _ = random_instance(GridShape(*grid), hidden_size, seed=seed)
        assert problem.p == p
        result = recover(problem, tol=1e-8, max_iters=1000)
        assert result.objective.hex() == objective
        assert result.iterations == iterations
        assert result.converged is converged
        values = result.signal.values.tobytes()
        assert hashlib.sha256(values).hexdigest()[:32] == digest


# every exponent random_instance may pick, 1.5 (a gradient exponent of 0.5) and 2.0 included
DEFAULT_P_GRID = inspect.signature(random_instance).parameters["p_grid"].default


class TestDescentReference:
    """recover's descent is the allocating loop of helpers.reference_descent, bit for bit."""

    @pytest.mark.parametrize("p", DEFAULT_P_GRID)
    @pytest.mark.parametrize("grid, hidden_size, seed", [
        ((8, 1), 3, 2), ((16, 1), 4, 2), ((9, 1), 3, 1), ((4, 2), 3, 3),
    ])
    def test_matches_the_reference_loop(self, grid, hidden_size, seed, p):
        drawn, _ = random_instance(GridShape(*grid), hidden_size, seed=seed)
        problem = RecoveryProblem(drawn.shape, drawn.observed, drawn.hidden, p, drawn.delta)
        g0, B = problem.basis
        before = g0.tobytes(), B.tobytes()
        for max_iters in (1, 7, 1000):
            values, iterations, converged = reference_descent(g0, B, p, 1e-8, max_iters)
            expected = Signal(problem.shape, values)
            for _ in range(2):  # a second call on the same problem agrees
                result = recover(problem, 1e-8, max_iters)
                assert result.objective.hex() == lp_norm(expected, p).hex()
                assert result.iterations == iterations
                assert result.converged is converged
                assert result.signal.values.tobytes() == expected.values.tobytes()
        assert (g0.tobytes(), B.tobytes()) == before

    @pytest.mark.parametrize("size", [1, 7, 16, 33, 1000])
    def test_power_into_a_buffer_matches_the_operator(self, size):
        # `**` computes some scalar exponents by another ufunc (0.5 by sqrt);
        # np.power writing into a buffer must give the same bits for each
        # exponent of the descent's objective and gradient
        rng = np.random.default_rng(size)
        a = np.abs(np.concatenate([
            [0.0, 5e-324, 2.2e-308, 1.0, 1e100], rng.standard_normal(size),
            rng.standard_normal(size) * 1e-6, rng.uniform(0, 4, size),
        ]))
        out = np.empty_like(a)
        for p in DEFAULT_P_GRID:
            for e in (p, p - 1.0):
                expected = a**e
                assert np.power(a, e, out).tobytes() == expected.tobytes(), e


def _reference_oracle(problem, alphabet):
    """Every alphabet signal, in itertools.product order, tested by numpy's FFT."""
    shape = problem.shape
    rows = np.array(list(itertools.product(sorted(set(alphabet)), repeat=shape.size)))
    spectra = np.fft.fftn(
        rows.reshape(-1, *shape.axes), axes=range(1, shape.dim + 1), norm="ortho"
    ).reshape(len(rows), -1)
    known = ~problem.hidden.mask()
    err = np.abs(spectra[:, known] - problem.observed.values[known]).max(axis=1)
    best = second = None
    feasible = 0
    for row in rows[err <= MATCH_TOL]:
        feasible += 1
        norm = lp_norm(row, problem.p)
        if best is None or norm < best[0] - 1e-15:
            second = None if best is None else best[0]
            best = (norm, row)
        elif second is None or norm < second:
            second = norm
    gap = None if second is None else second - best[0]
    return best[1], best[0], feasible, gap is not None and gap <= 1e-9, gap


def _tie_problem():
    # 1 on evens vs 1 on odds, told apart only at the hidden frequency N/2
    shape = GridShape(8, 1)
    evens = Signal(shape, (np.arange(8) % 2 == 0).astype(float))
    hidden = FreqSet.from_indices(shape, [4])
    return RecoveryProblem(
        shape=shape,
        observed=mask_spectrum(forward(evens), hidden),
        hidden=hidden,
        p=2.0,
        delta=1.0,
    )


def _constant_problem():
    shape = GridShape(8, 1)
    hidden = FreqSet.from_indices(shape, [0, 3, 5])
    return RecoveryProblem(
        shape=shape,
        observed=mask_spectrum(forward(Signal.constant(shape, 2.0)), hidden),
        hidden=hidden,
        p=1.5,
        delta=1.0,
    )


class TestOracleReference:
    """brute_force_recover equals a plain enumeration, field by field."""

    BINARY, TERNARY = (0.0, 1.0), (0.0, 1.0, 2.0)

    @pytest.mark.parametrize("tail_rows", [None, 4, 20])  # 20: two ternary heads a block
    @pytest.mark.parametrize(
        "grid, hidden_size, seed, alphabet, well_posed",
        [
            ((4, 1), 1, 0, BINARY, True),  # the whole space is one tail block
            ((8, 1), 2, 100, BINARY, True),
            ((8, 1), 3, 90008, BINARY, False),  # three feasible signals
            ((8, 1), 2, 0, TERNARY, False),
            ((9, 1), 2, 3, BINARY, True),
            ((9, 1), 3, 4, TERNARY, False),
            ((4, 2), 2, 901, BINARY, True),
        ],
    )
    def test_matches_plain_enumeration(
        self, monkeypatch, tail_rows, grid, hidden_size, seed, alphabet, well_posed
    ):
        from znsynth import recovery

        if tail_rows is not None:
            monkeypatch.setattr(recovery, "ORACLE_TAIL_ROWS", tail_rows)
        problem, _ = random_instance(
            GridShape(*grid), hidden_size, seed=seed, alphabet=alphabet,
            well_posed=well_posed,
        )
        self._check(problem, alphabet)

    @pytest.mark.parametrize("tail_rows", [None, 1])
    def test_tie_and_single_level(self, monkeypatch, tail_rows):
        from znsynth import recovery

        if tail_rows is not None:
            monkeypatch.setattr(recovery, "ORACLE_TAIL_ROWS", tail_rows)
        assert self._check(_tie_problem(), self.BINARY).ambiguous
        assert self._check(_constant_problem(), (2.0,)).feasible_count == 1

    @staticmethod
    def _check(problem, alphabet):
        values, objective, feasible, ambiguous, gap = _reference_oracle(problem, alphabet)
        result = brute_force_recover(problem, alphabet)
        expected = Signal(problem.shape, values).values
        assert result.signal.values.tobytes() == expected.tobytes()
        assert result.objective == objective
        assert result.feasible_count == feasible
        assert result.ambiguous == ambiguous
        assert result.runner_up_gap == gap
        return result
