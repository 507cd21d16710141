"""Extremal frequency sets and the experiments that certify their quality.

Three families are built here:

* uniform random sets, together with the peak nontrivial coefficient
  statistic Phi and a Monte-Carlo check of its large-deviation tail;
* coordinate subgroups H of Z_N^d and their annihilators H_perp, the
  exact-equality family for the indicator-dual bound;
* randomized search for near-Lambda(p) sets, certified by an empirical
  constant measured on random exponential sums.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, SamplingBudgetExceeded
from .fourier import FreqSet, Signal, indicator_spectrum
from .inequalities import bound_holds, lp_norm
from .lattice import GridPoint, GridShape, all_coords, decode
from .rng import as_generator, run_indexed, spawn_generators


def _check_size(shape: GridShape, size: int) -> None:
    if not 1 <= size <= shape.size:
        raise ValueError(f"size must be in [1, {shape.size}], got {size}")


def random_set(shape: GridShape, size: int, seed) -> FreqSet:
    """A uniformly distributed size-subset of the grid, deterministic in seed."""
    _check_size(shape, size)
    rng = as_generator(seed)
    members = rng.choice(shape.size, size=size, replace=False)
    return FreqSet(shape, members)


@dataclass(frozen=True)
class PhiStat:
    """Largest nontrivial Fourier peak of a set's indicator.

    phi = max over m != 0 of |sum_{x in S} e^(-2*pi*i*x.m/N)|, i.e. the
    maximum over non-principal characters of the plain (unnormalized)
    character sum.  arg_max is one maximizing frequency, the smallest
    linear index among exact ties.
    """

    phi: float
    arg_max: GridPoint
    set_size: int


def _exponential_sums(shape: GridShape, indicators: np.ndarray) -> np.ndarray:
    """|sum_{x in S} e^(-2*pi*i*x.m/N)| for every m, one flat row per indicator row.

    The principal character m = 0 reads -1, so a row's maximum is its phi.
    """
    rows = indicators.shape[0]
    grids = indicators.reshape((rows,) + shape.axes)
    axes = tuple(range(1, shape.dim + 1))
    sums = np.abs(np.fft.fftn(grids, axes=axes)).reshape(rows, -1)
    sums[:, 0] = -1.0
    return sums


def phi(S: FreqSet) -> PhiStat:
    """Exact peak coefficient over all nonzero frequencies."""
    if S.size == 0:
        raise ValueError("phi requires a non-empty set")
    sums = _exponential_sums(S.shape, S.indicator()[None])[0]
    idx = int(np.argmax(sums))
    return PhiStat(phi=float(sums[idx]), arg_max=decode(idx, S.shape), set_size=S.size)


def hayes_tail_bound(n_points: int, set_size: int, a: float) -> float:
    """Large-deviation tail bound 2 * n * e^2 * exp(-a^2/|S|), not clamped."""
    return 2.0 * n_points * math.e**2 * math.exp(-(a**2) / set_size)


# Grid points per batched FFT in the tail experiment: large enough that
# a block's FFT outweighs its Python bookkeeping, small enough (1 MB of
# complex values) to leave --workers several blocks to share out.
TAIL_BLOCK_POINTS = 65536


@dataclass(frozen=True)
class TailReport:
    """Empirical tail of Phi over random sets versus the proven bound."""

    shape: GridShape
    set_size: int
    threshold: float
    trials: int
    empirical: float
    bound: float       # clamped to [0, 1]
    mc_slack: float    # 3-sigma binomial slack for the Monte-Carlo estimate

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + self.mc_slack


def hayes_tail_experiment(
    shape: GridShape,
    size: int,
    a: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> TailReport:
    """Fraction of random size-sets with phi >= a, checked against the tail bound.

    Each trial draws from its own spawned RNG stream, and the trials are
    scored in blocks of consecutive indices whose partition depends on
    (shape, trials) only, so the result is a function of (seed,
    parameters) regardless of worker count.  Raises BoundViolation if the
    empirical fraction exceeds the bound plus three binomial standard
    deviations.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_size(shape, size)
    rngs = spawn_generators(seed, trials)
    block = max(1, TAIL_BLOCK_POINTS // shape.size)
    starts = range(0, trials, block)

    def hits_in(b: int) -> int:
        indices = range(starts[b], min(starts[b] + block, trials))
        indicators = np.zeros((len(indices), shape.size))
        for row, i in enumerate(indices):
            indicators[row, rngs[i].choice(shape.size, size=size, replace=False)] = 1.0
        peaks = _exponential_sums(shape, indicators).max(axis=1)
        return int(np.count_nonzero(peaks >= a))

    empirical = sum(run_indexed(hits_in, len(starts), workers=workers)) / trials
    bound = min(1.0, hayes_tail_bound(shape.size, size, a))
    slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
    report = TailReport(
        shape=shape, set_size=size, threshold=a, trials=trials,
        empirical=empirical, bound=bound, mc_slack=slack,
    )
    if not report.passed:
        raise BoundViolation(
            f"tail experiment exceeded the bound: empirical {empirical} > "
            f"{bound} + {slack}"
        )
    return report


def normalized_indicator_signal(S: FreqSet) -> Signal:
    """The unimodular exponential average f(x) = (1/|S|) sum_{m in S} e^(2*pi*i*x.m/N).

    Equivalently f = (N^(d/2)/|S|) * conj(1S_hat); the conjugate puts the
    spectrum exactly on S: f_hat = (N^(d/2)/|S|) * 1S.  Always f(0) = 1 and
    |f(x)| <= 1 elsewhere, so ||f||_inf = 1.
    """
    if S.size == 0:
        raise ValueError("normalized_indicator_signal requires a non-empty set")
    grid = S.indicator().reshape(S.shape.axes)
    values = np.conj(np.fft.fftn(grid)).reshape(-1) / S.size
    return Signal(S.shape, values)


def normalized_indicator_norms(S: FreqSet, p: float) -> tuple[float, float]:
    """(||f||_inf, ||f||_p) for f = normalized_indicator_signal(S), from one real FFT.

    The indicator is real, so |f(-x)| = |f(x)|: the rfftn half spectrum holds
    every magnitude, and each last-axis bin other than 0 and N/2 (N even)
    stands for two points.  The peak is factored out as in lp_norm.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"requires finite p >= 1, got {p}")
    if S.size == 0:
        raise ValueError("normalized_indicator_norms requires a non-empty set")
    mags = np.abs(np.fft.rfftn(S.indicator().reshape(S.shape.axes)))
    mags /= S.size
    top = float(mags.max())
    mags /= top
    np.power(mags, p, out=mags)
    twice = mags[..., 1:(S.shape.modulus + 1) // 2]
    return top, top * float(mags.sum() + twice.sum()) ** (1.0 / p)


def indicator_signal_norm_bound(S: FreqSet, p: float) -> float:
    """Bound ||f||_p <= (N^d * (phi(S)/|S|)^p + 1)^(1/p) for the signal above.

    f(0) = 1 contributes the +1; every other value is at most phi(S)/|S|.
    The measured norm is checked against the bound before returning.
    """
    if p == math.inf or p < 1:
        raise ValueError(f"requires finite p >= 1, got {p}")
    stat = phi(S)
    bound = (S.shape.size * (stat.phi / S.size) ** p + 1.0) ** (1.0 / p)
    measured = normalized_indicator_norms(S, p)[1]
    if not bound_holds(measured, bound):
        raise BoundViolation(
            f"indicator-signal norm bound violated: measured {measured!r} > {bound!r}"
        )
    return bound


@dataclass(frozen=True)
class SubspaceSpec:
    """A coordinate subgroup: the axes (0-based) left free; the rest pinned to 0."""

    axes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(sorted(set(self.axes))))


def subspace_pair(shape: GridShape, spec: SubspaceSpec) -> tuple[FreqSet, FreqSet]:
    """The coordinate subgroup H and its annihilator H_perp.

    H = {x : x_j = 0 for j not in axes} has N^K points; H_perp =
    {m : m_j = 0 for j in axes} has N^(d-K).  The transform of 1H is
    supported exactly on H_perp with constant value N^(K - d/2), so
    |supp| * |H| = N^d (the equality case of the uncertainty principle).

    K = 0 or K = d degenerate to {0} and the full grid; a warning is
    emitted since most identities become trivial there.
    """
    axes = spec.axes
    if any(j < 0 or j >= shape.dim for j in axes):
        raise ValueError(f"axes must lie in [0, {shape.dim}), got {axes}")
    k = len(axes)
    if k == 0 or k == shape.dim:
        warnings.warn(
            f"degenerate subspace with K = {k} on {shape}; pair is ({{0}}, full grid)",
            stacklevel=2,
        )
    coords = all_coords(shape)
    pinned = [j for j in range(shape.dim) if j not in axes]
    in_h = np.ones(shape.size, dtype=bool)
    if pinned:
        in_h = (coords[:, pinned] == 0).all(axis=1)
    in_perp = np.ones(shape.size, dtype=bool)
    if axes:
        in_perp = (coords[:, list(axes)] == 0).all(axis=1)
    return (
        FreqSet(shape, np.nonzero(in_h)[0]),
        FreqSet(shape, np.nonzero(in_perp)[0]),
    )


@dataclass(frozen=True)
class RejectionSample:
    """A set found by rejection sampling, with its statistic and draw count."""

    set: FreqSet
    statistic: float
    draws: int


def rejection_sample_flat(
    shape: GridShape,
    size: int,
    epsilon: float = 0.1,
    max_draws: int = 10_000,
    seed: int = 0,
) -> RejectionSample:
    """Draw uniform random sets until phi(S) <= |S|^(1/2 + epsilon).

    The threshold comes from the large-deviation tail: as N grows, almost
    every set of size N^alpha satisfies it for small epsilon.  At desk
    scale the condition can be rare or unattainable (typical peaks are
    near |S|^(1/2) * sqrt(log N)); the budget failure reports the best
    statistic seen so the caller can tell "unlucky" from "impossible".
    """
    threshold = size ** (0.5 + epsilon)
    return _rejection_sample(
        shape, size, lambda S: phi(S).phi, threshold, max_draws, seed,
        label="phi",
    )


def rejection_sample_small_norm(
    shape: GridShape,
    size: int,
    p: float,
    target: float,
    max_draws: int = 10_000,
    seed: int = 0,
) -> RejectionSample:
    """Draw random sets until ||normalized_indicator_signal(S)||_p <= target."""
    return _rejection_sample(
        shape,
        size,
        lambda S: normalized_indicator_norms(S, p)[1],
        target,
        max_draws,
        seed,
        label=f"L^{p} norm",
    )


def _rejection_sample(shape, size, statistic, threshold, max_draws, seed, label):
    if max_draws < 1:
        raise ValueError("max_draws must be >= 1")
    rng = as_generator(seed)
    best = math.inf
    for draw in range(1, max_draws + 1):
        S = random_set(shape, size, rng)
        value = statistic(S)
        best = min(best, value)
        if value <= threshold:
            return RejectionSample(set=S, statistic=value, draws=draw)
    raise SamplingBudgetExceeded(
        f"no size-{size} set on {shape} with {label} <= {threshold:.6g} in "
        f"{max_draws} draws (best seen {best:.6g})"
    )


@dataclass(frozen=True)
class LambdaCandidate:
    """A frequency set with its certified empirical Lambda(p) constant."""

    set: FreqSet
    p: float
    empirical_constant: float
    trials: int
    seed: int


def empirical_lambda_constant(S: FreqSet, p: float, trials: int, seed) -> float:
    """Worst normalized-norm ratio of random exponential sums on S.

    For coefficient vectors a, measures

        N^(-d/p) * || sum_{m in S} a_m e^(2*pi*i*x.m/N) ||_p  /  ||a||_2

    over `trials` standard Gaussian draws.  The all-equal coefficient
    vector is always included as a probe: its ratio equals
    N^(-d/p) * ||1S_hat||_p * N^(d/2) / |S|^(1/2), so the returned
    constant certifies the indicator norm as well.  The ratio is at
    least 1 for any single probe supported on one character.
    """
    if S.size == 0:
        raise ValueError("empirical constant requires a non-empty set")
    rng = as_generator(seed)
    probes = np.vstack([np.ones((1, S.size)), rng.standard_normal((trials, S.size))])
    return float(_probe_max_ratio(S.shape, p, S.members[None], probes)[0])


# Grid points per batched inverse FFT of the probe ratios (4 MB of complex
# values): bounds memory on large grids, where scoring every swap
# candidate at once would take hundreds of MB, while keeping the calls
# per swap position few.
PROBE_BLOCK_POINTS = 1 << 18


def _probe_max_ratio(
    shape: GridShape, p: float, members: np.ndarray, probes: np.ndarray
) -> np.ndarray:
    """Per row of members, max over probe rows of the normalized ratio above.

    members is (sets, |S|) with each row sorted ascending; probe column j
    is the coefficient of a row's j-th smallest member.
    """
    rows, width = probes.shape
    step = max(1, PROBE_BLOCK_POINTS // (rows * shape.size))
    denom = np.linalg.norm(probes, axis=1)
    out = np.empty(members.shape[0])
    for lo in range(0, members.shape[0], step):
        block = members[lo:lo + step]
        sets = block.shape[0]
        full = np.zeros((sets, rows, shape.size), dtype=np.complex128)
        np.put_along_axis(
            full, np.broadcast_to(block[:, None, :], (sets, rows, width)),
            probes[None], axis=2,
        )
        # in place (out= needs numpy >= 2.0): a fresh array per step costs
        # more than the FFT here
        grids = full.reshape((sets * rows,) + shape.axes)
        sums = np.fft.ifftn(grids, axes=tuple(range(1, shape.dim + 1)), out=grids)
        sums *= shape.size
        mags = np.abs(sums).reshape(sets, rows, -1)
        norms = np.sum(np.power(mags, p, out=mags), axis=2) ** (1.0 / p)
        ratios = shape.size ** (-1.0 / p) * norms / denom
        out[lo:lo + sets] = ratios.max(axis=1)
    return out


def lambda_p_search(
    shape: GridShape,
    size: int,
    p: float,
    budget: int,
    seed: int,
    trials: int = 64,
    max_swaps: int = 64,
    workers: int = 1,
) -> LambdaCandidate:
    """Random-restart greedy swap search for a small empirical Lambda(p) constant.

    Each of `budget` restarts draws a start set and a fixed probe matrix
    from its own spawned stream, then hill-descends by single-element
    swaps (best replacement per position, at most `max_swaps` sampled
    candidates per position, all scored in one batched call) until no
    swap improves.  The best restart wins; ties break toward the lower
    restart index, so the output is a function of (seed, parameters) only.
    """
    if p == math.inf or p <= 2:
        raise ValueError(f"requires finite p > 2, got {p}")
    _check_size(shape, size)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if max_swaps < 0:
        raise ValueError("max_swaps must be >= 0")
    rngs = spawn_generators(seed, budget)

    def one_restart(r: int) -> tuple[float, np.ndarray]:
        rng = rngs[r]
        members = np.sort(rng.choice(shape.size, size=size, replace=False))
        probes = np.vstack(
            [np.ones((1, size)), rng.standard_normal((trials, size))]
        )

        best = float(_probe_max_ratio(shape, p, members[None], probes)[0])
        # no candidates when the grid is full or max_swaps is 0
        improved = min(max_swaps, shape.size - size) > 0
        while improved:
            improved = False
            for pos in range(size):
                outside = np.setdiff1d(np.arange(shape.size), members)
                if outside.size > max_swaps:
                    outside = np.sort(
                        rng.choice(outside, size=max_swaps, replace=False)
                    )
                trial_members = np.repeat(members[None], outside.size, axis=0)
                trial_members[:, pos] = outside
                trial_members.sort(axis=1)
                values = _probe_max_ratio(shape, p, trial_members, probes)
                # argmin takes the first of equal values, as an in-order
                # scan accepting only a strict improvement would
                k = int(np.argmin(values))
                if values[k] < best - 1e-12:
                    best = float(values[k])
                    members[pos] = outside[k]
                    members = np.sort(members)
                    improved = True
        return best, members

    results = run_indexed(one_restart, budget, workers=workers)
    constant, members = min(results, key=lambda t: t[0])
    return LambdaCandidate(
        set=FreqSet(shape, members),
        p=p,
        empirical_constant=constant,
        trials=trials,
        seed=seed,
    )


def lambda_constant_check(S: FreqSet, p: float, C: float) -> bool:
    """True iff ||1S_hat||_p <= C * N^(d/p) * N^(-d/2) * |S|^(1/2).

    This is the denormalized form of the Lambda(p) inequality specialized
    to equal coefficients; together with the dual-norm bound it gives
    ||1S_hat||_p * ||1S_hat||_p' <= C * |S|.
    """
    if p == math.inf or p <= 2:
        raise ValueError(f"requires finite p > 2, got {p}")
    shape = S.shape
    measured = lp_norm(indicator_spectrum(S), p)
    bound = C * shape.modulus ** (shape.dim / p) * shape.size**-0.5 * math.sqrt(S.size)
    return bound_holds(measured, bound)
