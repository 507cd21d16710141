"""Extremal frequency sets and the experiments that certify their quality.

Three families are built here:

* uniform random sets, together with the peak nontrivial coefficient
  statistic Phi and a Monte-Carlo check of its large-deviation tail;
* coordinate subgroups H of Z_N^d and their annihilators H_perp, the
  exact-equality family for the indicator-dual bound;
* randomized search for near-Lambda(p) sets with few additive
  representations, bracketed by a constant proven from the representation
  counts and an empirical one measured on random exponential sums.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

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


def phi(S: FreqSet) -> PhiStat:
    """Exact peak coefficient over all nonzero frequencies."""
    if S.size == 0:
        raise ValueError("phi requires a non-empty set")
    sums = np.abs(np.fft.fftn(S.indicator().reshape(S.shape.axes))).reshape(-1)
    sums[0] = -1.0  # the principal character m = 0
    idx = int(np.argmax(sums))
    return PhiStat(phi=float(sums[idx]), arg_max=decode(idx, S.shape), set_size=S.size)


def hayes_tail_bound(n_points: int, set_size: int, a: float) -> float:
    """Large-deviation tail bound 2 * n * e^2 * exp(-a^2/|S|), not clamped."""
    return 2.0 * n_points * math.e**2 * math.exp(-(a**2) / set_size)


# Grid points per block of tail trials.  Each block draws its trials from
# one stream spawned from the seed, so this constant is part of the seed
# contract: changing it changes every tail result.  Large enough that a
# block's FFT outweighs its Python bookkeeping, small enough (512 KB of
# keys) to leave --workers several blocks to share out.
TAIL_BLOCK_POINTS = 65536


def _random_indicators(rng: np.random.Generator, rows: int, shape: GridShape,
                       size: int) -> np.ndarray:
    """(rows, N^d) indicators of uniform size-subsets, one per row.

    A row's set is the positions of its size smallest uniform keys, so it
    depends only on the key values, not on the order argpartition leaves.
    """
    keys = rng.random((rows, shape.size))
    members = np.argpartition(keys, size - 1, axis=1)[:, :size]
    keys[...] = 0.0
    np.put_along_axis(keys, members, 1.0, axis=1)
    return keys


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

    The trials are split into blocks of consecutive indices whose partition
    depends on (shape, trials) only.  Each block draws all its sets from one
    stream spawned from the seed (see _random_indicators) and scores them
    with one real FFT: the indicators are real, so the rfftn half spectrum
    holds every magnitude.  The result is thus a function of (seed,
    parameters) regardless of worker count.  Raises BoundViolation if the
    empirical fraction exceeds the bound plus three binomial standard
    deviations.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not a >= 0.0:
        raise ValueError(f"tail threshold a must be >= 0, got {a}")
    _check_size(shape, size)
    block = max(1, TAIL_BLOCK_POINTS // shape.size)
    starts = range(0, trials, block)
    rngs = spawn_generators(seed, len(starts))
    axes = tuple(range(1, shape.dim + 1))

    def hits_in(b: int) -> int:
        rows = min(block, trials - starts[b])
        grids = _random_indicators(rngs[b], rows, shape, size).reshape(
            (rows,) + shape.axes
        )
        sums = np.abs(np.fft.rfftn(grids, axes=axes)).reshape(rows, -1)
        sums[:, 0] = -1.0  # the principal character m = 0
        return int(np.count_nonzero(sums.max(axis=1) >= a))

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


def subspace_pair(shape: GridShape, axes: Sequence[int]) -> tuple[FreqSet, FreqSet]:
    """The coordinate subgroup H and its annihilator H_perp.

    axes lists the free coordinates (0-based, repeats ignored), so H =
    {x : x_j = 0 for j not in axes} has N^K points; H_perp =
    {m : m_j = 0 for j in axes} has N^(d-K).  The transform of 1H is
    supported exactly on H_perp with constant value N^(K - d/2), so
    |supp| * |H| = N^d (the equality case of the uncertainty principle).

    K = 0 degenerates to ({0}, full grid) and K = d to (full grid, {0}); a
    warning naming the pair is emitted since most identities become
    trivial there.
    """
    axes = tuple(sorted(set(axes)))
    if any(j < 0 or j >= shape.dim for j in axes):
        raise ValueError(f"axes must lie in [0, {shape.dim}), got {axes}")
    k = len(axes)
    if k == 0 or k == shape.dim:
        pair = "({0}, full grid)" if k == 0 else "(full grid, {0})"
        warnings.warn(
            f"degenerate subspace with K = {k} on {shape}; pair is {pair}",
            stacklevel=2,
        )
    coords = all_coords(shape)
    pinned = [j for j in range(shape.dim) if j not in axes]
    in_h = (coords[:, pinned] == 0).all(axis=1)
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
    _check_size(shape, size)  # first: a size below 0 makes the flat threshold complex
    if not threshold >= 0:  # also NaN: no draw could pass
        raise ValueError(f"{label} threshold must be >= 0, got {threshold}")
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
    """A frequency set with its bracket on the Lambda(p) constant.

    empirical_constant is a lower estimate (the largest ratio over random
    probes, capped at certified_constant); certified_constant is an upper
    bound by theorem (see certified_lambda_constant).
    """

    set: FreqSet
    p: float
    empirical_constant: float
    certified_constant: float
    trials: int
    seed: int


def representation_counts(shape: GridShape, members: np.ndarray) -> np.ndarray:
    """(sets, N^d) counts r_S(y) = #{(s, t) in S^2 : s + t = y}, one row per set.

    members is (sets, |S|) linear indices.  The pair sums are taken
    coordinate-wise mod N, and one bincount counts every row, so the counts
    are exact integers.
    """
    members = np.asarray(members, dtype=np.int64)
    sets = members.shape[0]
    coords = np.stack(np.unravel_index(members, shape.axes), axis=-1)
    sums = (coords[:, :, None] + coords[:, None]) % shape.modulus
    flat = np.ravel_multi_index(tuple(np.moveaxis(sums, -1, 0)), shape.axes)
    flat += shape.size * np.arange(sets)[:, None, None]
    return np.bincount(flat.ravel(), minlength=sets * shape.size).reshape(
        sets, shape.size
    )


def certified_lambda_constant(S: FreqSet, p: float) -> float:
    """An upper bound on the Lambda(p) constant of S from m = max_y r_S(y).

    By Parseval and Cauchy-Schwarz the constant at p = 4 is at most
    m^(1/4) (Rudin's Sidon-set argument), and it is 1 at p = 2.  Hoelder
    between L^2 and L^4 gives m^(1/2 - 1/p) for 2 < p <= 4; for p > 4,
    ||f||_p^p <= ||f||_4^4 ||f||_inf^(p-4) with the sup-norm constant at
    most |S|^(1/2) gives m^(1/p) |S|^(1/2 - 2/p).
    """
    if not 2 < p < math.inf:
        raise ValueError(f"requires finite p > 2, got {p}")
    if S.size == 0:
        raise ValueError("certified constant requires a non-empty set")
    m = int(representation_counts(S.shape, S.members[None]).max())
    if p <= 4:
        return m ** (0.5 - 1.0 / p)
    return m ** (1.0 / p) * S.size ** (0.5 - 2.0 / p)


def empirical_lambda_constant(S: FreqSet, p: float, trials: int, seed) -> float:
    """Worst normalized-norm ratio of random exponential sums on S.

    For coefficient vectors a, measures

        N^(-d/p) * || sum_{m in S} a_m e^(2*pi*i*x.m/N) ||_p  /  ||a||_2

    over `trials` standard Gaussian draws.  The all-equal coefficient
    vector is always included as a probe: its ratio equals
    N^(-d/p) * ||1S_hat||_p * N^(d/2) / |S|^(1/2), so the returned
    constant dominates the indicator norm as well.  The ratio is at
    least 1 for any single probe supported on one character.  A maximum
    over probes, it is a lower estimate of the Lambda(p) constant.
    """
    if S.size == 0:
        raise ValueError("empirical constant requires a non-empty set")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    rng = as_generator(seed)
    probes = np.vstack([np.ones((1, S.size)), rng.standard_normal((trials, S.size))])
    shape = S.shape
    full = np.zeros((trials + 1, shape.size), dtype=np.complex128)
    full[:, S.members] = probes
    # in place (out= needs numpy >= 2.0)
    grids = full.reshape((trials + 1,) + shape.axes)
    sums = np.fft.ifftn(grids, axes=tuple(range(1, shape.dim + 1)), out=grids)
    sums *= shape.size
    mags = np.abs(sums).reshape(trials + 1, -1)
    norms = np.sum(np.power(mags, p, out=mags), axis=1) ** (1.0 / p)
    ratios = shape.size ** (-1.0 / p) * norms / np.linalg.norm(probes, axis=1)
    return float(ratios.max())


# Swap candidates per position in the Lambda(p) search.  A restart samples
# this many from its own stream whenever more points lie outside the set,
# so this constant is part of the seed contract: changing it changes the
# sets found on such grids.
MAX_SWAPS = 64


def lambda_p_search(
    shape: GridShape,
    size: int,
    p: float,
    budget: int,
    seed: int,
    trials: int = 64,
    workers: int = 1,
) -> LambdaCandidate:
    """Random-restart greedy swap search for a set with small representation counts.

    Each of `budget` restarts draws a start set from its own spawned
    stream, then hill-descends by single-element swaps (best replacement
    per position, at most MAX_SWAPS sampled candidates per position, all
    counted in one batched call) until no swap improves.  A set is scored
    by the key (max_y r_S(y), sum_y r_S(y)^2), the second term being the
    additive energy, and a swap is taken only on a strictly smaller key.
    The best restart wins; ties break toward the lower restart index, so
    the found set is a function of (shape, size, budget, seed) only: p
    and `trials` set only the reported bracket, the certified
    constant of certified_lambda_constant and the empirical lower estimate
    on `trials` probes drawn from one more spawned stream.  FFT rounding can
    lift a probe ratio an ulp above an attained certificate, so the lower
    estimate reported is min(empirical, certified).
    """
    if not 2 < p < math.inf:
        raise ValueError(f"requires finite p > 2, got {p}")
    _check_size(shape, size)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    rngs = spawn_generators(seed, budget + 1)

    def keys(members: np.ndarray) -> np.ndarray:
        """(2, sets) keys: the max counts, then the additive energies."""
        counts = representation_counts(shape, members)
        return np.stack([counts.max(axis=1), np.einsum("ij,ij->i", counts, counts)])

    def one_restart(r: int) -> tuple[tuple[int, int], np.ndarray]:
        rng = rngs[r]
        members = np.sort(rng.choice(shape.size, size=size, replace=False))
        best = tuple(keys(members[None])[:, 0].tolist())
        improved = size < shape.size  # no candidates when the grid is full
        while improved:
            improved = False
            for pos in range(size):
                outside = np.setdiff1d(np.arange(shape.size), members)
                if outside.size > MAX_SWAPS:
                    outside = np.sort(
                        rng.choice(outside, size=MAX_SWAPS, replace=False)
                    )
                trial_members = np.repeat(members[None], outside.size, axis=0)
                trial_members[:, pos] = outside
                values = keys(trial_members)
                # lexsort is stable: the first of equal keys, as an in-order
                # scan accepting only a strict improvement would take
                k = int(np.lexsort(values[::-1])[0])
                key = tuple(values[:, k].tolist())
                if key < best:
                    best = key
                    members[pos] = outside[k]
                    members = np.sort(members)
                    improved = True
        return best, members

    results = run_indexed(one_restart, budget, workers=workers)
    found = FreqSet(shape, min(results, key=lambda t: t[0])[1])
    certified = certified_lambda_constant(found, p)
    empirical = empirical_lambda_constant(found, p, trials, rngs[budget])
    return LambdaCandidate(
        set=found,
        p=p,
        empirical_constant=min(empirical, certified),
        certified_constant=certified,
        trials=trials,
        seed=seed,
    )


def lambda_constant_check(S: FreqSet, p: float, C: float) -> bool:
    """True iff ||1S_hat||_p <= C * N^(d/p) * N^(-d/2) * |S|^(1/2).

    This is the denormalized form of the Lambda(p) inequality specialized
    to equal coefficients; together with the dual-norm bound it gives
    ||1S_hat||_p * ||1S_hat||_p' <= C * |S|.
    """
    if not 2 < p < math.inf:
        raise ValueError(f"requires finite p > 2, got {p}")
    shape = S.shape
    measured = lp_norm(indicator_spectrum(S), p)
    bound = C * shape.modulus ** (shape.dim / p) * shape.size**-0.5 * math.sqrt(S.size)
    return bound_holds(measured, bound)
