"""Independent oracles and instance builders shared by the test suite.

The transform oracle here is deliberately naive: it evaluates the
defining double sum through an explicit character matrix built from
integer dot products, with no per-axis factorization and no use of the
package's fast path.
"""

from __future__ import annotations

import math

import numpy as np

from znsynth.constructions import (
    TAIL_BLOCK_POINTS,
    normalized_indicator_signal,
    phi,
)
from znsynth.fourier import FreqSet, Signal, Spectrum, forward, inverse
from znsynth.inequalities import lp_norm
from znsynth.lattice import GridShape, all_coords, decode, encode
from znsynth.recovery import RecoveryProblem, mask_spectrum
from znsynth.rng import spawn_generators


def character_matrix(shape: GridShape, sign: int = -1) -> np.ndarray:
    """W[m, x] = e^(sign * 2*pi*i * (x.m mod N) / N), dense."""
    coords = all_coords(shape)
    dots = (coords @ coords.T) % shape.modulus
    return np.exp(sign * 2j * np.pi * dots / shape.modulus)


def dft_oracle(f: Signal) -> np.ndarray:
    """Direct-sum forward transform: N^(-d/2) sum_x e^(-2 pi i x.m/N) f(x)."""
    W = character_matrix(f.shape, sign=-1)
    return (W @ f.values) * f.shape.size**-0.5


def idft_oracle(F: Spectrum) -> np.ndarray:
    W = character_matrix(F.shape, sign=+1)
    return (W @ F.values) * F.shape.size**-0.5


def convolve_oracle(f: Signal, g: Signal) -> np.ndarray:
    """(f*g)(x) = sum_y f(y) g(x - y) by explicit index arithmetic."""
    shape = f.shape
    coords = all_coords(shape)
    out = np.zeros(shape.size, dtype=np.complex128)
    axes = shape.axes
    for x in range(shape.size):
        diff = (coords[x] - coords) % shape.modulus
        idx = np.ravel_multi_index(tuple(diff.T), axes)
        out[x] = np.sum(f.values * g.values[idx])
    return out


def lp_oracle(values, p: float) -> float:
    """Norm by the defining sum, term by term."""
    mags = [abs(v) for v in np.asarray(values).reshape(-1)]
    if p == float("inf"):
        return max(mags) if mags else 0.0
    return sum(m**p for m in mags) ** (1.0 / p)


def random_signal(shape: GridShape, rng: np.random.Generator) -> Signal:
    v = rng.standard_normal(shape.size) + 1j * rng.standard_normal(shape.size)
    return Signal(shape, v)


def random_bandlimited(
    shape: GridShape, S: FreqSet, rng: np.random.Generator
) -> Signal:
    """A random signal whose spectrum is zeroed off S (so supp(f_hat) in S)."""
    F = forward(random_signal(shape, rng)).values.copy()
    keep = np.zeros(shape.size, dtype=bool)
    keep[S.members] = True
    F[~keep] = 0.0
    return inverse(Spectrum(shape, F))


def low_band_problem(p: float, truth_values=None):
    """(problem, truth) on 64x1 with the 13 frequencies |m| <= 6 hidden, delta = 1.

    The truth defaults to the point mass at 0.  Thirteen free coefficients
    put 2^13 binary assignments over alphabet_candidates' default limit, so
    an alphabet recover takes the rounding fallback.
    """
    shape = GridShape(64, 1)
    truth = Signal.delta(shape, 0) if truth_values is None else Signal(shape, truth_values)
    hidden = FreqSet.from_indices(shape, [m % 64 for m in range(-6, 7)])
    problem = RecoveryProblem(
        shape=shape,
        observed=mask_spectrum(forward(truth), hidden),
        hidden=hidden,
        p=p,
        delta=1.0,
    )
    return problem, truth


def complex_indicator_norms(S: FreqSet, p: float) -> tuple[float, float]:
    """(||f||_inf, ||f||_p) of the normalized indicator signal by the complex route."""
    f = normalized_indicator_signal(S)
    return lp_norm(f, np.inf), lp_norm(f, p)


def reference_descent(g0, B, p, tol, max_iters):
    """The Armijo descent of `recovery.recover` for p > 1, as a fresh array per step.

    This is the loop as it stood before its trial steps wrote into buffers;
    `recover` must reproduce it bit for bit.  Returns (g0 + B @ v,
    iterations, converged) for the final parameter vector v.
    """

    def objective_and_gradient(v):
        g = g0 + B @ v
        a = np.abs(g)
        return float(np.sum(a**p)), B.T @ (p * np.sign(g) * a ** (p - 1.0))

    v = np.zeros(B.shape[1])
    obj, grad = objective_and_gradient(v)
    converged = False
    iters = 0
    step = 1.0
    for iters in range(1, max_iters + 1):
        gn = math.sqrt(grad.dot(grad))  # np.linalg.norm, bit for bit
        if gn <= tol * max(1.0, obj):
            converged = True
            break
        t = step
        for _ in range(60):
            # the objective alone, computed as _objective_and_gradient does
            v_new = v - t * grad
            g = B @ v_new
            g += g0
            a = np.abs(g)
            obj_new = float((a**p).sum())
            if obj_new <= obj - 1e-4 * t * gn * gn:
                break
            t *= 0.5
        else:
            break  # step collapsed below float resolution
        v, obj = v_new, obj_new
        grad = B.T @ (p * np.sign(g) * a ** (p - 1.0))
        step = min(2.0 * t, 1e6)
    return g0 + B @ v, iters, converged


def reference_representation_counts(shape, members):
    """r_S(y) = #{(s, t) in S^2 : s + t = y} for one set, by a double loop over S^2.

    Each pair is added coordinate by coordinate on decoded points, and
    `encode` reduces the sum mod N.
    """
    points = [decode(int(s), shape) for s in members]
    counts = np.zeros(shape.size, dtype=np.int64)
    for a in points:
        for b in points:
            counts[encode(tuple(x + y for x, y in zip(a, b)), shape)] += 1
    return counts


def reference_lambda_search(shape, size, budget, seed, max_swaps=64):
    """The swap search of `constructions.lambda_p_search`, one candidate at a time.

    Restarts, streams and candidate sampling are those of the library;
    each candidate is scored on its own by `reference_representation_counts`
    and a candidate is taken, in order, only on a strictly smaller key
    (max r_S, sum r_S^2).  Neither p nor the probe count enters.  Returns
    (members, key) of the best restart.
    """
    rngs = spawn_generators(seed, budget)

    def key(members):
        counts = reference_representation_counts(shape, members)
        return int(counts.max()), int((counts * counts).sum())

    def one_restart(r):
        rng = rngs[r]
        members = np.sort(rng.choice(shape.size, size=size, replace=False))
        best = key(members)
        improved = min(max_swaps, shape.size - size) > 0
        while improved:
            improved = False
            for pos in range(size):
                outside = np.setdiff1d(np.arange(shape.size), members)
                if outside.size > max_swaps:
                    outside = np.sort(
                        rng.choice(outside, size=max_swaps, replace=False)
                    )
                taken = None
                for candidate in outside:
                    trial = members.copy()
                    trial[pos] = candidate
                    value = key(trial)
                    if value < (best if taken is None else taken[0]):
                        taken = (value, candidate)
                if taken is not None:
                    best = taken[0]
                    members[pos] = taken[1]
                    members = np.sort(members)
                    improved = True
        return best, members

    best, members = min((one_restart(r) for r in range(budget)), key=lambda t: t[0])
    return members.tolist(), best


def reference_tail_hits(shape, size, a, trials, seed):
    """The trials of `constructions.hayes_tail_experiment`, one at a time.

    Each block's stream and keys are drawn as the library draws them; a
    trial's set is then its size smallest keys by a full sort, scored by
    `phi` (the complex fftn).  Returns (trials with phi >= a, the smallest
    distance from any trial's phi to a).
    """
    block = max(1, TAIL_BLOCK_POINTS // shape.size)
    rngs = spawn_generators(seed, -(-trials // block))
    hits, gap = 0, math.inf
    for b, rng in enumerate(rngs):
        keys = rng.random((min(block, trials - b * block), shape.size))
        for row in keys:
            peak = phi(FreqSet(shape, np.argsort(row)[:size])).phi
            hits += peak >= a
            gap = min(gap, abs(peak - a))
    return hits, gap
