"""Exact recovery of separated real signals with unobserved frequencies.

A real signal f on Z_N^d is transmitted as its spectrum, with the
coefficients on a hidden set S withheld.  When the values of f are
delta-separated and ||f||_(2d/k) < delta / (2 sqrt(C_size)), where
|S| = C_size * N^k and 2d/k >= 2, the signal is the unique feasible
delta-separated candidate, and it is recovered by minimizing the L^(2d/k)
norm over all real signals whose spectrum matches the observed
coefficients.

The minimizer is computed by first-order descent over the free hidden
coefficients; real-valuedness is enforced structurally by optimizing one
(re, im) pair per negation orbit of the hidden set.  Each Armijo trial
step evaluates the objective alone, into buffers allocated once per call,
and the gradient is formed once per accepted step.  When a value alphabet
is declared, the alphabet-valued feasible signals are enumerated exactly
through the same parameterization and the minimal-norm separated one is
returned, with nearest-value rounding of the descent output as the
out-of-budget fallback.

The exhaustive oracle, :func:`brute_force_recover`, does not use that
parameterization.  It splits each alphabet signal into head and tail
coordinates, so the known spectrum of every signal is one head row plus
one tail row of two small precomputed tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EnumerationBudgetExceeded, RecoveryError
from .fourier import FreqSet, Signal, Spectrum, forward, inverse
from .inequalities import lp_norm, vanishing_threshold
from .lattice import GridShape, all_coords, negate_indices
from .rng import as_generator

#: Feasibility tolerance: a reconstruction must match the observed
#: spectrum off the hidden set to within this much, entrywise.
FEASIBILITY_TOL = 1e-7

#: Two floating values are considered the same signal level below this.
VALUE_EQ_TOL = 1e-9

#: An enumerated signal is alphabet-valued when all values are this close to levels.
VALUE_TOL = 1e-6

#: The oracle's entrywise tolerance for matching the observed spectrum.
MATCH_TOL = 1e-8

#: Signal values per block of alphabet_candidates (512 KB of floats): bounds
#: its memory on large grids, where one block of all 4096 assignments of a
#: 64x2 problem took 800 MB.
CANDIDATE_BLOCK_POINTS = 1 << 16

#: Signals per array operation of brute_force_recover: the tail coordinates
#: take at most this many assignments (unless one coordinate has more levels),
#: and each block of heads covers about this many signals.
ORACLE_TAIL_ROWS = 1024

#: alphabet_candidates gives None above this many level assignments.  It
#: decides which draws random_instance can test for ambiguity, so it is part
#: of the seed contract: changing it can change the instances a seed gives.
CANDIDATE_LIMIT = 4096

#: brute_force_recover refuses to enumerate more alphabet signals than this.
ORACLE_BUDGET = 10_000_000


def mask_spectrum(F: Spectrum, S: FreqSet) -> Spectrum:
    """Zero out the entries of F on S, modeling unobserved frequencies."""
    values = F.values.copy()
    values[S.members] = 0.0
    return Spectrum(F.shape, values)


def separated(values: np.ndarray, delta: float) -> bool:
    """True iff distinct real values differ by at least delta and are not all equal.

    Values within VALUE_EQ_TOL of each other count as the same level.
    """
    vals = np.sort(values)
    gaps = np.diff(vals)
    distinct = gaps[gaps > VALUE_EQ_TOL]
    if distinct.size == 0:
        return False  # constant signals are excluded
    return bool(distinct.min() >= delta - 1e-12)


@dataclass(frozen=True)
class RecoveryProblem:
    """Observed spectrum with a hidden set, plus the norm exponent and separation.

    hidden must be non-empty, leave a frequency observed and satisfy S = -S
    (a real signal has F(-m) = conj F(m), so an observed -m reveals m).
    observed is zeroed on hidden and must be conjugate-symmetric elsewhere;
    p must be finite and >= 1, delta finite and positive (else ValueError).
    c_size is derived: with k = 2d/p, c_size = |hidden| / N^k.
    """

    shape: GridShape
    observed: Spectrum
    hidden: FreqSet
    p: float
    delta: float

    def __post_init__(self):
        if not 1 <= self.p < math.inf:
            raise ValueError(f"norm exponent must be finite and >= 1, got {self.p}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
        if self.hidden.size == 0:
            raise ValueError("hidden set must be non-empty")
        if self.hidden.size == self.shape.size:
            raise ValueError("every frequency is hidden; the constraints carry no information")
        if self.hidden.symmetrized().size != self.hidden.size:
            raise ValueError("hidden set must satisfy S = -S: F(-m) = conj F(m) for real f")
        object.__setattr__(self, "observed", mask_spectrum(self.observed, self.hidden))
        _check_conjugate_symmetry(self.observed, self.hidden)

    @property
    def k(self) -> float:
        return 2.0 * self.shape.dim / self.p

    @property
    def c_size(self) -> float:
        # |hidden| = c_size * N^k with k = 2d/p, so that the support-size
        # coefficient sqrt(|S| / N^(2d/p)) is exactly sqrt(c_size)
        return self.hidden.size / self.shape.modulus**self.k

    @property
    def threshold(self) -> float:
        """Norm level below which recovery is unique: a theorem for p >= 2 only."""
        return _threshold(self.delta, self.hidden.size, self.shape, self.p)

    @functools.cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """The (g0, B) of :func:`reconstruction_basis`, built once per problem."""
        return reconstruction_basis(self)


def _threshold(delta: float, size: int, shape: GridShape, p: float) -> float:
    """delta / (2 sqrt(c_size)) for a hidden set of `size` members on `shape`.

    This is the contrapositive of the chain
    delta <= ||h||_inf <= 2 * ||f||_(2d/k) * sqrt(C_size)
    applied to the difference h of two feasible separated candidates; the
    middle step is the support-size bound, a theorem for p >= 2 only.
    """
    return delta / (2.0 * vanishing_threshold(size, shape, p))


def _levels(alphabet: Sequence[float]) -> np.ndarray:
    """The distinct values of an alphabet as floats, in increasing order."""
    levels = np.asarray(sorted(set(float(a) for a in alphabet)))
    if not np.isfinite(levels).all():
        raise ValueError(f"alphabet values must be finite, got {levels.tolist()}")
    return levels


def _check_conjugate_symmetry(F: Spectrum, hidden: FreqSet) -> None:
    neg = negate_indices(np.arange(F.shape.size), F.shape)
    known = ~hidden.mask()
    diff = F.values[known] - np.conj(F.values[neg][known])
    scale = max(1.0, float(np.abs(F.values).max(initial=0.0)))
    if diff.size and float(np.abs(diff).max()) > 1e-9 * scale:
        raise ValueError(
            "observed spectrum is not conjugate-symmetric off the hidden "
            "set; no real-valued signal can produce it"
        )


@dataclass(frozen=True)
class UniquenessCertificate:
    threshold: float
    norm_at_solution: float
    unique: bool


@dataclass(frozen=True)
class RecoveryResult:
    signal: Signal
    objective: float
    certificate: UniquenessCertificate
    iterations: int
    converged: bool
    snapped: bool


def reconstruction_basis(problem: RecoveryProblem) -> tuple[np.ndarray, np.ndarray]:
    """Affine parameterization of the feasible real signals.

    Returns (g0, B): g0 is the minimum-energy completion (hidden
    coefficients zero) and the columns of B span the real signals whose
    spectra live on the hidden set, so every feasible candidate is
    exactly g0 + B @ v.  Each negation orbit of the hidden set is led by
    its smaller index, and the leads are taken in increasing order.  A
    self-paired lead contributes one column (real coefficient); a (m, -m)
    pair contributes a cosine and a sine column for the shared (re, im)
    coefficient.  Both arrays are read-only.
    """
    shape = problem.shape
    root = shape.size**-0.5
    coords = all_coords(shape)
    members = problem.hidden.members
    neg = negate_indices(members, shape)
    is_lead = members <= neg
    leads, paired = members[is_lead], (members != neg)[is_lead]
    n = shape.modulus
    angles = 2.0 * np.pi * (coords @ coords[leads].T % n) / n
    # a cosine and a sine column per lead; a self-paired lead keeps its cosine alone
    cos = np.where(paired, 2.0, 1.0) * np.cos(angles)
    cols = np.stack([cos, -2.0 * np.sin(angles)], axis=2).reshape(len(coords), -1)
    keep = np.stack([np.ones_like(paired), paired], axis=1).ravel()
    B = np.compress(keep, cols, axis=1) * root  # C order: the descent's bits depend on it
    g0 = inverse(problem.observed).values.real
    g0.flags.writeable = B.flags.writeable = False
    return g0, B


def free_parameter_count(problem: RecoveryProblem) -> int:
    return problem.basis[1].shape[1]


def objective_and_gradient(
    problem: RecoveryProblem, v: np.ndarray
) -> tuple[float, np.ndarray]:
    """sum_x |g(x)|^p and its gradient in the free hidden coefficients."""
    g0, B = problem.basis
    return _objective_and_gradient(g0, B, np.asarray(v, dtype=float), problem.p)


def _objective_and_gradient(g0, B, v, p):
    g = g0 + B @ v
    a = np.abs(g)
    obj = float(np.sum(a**p))
    grad = B.T @ (p * np.sign(g) * a ** (p - 1.0))
    return obj, grad


def recover(
    problem: RecoveryProblem,
    tol: float = 1e-8,
    max_iters: int = 50_000,
    alphabet: Sequence[float] | None = None,
) -> RecoveryResult:
    """Minimize ||g||_p over real signals matching the observed spectrum.

    After its input checks, recover runs in stages.  Enumerate: with an
    alphabet, :func:`alphabet_candidates` lists the feasible alphabet-valued
    signals exactly, or gives None when out of budget.  Descend:
    :func:`_descend` from the minimum-energy completion; every iterate is
    feasible by construction, and tol must be finite and >= 0.  Pick: the
    minimal-norm value-separated candidate, which decodes correctly
    whenever the instance determines the signal at all.  Without
    candidates, the descent output rounded to the nearest alphabet values
    if that reproduces the observed spectrum, else the raw minimizer;
    rounding alone can mis-decode when the minimizer sits more than half a
    level away from the transmitted signal.  Certify: unique iff the
    picked signal's norm is below problem.threshold.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got tol={tol}")
    p = problem.p
    candidates = None if alphabet is None else alphabet_candidates(problem, alphabet)
    g0, B = problem.basis
    v, iters, converged = _descend(g0, B, p, tol, max_iters)

    raw = g0 + B @ v
    signal, snapped = Signal(problem.shape, raw), False
    if candidates:
        spaced = [c for c in candidates if separated(c.values.real, problem.delta)]
        signal = min(spaced or candidates, key=lambda c: lp_norm(c, p))
        snapped = True
    elif alphabet is not None:
        rounded = Signal(problem.shape, _snap(raw, _levels(alphabet)))
        if feasibility_error(problem, rounded) <= FEASIBILITY_TOL:
            signal, snapped = rounded, True

    norm = lp_norm(signal, p)
    threshold = problem.threshold
    # the verdict reads the reported threshold, so the two cannot disagree
    cert = UniquenessCertificate(threshold=threshold, norm_at_solution=norm, unique=norm < threshold)
    return RecoveryResult(
        signal=signal,
        objective=norm,
        certificate=cert,
        iterations=iters,
        converged=converged,
        snapped=snapped,
    )


def _descend(g0, B, p, tol, max_iters) -> tuple[np.ndarray, int, bool]:
    """(v, iterations, converged) of descent on sum_x |g0 + B v|^p from v = 0.

    p > 1: Armijo backtracking, where each trial step evaluates the
    objective alone and the gradient is formed once per accepted step.
    p = 1: subgradient steps with a diminishing schedule and no convergence
    guarantee; the best iterate seen is returned.  Both stop once the
    gradient norm is at most tol * max(1, sum_x |g(x)|^p).
    """
    v = np.zeros(B.shape[1])
    obj, grad = _objective_and_gradient(g0, B, v, p)
    converged = False
    iters = 0
    if p > 1:
        # every trial step writes into these; v and v_new swap on acceptance
        v_new, tg = np.empty_like(v), np.empty_like(v)
        g, a, ap, w = (np.empty_like(g0) for _ in range(4))
        step = 1.0
        for iters in range(1, max_iters + 1):
            gn = math.sqrt(grad.dot(grad))  # np.linalg.norm, bit for bit
            if gn <= tol * max(1.0, obj):
                converged = True
                break
            t = step
            for _ in range(60):
                # the objective alone, in the operations and order of
                # _objective_and_gradient; np.power gives the bits of `**`
                np.multiply(grad, t, tg)
                np.subtract(v, tg, v_new)
                np.dot(B, v_new, g)
                np.add(g, g0, g)
                np.abs(g, a)
                np.power(a, p, ap)
                obj_new = float(np.add.reduce(ap))
                if obj_new <= obj - 1e-4 * t * gn * gn:
                    break
                t *= 0.5
            else:
                break  # step collapsed below float resolution
            v, v_new, obj = v_new, v, obj_new
            np.sign(g, w)
            np.multiply(p, w, w)
            np.multiply(w, np.power(a, p - 1.0, ap), w)
            grad = np.dot(B.T, w)
            step = min(2.0 * t, 1e6)
    else:
        best_v, best_obj = v.copy(), obj
        for iters in range(1, max_iters + 1):
            gn = float(np.linalg.norm(grad))
            if gn <= tol * max(1.0, obj):
                converged = True
                break
            v = v - (1.0 / math.sqrt(iters)) * grad / max(gn, 1e-30)
            obj, grad = _objective_and_gradient(g0, B, v, p)
            if obj < best_obj:
                best_v, best_obj = v.copy(), obj
        v, obj = best_v, best_obj

    return v, iters, converged


def feasibility_error(problem: RecoveryProblem, candidate: Signal) -> float:
    """Largest deviation of the candidate's spectrum from the observed one."""
    diff = forward(candidate).values - problem.observed.values
    diff[problem.hidden.members] = 0.0
    return float(np.abs(diff).max(initial=0.0))


def _pivot_rows(B: np.ndarray) -> np.ndarray:
    """Indices of t well-conditioned rows spanning the row space of B."""
    n, t = B.shape
    rows: list[int] = []
    residual = B.copy()
    for _ in range(t):
        norms = np.linalg.norm(residual, axis=1)
        pick = int(np.argmax(norms))
        if norms[pick] < 1e-12:
            raise np.linalg.LinAlgError("parameterization basis is rank-deficient")
        rows.append(pick)
        q = residual[pick] / norms[pick]
        residual = residual - np.outer(residual @ q, q)
    return np.array(sorted(rows))


def _snap(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Each value replaced by its nearest level, the first one on a tie."""
    return levels[np.argmin(np.abs(values[..., None] - levels), axis=-1)]


def _product_blocks(levels: np.ndarray, width: int, rows: int):
    """All rows of levels^width in itertools.product order, `rows` at a time.

    Row i holds the base-|levels| digits of i, first coordinate most significant.
    """
    base = len(levels)
    powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    for start in range(0, base**width, rows):
        index = np.arange(start, min(start + rows, base**width), dtype=np.int64)
        yield levels[index[:, None] // powers % base]


def _product_rows(levels: np.ndarray, width: int) -> np.ndarray:
    """All |levels|^width rows of levels^width, in itertools.product order."""
    return next(_product_blocks(levels, width, len(levels) ** width))


def alphabet_candidates(
    problem: RecoveryProblem, alphabet: Sequence[float]
) -> list[Signal] | None:
    """All alphabet-valued signals consistent with the observed spectrum.

    Every feasible real signal is g0 + B v for the affine parameterization,
    and v is pinned by the signal's values on t independent coordinates, so
    running over the |alphabet|^t assignments of levels to those
    coordinates enumerates every alphabet-valued feasible signal exactly.
    The candidates come back in the order of their first assignment.
    Returns None when |alphabet|^t exceeds CANDIDATE_LIMIT (callers fall
    back to rounding).  This stays far cheaper than enumerating all
    |alphabet|^(N^d) signals and never inspects more than the hidden
    coefficients.
    """
    levels = _levels(alphabet)
    g0, B = problem.basis
    t = B.shape[1]
    if len(levels) ** t > CANDIDATE_LIMIT:
        return None
    rows = _pivot_rows(B)
    close = []
    block_rows = max(1, CANDIDATE_BLOCK_POINTS // len(g0))
    for assigned in _product_blocks(levels, t, block_rows):
        G = g0 + np.linalg.solve(B[rows], (assigned - g0[rows]).T).T @ B.T
        snapped = _snap(G, levels)
        close.append(snapped[np.abs(G - snapped).max(axis=1) <= VALUE_TOL])
    snapped = np.concatenate(close)
    _, first = np.unique(snapped, axis=0, return_index=True)
    candidates = [Signal(problem.shape, values) for values in snapped[np.sort(first)]]
    return [c for c in candidates if feasibility_error(problem, c) <= FEASIBILITY_TOL]


@dataclass(frozen=True)
class BruteForceResult:
    signal: Signal
    objective: float
    feasible_count: int
    ambiguous: bool
    runner_up_gap: float | None


def brute_force_recover(
    problem: RecoveryProblem, value_alphabet: Sequence[float]
) -> BruteForceResult:
    """Enumerate every alphabet-valued signal and keep the feasible minimum.

    Independent of :func:`recover`: feasibility is checked against the
    observed spectrum with an explicitly built character-sum transform
    matrix.  A signal is feasible when its spectrum is within MATCH_TOL of
    the observed one at every known frequency.  Ambiguity is reported when
    a second feasible signal comes within 1e-9 of the minimal norm.

    Each signal is split into head coordinates and the last `low` tail
    coordinates, as many as keep |alphabet|^low within ORACLE_TAIL_ROWS but
    at least one, so that at most ORACLE_BUDGET / |alphabet| heads remain.
    The tails' share of the known spectrum, minus the observed values, is
    one real matmul against the stacked real and imaginary character rows,
    and each head adds its own share, one row vector, to it.  Blocks of heads
    covering about ORACLE_TAIL_ROWS signals are tested on one known
    frequency first; only the signals that pass are tested on all of them.
    Signals are visited in itertools.product order.
    """
    shape = problem.shape
    levels = _levels(value_alphabet)
    count = len(levels) ** shape.size
    if count > ORACLE_BUDGET:
        raise EnumerationBudgetExceeded(
            f"{len(levels)}^{shape.size} = {count} candidates exceed the "
            f"budget of {ORACLE_BUDGET}"
        )
    coords = all_coords(shape)
    dots = (coords @ coords.T) % shape.modulus
    W = np.exp(-2j * np.pi * dots / shape.modulus) * shape.size**-0.5

    known = np.flatnonzero(~problem.hidden.mask())
    k = len(known)
    chars = np.concatenate([W[known].real, W[known].imag])  # (2k, N^d)
    observed = problem.observed.values[known]
    probe = int(np.argmax(known != 0))  # a nonzero frequency, when one is known

    low = 1
    while low < shape.size and len(levels) ** (low + 1) <= ORACLE_TAIL_ROWS:
        low += 1
    cut = shape.size - low
    heads, tails = _product_rows(levels, cut), _product_rows(levels, low)
    head_sums = heads @ chars[:, :cut].T
    residual = tails @ chars[:, cut:].T
    residual -= np.concatenate([observed.real, observed.imag])

    best: tuple[float, np.ndarray] | None = None
    second: float | None = None
    feasible = 0
    block = max(1, ORACLE_TAIL_ROWS // len(tails))  # heads per block
    for start in range(0, len(heads), block):
        shift = head_sums[start:start + block, None, :]
        near = np.hypot(shift[..., probe] + residual[:, probe],
                        shift[..., k + probe] + residual[:, k + probe]) <= MATCH_TOL
        head, row = np.nonzero(near)  # in itertools.product order
        r = residual[row] + shift[head, 0]
        match = np.hypot(r[:, :k], r[:, k:]).max(axis=1) <= MATCH_TOL
        for h, t in zip(head[match], row[match]):
            values = np.concatenate([heads[start + h], tails[t]])
            feasible += 1
            norm = lp_norm(values, problem.p)
            if best is None or norm < best[0] - 1e-15:
                second = None if best is None else best[0]
                best = (norm, values)
            elif second is None or norm < second:
                second = norm

    if best is None:
        raise RecoveryError("no alphabet-valued signal matches the observed spectrum")
    norm, values = best
    ambiguous = second is not None and (second - norm) <= 1e-9
    return BruteForceResult(
        signal=Signal(shape, values),
        objective=norm,
        feasible_count=feasible,
        ambiguous=ambiguous,
        runner_up_gap=None if second is None else second - norm,
    )


def _hidden_set_tables(shape: GridShape, size: int):
    """What every symmetric hidden set of `size` members on `shape` is drawn from.

    Returns (neg, fixed, pair_lo, choices): neg[i] is the index of -i over
    the whole grid, fixed the self-paired indices, pair_lo the smaller index
    of each (m, -m) pair, and choices the (pairs, singles) splits of `size`
    the grid admits.  None of it depends on the draw.
    """
    if not 1 <= size < shape.size:  # a full set would leave nothing observed
        raise ValueError(f"hidden set size must be >= 1 and < {shape.size}, got {size}")
    indices = np.arange(shape.size)
    neg = negate_indices(indices, shape)
    fixed = indices[neg == indices]
    pair_lo = indices[indices < neg]
    choices = []
    for pairs in range(size // 2 + 1):
        singles = size - 2 * pairs
        if singles <= fixed.size and pairs <= pair_lo.size:
            choices.append((pairs, singles))
    if not choices:
        raise ValueError(f"no negation-closed set of size {size} exists on {shape}")
    return neg, fixed, pair_lo, choices


def _draw_hidden_set(rng: np.random.Generator, tables) -> list[int]:
    """Members of one symmetric hidden set: a split, then its pairs and singles."""
    neg, fixed, pair_lo, choices = tables
    pairs, singles = choices[rng.integers(len(choices))]
    members = []
    if pairs:
        lo = rng.choice(pair_lo, size=pairs, replace=False)
        members.extend(lo.tolist())
        members.extend(neg[lo].tolist())
    if singles:
        members.extend(rng.choice(fixed, size=singles, replace=False).tolist())
    return members


def symmetric_hidden_set(shape: GridShape, size: int, seed) -> FreqSet:
    """A random negation-closed frequency set with exactly `size` elements.

    The draw picks a (pairs, singles) split of `size` uniformly among those
    the grid admits, then that many (m, -m) pairs and self-paired frequencies
    without replacement.
    """
    tables = _hidden_set_tables(shape, size)
    return FreqSet.from_indices(shape, _draw_hidden_set(as_generator(seed), tables))


#: The exponents random_instance tries, largest first, and its number of
#: draws before it gives up.  A draw's exponent and whether it is accepted
#: depend on both, so they are part of the seed contract: changing either
#: changes the instances a seed gives.
P_GRID = (2.5, 2.25, 2.0, 1.9, 1.75, 1.5, 1.4, 1.3, 1.25, 1.1)
MAX_TRIES = 2000


def random_instance(
    shape: GridShape,
    hidden_size: int,
    seed,
    alphabet: Sequence[float] = (0.0, 1.0),
    well_posed: bool = True,
) -> tuple[RecoveryProblem, Signal]:
    """A random alphabet-valued instance satisfying the uniqueness threshold.

    Draws a separated non-constant alphabet signal and a symmetric hidden
    set (as :func:`symmetric_hidden_set` does, from the same generator),
    then picks the first (largest) exponent of P_GRID for which
    ||truth||_p < delta / (2 sqrt(c_size)), with delta the alphabet's
    smallest gap; combinations admitting no such exponent are rejected and
    redrawn.  Every hidden set has hidden_size members, so the limit for
    each p is computed once per call, and the spectrum and problem are
    built only for a draw that passes.

    The threshold guarantees uniqueness of the separated candidate only in
    the p >= 2 regime of the sup-norm bound; for the exponents below 2
    that small grids force, a threshold-satisfying instance can still
    admit two feasible alphabet signals.  With well_posed=True (default)
    such draws are rejected by enumerating the feasible alphabet signals,
    so the returned instance always determines its truth.

    Raises ValueError before any draw when no draw could succeed (an
    alphabet of fewer than two values, or with two within VALUE_EQ_TOL; a
    hidden size below 1, of the whole grid, or of no negation-closed set),
    and RecoveryError after MAX_TRIES draws, saying how many were not
    separated, had no admissible exponent, or were ambiguous, and the
    smallest norm / limit seen.
    """
    rng = as_generator(seed)
    levels = _levels(alphabet)
    if levels.size < 2:
        raise ValueError("alphabet must contain at least two values")
    delta = float(np.diff(levels).min())
    if delta <= VALUE_EQ_TOL:  # values this close are one level to `separated`
        raise ValueError(f"alphabet values must differ by more than {VALUE_EQ_TOL}")
    tables = _hidden_set_tables(shape, hidden_size)
    limits = [_threshold(delta, hidden_size, shape, p) for p in P_GRID]
    unseparated = no_exponent = ambiguous = 0
    best_ratio = math.inf
    for _ in range(MAX_TRIES):
        values = levels[rng.integers(levels.size, size=shape.size)]
        if not separated(values, delta):
            unseparated += 1
            continue
        members = _draw_hidden_set(rng, tables)
        # lp_norm's expression (the same reduction as np.sum); the signal
        # is non-constant, so top > 0
        mags = np.abs(values)
        top = float(mags.max())
        r = mags / top
        for p, limit in zip(P_GRID, limits):
            norm = top * float((r**p).sum()) ** (1.0 / p)
            best_ratio = min(best_ratio, norm / limit)
            if norm < limit:
                truth = Signal(shape, values)
                hidden = FreqSet.from_indices(shape, members)
                problem = RecoveryProblem(
                    shape=shape,
                    observed=forward(truth),
                    hidden=hidden,
                    p=p,
                    delta=delta,
                )
                if well_posed:
                    candidates = alphabet_candidates(problem, levels)
                    if candidates is not None and len(candidates) != 1:
                        ambiguous += 1
                        break  # ambiguous draw; redraw signal and set
                return problem, truth
        else:
            no_exponent += 1
    raise RecoveryError(
        f"no instance satisfying the uniqueness threshold found in "
        f"{MAX_TRIES} draws (grid {shape}, hidden size {hidden_size}): "
        f"{unseparated} not separated, {no_exponent} with no admissible "
        f"exponent, {ambiguous} ambiguous; smallest norm / limit {best_ratio:.6g}"
    )
