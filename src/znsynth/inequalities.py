"""L^p machinery and the two sup-norm synthesis bounds for band-limited signals.

Both bounds control ||f||_inf for a signal f whose spectrum is contained
in a frequency set S:

* support-size bound:   ||f||_inf <= sqrt(|S| / N^(2d/p)) * ||f||_p
* indicator-dual bound: ||f||_inf <= N^(-d/2) * ||f||_p * ||1S_hat||_p'

All norms are taken with respect to counting measure (no volume
normalization).  Norms normalized by N^(d/p) appear only locally inside
:mod:`constructions`, where they are denormalized explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, SupportViolation
from .fourier import FreqSet, Signal, Spectrum, forward, indicator_spectrum, support
from .lattice import GridShape

#: Relative tolerance for inequality assertions, with an absolute
#: fallback when the right-hand side is itself tiny.
BOUND_RTOL = 1e-9
BOUND_ATOL = 1e-12

SUPPORT_SIZE = "support-size"
INDICATOR_DUAL = "indicator-dual"


def dual_exponent(p: float) -> float:
    """The Hoelder conjugate p' = p/(p-1), with dual(1) = inf, dual(inf) = 1."""
    if p == math.inf:
        return 1.0
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if p == 1:
        return math.inf
    return p / (p - 1)


def lp_norm(f: Signal | Spectrum | np.ndarray, p: float) -> float:
    """Counting-measure norm (sum_x |f(x)|^p)^(1/p); max |f(x)| for p = inf."""
    if not p >= 1:  # NaN fails too
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    values = f.values if isinstance(f, (Signal, Spectrum)) else np.asarray(f)
    mags = np.abs(values)
    top = float(mags.max(initial=0.0))
    if p == math.inf or top == 0.0:
        return top
    # factor out the peak so large p cannot overflow
    return top * float(np.sum((mags / top) ** p)) ** (1.0 / p)


@dataclass(frozen=True)
class InequalityReport:
    """Measured two sides of a sup-norm bound and their ratio."""

    which: str
    p: float
    lhs: float
    rhs: float
    slack_ratio: float
    grid: GridShape
    set_size: int


def bound_holds(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the package-wide assertion tolerance."""
    return lhs <= rhs + max(BOUND_RTOL * rhs, BOUND_ATOL)


def _check_support(f: Signal, S: FreqSet) -> Spectrum:
    F = forward(f)
    supp = support(F)
    outside = np.setdiff1d(supp.members, S.members)
    if outside.size:
        shown = ", ".join(str(int(i)) for i in outside[:8])
        more = "" if outside.size <= 8 else f" (+{outside.size - 8} more)"
        raise SupportViolation(
            f"spectrum has energy at {outside.size} frequencies outside the "
            f"declared set: linear indices {shown}{more}"
        )
    return F


def _report(which: str, f: Signal, S: FreqSet, p: float, lhs: float, rhs: float) -> InequalityReport:
    if not bound_holds(lhs, rhs):
        raise BoundViolation(
            f"{which} bound violated: ||f||_inf = {lhs!r} > bound = {rhs!r}"
        )
    slack = math.inf if lhs == 0.0 else rhs / lhs
    return InequalityReport(
        which=which, p=p, lhs=lhs, rhs=rhs, slack_ratio=slack,
        grid=f.shape, set_size=S.size,
    )


def verify_support_bound(f: Signal, S: FreqSet, p: float) -> InequalityReport:
    """Measure ||f||_inf against vanishing_threshold(|S|, grid, p) * ||f||_p.

    Requires supp(f_hat) inside S (checked numerically) and finite p >= 1.
    The coefficient sqrt(|S|/N^(2d/p)) is a theorem only for p >= 2 (see
    :func:`vanishing_threshold`); a point mass with S the full grid already
    violates it at p = 1.  This function always measures the stated formula
    and raises BoundViolation when the claimed inequality does not hold.
    """
    # an empty S holds only the zero signal: rhs 0, as for every bound
    coeff = vanishing_threshold(S.size, f.shape, p) if S.size else 0.0
    _check_support(f, S)
    lhs = lp_norm(f, math.inf)
    rhs = coeff * lp_norm(f, p)
    return _report(SUPPORT_SIZE, f, S, p, lhs, rhs)


def verify_indicator_bound(f: Signal, S: FreqSet, p: float) -> InequalityReport:
    """Measure ||f||_inf against N^(-d/2) * ||f||_p * ||1S_hat||_p'.

    Requires supp(f_hat) inside S; p may be any element of [1, inf].
    """
    if not p >= 1:  # NaN fails too
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    _check_support(f, S)
    shape = f.shape
    lhs = lp_norm(f, math.inf)
    rhs = (
        shape.size**-0.5
        * lp_norm(f, p)
        * lp_norm(indicator_spectrum(S), dual_exponent(p))
    )
    return _report(INDICATOR_DUAL, f, S, p, lhs, rhs)


def vanishing_threshold(set_size: int, shape: GridShape, p: float) -> float:
    """The coefficient sqrt(|S| / N^(2d/p)) of the support-size bound.

    Every reader of the coefficient calls this function: the support-size
    check, the sweep table, and a recovery problem's uniqueness threshold.
    Multiplying by a uniform L^p bound C gives an upper bound on
    ||f||_inf.  For fixed |S| ~ N^alpha the coefficient tends to zero
    exactly when p < 2d/alpha, which forces any uniformly L^p-bounded
    family with such spectra below every positive level as N grows.

    It is a theorem for p >= 2 only (Cauchy-Schwarz on the inversion sum,
    Plancherel, then the power-mean step ||f||_2 <= N^(d(1/2-1/p)) ||f||_p).
    For 1 <= p < 2 that last step reverses, and the proven coefficient is
    this function's value at p = 2, |S|^(1/2) N^(-d/2), via ||f||_2 <= ||f||_p.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"support-size coefficient requires finite p >= 1, got {p}")
    if set_size < 1:
        raise ValueError("set size must be positive")
    return math.sqrt(set_size / shape.modulus ** (2.0 * shape.dim / p))

