"""Independent oracles and instance builders shared by the test suite.

The transform oracle here is deliberately naive: it evaluates the
defining double sum through an explicit character matrix built from
integer dot products, with no per-axis factorization and no use of the
package's fast path.
"""

from __future__ import annotations

import numpy as np

from znsynth.constructions import normalized_indicator_signal
from znsynth.fourier import FreqSet, Signal, Spectrum, forward, inverse
from znsynth.inequalities import lp_norm
from znsynth.lattice import GridShape, all_coords


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


def complex_indicator_norms(S: FreqSet, p: float) -> tuple[float, float]:
    """(||f||_inf, ||f||_p) of the normalized indicator signal by the complex route."""
    f = normalized_indicator_signal(S)
    return lp_norm(f, np.inf), lp_norm(f, p)
