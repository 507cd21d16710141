"""Unitary discrete Fourier transform and inversion on Z_N^d.

Conventions, used everywhere in this package:

* forward:  F(m) = N^(-d/2) * sum_x e^(-2*pi*i*x.m/N) f(x)
* inverse:  f(x) = N^(-d/2) * sum_m e^(+2*pi*i*x.m/N) F(m)

The symmetric N^(-d/2) normalization makes the transform unitary, so
Parseval/Plancherel identities hold with no extra factors.  All arrays
are flat, in the row-major linear-index order defined by :mod:`lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .lattice import GridShape, negate_indices

#: Membership threshold for extracting the support of a numeric spectrum.
SUPPORT_RTOL = 1e-9


@dataclass(frozen=True)
class _GridFunction:
    """Complex values on the grid, one per point: finite, flat and read-only."""

    shape: GridShape
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128).reshape(-1).copy()
        if arr.size != self.shape.size:
            raise ValueError(
                f"expected {self.shape.size} values for grid {self.shape}, got {arr.size}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("values must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def grid(self) -> np.ndarray:
        """Values reshaped to (N, ..., N)."""
        return self.values.reshape(self.shape.axes)


@dataclass(frozen=True)
class Signal(_GridFunction):
    """A complex-valued function on the grid (space domain)."""

    @classmethod
    def delta(cls, shape: GridShape, index: int = 0) -> "Signal":
        v = np.zeros(shape.size, dtype=np.complex128)
        v[index] = 1.0
        return cls(shape, v)

    @classmethod
    def constant(cls, shape: GridShape, value: complex = 1.0) -> "Signal":
        return cls(shape, np.full(shape.size, value, dtype=np.complex128))


@dataclass(frozen=True)
class Spectrum(_GridFunction):
    """A complex-valued function on the grid (frequency domain)."""


@dataclass(frozen=True)
class FreqSet:
    """A subset of frequencies, stored as sorted unique linear indices."""

    shape: GridShape
    members: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self):
        m = np.unique(np.asarray(self.members, dtype=np.int64))
        if m.size and (m[0] < 0 or m[-1] >= self.shape.size):
            raise ValueError(f"set members out of range [0, {self.shape.size})")
        m.setflags(write=False)
        object.__setattr__(self, "members", m)

    @property
    def size(self) -> int:
        return int(self.members.size)

    @classmethod
    def from_indices(cls, shape: GridShape, indices: Iterable[int]) -> "FreqSet":
        return cls(shape, np.fromiter(indices, dtype=np.int64))

    @classmethod
    def full(cls, shape: GridShape) -> "FreqSet":
        return cls(shape, np.arange(shape.size, dtype=np.int64))

    def indicator(self) -> np.ndarray:
        v = np.zeros(self.shape.size, dtype=np.float64)
        v[self.members] = 1.0
        return v

    def mask(self) -> np.ndarray:
        m = np.zeros(self.shape.size, dtype=bool)
        m[self.members] = True
        return m

    def symmetrized(self) -> "FreqSet":
        """S united with -S."""
        return FreqSet(
            self.shape,
            np.union1d(self.members, negate_indices(self.members, self.shape)),
        )


def forward(f: Signal) -> Spectrum:
    """Forward unitary transform."""
    out = np.fft.fftn(f.grid()) * f.shape.size ** -0.5
    return Spectrum(f.shape, out.reshape(-1))


def inverse(F: Spectrum) -> Signal:
    """Inverse unitary transform; inverse(forward(f)) == f."""
    out = np.fft.ifftn(F.grid()) * F.shape.size**0.5
    return Signal(F.shape, out.reshape(-1))


def indicator_spectrum(S: FreqSet) -> Signal:
    """The transform of the indicator of S, as a function on the grid.

    This is the convolution kernel that reproduces signals whose spectrum
    lives in S (used with the conjugate when S is not symmetric).
    """
    if S.size == 0:
        raise ValueError("indicator_spectrum requires a non-empty set")
    out = np.fft.fftn(S.indicator().reshape(S.shape.axes)) * S.shape.size ** -0.5
    return Signal(S.shape, out.reshape(-1))


def support(F: Spectrum) -> FreqSet:
    """Indices where |F| exceeds SUPPORT_RTOL * max(1, ||F||_inf).

    The cutoff exists only because floating point blurs exact zeros.
    """
    mags = np.abs(F.values)
    cutoff = SUPPORT_RTOL * max(1.0, float(mags.max(initial=0.0)))
    return FreqSet(F.shape, np.nonzero(mags > cutoff)[0])
