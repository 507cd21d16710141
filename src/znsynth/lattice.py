"""The group Z_N^d and the row-major linear indexing of its points.

Points of the group are d-tuples of residues modulo N.  Every point also
has a linear index in [0, N^d), assigned row-major over the coordinates
(the last coordinate varies fastest), which is the order used by every
array and file format in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest grid we are willing to address with int64 linear indices.
MAX_POINTS = 2**62

GridPoint = tuple[int, ...]


@dataclass(frozen=True)
class GridShape:
    """The ambient group Z_N^d (modulus N, dimension d)."""

    modulus: int
    dim: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.modulus**self.dim > MAX_POINTS:
            raise ValueError(
                f"grid with {self.modulus}^{self.dim} points exceeds the "
                f"addressable range"
            )

    @property
    def size(self) -> int:
        """Total number of points, N^d."""
        return self.modulus**self.dim

    @property
    def axes(self) -> tuple[int, ...]:
        """Shape tuple (N, ..., N) for reshaping flat arrays to the grid."""
        return (self.modulus,) * self.dim

    def __str__(self) -> str:
        return f"{self.modulus}x{self.dim}"


def encode(p: GridPoint, shape: GridShape) -> int:
    """Row-major linear index of a point (last coordinate fastest)."""
    if len(p) != shape.dim:
        raise ValueError(f"point has {len(p)} coordinates, expected {shape.dim} for {shape}")
    n = shape.modulus
    idx = 0
    for c in p:
        idx = idx * n + (int(c) % n)
    return idx


def decode(index: int, shape: GridShape) -> GridPoint:
    """Inverse of :func:`encode`."""
    if not 0 <= index < shape.size:
        raise ValueError(f"linear index {index} out of range for {shape}")
    n = shape.modulus
    coords = []
    for _ in range(shape.dim):
        coords.append(index % n)
        index //= n
    return tuple(reversed(coords))


def all_coords(shape: GridShape) -> np.ndarray:
    """(N^d, d) int array of coordinates in linear-index order."""
    grids = np.unravel_index(np.arange(shape.size), shape.axes)
    return np.stack(grids, axis=1).astype(np.int64)


def negate_indices(indices: np.ndarray, shape: GridShape) -> np.ndarray:
    """Linear indices of -x for an array of linear indices x."""
    coords = np.stack(np.unravel_index(np.asarray(indices), shape.axes), axis=-1)
    neg = (-coords) % shape.modulus
    return np.ravel_multi_index(tuple(neg.T), shape.axes)

