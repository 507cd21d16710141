"""Documents the benchmark writes and reads without znsynth.

The benchmark measures znsynth's serialization layer, so it must not use
that layer to write the inputs it is measured on: a change to
``znsynth.serialization`` could otherwise change the inputs along with the
timings.  The documents follow the formats in the README ("File
formats").  The output checks read the program's documents, and recompute
transforms and exponential sums, with the helpers below; only ``json`` and
``numpy`` are used here.
"""

from __future__ import annotations

import json

import numpy as np


def _pairs(values: np.ndarray) -> list[list[float]]:
    values = np.asarray(values, dtype=np.complex128)
    return np.stack([values.real, values.imag], axis=1).tolist()


def signal_doc(modulus: int, dim: int, domain: str, values: np.ndarray) -> dict:
    """A signal or spectrum document; values in row-major linear-index order."""
    return {"modulus": modulus, "dim": dim, "domain": domain, "values": _pairs(values)}


def problem_doc(
    modulus: int,
    dim: int,
    p: float,
    delta: float,
    c_size: float,
    hidden: np.ndarray,
    observed: np.ndarray,
) -> dict:
    """A recovery-problem document: observed is null on the hidden indices."""
    hidden_set = set(int(m) for m in hidden)
    pairs = _pairs(observed)
    return {
        "grid": {"N": modulus, "d": dim},
        "p": p,
        "delta": delta,
        "c_size": c_size,
        "hidden": sorted(hidden_set),
        "observed": [None if i in hidden_set else pair for i, pair in enumerate(pairs)],
    }


def write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def values_of(doc: dict) -> np.ndarray:
    """Complex values of a signal document, for the output checks."""
    pairs = np.asarray(doc["values"], dtype=float).reshape(-1, 2)
    return pairs[:, 0] + 1j * pairs[:, 1]


def unitary_fft(values: np.ndarray, modulus: int, dim: int) -> np.ndarray:
    """F(m) = N^(-d/2) sum_x e^(-2 pi i x.m/N) f(x), flat row-major."""
    grid = np.asarray(values, dtype=np.complex128).reshape((modulus,) * dim)
    return np.fft.fftn(grid, norm="ortho").reshape(-1)


def indicator_sums(members: list[int], modulus: int, dim: int) -> np.ndarray:
    """sum_{x in S} e^(-2 pi i x.m/N) for every m, flat row-major."""
    ind = np.zeros(modulus**dim)
    ind[members] = 1.0
    return np.fft.fftn(ind.reshape((modulus,) * dim)).reshape(-1)
