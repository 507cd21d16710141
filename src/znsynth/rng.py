"""Seed handling: every experiment is reproducible from (seed, parameters).

Parallel work derives one child stream per task index via SeedSequence
spawning, so results do not depend on the number of workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")


def as_generator(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators derived from one seed, one per task index."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]


def run_indexed(fn: Callable[[int], T], n: int, workers: int = 1) -> list[T]:
    """Evaluate fn(0..n-1), possibly in parallel, returning results in index order."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))
