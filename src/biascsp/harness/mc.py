"""Managed Monte Carlo runs and the exact-enumeration cap."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .rng import rng_for

ORACLE_CAP = 1 << 24
CHUNK = 1 << 16
# Entries (2 MiB of float64) in one working block of a Monte Carlo kernel: the
# shared matrices of a block of rounding rounds, a row block of the dictator.
BLOCK_ENTRIES = 1 << 18


@dataclass
class McRun:
    value: float
    stderr: float
    samples: int
    seed: int
    tag: str
    ci95: tuple[float, float]
    wall_time: float


def mc_run(estimator, samples: int, seed: int, tag: str = "estimate") -> McRun:
    """Chunked Monte Carlo run of ``estimator(rng, n) -> array of n values``.

    Chunk c draws from ``rng_for(seed, tag, c)`` and the chunk sums are
    combined by index, so the result depends only on (seed, tag, samples).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    t0 = time.perf_counter()
    parts = []
    for c in range((samples + CHUNK - 1) // CHUNK):
        n = min(CHUNK, samples - c * CHUNK)
        vals = np.asarray(estimator(rng_for(seed, tag, c), n), dtype=float)
        if vals.size != n:
            raise ValueError("estimator returned wrong sample count")
        parts.append((float(vals.sum()), float((vals ** 2).sum())))
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    value = total / samples
    var = max(total_sq / samples - value ** 2, 0.0)
    stderr = math.sqrt(var / samples)
    return McRun(
        value=value,
        stderr=stderr,
        samples=samples,
        seed=seed,
        tag=tag,
        ci95=(value - 1.96 * stderr, value + 1.96 * stderr),
        wall_time=time.perf_counter() - t0,
    )
