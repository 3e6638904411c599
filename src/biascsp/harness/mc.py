"""Managed Monte Carlo runs and the exact-enumeration cap."""
from __future__ import annotations

import math
import os
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .rng import rng_for

ORACLE_CAP = 1 << 24
CHUNK = 1 << 16
# Entries (2 MiB of float64) in one working block of a Monte Carlo kernel: the
# shared matrices of a block of rounding rounds, a row block of the dictator.
BLOCK_ENTRIES = 1 << 18
# Generators the calling thread makes ahead of each worker: enough to keep the
# worker busy, and memory does not grow with the chunk count.
_AHEAD = 2


@dataclass
class McRun:
    value: float
    stderr: float
    samples: int
    seed: int
    tag: str
    ci95: tuple[float, float]
    wall_time: float
    threads: int


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_sums(estimator, rng, n: int) -> tuple[float, float]:
    vals = np.asarray(estimator(rng, n), dtype=float)
    if vals.size != n:
        raise ValueError("estimator returned wrong sample count")
    return float(vals.sum()), float((vals ** 2).sum())


def _threaded_sums(estimator, sizes: list[int], seed: int, tag: str, threads: int) -> list:
    """Chunk c goes to stripe c % threads; the calling thread works stripe 0
    and makes every generator, in chunk order, for the workers' inboxes."""
    sums: list = [None] * len(sizes)
    errors: list = []
    inboxes = [queue.Queue(maxsize=_AHEAD) for _ in range(threads - 1)]

    def work(inbox):
        while (job := inbox.get()) is not None:
            c, rng = job
            if errors:
                continue  # drain the inbox until the stop signal
            try:
                sums[c] = _chunk_sums(estimator, rng, sizes[c])
            except BaseException as exc:  # re-raised by the calling thread
                errors.append(exc)

    workers = [threading.Thread(target=work, args=(inbox,), daemon=True) for inbox in inboxes]
    for w in workers:
        w.start()
    try:
        for c, n in enumerate(sizes):
            if errors:
                break
            rng = rng_for(seed, tag, c)
            if c % threads:
                inboxes[c % threads - 1].put((c, rng))
            else:
                sums[c] = _chunk_sums(estimator, rng, n)
    finally:
        for inbox in inboxes:
            inbox.put(None)
        for w in workers:
            w.join()
    if errors:
        raise errors[0]
    return sums


def mc_run(estimator, samples: int, seed: int, tag: str = "estimate", *, parallel: bool = False) -> McRun:
    """Chunked Monte Carlo run of ``estimator(rng, n) -> array of n values``.

    Chunk c draws from ``rng_for(seed, tag, c)`` and the chunk sums are
    combined by index, so the result depends only on (seed, tag, samples).
    With ``parallel`` the chunks run on one thread per usable CPU, the
    calling thread among them, and the result is the serial one bit for bit;
    the estimator must then be safe to call from several threads at once.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    t0 = time.perf_counter()
    sizes = [min(CHUNK, samples - start) for start in range(0, samples, CHUNK)]
    threads = min(_usable_cpus(), len(sizes)) if parallel else 1
    if threads > 1:
        parts = _threaded_sums(estimator, sizes, seed, tag, threads)
    else:
        parts = [_chunk_sums(estimator, rng_for(seed, tag, c), n) for c, n in enumerate(sizes)]
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
        threads=threads,
    )
