"""Managed Monte Carlo runs, their chunk driver and the exact-enumeration cap."""
from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .rng import rng_for

ORACLE_CAP = 1 << 24
CHUNK = 1 << 16
# Entries (2 MiB of float64) in one working block of a Monte Carlo kernel: the
# shared matrices of a chunk of rounding rounds, a row block of the dictator.
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
    threads: int


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The calling thread's scratch buffers while it runs chunks, by (name, dtype).
_worker = threading.local()


def scratch(name: str, shape, dtype=float) -> np.ndarray:
    """An uninitialised array of ``shape`` (an int or a tuple) for a chunk's
    working data.

    Inside a :func:`run_chunks` work call it is a view of the running
    thread's own buffer ``name``, which that thread's later chunks get
    again (grown when a chunk needs more), so a chunk-sized array is
    faulted in once per thread, not once per chunk.  The view is valid
    until the thread's next ``scratch(name)`` call: a work call must not
    return it, nor hold two arrays of one name at once.  Outside a run it
    is a fresh ``np.empty``.
    """
    buffers = getattr(_worker, "buffers", None)
    if buffers is None:
        return np.empty(shape, dtype)
    key = (name, dtype)
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    buf = buffers.get(key)
    if buf is None or buf.size < size:
        buf = buffers[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _with_scratch(run):
    """``run()`` with a scratch of its own on this thread; the thread's
    previous scratch (if any) is back when it returns or raises."""
    outer = getattr(_worker, "buffers", None)
    _worker.buffers = {}
    try:
        return run()
    finally:
        _worker.buffers = outer


def run_chunks(work, total: int, chunk: int, *, parallel: bool = True) -> tuple[list, int]:
    """``[work(c, size) for each chunk c]`` and the number of threads that ran them.

    ``total`` items are cut into chunks of ``chunk``, the last one shorter.
    ``work`` must draw only from generators keyed by its chunk index
    (``rng_for(seed, *tag, c)``), so each result depends on (c, size) alone.
    With ``parallel`` the chunks run on one thread per usable CPU, capped at
    the chunk count, the calling thread among them.  A free thread takes the
    lowest chunk that no thread has taken and makes that chunk's generators
    itself, so each thread holds one chunk's working set at a time.  The
    results come back in chunk order whichever thread ran them; ``work``
    must then be safe to call from several threads at once.  A chunk's error
    stops the other threads from taking chunks and is re-raised here once
    they have all ended.  ``total < 1`` and ``chunk < 1`` are refused before
    ``work`` is called.  Each thread's :func:`scratch` lasts for the run:
    it is dropped when this returns or raises.
    """
    if total < 1:
        raise ValueError("need at least one sample")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    sizes = [min(chunk, total - start) for start in range(0, total, chunk)]
    threads = min(_usable_cpus(), len(sizes)) if parallel else 1
    if threads == 1:
        return _with_scratch(lambda: [work(c, n) for c, n in enumerate(sizes)]), 1
    results: list = [None] * len(sizes)
    errors: list = []
    jobs = iter(enumerate(sizes))
    lock = threading.Lock()

    def take_chunks():
        while not errors:
            with lock:
                job = next(jobs, None)
            if job is None:
                return
            try:
                results[job[0]] = work(*job)
            except BaseException as exc:  # re-raised by the calling thread
                errors.append(exc)

    def worker():
        _with_scratch(take_chunks)

    workers = [threading.Thread(target=worker, daemon=True) for _ in range(threads - 1)]
    for w in workers:
        w.start()
    try:
        worker()
    finally:
        for w in workers:
            w.join()
    if errors:
        raise errors[0]
    return results, threads


def _chunk_sums(estimator, rng, n: int) -> tuple[float, float]:
    """The sum and the sum of squares of one chunk's values; the squares go
    into the running thread's scratch, the floats of ``vals ** 2``."""
    vals = np.asarray(estimator(rng, n), dtype=float)
    if vals.size != n:
        raise ValueError("estimator returned wrong sample count")
    squares = np.square(vals, out=scratch("mc.squares", vals.shape))
    return float(vals.sum()), float(squares.sum())


def mc_run(
    estimator, samples: int, seed: int, tag: str = "estimate", *, parallel: bool = False, chunk: int | None = None
) -> McRun:
    """Chunked Monte Carlo run of ``estimator(rng, n) -> array of n values``.

    Chunk c of ``chunk`` samples (``CHUNK`` when not given) draws from
    ``rng_for(seed, tag, c)`` and the chunk sums are combined by index
    (:func:`run_chunks`), so the result depends only on (seed, tag, samples,
    chunk).  With ``parallel`` the chunks run on every usable CPU and the
    result is the serial one bit for bit; the estimator must then be safe to
    call from several threads at once.
    """
    t0 = time.perf_counter()
    parts, threads = run_chunks(
        lambda c, n: _chunk_sums(estimator, rng_for(seed, tag, c), n),
        samples,
        CHUNK if chunk is None else chunk,
        parallel=parallel,
    )
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
