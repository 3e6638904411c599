"""Helpers shared by the test modules."""
import contextlib
import tracemalloc
from dataclasses import dataclass

from biascsp.harness import mc


@dataclass
class TracedPeak:
    bytes: int = 0  # the peak traced allocation, set when the block exits


@contextlib.contextmanager
def traced_peak():
    """Trace the allocations of the block and record their peak.

        with traced_peak() as peak:
            work()
        assert peak.bytes < bound
    """
    peak = TracedPeak()
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def cpus(monkeypatch, k: int) -> None:
    """Let mc_run see k usable CPUs, whatever the host has."""
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(k)))
