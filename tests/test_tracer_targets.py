"""The benchmark tracer's wrap table still names the library's callables.

The tracer (``perfbench/tracing.py``) wraps library functions by module and
attribute name.  A renamed or inlined function leaves its span, and every
per-layer metric read from it, at 0 without an error, so these tests read
the table and run one traced call; nothing under ``perfbench/`` changes.
"""
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name, owner, attr", [target[:3] for target in tracing.TARGETS])
def test_every_target_resolves_to_a_library_callable(name, owner, attr):
    module, _, cls = owner.partition(":")
    holder = importlib.import_module(module)
    if cls:
        holder = getattr(holder, cls)
        assert attr in vars(holder), name  # the tracer replaces it on the class itself
    assert callable(getattr(holder, attr)), name


def test_traced_round_exact_counts_every_polynomial_point():
    # one point per round and vertex, in both rounding checks
    size = workloads.SIZES["smoke"]["round-exact"]
    prepared = workloads.build("round-exact", 0, "smoke")
    with tracing.Tracer() as tracer:
        prepared.call()
    rounds = size["trials"] + size["value_trials"]
    assert tracer.counts["polynomial.evaluate.points"] == rounds * size["n"]
    assert tracer.calls["rounding.value_check"] == tracer.calls["rounding.bias_concentration_check"] == 1
