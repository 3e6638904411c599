"""Smoke-size self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Runs every workload at the smoke size with tracing off and on, checks the
output contract against BENCHMARK.json, and checks that the output check,
the memory guard and the tracer do what the benchmark relies on.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_meets_output_contract(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for line in ("fail_frac", "env "):
        assert line in proc.stdout


def test_workload_names_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES


def test_inputs_repeat_for_a_seed():
    a = workloads.build("oracles", 5, "smoke")
    b = workloads.build("oracles", 5, "smoke")
    assert run.flat_values(a.stages(a.call())) == run.flat_values(b.stages(b.call()))


def test_output_check_can_fail():
    prepared = workloads.build("round-exact", 2, "smoke")
    stages = prepared.stages(prepared.call())
    ref = run.flat_values(stages)
    assert run.check(stages, ref) == []
    # a deterministic value off by more than 1e-9 fails its stage
    bad = {**ref, "rounding-value.exact_test_value": {**ref["rounding-value.exact_test_value"]}}
    bad["rounding-value.exact_test_value"]["value"] += 1e-6
    assert run.check(stages, bad) == ["rounding-value"]
    # a Monte Carlo value fails beyond 4 combined sigma and passes within it
    mc = ref["rounding-value.value"]
    sigma = 2 ** 0.5 * max(mc["stderr"], 1.0 / mc["samples"])
    near = {**ref, "rounding-value.value": {**mc, "value": mc["value"] + 3.5 * sigma}}
    far = {**ref, "rounding-value.value": {**mc, "value": mc["value"] + 4.5 * sigma}}
    assert run.check(stages, near) == []
    assert run.check(stages, far) == ["rounding-value"]
    # a stage the reference expects but the run lacks is a failure
    assert run.check(stages[:-1], ref) == ["missing:rounding-value.exact_test_value",
                                          "missing:rounding-value.value"]
    # a False verdict fails without any reference
    stages[0]["status"] = "fail"
    assert run.check(stages, None) == ["verify-input"]


def test_every_seed_has_a_stored_reference():
    refs = json.loads(run.REFERENCES.read_text())
    for name in workloads.NAMES:
        assert set(refs[name]) == {str(s) for s in range(run.REFERENCE_SEEDS)}
    assert run.load_references("oracles", 7, "full") == refs["oracles"]["7"]
    # an input seed without a stored reference refuses the run
    with pytest.raises(SystemExit):
        run.load_references("oracles", run.REFERENCE_SEEDS, "full")


def test_counts_that_differ_between_traced_calls_are_reported():
    a = {"x.calls": (3, "count"), "x.s": (0.1, "s"), "x.bytes": (8, "B")}
    b = {"x.calls": (3, "count"), "x.s": (0.2, "s"), "x.bytes": (16, "B")}
    assert run.unsteady_counts([a, a]) == []
    assert run.unsteady_counts([a, b]) == ["x.bytes"]


def test_vacuous_completeness_bound_is_marked():
    prepared = workloads.build("reduce-mc", 1, "smoke")
    statuses = {s["stage"]: s["status"] for s in prepared.stages(prepared.call())}
    assert statuses["reduction-acceptance"] == "vacuous"


def test_memory_guard_refuses_exact_decoupling_at_r6(monkeypatch):
    sizes = {**workloads.SIZES["smoke"], "oracles": {**workloads.SIZES["smoke"]["oracles"], "decouple_R": 6}}
    monkeypatch.setitem(workloads.SIZES, "smoke", sizes)
    with pytest.raises(workloads.MemoryGuardError):
        workloads.build("oracles", 0, "smoke")
    assert workloads.guard_exact("ok", 16 ** 5) == 16 ** 5


def test_tracer_counts_repeat_and_originals_return():
    from biascsp import pseudodist
    from biascsp.harness import pipeline

    original = pipeline.verify_feasible
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            prepared = workloads.build("pd-scale", 4, "smoke")
            prepared.call()
            assert pipeline.verify_feasible is not original
            m = tracer.metrics(1.0, 0.5)
        counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["pseudodist.local.calls"] > 0
    assert pipeline.verify_feasible is original is pseudodist.verify_feasible


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "pd-scale", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
