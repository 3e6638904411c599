"""``tools/stage_digest.py``: one digest per workload and seed, reproducible."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stage_digest.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402


def digests(seeds: str, *flags: str) -> list[list[str]]:
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), seeds, "--size", "smoke", *flags], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def load_tool():
    spec = importlib.util.spec_from_file_location("stage_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_two_runs_give_equal_digests():
    first = digests("0")
    assert [line[:2] for line in first] == [[name, "0"] for name in ("pd-scale", "round-exact", "reduce-mc", "oracles")]
    assert all(len(line[2]) == 64 for line in first)
    assert digests("0") == first


def test_seed_ranges():
    tool = load_tool()
    assert tool.parse_seeds("3") == [3]
    assert tool.parse_seeds("0-4,11") == [0, 1, 2, 3, 4, 11]


def test_per_stage_digests_name_every_stage():
    lines = digests("0-1", "--per-stage", "--workload", "round-exact")
    stages = ["verify-input", "smooth", "condition", "vector-solution", "rounding-variance", "rounding-value"]
    assert [line[:3] for line in lines] == [["round-exact", seed, s] for seed in ("0", "1") for s in stages]
    assert all(len(line[3]) == 64 for line in lines)
    assert digests("0-1", "--per-stage", "--workload", "round-exact") == lines


def test_check_prints_each_failing_seed(monkeypatch, capsys):
    # a stored value that no run matches fails seeds 0 and 2; seed 1 is
    # checked by its verdicts alone, which pass
    bad_value = {"value": -1.0, "kind": "mc", "stderr": 1e-3, "samples": 500}

    def references(name, seed, size):
        return None if seed == 1 else {"rounding-value.value": bad_value}

    monkeypatch.setattr(run, "load_references", references)
    assert load_tool().main([str(ROOT), "0-2", "--size", "smoke", "--workload", "round-exact", "--check"]) == 1
    fails = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [f[:3] for f in fails] == [["FAIL", "round-exact", "0"], ["FAIL", "round-exact", "2"]]
    assert all("rounding-value" in f[3:] for f in fails)


def test_check_passes_the_stored_references():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "3", "--workload", "round-exact", "--check"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
