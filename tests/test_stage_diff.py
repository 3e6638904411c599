"""``tools/stage_diff.py``: moved stage values, in units of their tolerance."""
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stage_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("stage_diff", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def diff(parent: Path, change: Path, seeds: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), seeds, "--size", "smoke", *flags],
        capture_output=True, text=True,
    )


def stage(name, values, verdict=True, status="pass"):
    return {"stage": name, "verdict": verdict, "status": status, "values": values}


def exact(v):
    return {"value": v, "kind": "exact", "stderr": None, "samples": None}


def mc(v, stderr, samples):
    return {"value": v, "kind": "mc", "stderr": stderr, "samples": samples}


def test_a_tree_against_itself_moves_nothing():
    proc = diff(ROOT, ROOT, "0-1", "--workload", "pd-scale")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["compared 16 values over 2 runs: 0 moved"]


def test_a_planted_change_is_named_with_its_size(tmp_path):
    # the copy reports every smooth stage value 1e-6 higher: 1000 exact tolerances
    change = tmp_path / "change"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, change / part, ignore=shutil.ignore_patterns("__pycache__", "results"))
    pipeline = change / "src" / "biascsp" / "harness" / "pipeline.py"
    old = "record = stage(name, verdict, value=objective, bound=obj_floor,"
    text = pipeline.read_text()
    assert old in text
    pipeline.write_text(text.replace(old, "record = stage(name, verdict, value=objective + 1e-6, bound=obj_floor,"))
    proc = diff(ROOT, change, "0-1", "--workload", "round-exact")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    moved, summary = lines[:2], lines[2:-2]
    assert [line.split()[:3] for line in moved] == [["round-exact", s, "smooth.value"] for s in ("0", "1")]
    assert all(line.endswith("(1e+03 tol)") and "tol=1.000e-09" in line for line in moved)
    # one line per value key of the workload: only smooth.value moved, in both runs
    assert len(summary) == 8
    smooth = "round-exact smooth.value: moved in 2 of 2 runs, largest 1e+03 tol"
    assert smooth in summary
    others = [line for line in summary if line != smooth]
    assert len(others) == 7
    assert all(line.startswith("round-exact ") and line.endswith(": moved in 0 of 2 runs") for line in others)
    # objective + 1e-6 rounds differently at each seed, so either may be the largest
    assert lines[-2].split()[:5] == ["largest", "move", "1e+03", "tol:", "round-exact"]
    assert lines[-2].endswith(" smooth.value")
    assert lines[-1] == "compared 16 values over 2 runs: 2 moved"


def test_compare_counts_every_kind_of_move():
    tool = load_tool()
    check = tool.load_check(ROOT)
    parent = [
        stage("a", {"value": exact(1.0), "gone": exact(0.0)}),
        stage("b", {"value": mc(0.5, 0.01, 100)}),
        stage("c", {"value": exact(2.0)}),
    ]
    change = [
        stage("a", {"value": exact(1.0), "added": exact(0.0)}),
        stage("b", {"value": mc(0.53, 0.01, 100)}, verdict=False, status="fail"),
        stage("d", {"value": exact(2.0)}),
    ]
    compared, lines, sizes = tool.compare("w 7", parent, change, check)
    assert compared == ["a.value", "b.value"]
    assert lines[:2] == ["w 7 a.gone missing", "w 7 a.added new"]
    assert lines[2:4] == ["w 7 b.verdict True False", "w 7 b.status pass fail"]
    # Monte Carlo: 4 combined standard errors, 4 * hypot(0.01, 0.01)
    assert lines[4].startswith("w 7 b.value 0.5 0.53 delta=3.000e-02 tol=5.657e-02 (0.53 tol)")
    assert lines[5:] == ["w 7 c missing", "w 7 d new"]
    assert sizes == {"b.value": pytest.approx(0.03 / (4 * 0.01 * 2 ** 0.5))}


def test_largest_move_is_named_across_runs():
    tool = load_tool()
    check = tool.load_check(ROOT)
    sizes = []
    for seed, (a, b) in enumerate([(0.5, 0.625), (0.5, 0.25), (0.5, 0.75), (0.5, float("nan"))]):
        moved = tool.compare(f"w {seed}", [stage("s", {"v": mc(a, 0.01, 100)})],
                             [stage("s", {"v": mc(b, 0.01, 100)})], check)[2]
        sizes += [(size, f"w {seed} {key}") for key, size in moved.items()]
    # seeds 1 and 2 tie at 0.25 / (4 * hypot(0.01, 0.01)): the first is named
    assert tool.largest(sizes[:3]) == "largest move 4.42 tol: w 1 s.v"
    assert tool.largest(sizes) == "largest move nan tol: w 3 s.v"


def test_key_summary_counts_the_runs_that_moved_a_key():
    tool = load_tool()
    assert tool.key_summary("w s.v", 4, []) == "w s.v: moved in 0 of 4 runs"
    assert tool.key_summary("w s.v", 4, [0.25, 0.598, 0.1]) == "w s.v: moved in 3 of 4 runs, largest 0.598 tol"
    assert tool.key_summary("w s.v", 2, [0.25, float("nan")]) == "w s.v: moved in 2 of 2 runs, largest nan tol"


@pytest.mark.parametrize("field, other", [("stderr", 0.02), ("samples", 200)])
def test_a_moved_error_bar_counts_as_moved(field, other):
    tool = load_tool()
    a = mc(0.5, 0.01, 100)
    compared, lines, _ = tool.compare("w 0", [stage("s", {"value": a})], [stage("s", {"value": {**a, field: other}})],
                                      tool.load_check(ROOT))
    assert compared == ["s.value"] and len(lines) == 1 and "delta=0.000e+00" in lines[0]
