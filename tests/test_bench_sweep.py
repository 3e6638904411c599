"""``tools/bench_sweep.py``: one subprocess per point of a size sweep."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_sweep.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def sweep(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(ROOT), *args], capture_output=True, text=True)


def test_smoke_sweep_reports_each_point(monkeypatch):
    # two small points of reduce-mc's R: the schema, and each point's
    # statuses equal those of run_pipeline on the same inputs
    proc = sweep("--workload", "reduce-mc", "--knob", "R=4,6", "--size", "smoke", "--seed", "2", "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    points = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [p["knobs"] for p in points] == [{"R": 4}, {"R": 6}]
    for point in points:
        assert set(point) == {
            "workload", "seed", "size", "repeat", "knobs", "wall_s", "walls_s", "peak_rss_mb", "statuses",
            "commit", "dirty",
        }
        assert (point["workload"], point["seed"], point["size"], point["repeat"]) == ("reduce-mc", 2, "smoke", 2)
        assert len(point["walls_s"]) == 2 and min(point["walls_s"]) <= point["wall_s"] <= max(point["walls_s"])
        assert point["peak_rss_mb"] > 0.0
        assert point["commit"] is None or len(point["commit"]) == 40
        monkeypatch.setitem(workloads.SIZES["smoke"]["reduce-mc"], "R", point["knobs"]["R"])
        report = workloads.build("reduce-mc", 2, "smoke").call()
        assert point["statuses"] == {s["stage"]: s["status"] for s in report["stages"]}
        assert "mixing" in point["statuses"]


def test_refused_points_and_unknown_knobs():
    # a joint past the library's cap is refused at load and reported as
    # the point's error; a knob the workload does not have stops the sweep
    proc = sweep("--workload", "pd-scale", "--knob", "n=30", "--size", "smoke", "--repeat", "1")
    assert proc.returncode == 1
    (point,) = map(json.loads, proc.stdout.splitlines())
    assert "capped" in point["error"] and "wall_s" not in point
    proc = sweep("--workload", "reduce-mc", "--knob", "Q=4", "--size", "smoke")
    assert proc.returncode == 2 and "has no knob Q" in proc.stderr
