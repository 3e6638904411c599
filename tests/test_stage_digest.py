"""``tools/stage_digest.py``: one digest per workload and seed, reproducible."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stage_digest.py"


def digests(seeds: str) -> list[list[str]]:
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), seeds, "--size", "smoke"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def test_two_runs_give_equal_digests():
    first = digests("0")
    assert [line[:2] for line in first] == [[name, "0"] for name in ("pd-scale", "round-exact", "reduce-mc", "oracles")]
    assert all(len(line[2]) == 64 for line in first)
    assert digests("0") == first


def test_seed_ranges():
    spec = importlib.util.spec_from_file_location("stage_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.parse_seeds("3") == [3]
    assert tool.parse_seeds("0-4,11") == [0, 1, 2, 3, 4, 11]
