"""Stage values that moved between two checkouts, in units of their tolerance.

Usage:

    python3 tools/stage_diff.py PARENT CHANGE SEEDS [--size smoke|full]
        [--workload NAME ...]

PARENT and CHANGE are checkouts of this repository, SEEDS as for
``tools/stage_digest.py``.  Each tree runs in its own subprocess, both at
once: ``tools/stage_digest.py TREE SEEDS --json`` next to this file, with
BLAS pinned to one thread as ``perfbench/run.py`` pins it.  For each
workload and seed the two stage lists are compared, and each moved entry
is printed on one line:

    <workload> <seed> <stage>.<key> <parent> <change> delta=<d> tol=<t> (<d/t> tol)

A value moved when any of its fields (value, kind, stderr, samples)
differs; ``tol`` is what CHANGE's ``perfbench/run.py`` ``check`` allows
between the two, ``EXACT_TOL`` for an exact value and ``MC_SIGMAS``
combined standard errors for a Monte Carlo one.  A moved verdict or status
prints ``<stage>.verdict`` or ``<stage>.status`` with both sides, and an
entry only one side has prints ``missing`` (only PARENT) or ``new``.  When
a value moved, the line before the last names the largest move,

    largest move <|d|/t> tol: <workload> <seed> <stage>.<key>

(the first of equal ones; a NaN delta counts largest).  The last line
counts the values compared and moved; the exit status is 1 if anything
moved.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DIGEST = Path(__file__).resolve().parent / "stage_digest.py"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_check(tree: Path):
    """The ``perfbench/run.py`` module of ``tree``, for its tolerances."""
    spec = importlib.util.spec_from_file_location("stage_diff_run", tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tolerance(a: dict, b: dict, check) -> float:
    """What ``check`` allows between two values of one stage key."""
    if a["kind"] == "exact" or b["kind"] == "exact":
        return check.EXACT_TOL
    se = lambda v: max(v["stderr"] or 0.0, 1.0 / v["samples"])
    return check.MC_SIGMAS * math.hypot(se(a), se(b))


def same(a, b) -> bool:
    """Equal, counting NaN equal to NaN."""
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


def compare(prefix: str, parent: list, change: list, check) -> tuple[int, list[str], list[tuple[float, str]]]:
    """(values compared, lines for what moved, (|delta| / tol, name) of each
    moved value) between two stage lists."""
    lines = []
    sizes = []
    compared = 0
    old = {s["stage"]: s for s in parent}
    new = {s["stage"]: s for s in change}
    for name in dict.fromkeys([*old, *new]):
        if name not in new or name not in old:
            lines.append(f"{prefix} {name} {'missing' if name not in new else 'new'}")
            continue
        a, b = old[name], new[name]
        for field in ("verdict", "status"):
            if a[field] != b[field]:
                lines.append(f"{prefix} {name}.{field} {a[field]} {b[field]}")
        for key in dict.fromkeys([*a["values"], *b["values"]]):
            full = f"{prefix} {name}.{key}"
            if key not in b["values"] or key not in a["values"]:
                lines.append(f"{full} {'missing' if key not in b['values'] else 'new'}")
                continue
            va, vb = a["values"][key], b["values"][key]
            compared += 1
            if all(same(va[f], vb[f]) for f in va.keys() | vb.keys()):
                continue
            delta = vb["value"] - va["value"]
            tol = tolerance(va, vb, check)
            moved = f"delta={delta:.3e} tol={tol:.3e} ({delta / tol:.3g} tol)"
            lines.append(f"{full} {va['value']!r} {vb['value']!r} {moved}")
            sizes.append((abs(delta / tol), full))
    return compared, lines, sizes


def largest(sizes: list[tuple[float, str]]) -> str:
    """The line that names the largest of the (|delta| / tol, name) moves."""
    size, name = max(sizes, key=lambda s: math.inf if math.isnan(s[0]) else s[0])
    return f"largest move {size:.3g} tol: {name}"


def stage_lists(tree: Path, args, out) -> subprocess.Popen:
    cmd = [sys.executable, str(DIGEST), str(tree), args.seeds, "--size", args.size, "--json"]
    for name in args.workload or ():
        cmd += ["--workload", name]
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    return subprocess.Popen(cmd, stdout=out, text=True, env=env)


def runs(proc: subprocess.Popen, out, tree: Path) -> dict:
    """(workload, seed) -> stage list, from one finished subprocess."""
    if proc.wait() != 0:
        raise SystemExit(f"stage_diff: {DIGEST.name} failed on {tree} (exit {proc.returncode})")
    out.seek(0)
    return {(r["workload"], r["seed"]): r["stages"] for r in map(json.loads, out)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout to compare against")
    p.add_argument("change", type=Path, help="checkout whose values are compared")
    p.add_argument("seeds", help="seed, range A-B, or comma list of either")
    p.add_argument("--size", choices=("smoke", "full"), default="full")
    p.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    args = p.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryFile("w+") as a, tempfile.TemporaryFile("w+") as b:
        procs = [stage_lists(parent, args, a), stage_lists(change, args, b)]
        old, new = runs(procs[0], a, parent), runs(procs[1], b, change)
    check = load_check(change)
    compared, moved, sizes = 0, 0, []
    for run in dict.fromkeys([*old, *new]):
        n, lines, run_sizes = compare(f"{run[0]} {run[1]}", old.get(run, []), new.get(run, []), check)
        compared += n
        moved += len(lines)
        sizes += run_sizes
        for line in lines:
            print(line, flush=True)
    if sizes:
        print(largest(sizes))
    print(f"compared {compared} values over {len(old)} runs: {moved} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
