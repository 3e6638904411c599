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
a value moved, one line follows for each stage value key of each workload
that both sides have,

    <workload> <stage>.<key>: moved in <k> of <runs> runs[, largest <|d|/t> tol]

and then one line names the largest move,

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


def compare(prefix: str, parent: list, change: list, check) -> tuple[list[str], list[str], dict[str, float]]:
    """(the ``<stage>.<key>`` of each value compared, lines for what moved,
    |delta| / tol of each moved value by its ``<stage>.<key>``) between two
    stage lists."""
    lines = []
    sizes = {}
    compared = []
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
            compared.append(f"{name}.{key}")
            if all(same(va[f], vb[f]) for f in va.keys() | vb.keys()):
                continue
            delta = vb["value"] - va["value"]
            tol = tolerance(va, vb, check)
            moved = f"delta={delta:.3e} tol={tol:.3e} ({delta / tol:.3g} tol)"
            lines.append(f"{full} {va['value']!r} {vb['value']!r} {moved}")
            sizes[f"{name}.{key}"] = abs(delta / tol)
    return compared, lines, sizes


def _size_order(size: float) -> float:
    return math.inf if math.isnan(size) else size


def largest(sizes: list[tuple[float, str]]) -> str:
    """The line that names the largest of the (|delta| / tol, name) moves."""
    size, name = max(sizes, key=lambda s: _size_order(s[0]))
    return f"largest move {size:.3g} tol: {name}"


def key_summary(name: str, runs: int, sizes: list[float]) -> str:
    """The line for one stage value key: in how many of the ``runs`` that
    compared it it moved, and its largest move (of the |delta| / tol
    ``sizes``) when it moved at all."""
    line = f"{name}: moved in {len(sizes)} of {runs} runs"
    return f"{line}, largest {max(sizes, key=_size_order):.3g} tol" if sizes else line


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
    keys = {}  # "<workload> <stage>.<key>" -> [runs that compared it, its moves]
    for run in dict.fromkeys([*old, *new]):
        prefix = f"{run[0]} {run[1]}"
        names, lines, run_sizes = compare(prefix, old.get(run, []), new.get(run, []), check)
        compared += len(names)
        moved += len(lines)
        for name in names:
            entry = keys.setdefault(f"{run[0]} {name}", [0, []])
            entry[0] += 1
            if name in run_sizes:
                entry[1].append(run_sizes[name])
                sizes.append((run_sizes[name], f"{prefix} {name}"))
        for line in lines:
            print(line, flush=True)
    if sizes:
        for name, (count, key_sizes) in keys.items():
            print(key_summary(name, count, key_sizes))
        print(largest(sizes))
    print(f"compared {compared} values over {len(old)} runs: {moved} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
