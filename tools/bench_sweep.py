"""Sweep one benchmark workload over size knobs: wall time, peak RSS and
stage statuses at each point.

Usage:

    python3 tools/bench_sweep.py TREE --workload W --knob K=V1,V2,...
        [--knob ...] [--seed S] [--repeat N] [--size smoke|full]

TREE is a checkout of this repository; its ``src/`` and ``perfbench/`` are
imported, the latter read-only, as ``tools/stage_digest.py`` does.  Each
``--knob`` names a key of the workload's size dict in
``perfbench/workloads.py`` and the values it takes; with several knobs the
points are their values crossed, the first knob leading.  Each point runs
in a subprocess of its own with BLAS pinned to one thread: it builds the
workload's inputs from seed S (default 0) with the knobs set, runs the timed
call (one ``run_pipeline``, or the oracle calls) N times (default 3) and
prints one JSON object per point,

    {"workload": W, "seed": S, "size": ..., "repeat": N,
     "knobs": {K: V, ...}, "wall_s": <median of the N calls>, "walls_s": [...],
     "peak_rss_mb": <the subprocess's ru_maxrss>,
     "statuses": {<stage>: <status>, ...}, "commit": <TREE's HEAD or null>,
     "dirty": <TREE has uncommitted changes, or null>}

The statuses are the library's own records for a pipeline workload and the
benchmark's stage view for the oracle workload, from the last call.  A point
whose build or call raises (an exact path past the library's or the
benchmark's caps is refused before it allocates) prints ``"error"`` in
place of the timings and statuses, and its traceback on standard error.
The exit status is 1 if any point raised.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_knob(text: str) -> tuple[str, list]:
    """``K=V1,V2,...`` as (K, [V1, V2, ...]); each value is an int if it
    reads as one, else a float."""
    key, sep, values = text.partition("=")
    if not sep or not key or not values:
        raise argparse.ArgumentTypeError(f"expected K=V1,V2,..., got {text!r}")
    return key, [int(v) if v.lstrip("-").isdigit() else float(v) for v in values.split(",")]


def commit(tree: Path) -> tuple[str | None, bool | None]:
    """TREE's HEAD commit and whether it has uncommitted changes; (None,
    None) outside a git checkout."""
    git = lambda *a: subprocess.run(["git", "-C", str(tree), *a], capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())


def run_point(workloads, args, knobs: dict) -> dict:
    """One point, in this process: build, call ``args.repeat`` times, measure."""
    out = {"workload": args.workload, "seed": args.seed, "size": args.size, "repeat": args.repeat, "knobs": knobs}
    try:
        workloads.SIZES[args.size][args.workload].update(knobs)
        prepared = workloads.build(args.workload, args.seed, args.size)
        walls = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            result = prepared.call()
            walls.append(time.perf_counter() - t0)
    except Exception as exc:  # a refused or failing point is reported, not raised
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    records = result["stages"] if isinstance(result, dict) else prepared.stages(result)
    out.update(
        wall_s=statistics.median(walls),
        walls_s=walls,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        statuses={r["stage"]: r["status"] for r in records},
    )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree", type=Path, help="checkout whose src/ and perfbench/ are run")
    p.add_argument("--workload", required=True, help="a workload name of perfbench/workloads.py")
    p.add_argument("--knob", type=parse_knob, action="append", required=True, help="K=V1,V2,... (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=3, help="timed calls per point")
    p.add_argument("--size", choices=("smoke", "full"), default="full", help="the size dict the knobs edit")
    p.add_argument("--point", action="store_true", help=argparse.SUPPRESS)  # run the one point here
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    tree = args.tree.resolve()
    sys.dont_write_bytecode = True  # leave the tree as it is
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    sizes = workloads.SIZES[args.size].get(args.workload)
    if sizes is None:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    unknown = [k for k, _ in args.knob if k not in sizes]
    if unknown:
        p.error(f"{args.workload} has no knob {', '.join(unknown)}; its knobs are {', '.join(sizes)}")
    keys = [k for k, _ in args.knob]
    points = [dict(zip(keys, values)) for values in itertools.product(*(v for _, v in args.knob))]
    if args.point:
        (knobs,) = points
        print(json.dumps(run_point(workloads, args, knobs), sort_keys=True), flush=True)
        return 0
    head, dirty = commit(tree)
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    failed = 0
    for knobs in points:
        cmd = [sys.executable, str(Path(__file__).resolve()), str(tree), "--workload", args.workload,
               "--seed", str(args.seed), "--repeat", str(args.repeat), "--size", args.size, "--point"]
        for key, value in knobs.items():
            cmd += ["--knob", f"{key}={value!r}"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"bench_sweep: point {knobs} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(commit=head, dirty=dirty)
        if "error" in result:
            failed += 1
            print(proc.stderr, file=sys.stderr, end="")
        print(json.dumps(result, sort_keys=True), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
