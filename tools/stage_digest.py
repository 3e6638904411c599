"""Digest of the benchmark's stage values: one sha256 per workload and seed.

Usage:

    python3 tools/stage_digest.py TREE SEEDS [--size smoke|full]
        [--workload NAME ...] [--per-stage | --json] [--check]

TREE is a checkout of this repository; its ``src/`` and ``perfbench/`` are
imported, the latter read-only, as ``tests/test_references.py`` does.  SEEDS
is a seed (``3``), an inclusive range (``0-19``) or a comma list of either
(``0-4,11``).  For each workload of ``perfbench/workloads.py`` (or each
``--workload`` given) and each seed the tool builds the inputs, runs the
timed call once and prints

    <workload> <seed> <sha256 of the sorted stage JSON>

With ``--per-stage`` it prints one line per stage instead,

    <workload> <seed> <stage> <sha256 of the stage's sorted JSON>

so a diff names the stages that moved.  With ``--json`` it prints each run's
stage list itself, one JSON object per line,

    {"seed": <seed>, "stages": [...], "workload": <workload>}

which ``tools/stage_diff.py`` reads.  With ``--check`` it also checks each
run with ``perfbench/run.py``'s ``check`` against the stored references (at
the full size; the smoke size has none, so only the verdicts count), prints

    FAIL <workload> <seed> <failed stage or missing:key> ...

for each failing run, and exits with status 1 if any failed.  The references
hold input seeds 0-99.

A refactor that must keep every stored value bit for bit is checked by
running the tool on a copy of the parent commit and on the change, and
diffing the two outputs, or with ``tools/stage_diff.py``, which also says
how far each moved value went.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def digest(stages) -> str:
    return hashlib.sha256(json.dumps(stages, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree", type=Path, help="checkout whose src/ and perfbench/ are run")
    p.add_argument("seeds", type=parse_seeds, help="seed, range A-B, or comma list of either")
    p.add_argument("--size", choices=("smoke", "full"), default="full")
    p.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    view = p.add_mutually_exclusive_group()
    view.add_argument("--per-stage", action="store_true", help="one digest per stage")
    view.add_argument("--json", action="store_true", help="each run's stage list as one JSON line")
    p.add_argument("--check", action="store_true", help="check each run against the stored references")
    args = p.parse_args(argv)
    tree = args.tree.resolve()
    sys.dont_write_bytecode = True  # leave the tree as it is
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import run
    import workloads

    failed = 0
    for name in args.workload or workloads.NAMES:
        for seed in args.seeds:
            prepared = workloads.build(name, seed, args.size)
            stages = prepared.stages(prepared.call())
            if args.json:
                print(json.dumps({"workload": name, "seed": seed, "stages": stages}, sort_keys=True), flush=True)
            elif args.per_stage:
                for s in stages:
                    print(name, seed, s["stage"], digest(s), flush=True)
            else:
                print(name, seed, digest(stages), flush=True)
            if args.check:
                bad = run.check(stages, run.load_references(name, seed, args.size))
                if bad:
                    failed += 1
                    print("FAIL", name, seed, *bad, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
