"""Digest of the benchmark's stage values: one sha256 per workload and seed.

Usage:

    python3 tools/stage_digest.py TREE SEEDS [--size smoke|full]

TREE is a checkout of this repository; its ``src/`` and ``perfbench/`` are
imported, the latter read-only, as ``tests/test_references.py`` does.  SEEDS
is a seed (``3``), an inclusive range (``0-19``) or a comma list of either
(``0-4,11``).  For each workload of ``perfbench/workloads.py`` and each seed
the tool builds the inputs, runs the timed call once and prints

    <workload> <seed> <sha256 of the sorted stage JSON>

A refactor that must keep every stored value bit for bit is checked by
running the tool on a copy of the parent commit and on the change, and
diffing the two outputs.
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
    args = p.parse_args(argv)
    tree = args.tree.resolve()
    sys.dont_write_bytecode = True  # leave the tree as it is
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    for name in workloads.NAMES:
        for seed in args.seeds:
            prepared = workloads.build(name, seed, args.size)
            print(name, seed, digest(prepared.stages(prepared.call())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
