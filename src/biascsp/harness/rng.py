"""Seed-splittable random number generation.

Every sampled object in the library draws from a generator derived from a
(master seed, path label) pair, so that any run is reproducible from its
master seed alone.  Labels are free-form strings/ints; the derivation hashes
them into the entropy of a ``SeedSequence``, and each stream is SFC64 keyed
by that ``SeedSequence`` of (seed, hashed path).  No stream jumps or
advances, so each (seed, path) owns one stream that no other pair shares.
Reports written before the streams moved from Philox to SFC64 do not
reproduce bit for bit: their Monte Carlo values are fresh draws of the same
estimators, and their exact values are unchanged.

Splitting rule: a run over N samples is partitioned into fixed-size chunks,
and chunk ``c`` of estimator ``tag`` uses ``rng_for(seed, tag, c)``; combining
the per-chunk results by chunk index makes the output depend only on the
seed, the tag and N.
"""
from __future__ import annotations

import hashlib

import numpy as np


def child_seed(master_seed: int, *path) -> np.random.SeedSequence:
    """Derive a SeedSequence from a master seed and a path of labels."""
    label = "/".join(str(p) for p in path)
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence([int(master_seed) & 0xFFFFFFFFFFFFFFFF, *words])


def rng_for(master_seed: int, *path) -> np.random.Generator:
    """Generator for (master seed, path label): SFC64 keyed by a
    ``SeedSequence`` of (seed, hashed path)."""
    return np.random.Generator(np.random.SFC64(child_seed(master_seed, *path)))
