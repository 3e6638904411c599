"""Batched statistics and the greedy rounds built on them.

The reference is the code the batch replaced: ``table.sum(axis=dropped)``
for each marginal, one ``local()`` read per mean and pair moment, and one
conditioning and scoring per candidate.  Every comparison is bit for bit.
"""
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascsp import pseudodist
from biascsp.csp import ConstraintHypergraph, Predicate
from biascsp.harness.pipeline import load_family, load_instance
from biascsp.polynomial import _apply_axis
from biascsp.pseudodist import (
    MIN_EVENT_PROB,
    LocalDistributionFamily,
    StructuralError,
    ZeroProbabilityEvent,
    _marginal,
    _smooth_kernel,
    compute_statistics,
    find_conditioning,
)

from conftest import traced_peak

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def cycle(n):
    verts = {f"v{i}": 1.0 / n for i in range(n)}
    edges = [((f"v{i}", f"v{(i + 1) % n}"), 1.0 / n) for i in range(n)]
    return ConstraintHypergraph(verts, edges, Predicate.xor(2))


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


# ---- the per-candidate reference -------------------------------------------


def reference_local(theta, subset):
    key = theta._key(subset)
    if key in theta._tables:
        return theta._tables[key]
    for skey, table in theta._tables.items():
        if set(key) <= set(skey):
            return table.sum(axis=tuple(i for i, v in enumerate(skey) if v not in key))
    raise StructuralError(f"no stored local covers {key}")


def reference_condition(theta, v, b):
    tables = {}
    for skey in theta._tables:
        union = theta._key(skey + (v,))
        try:
            t = reference_local(theta, union).copy()
        except StructuralError:
            continue
        sl = [slice(None)] * t.ndim
        sl[union.index(v)] = 1 - b
        t[tuple(sl)] = 0.0
        mass = t.sum()
        if mass <= 0.0:
            raise ZeroProbabilityEvent(v)
        t /= mass
        drop = tuple(i for i, u in enumerate(union) if u not in skey)
        tables[skey] = t.sum(axis=drop) if drop else t
    return LocalDistributionFamily(theta.host, theta.level - 1, tables)


def reference_statistics(theta):
    """(means, avg_abs_corr) by one local() read per vertex and pair."""
    verts = theta.host.vertices
    n = len(verts)
    means = np.array([float(reference_local(theta, (v,))[1]) for v in verts])
    second = np.outer(means, means)
    for i in range(n):
        second[i, i] = means[i]
        for j in range(i + 1, n):
            second[i, j] = second[j, i] = float(reference_local(theta, (verts[i], verts[j]))[1, 1])
    cov = second - np.outer(means, means)
    stdev = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    degenerate = stdev <= 1e-12
    denom = np.outer(stdev, stdev)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    np.fill_diagonal(corr, np.where(degenerate, 0.0, 1.0))
    w = theta.host.vertex_weight_vector(verts)
    pair_w = np.outer(w, w)
    off = ~np.eye(n, dtype=bool)
    return means, float((pair_w * np.abs(corr))[off].sum() / pair_w[off].sum())


def reference_conditioning(theta, target, budget):
    """The greedy search scoring one candidate at a time."""
    current, chosen, values, trace = theta, [], [], []
    avg = reference_statistics(current)[1]
    while avg > target and len(chosen) < budget and current.level - 1 >= 2:
        best = None
        for idx, v in enumerate(current.host.vertices):
            if v in chosen:
                continue
            p1 = float(reference_local(current, (v,))[1])
            for b in (0, 1):
                if (p1 if b == 1 else 1.0 - p1) <= MIN_EVENT_PROB:
                    continue
                cand = reference_condition(current, v, b)
                key = (reference_statistics(cand)[1], idx, b)
                if best is None or key < best[0]:
                    best = (key, v, b, cand)
        if best is None:
            break
        (avg_new, _, _), v, b, current = best
        chosen.append(v)
        values.append(b)
        trace.append({"vertex": v, "value": b, "avg_abs_corr": avg_new, "before": avg})
        avg = avg_new
    return chosen, values, trace, current, avg


def assert_same_search(theta, target, budget):
    got = find_conditioning(theta, target, budget)
    chosen, values, trace, family, avg = reference_conditioning(theta, target, budget)
    assert got.subset == chosen and got.values == values
    assert [{k: row[k] for k in ("vertex", "value", "avg_abs_corr", "before")} for row in got.trace] == trace
    assert got.avg_abs_corr == avg
    assert list(got.family._tables) == list(family._tables)
    for key, table in family._tables.items():
        assert bits(got.family._tables[key]) == bits(table), key
    return got


# ---- the marginal kernel ---------------------------------------------------


def smooth_layout(table):
    """The permuted view ``smooth`` leaves: one kernel contraction per axis."""
    kernel = _smooth_kernel(0.1, 0.3)
    for axis in range(table.ndim):
        table = _apply_axis(table, kernel, axis)
    return table


def laid_out(table, kind, perm):
    """``table`` itself (C order), its smoothing in the layout ``smooth``
    leaves, or its values in a buffer whose memory order is ``perm``."""
    if kind == "c":
        return table
    if kind == "smooth":
        return smooth_layout(table)
    return np.ascontiguousarray(table.transpose(perm)).transpose(np.argsort(perm))


KEEPS = lambda key: [(v,) for v in key] + list(itertools.combinations(key, 2))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(["c", "permuted", "smooth"]),
    data=st.data(),
)
def test_marginal_equals_numpy_sum_bit_for_bit(n, seed, kind, data):
    rng = np.random.default_rng(seed)
    key = tuple(f"v{i}" for i in range(n))
    perm = data.draw(st.permutations(range(n)))
    table = laid_out(rng.random((2,) * n), kind, perm)
    keeps = KEEPS(key)
    for keep, got in zip(keeps, _marginal([table], key, keeps)):
        drop = tuple(i for i, v in enumerate(key) if v not in keep)
        assert bits(got[..., 0]) == bits(table.sum(axis=drop)), keep


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 10),
    m=st.integers(1, 5),
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(["c", "permuted", "smooth"]),
    data=st.data(),
)
def test_stacked_marginals_equal_each_table_alone(n, m, seed, kind, data):
    rng = np.random.default_rng(seed)
    key = tuple(f"v{i}" for i in range(n))
    perm = data.draw(st.permutations(range(n)))
    tables = [laid_out(rng.random((2,) * n), kind, perm) for _ in range(m)]
    keeps = KEEPS(key)
    stacked = _marginal(tables, key, keeps)
    for k, table in enumerate(tables):
        for keep, got, alone in zip(keeps, stacked, _marginal([table], key, keeps)):
            assert got.shape == alone.shape[:-1] + (m,)
            assert bits(got[..., k]) == bits(alone[..., 0]), keep


# ---- statistics ------------------------------------------------------------


def test_statistics_are_a_batch_of_one():
    theta = workloads_family(3)
    stats = compute_statistics(theta)
    means, avg = reference_statistics(theta)
    assert bits(stats.means) == bits(means)
    assert stats.avg_abs_corr == avg
    # the smoothed input (a permuted view) batched with C-order candidates
    batch = [theta.condition(("v0",), (0,)), theta, theta.condition(("v0",), (1,)), theta.condition(("v5",), (1,))]
    for fam, batched in zip(batch, pseudodist._batch_statistics(batch)):
        alone = compute_statistics(fam)
        assert batched.avg_abs_corr == alone.avg_abs_corr == reference_statistics(fam)[1]
        assert bits(batched.corr) == bits(alone.corr)
        assert batched.avg_abs_corr_with_diag == alone.avg_abs_corr_with_diag


# ---- the greedy search -----------------------------------------------------


def workloads_family(seed):
    """The smoothed family the pd-scale workload conditions at ``seed``."""
    cfg = workloads._pipeline_config("pd-scale", seed, workloads.SIZES["full"]["pd-scale"])
    host = load_instance(cfg["instance"])
    family = load_family(cfg["pseudodistribution"], host)
    return family.smooth(cfg["smooth"]["eta"], family.bias())


@pytest.mark.parametrize("seed", [3, 48, 88])
def test_search_matches_per_candidate_loop_on_near_tied_seeds(seed):
    got = assert_same_search(workloads_family(seed), 0.02, 4)
    # 12 vertices, one pinned per round: every candidate of a round in one block
    assert [row["candidates"] for row in got.trace] == [24 - 2 * r for r in range(len(got.trace))]
    assert all(row["blocks"] == 1 for row in got.trace)


def json_family():
    """A level-4 import of every local of up to 4 of 6 vertices, each listed
    in reverse vertex order (so loaded as a permuted view)."""
    g = cycle(6)
    rng = np.random.default_rng(5)
    support = rng.dirichlet(np.ones(2 ** 6)).reshape((2,) * 6)
    joint = LocalDistributionFamily(g, 4, {tuple(g.vertices): support})
    obj = joint.to_json()
    for item in obj["locals"]:
        item["subset"] = item["subset"][::-1]
        item["probs"] = {k[::-1]: p for k, p in item["probs"].items()}
    return LocalDistributionFamily.from_json(obj, g)


def test_search_matches_per_candidate_loop_on_an_import():
    theta = json_family()
    # pinning v drops the 4-subsets without v, so each vertex's candidates
    # store their own key set
    keys = {tuple(theta.condition((v,), (0,))._tables) for v in theta.host.vertices}
    assert len(keys) == 6
    assert all(len(k) < len(theta._tables) for k in keys)
    got = assert_same_search(theta, 0.0, 2)
    assert len(got.subset) == 2


def test_exact_ties_break_toward_low_index_then_value_zero():
    # uniform bits: every pin leaves every correlation exactly 0
    g = cycle(6)
    theta = LocalDistributionFamily(g, 6, {tuple(g.vertices): np.full((2,) * 6, 2.0 ** -6)})
    got = assert_same_search(theta, -1.0, 3)
    assert got.subset == ["v0", "v1", "v2"] and got.values == [0, 0, 0]
    assert [row["avg_abs_corr"] for row in got.trace] == [0.0, 0.0, 0.0]


def test_rounds_work_in_bounded_blocks(monkeypatch):
    # n = 16: a block holds BLOCK_ENTRIES // 2^16 = 4 candidates, against 32 per round
    n = 16
    g = cycle(n)
    joint = np.random.default_rng(0).dirichlet(np.ones(2 ** n)).reshape((2,) * n)
    theta = LocalDistributionFamily(g, 6, {tuple(g.vertices): joint}).smooth(0.1, 0.5)
    table = joint.nbytes
    with traced_peak() as peak:
        got = find_conditioning(theta, -1.0, 1)
    per_block = pseudodist.BLOCK_ENTRIES // joint.size
    assert got.trace[0]["candidates"] == 2 * n
    assert got.trace[0]["blocks"] == 2 * n // per_block
    # a block's candidates and their stacked row sums, plus a few tables
    # (the round's input, the best so far, one in the making): about two
    # blocks, where scoring every candidate at once would hold 2n tables
    assert peak.bytes < (2 * per_block + 3) * table
    assert peak.bytes < 2 * n * table / 2
    monkeypatch.setattr(pseudodist, "BLOCK_ENTRIES", 1)
    one = find_conditioning(theta, -1.0, 1)
    assert one.trace[0]["blocks"] == 2 * n
    assert [{**row, "blocks": 0} for row in one.trace] == [{**row, "blocks": 0} for row in got.trace]
    assert one.avg_abs_corr == got.avg_abs_corr
    assert bits(one.family._tables[tuple(g.vertices)]) == bits(got.family._tables[tuple(g.vertices)])
