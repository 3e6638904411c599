"""Per-coordinate contraction of i.i.d. product expectations against the
combo enumerators it replaced, and its work cap.

The enumerators below list every one of the (s^k)^R coordinatewise outcomes
and are the reference oracles; they are feasible for R <= 6.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascsp.csp import Assignment, ConstraintHypergraph, Predicate
from biascsp.harness.mc import ORACLE_CAP
from biascsp.probspace import BiasedSpace, FunctionTable, iid_product_expectation
from biascsp.pseudodist import LocalDistributionFamily, vector_solution
from biascsp.reduction.analysis import coupled_product_expectation
from biascsp.rounding import RoundingInput, exact_test_value, signed_tables

ENUM_CAP = 1 << 18  # largest enumeration a hypothesis example may ask for

from conftest import traced_peak


# ---- reference enumerators -----------------------------------------------------


def _pack(bits: np.ndarray) -> np.ndarray:
    """Row-wise big-endian packing of an (N, R) bit array."""
    idx = np.zeros(len(bits), dtype=np.int64)
    for j in range(bits.shape[1]):
        idx = (idx << 1) | bits[:, j]
    return idx


def enumerated_test_value(inp) -> float:
    """Dictatorship-test value by enumerating (2^k)^R outcome combos per edge."""
    family = inp.family
    R = inp.r_dim
    total = 0.0
    for edge, w_e in inp.host.edges:
        key = family._key(edge)
        k = len(key)
        block = np.asarray(family.local(key)).reshape(-1)
        outcome_bits = np.array(
            [[(o >> (k - 1 - t)) & 1 for t in range(k)] for o in range(2 ** k)]
        )
        pos_of = {v: t for t, v in enumerate(key)}
        combos = np.array(list(itertools.product(range(2 ** k), repeat=R)), dtype=np.int64)
        probs = block[combos].prod(axis=1)
        edge_total = 0.0
        for a in sorted(inp.host.predicate.accepting):
            tables = signed_tables(inp, edge, a)
            prod = np.ones(len(combos))
            for pos, v in enumerate(edge):
                prod *= tables[pos][_pack(outcome_bits[combos, pos_of[v]])]
            edge_total += float((probs * prod).sum())
        total += w_e * edge_total
    return total


def enumerated_product_expectation(h_values, block_probs, r, R) -> float:
    """E[prod_i h_i(x_i)] over (2^r)^R enumerated x-block combos."""
    combos = np.array(list(itertools.product(range(2 ** r), repeat=R)), dtype=np.int64)
    probs = np.asarray(block_probs, dtype=float).reshape(-1)[combos].prod(axis=1)
    prod = np.ones(len(combos))
    for pos in range(r):
        prod *= h_values[pos][_pack((combos >> (r - 1 - pos)) & 1)]
    return float(np.dot(probs, prod))


def enumerated_coupled_expectation(h_values, d_block_flat, r, R) -> float:
    """E[prod_i h_i] over (4^r)^R enumerated (x-block, z-block) combos."""
    combos = np.array(list(itertools.product(range(4 ** r), repeat=R)), dtype=np.int64)
    probs = np.asarray(d_block_flat, dtype=float)[combos].prod(axis=1)
    xb, zb = combos // 2 ** r, combos % 2 ** r
    prod = np.ones(len(combos))
    for pos in range(r):
        x_idx = _pack((xb >> (r - 1 - pos)) & 1)
        z_idx = _pack((zb >> (r - 1 - pos)) & 1)
        prod *= h_values[pos][x_idx * 2 ** R + z_idx]
    return float(np.dot(probs, prod))


# ---- draws ---------------------------------------------------------------------------


def sparse_block(rng, size: int) -> np.ndarray:
    """A probability vector with about a third of its entries zero."""
    p = rng.dirichlet(np.ones(size))
    p[rng.random(size) < 0.35] = 0.0
    if p.sum() == 0.0:
        p[rng.integers(size)] = 1.0
    return p / p.sum()


def lift_dims(s: int, k: int):
    """Lift dimensions R <= 6 whose enumeration fits ENUM_CAP."""
    return st.integers(1, 6).filter(lambda R: (s ** k) ** R <= ENUM_CAP)


# ---- cross-checks ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3]), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_bit_blocks_match_enumeration(k, data, seed):
    R = data.draw(lift_dims(2, k), label="R")
    rng = np.random.default_rng(seed)
    probs = sparse_block(rng, 2 ** k)
    tables = [rng.random(2 ** R) for _ in range(k)]
    got = iid_product_expectation(tables, probs.reshape((2,) * k))
    assert got == pytest.approx(enumerated_product_expectation(tables, probs, k, R), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3]), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_paired_blocks_match_enumeration(k, data, seed):
    R = data.draw(lift_dims(4, k), label="R")
    rng = np.random.default_rng(seed)
    d_block = sparse_block(rng, 4 ** k)
    tables = [rng.random(4 ** R) for _ in range(k)]
    got = coupled_product_expectation(tables, d_block, k, R)
    assert got == pytest.approx(enumerated_coupled_expectation(tables, d_block, k, R), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([2, 3]), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_test_value_matches_enumeration(k, data, seed):
    # two edges on three vertices; the second repeats its first vertex, so
    # its local block has fewer axes than the edge has positions
    R = data.draw(lift_dims(2, k), label="R")
    rng = np.random.default_rng(seed)
    verts = ["v0", "v1", "v2"]
    accepting = [a for a in itertools.product((0, 1), repeat=k) if rng.random() < 0.5]
    predicate = Predicate(k, frozenset(accepting or [(1,) * k]))
    edges = [(tuple(verts[:k]), 0.5), (("v0",) + tuple(verts[1 : k - 1]) + ("v0",), 0.5)]
    host = ConstraintHypergraph({v: 1.0 / 3 for v in verts}, edges, predicate)
    support = [
        (Assignment.from_bits(verts, rng.integers(0, 2, size=3)), float(p))
        for p in rng.dirichlet(np.ones(3))
    ]
    family = LocalDistributionFamily.from_distribution(support, 4, host)  # zero-mass outcomes stay
    tables = {
        v: FunctionTable(BiasedSpace((float(rng.uniform(0.2, 0.8)),) * R), rng.random(2 ** R), bounded=True)
        for v in verts
    }
    inp = RoundingInput(host, tables, vector_solution(family), eta=0.1, family=family)
    assert exact_test_value(inp) == pytest.approx(enumerated_test_value(inp), abs=1e-12)


# ---- closed forms beyond the enumerable range -----------------------------------------


def test_bit_tables_at_r16_closed_form():
    # constant tables: the expectation is the product of the constants
    got = iid_product_expectation(
        [np.full(2 ** 16, 0.3), np.full(2 ** 16, 0.7)], np.array([[0.1, 0.2], [0.3, 0.4]])
    )
    assert got == pytest.approx(0.21, abs=1e-12)


def test_paired_dictators_at_r8_closed_form():
    # h_i reads the x bit of coordinate 0: E[x^1_0 x^2_0] is the mass of the
    # block's letters with both x bits set
    R = 8
    rng = np.random.default_rng(3)
    d_block = sparse_block(rng, 16)
    x0 = (np.arange(4 ** R) >> (2 * R - 1)) & 1
    both_x = [c for c in range(16) if (c >> 3) & 1 and (c >> 2) & 1]  # x-block code 0b11
    got = coupled_product_expectation([x0, x0], d_block, 2, R)
    assert got == pytest.approx(d_block[both_x].sum(), abs=1e-12)


# ---- work cap --------------------------------------------------------------------------


def test_cap_refuses_before_allocating():
    # arity 3 over 4-letter coordinates at R = 8 needs 4^16 = 2^32 entries
    tables = [np.ones(4 ** 8)] * 3
    block = np.full((4, 4, 4), 1.0 / 64)
    with traced_peak() as peak:
        with pytest.raises(ValueError, match=r"s=4, k=3, R=8 needs 4294967296 entries") as exc:
            iid_product_expectation(tables, block)
    assert str(ORACLE_CAP) in str(exc.value)
    assert peak.bytes < 256 * 1024


def test_mismatched_shapes_rejected():
    with pytest.raises(ValueError, match="one axis per table"):
        iid_product_expectation([np.ones(4)] * 2, np.ones((2, 2, 2)) / 8)
    with pytest.raises(ValueError, match="same power"):
        iid_product_expectation([np.ones(4), np.ones(8)], np.ones((2, 2)) / 4)
