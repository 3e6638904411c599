"""Predicates, hypergraphs, and exhaustive constrained optima."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascsp.csp import (
    WEIGHT_TOL,
    Assignment,
    ConstraintHypergraph,
    IncompleteAssignmentError,
    InstanceTooLargeError,
    Predicate,
    assignment_value,
    opt_constrained,
    opt_constrained_scan,
    predicate_multilinear,
    relative_weight,
    _all_values,
    robust_opt,
    robust_opt_scan,
)
from biascsp.harness.mc import BLOCK_ENTRIES
from biascsp.probspace import domain_points

from conftest import traced_peak


def cycle_graph(k, predicate):
    verts = {f"v{i}": 1.0 / k for i in range(k)}
    edges = [((f"v{i}", f"v{(i + 1) % k}"), 1.0 / k) for i in range(k)]
    return ConstraintHypergraph(verts, edges, predicate)


def brute_force_opt(g, mu, tol):
    """Independent exhaustive enumeration, dict-based."""
    best = None
    verts = g.vertices
    for bits in itertools.product((0, 1), repeat=len(verts)):
        sigma = Assignment.from_bits(verts, bits)
        if abs(relative_weight(g, sigma) - mu) <= tol + 1e-9:
            val = assignment_value(g, sigma)
            if best is None or val > best:
                best = val
    return best


class TestPredicate:
    def test_xor_corner(self):
        poly = predicate_multilinear(Predicate.xor(2))
        assert poly.evaluate([1.0, 0.0]) == pytest.approx(1.0)
        assert poly.evaluate([1.0, 1.0]) == pytest.approx(0.0)

    def test_and3_corner(self):
        poly = predicate_multilinear(Predicate.and_(3))
        assert poly.evaluate([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert poly.evaluate([1.0, 1.0, 0.0]) == pytest.approx(0.0)

    def test_two_string_predicate_corner(self):
        psi = Predicate.from_strings(3, ["100", "011"])
        poly = predicate_multilinear(psi)
        assert poly.evaluate([0.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert poly.evaluate([1.0, 0.0, 0.0]) == pytest.approx(1.0)
        assert poly.evaluate([1.0, 1.0, 1.0]) == pytest.approx(0.0)

    def test_multilinear_agrees_on_all_corners(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            r = int(rng.integers(1, 4))
            strings = [
                tuple(rng.integers(0, 2, size=r).tolist())
                for _ in range(int(rng.integers(1, 2 ** r + 1)))
            ]
            psi = Predicate(r, frozenset(strings))
            poly = predicate_multilinear(psi)
            for corner in itertools.product((0, 1), repeat=r):
                assert poly.evaluate(np.array(corner, float)) == pytest.approx(
                    psi(corner), abs=1e-12
                )


    @given(arity=st.integers(1, 5), data=st.data())
    def test_table_matches_call_on_every_point(self, arity, data):
        accepting = data.draw(st.frozensets(st.tuples(*[st.integers(0, 1)] * arity)))
        psi = Predicate(arity, accepting)
        table = psi.table()
        assert table.dtype == np.int8
        assert [int(t) for t in table] == [psi(pt) for pt in domain_points(arity)]


class TestValues:
    def test_xor_cycle_alternating(self):
        g = cycle_graph(4, Predicate.xor(2))
        sigma = Assignment({"v0": 1, "v1": 0, "v2": 1, "v3": 0})
        assert assignment_value(g, sigma) == pytest.approx(1.0)
        assert assignment_value(g, Assignment({v: 0 for v in g.vertices})) == 0.0

    def test_and_single_edge(self):
        g = ConstraintHypergraph(
            {"a": 0.5, "b": 0.5}, [(("a", "b"), 1.0)], Predicate.and_(2)
        )
        assert assignment_value(g, Assignment({"a": 1, "b": 1})) == pytest.approx(1.0)

    def test_incomplete_assignment(self):
        g = cycle_graph(3, Predicate.xor(2))
        with pytest.raises(IncompleteAssignmentError):
            assignment_value(g, Assignment({"v0": 1}))

    def test_relative_weight(self):
        g = cycle_graph(4, Predicate.xor(2))
        assert relative_weight(g, Assignment({v: 1 for v in g.vertices})) == pytest.approx(1.0)
        assert relative_weight(g, Assignment({v: 0 for v in g.vertices})) == pytest.approx(0.0)
        sigma = Assignment({"v0": 1, "v1": 1, "v2": 0, "v3": 0})
        assert relative_weight(g, sigma) == pytest.approx(0.5)

    def test_value_via_multilinear_matches_table(self):
        rng = np.random.default_rng(1)
        psi = Predicate.from_strings(3, ["110", "001", "111"])
        poly = predicate_multilinear(psi)
        verts = {f"v{i}": 1 / 5 for i in range(5)}
        edges = [(("v0", "v1", "v2"), 0.5), (("v2", "v3", "v4"), 0.5)]
        g = ConstraintHypergraph(verts, edges, psi)
        for _ in range(10):
            sigma = Assignment.from_bits(g.vertices, rng.integers(0, 2, size=5))
            via_poly = sum(
                w * float(poly.evaluate(np.array([sigma[v] for v in vs], float)))
                for vs, w in g.edges
            )
            assert assignment_value(g, sigma) == pytest.approx(via_poly, abs=1e-12)


class TestOpt:
    def test_xor_cycle_balanced(self):
        g = cycle_graph(4, Predicate.xor(2))
        value, witness, feasible = opt_constrained(g, 0.5, 0.0)
        assert feasible and value == pytest.approx(1.0)
        assert relative_weight(g, witness) == pytest.approx(0.5)

    def test_and3_forced_all_ones(self):
        g = ConstraintHypergraph(
            {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3},
            [(("a", "b", "c"), 1.0)],
            Predicate.and_(3),
        )
        value, witness, feasible = opt_constrained(g, 1.0, 0.0)
        assert feasible and value == pytest.approx(1.0)
        assert all(witness[v] == 1 for v in g.vertices)

    def test_xor_triangle_third(self):
        g = cycle_graph(3, Predicate.xor(2))
        value, _, feasible = opt_constrained(g, 1 / 3, 1e-9)
        assert feasible and value == pytest.approx(2 / 3)

    def test_empty_window_flagged(self):
        g = cycle_graph(3, Predicate.xor(2))
        value, witness, feasible = opt_constrained(g, 0.5, 0.0)
        assert not feasible and witness is None and value == 0.0

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(2)
        psi = Predicate.from_strings(2, ["10", "01", "11"])
        raw = rng.random(5)
        verts = {f"v{i}": float(w) for i, w in enumerate(raw / raw.sum())}
        pairs = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v0")]
        edges = [(p, 0.2) for p in pairs]
        g = ConstraintHypergraph(verts, edges, psi)
        for mu in (0.2, 0.4, 0.6):
            ours, _, feasible = opt_constrained(g, mu, 0.1)
            expected = brute_force_opt(g, mu, 0.1)
            if expected is None:
                assert not feasible
            else:
                assert ours == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_tol(self):
        g = cycle_graph(5, Predicate.xor(2))
        vals = [opt_constrained(g, 0.4, t)[0] for t in (0.0, 0.1, 0.2, 0.5)]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))

    def test_cap_enforced(self):
        n = 23
        verts = {f"v{i}": 1.0 / n for i in range(n)}
        edges = [((f"v{i}", f"v{(i + 1) % n}"), 1.0 / n) for i in range(n)]
        g = ConstraintHypergraph(verts, edges, Predicate.xor(2))
        with pytest.raises(InstanceTooLargeError):
            opt_constrained(g, 0.5, 0.1)


class TestRobustOpt:
    def test_gamma_zero_equals_exact(self):
        g = cycle_graph(4, Predicate.xor(2))
        assert robust_opt(g, 0.5, 0.0)[0] == pytest.approx(
            opt_constrained(g, 0.5, 0.0)[0]
        )

    def test_wide_window_is_unconstrained(self):
        g = cycle_graph(4, Predicate.xor(2))
        value, _, _ = robust_opt(g, 0.5, 4.0)  # window covers [−0.5, 1.5]
        best = max(
            assignment_value(g, Assignment.from_bits(g.vertices, bits))
            for bits in itertools.product((0, 1), repeat=4)
        )
        assert value == pytest.approx(best)

    def test_xor_cycle_small_window(self):
        g = cycle_graph(4, Predicate.xor(2))
        assert robust_opt(g, 0.5, 0.04)[0] == pytest.approx(1.0)

    def test_dominates_exact(self):
        g = cycle_graph(5, Predicate.xor(2))
        for mu in (0.2, 0.4):
            assert robust_opt(g, mu, 0.1)[0] >= opt_constrained(g, mu, 0.0)[0] - 1e-12


class TestStructuralProperties:
    def test_complement_symmetry_xor(self):
        g = cycle_graph(5, Predicate.xor(2))
        for mu in (0.2, 0.4):
            a = opt_constrained(g, mu, 1e-9)
            b = opt_constrained(g, 1 - mu, 1e-9)
            assert a[2] == b[2]
            if a[2]:
                assert a[0] == pytest.approx(b[0], abs=1e-12)

    def test_random_biased_assignment_lower_bound(self):
        # with the all-ones string accepted, conditioned random assignments
        # achieve at least mu^r in expectation; verified by enumeration
        psi = Predicate.from_strings(2, ["11", "10"])
        g = cycle_graph(4, psi)
        mu = 0.5
        value, _, feasible = opt_constrained(g, mu, 0.0)
        assert feasible
        assert value >= mu ** 2 - 1e-12

    def test_duplicate_vertices_in_edge(self):
        psi = Predicate.xor(2)
        g = ConstraintHypergraph(
            {"a": 0.5, "b": 0.5}, [(("a", "a"), 0.5), (("a", "b"), 0.5)], psi
        )
        sigma = Assignment({"a": 1, "b": 0})
        # the duplicated edge evaluates on the induced labels (1,1)
        assert assignment_value(g, sigma) == pytest.approx(0.5)

    def test_json_roundtrip(self):
        g = cycle_graph(4, Predicate.xor(2))
        back = ConstraintHypergraph.from_json(g.to_json())
        assert back.vertex_weights == g.vertex_weights
        assert back.edges == g.edges
        assert back.predicate.accepting == g.predicate.accepting

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ConstraintHypergraph({"a": 0.7, "b": 0.7}, [(("a", "b"), 1.0)], Predicate.xor(2))
        with pytest.raises(ValueError):
            ConstraintHypergraph({"a": 0.5, "b": 0.5}, [(("a", "c"), 1.0)], Predicate.xor(2))


# ---- split-index scan against the bit-matrix reference ------------------------


def reference_all_values(g):
    """The 2^n x n bit-matrix enumeration that the split-index scan replaced."""
    verts = g.vertices
    n = len(verts)
    masks = np.arange(2 ** n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    weights = bits @ g.vertex_weight_vector(verts)
    vindex = {v: i for i, v in enumerate(verts)}
    values = np.zeros(len(masks))
    table = g.predicate.table()
    for vs, w in g.edges:
        idx = np.zeros(len(masks), dtype=np.int64)
        for v in vs:
            idx = (idx << 1) | bits[:, vindex[v]]
        values += w * table[idx]
    return verts, bits, weights, values


def reference_best(g, window):
    verts, bits, weights, values = reference_all_values(g)
    ok = window(weights)
    if not ok.any():
        return 0.0, None, False
    best = int(np.argmax(np.where(ok, values, -np.inf)))
    return float(values[best]), Assignment.from_bits(verts, bits[best]), True


def reference_opt(g, mu, tol):
    if tol is None:
        tol = 0.5 * min(g.vertex_weights.values())
    return reference_best(g, lambda w: np.abs(w - mu) <= tol + WEIGHT_TOL)


def reference_robust(g, mu, gamma):
    half = mu * np.sqrt(max(gamma, 0.0))
    return reference_best(g, lambda w: (w >= mu - half - WEIGHT_TOL) & (w <= mu + half + WEIGHT_TOL))


def same_outcome(got, want):
    assert got[2] == want[2]
    assert got[0] == want[0]
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert got[1].labels == want[1].labels


def assembled_values(g):
    """``_all_values`` with its blocks copied into two arrays of 2^n entries,
    weights and values; an entry that no block fills stays NaN, which
    equals nothing."""
    verts, blocks = _all_values(g)
    weights, values = np.full((2, 2 ** len(verts)), np.nan)
    starts = []
    for start, w, v in blocks:
        starts.append(start)
        weights[start : start + w.size] = w.reshape(-1)
        values[start : start + v.size] = v.reshape(-1)
    assert starts == sorted(starts)
    return verts, weights, values


@st.composite
def instances(draw):
    """Random instances of 1-14 vertices: non-uniform vertex weights, a random
    predicate of arity 1-3, and edges that may repeat a vertex."""
    n = draw(st.integers(1, 14))
    r = draw(st.integers(1, 3))
    accepting = draw(st.sets(st.tuples(*[st.integers(0, 1)] * r)))
    vw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    m = draw(st.integers(1, 12))
    edges = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * r), min_size=m, max_size=m))
    if r > 1 and draw(st.booleans()):
        edges[0] = (edges[0][0],) * r  # a vertex at every position
    ew = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    verts = {f"v{i}": w / sum(vw) for i, w in enumerate(vw)}
    return ConstraintHypergraph(
        verts,
        [(tuple(f"v{i}" for i in e), w / sum(ew)) for e, w in zip(edges, ew)],
        Predicate(r, frozenset(accepting)),
    )


class TestSplitScan:
    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_values_bit_identical(self, g):
        _, _, weights, values = reference_all_values(g)
        verts, got_weights, got_values = assembled_values(g)
        assert verts == g.vertices
        assert got_values.size == 2 ** len(verts)
        assert np.array_equal(got_values, values)
        # a different summation order; far inside the window slack WEIGHT_TOL
        assert np.max(np.abs(got_weights - weights)) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_optima_match_reference(self, g):
        for mu in (0.0, 0.2, 0.25, 1 / 3, 0.5, 0.75, 1.0):
            for tol in (None, 0.0, 1e-9, 0.1):
                same_outcome(opt_constrained(g, mu, tol), reference_opt(g, mu, tol))
            for gamma in (0.0, 0.01, 0.25):
                same_outcome(robust_opt(g, mu, gamma), reference_robust(g, mu, gamma))

    @pytest.mark.parametrize("n", [6, 14])
    def test_ties_go_to_first_packed_index(self, n):
        # an OR path over the first half of the vertices: many assignments
        # satisfy every edge, and all vertices weigh the same
        psi = Predicate.from_strings(2, ["01", "10", "11"])
        verts = {f"v{i}": 1.0 / n for i in range(n)}
        edges = [((f"v{i}", f"v{i + 1}"), 1.0 / (n // 2)) for i in range(n // 2)]
        g = ConstraintHypergraph(verts, edges, psi)
        mu = (n - 2) / n
        value, witness, feasible = opt_constrained(g, mu, 0.0)
        assert feasible
        optima = [
            bits
            for bits in itertools.product((0, 1), repeat=n)  # packed-index order, v0 first
            if sum(bits) == n - 2
            and assignment_value(g, Assignment.from_bits(g.vertices, bits)) == value
        ]
        assert len(optima) > 1
        assert witness.labels == Assignment.from_bits(g.vertices, optima[0]).labels

    def test_counters(self):
        g = cycle_graph(4, Predicate.xor(2))
        scan = opt_constrained_scan(g, 0.5, 0.0)
        assert (scan.assignments, scan.in_window) == (16, 6)
        assert scan.outcome == opt_constrained(g, 0.5, 0.0)
        assert robust_opt_scan(g, 0.5, 4.0).in_window == 16
        empty = opt_constrained_scan(cycle_graph(3, Predicate.xor(2)), 0.5, 0.0)
        assert (empty.assignments, empty.in_window, empty.feasible) == (8, 0, False)

    def test_peak_memory_at_n20(self):
        g = random_xor(20, 60, 5)
        with traced_peak() as peak:
            _, _, feasible = opt_constrained(g, 0.5)
        assert feasible
        assert peak.bytes < 64 * 2 ** 20, f"peak traced allocation {peak.bytes / 2 ** 20:.1f} MiB"

    def test_window_is_tested_in_place(self):
        # the bound once caught 2^n weights and a window test that allocated
        # (w - mu, then its abs) beside 8 MiB of values; the scan now holds
        # one block of each (test_scan_holds_one_block)
        g = random_xor(20, 60, 5)
        with traced_peak() as peak:
            scan = opt_constrained_scan(g, 0.5)
        assert (scan.feasible, scan.in_window) == (True, 184756)  # C(20, 10) weights at 1/2
        assert peak.bytes < 14 * 2 ** 20, f"peak traced allocation {peak.bytes / 2 ** 20:.1f} MiB"


def random_xor(n, m, seed):
    """An XOR instance of ``m`` random vertex pairs, uniform weights."""
    rng = np.random.default_rng(seed)
    verts = {f"v{i}": 1.0 / n for i in range(n)}
    pairs = [rng.choice(n, size=2, replace=False) for _ in range(m)]
    return ConstraintHypergraph(verts, [((f"v{a}", f"v{b}"), 1.0 / m) for a, b in pairs], Predicate.xor(2))


def random_instance(n, seed):
    """``n`` vertices of weights 1-9, 40 edges of a random predicate of arity
    1-3 that may repeat a vertex; the instances of ``instances``, past 14."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    points = [tuple(int(b) for b in a) for a in domain_points(r)]
    accepting = [a for a in points if rng.random() < 0.5] or points[:1]
    vw = rng.integers(1, 10, size=n)
    ew = rng.integers(1, 10, size=40)
    edges = rng.integers(0, n, size=(40, r))
    return ConstraintHypergraph(
        {f"v{i}": w / vw.sum() for i, w in enumerate(vw)},
        [(tuple(f"v{i}" for i in e), w / ew.sum()) for e, w in zip(edges, ew)],
        Predicate(r, frozenset(accepting)),
    )


# Assignments per scan block; vertices before the last 16 are a block's prefix.
SCAN_BLOCK = BLOCK_ENTRIES // 4


class TestBlockScan:
    """Instances of 17-18 vertices, which the scan takes in 2-4 blocks."""

    @staticmethod
    def reference_scan(ref, window):
        """The outcome over the reference arrays, the in-window count and the
        indices of every in-window optimum."""
        verts, bits, weights, values = ref
        ok = window(weights)
        if not ok.any():
            return (0.0, None, False), 0, []
        masked = np.where(ok, values, -np.inf)
        best = int(np.argmax(masked))
        outcome = (float(values[best]), Assignment.from_bits(verts, bits[best]), True)
        return outcome, int(ok.sum()), np.flatnonzero(masked == masked[best]).tolist()

    def check(self, g, ref, scan, window):
        want, in_window, optima = self.reference_scan(ref, window)
        same_outcome(scan.outcome, want)
        assert (scan.assignments, scan.in_window) == (2 ** len(g.vertices), in_window)
        return optima

    @pytest.mark.parametrize("n, seed", [(17, 0), (17, 1), (18, 2), (18, 3)])
    def test_blocks_match_reference(self, n, seed):
        g = random_instance(n, seed)
        ref = reference_all_values(g)
        _, weights, values = assembled_values(g)
        assert np.array_equal(values, ref[3])
        assert np.max(np.abs(weights - ref[2])) <= 1e-15
        for mu in (0.0, 0.25, 0.5, 0.8):
            for tol in (None, 0.0, 0.1):
                t = 0.5 * min(g.vertex_weights.values()) if tol is None else tol
                self.check(g, ref, opt_constrained_scan(g, mu, tol),
                           lambda w: np.abs(w - mu) <= t + WEIGHT_TOL)
            for gamma in (0.01, 0.25):
                half = mu * np.sqrt(gamma)
                self.check(g, ref, robust_opt_scan(g, mu, gamma),
                           lambda w: (w >= mu - half - WEIGHT_TOL) & (w <= mu + half + WEIGHT_TOL))

    def test_tie_across_blocks_goes_to_the_first(self):
        # XOR on a 17-cycle: an assignment and its complement, which flips
        # the prefix vertex v0 and so sits in the other block, tie
        g = cycle_graph(17, Predicate.xor(2))
        optima = self.check(g, reference_all_values(g), opt_constrained_scan(g, 0.5),
                            lambda w: np.abs(w - 0.5) <= 0.5 / 17 + WEIGHT_TOL)
        assert {i // SCAN_BLOCK for i in optima} == {0, 1}

    def test_tie_in_later_blocks_goes_to_the_first(self):
        # an OR edge (v0, v0) outweighs the rest, so every optimum has v0 = 1
        # and lies in blocks 2-3; v1 is in no edge, so both of them hold one
        n = 18
        psi = Predicate.from_strings(2, ["01", "10", "11"])
        verts = {f"v{i}": 1.0 / n for i in range(n)}
        edges = [(("v0", "v0"), 0.5)] + [((f"v{i}", f"v{i + 1}"), 0.5 / 8) for i in range(2, 17, 2)]
        g = ConstraintHypergraph(verts, edges, psi)
        optima = self.check(g, reference_all_values(g), opt_constrained_scan(g, 0.5, 0.1),
                            lambda w: np.abs(w - 0.5) <= 0.1 + WEIGHT_TOL)
        assert {i // SCAN_BLOCK for i in optima} == {2, 3}

    def test_empty_window(self):
        g = cycle_graph(17, Predicate.xor(2))  # weights k/17, never 1/2
        scan = opt_constrained_scan(g, 0.5, 0.0)
        assert scan.outcome == (0.0, None, False)
        assert (scan.assignments, scan.in_window) == (2 ** 17, 0)

    @pytest.mark.parametrize("n", [20, 22])
    def test_scan_holds_one_block(self, n):
        # 2^n values were 10.5 MiB at n = 20 and 34.5 MiB at n = 22; a block's
        # values, weights, mask and gathered slab take about 1.3 MiB
        g = random_xor(n, 60, 5)
        with traced_peak() as peak:
            scan = opt_constrained_scan(g, 0.5)
        assert scan.feasible
        assert peak.bytes <= 2 * 2 ** 20, f"peak traced allocation {peak.bytes / 2 ** 20:.2f} MiB"
