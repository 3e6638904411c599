"""Exact lifted-test oracles against the enumerators they replaced.

``acceptance_exact``, exact ``averaged_function`` and the walk averages of
``influence_decode_stat`` contract the permutation-averaged assignment one
coordinate at a time.  The enumerators below list every coordinatewise
outcome and every coordinate permutation instead; they are the reference
oracles and are feasible for n <= 5, R <= 2.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from biascsp.csp import Assignment, ConstraintHypergraph, Predicate
from biascsp.harness.rng import rng_for
from biascsp.probspace import domain_points, pack_bits, product_measure
from biascsp.pseudodist import LocalDistributionFamily
from biascsp.reduction import (
    LongCodeAssignment,
    ReductionParams,
    SseGraph,
    acceptance_estimate,
    acceptance_exact,
    averaged_function,
    dictator_assignment,
    generate_sse,
    walk_matrix,
)
from biascsp.reduction import analysis
from biascsp.reduction.sampler import BatchTestSampler, edge_block_probs

ENUM_CAP = 1 << 18  # largest combo list a hypothesis example may ask for

from conftest import traced_peak


# ---- reference enumerators -----------------------------------------------------


def reference_block(gap, theta, graph, params, edge_index) -> np.ndarray:
    """The one-coordinate test block by listing every latent draw (a, z_common,
    xi, outcome) and, per position, the noised and folded letter law."""
    edge, _ = gap.edges[edge_index]
    r = len(edge)
    n = graph.n
    probs, pos_bits = edge_block_probs(theta, edge)
    walk = walk_matrix(graph, params.eta)
    uniform = np.full(n, 1.0 / n)
    beta, eta, rho_sq = params.beta, params.eta, params.rho_sq
    bdist = np.array([1.0 - beta, beta])
    block = np.zeros((4 * n,) * r)
    for a in range(n):
        for zc in (0, 1):
            for xi in (0, 1):
                p_latent = (1.0 / n) * bdist[zc] * (rho_sq if xi else 1.0 - rho_sq)
                for o in range(2 ** r):
                    p = p_latent * probs[o]
                    if p == 0.0:
                        continue
                    conds = []
                    for pos, v in enumerate(edge):
                        x_val = int(pos_bits[o, pos])
                        mu_v = theta.vertex_mean(v)
                        mdist = np.array([1.0 - mu_v, mu_v])
                        z_src = np.zeros(2)
                        if xi:
                            z_src[zc] = 1.0
                        else:
                            z_src[:] = bdist
                        q_z = (1.0 - eta) * z_src + eta * bdist
                        q_x = eta * mdist
                        q_x[x_val] += 1.0 - eta
                        cond = np.zeros((n, 2, 2))
                        cond[:, :, 1] = q_z[1] * np.outer(walk[a], q_x)
                        cond[:, :, 0] = q_z[0] * np.outer(uniform, mdist)
                        conds.append(cond.reshape(-1))
                    joint = conds[0]
                    for c in conds[1:]:
                        joint = np.multiply.outer(joint, c)
                    block += p * joint
    return block


def enumerated_acceptance(gap, theta, graph, params, f) -> float:
    """Acceptance by listing, per edge, the (4n)^(rR) coordinatewise outcome
    combos and the (R!)^r tuples of position permutations."""
    R, n = params.R, graph.n
    perms = [np.array(p) for p in itertools.permutations(range(R))]
    table = gap.predicate.table()
    total = 0.0
    for e_idx, (edge, w_e) in enumerate(gap.edges):
        r = len(edge)
        block = reference_block(gap, theta, graph, params, e_idx).reshape(-1)
        combos = np.array(list(itertools.product(range((4 * n) ** r), repeat=R)), dtype=np.int64)
        probs = block[combos].prod(axis=1)
        keep = probs > 0
        combos, probs = combos[keep], probs[keep]
        codes = [(combos // (4 * n) ** (r - 1 - pos)) % (4 * n) for pos in range(r)]
        acc = np.zeros(len(combos))
        for perm_tuple in itertools.product(perms, repeat=r):
            acc += table[
                pack_bits(
                    f.evaluate_batch(c[:, pm] // 4, (c[:, pm] // 2) % 2, c[:, pm] % 2)
                    for c, pm in zip(codes, perm_tuple)
                )
            ]
        total += w_e * float(np.dot(probs, acc)) / math.factorial(R) ** r
    return total


def enumerated_averaged_values(f, A, mu_i, eta, graph) -> np.ndarray:
    """Exact ``averaged_function`` values, one (x, z) point at a time: every
    walk and fold outcome times every coordinate permutation."""
    R, n = A.size, graph.n
    walk = walk_matrix(graph, eta)
    perms = [np.array(p) for p in itertools.permutations(range(R))]
    b_combos = np.array(list(itertools.product(range(n), repeat=R)), dtype=np.int64)
    out = []
    for row in domain_points(2 * R).astype(np.int8):
        x, z = row[:R], row[R:]
        bots = np.flatnonzero(z == 0)
        pb = np.ones(len(b_combos))
        for j in range(R):
            pb *= (walk[A[j]] if z[j] == 1 else np.full(n, 1.0 / n))[b_combos[:, j]]
        x_free = domain_points(len(bots)).astype(np.int8)
        px = product_measure([mu_i] * len(bots))
        nb, nx = len(b_combos), len(x_free)
        big_b = np.repeat(b_combos, nx, axis=0)
        big_x = np.tile(x, (nb * nx, 1))
        if len(bots):
            big_x[:, bots] = np.tile(x_free, (nb, 1))
        big_z = np.tile(z, (nb * nx, 1))
        probs = (pb[:, None] * px[None, :]).reshape(-1)
        acc = np.zeros(nb * nx)
        for perm in perms:
            acc += f.evaluate_batch(big_b[:, perm], big_x[:, perm], big_z[:, perm])
        out.append(float(np.dot(probs, acc / len(perms))))
    return np.clip(np.array(out), 0.0, 1.0)


def walk_average_loop(tables, walk, pt) -> np.ndarray:
    """E[t_B] with B(j) ~ walk[pt(j)], summed over every vertex-vector B."""
    R = len(pt)
    acc = np.zeros(tables.shape[-1])
    for b_pt in itertools.product(range(walk.shape[0]), repeat=R):
        p = 1.0
        for j in range(R):
            p *= walk[pt[j], b_pt[j]]
        if p > 0:
            acc += p * tables[b_pt]
    return acc


# ---- draws ---------------------------------------------------------------------------


def lifted_config(n, R, r, kind, seed):
    """A random instance: a multigraph on n vertices, two arity-r edges over
    four gap vertices (the second repeats a vertex when r >= 2), a smoothed
    mixture family, and a table, callback or planted-dictator assignment."""
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, 4))
    graph = SseGraph(n, deg, rng.integers(0, n, size=(n, deg)))
    names = ["a", "b", "c", "d"]
    first = tuple(str(v) for v in rng.choice(names, size=r))
    second = tuple(str(v) for v in rng.choice(names, size=r))
    if r >= 2:
        second = second[:-1] + second[:1]
    accepting = [a for a in itertools.product((0, 1), repeat=r) if rng.random() < 0.5]
    predicate = Predicate(r, frozenset(accepting or [(1,) * r]))
    w = rng.dirichlet(np.ones(2))
    gap = ConstraintHypergraph({v: 0.25 for v in names}, [(first, float(w[0])), (second, float(w[1]))], predicate)
    support = [
        (Assignment.from_bits(gap.vertices, rng.integers(0, 2, size=4)), float(p))
        for p in rng.dirichlet(np.ones(3))
    ]
    theta = LocalDistributionFamily.from_distribution(support, 4, gap).smooth(
        float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.2, 0.7))
    )
    params = ReductionParams.manual(
        mu=theta.bias(),
        r=r,
        beta=float(rng.uniform(0.1, 0.9)),
        rho_sq=float(rng.uniform(0.05, 1.0)),
        R=R,
        eta=float(rng.uniform(0.02, 0.5)),
    )
    if kind == "table":
        f = LongCodeAssignment.from_table(n, R, rng.integers(0, 2, size=n ** R * 4 ** R))
    elif kind == "callback":
        # reads every part at weights that differ per coordinate, so it is
        # not symmetric under coordinate permutations
        wa, wx, wz = (rng.integers(0, 3, size=R) for _ in range(3))
        f = LongCodeAssignment(
            lambda A, x, z: ((A @ wa + x @ wx + z @ wz + x[:, 0] * A[:, -1]) % 2).astype(np.int8)
        )
    else:
        mask = rng.random(n) < 0.5
        mask[rng.integers(n)] = True
        f = dictator_assignment(mask)
    return gap, theta, graph, params, f, rng


# ---- cross-checks ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 5),
    R=st.integers(1, 2),
    r=st.integers(1, 3),
    kind=st.sampled_from(["table", "callback", "dictator"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_oracles_match_enumeration(n, R, r, kind, seed):
    assume((4 * n) ** (r * R) <= ENUM_CAP)
    gap, theta, graph, params, f, rng = lifted_config(n, R, r, kind, seed)
    got = acceptance_exact(gap, theta, graph, params, f)
    assert got == pytest.approx(enumerated_acceptance(gap, theta, graph, params, f), abs=1e-12)
    if kind == "dictator" and R == 2:
        # rows with two equal codes have no unique code and fall back
        assert f.dictator.fallback_count > 0

    A = rng.integers(0, n, size=R)
    mu_i = float(rng.uniform(0.1, 0.9))
    table = averaged_function(f, A, mu_i, params.beta, params.eta, graph)
    want = enumerated_averaged_values(f, A, mu_i, params.eta, graph)
    np.testing.assert_allclose(table.values, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), R=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_walk_average_matches_loop(n, R, seed):
    rng = np.random.default_rng(seed)
    walk = rng.random((n, n)) * (rng.random((n, n)) < 0.6)  # zero steps skip in the loop
    walk[np.arange(n), rng.integers(n, size=n)] += 0.1
    walk /= walk.sum(axis=1, keepdims=True)
    tables = rng.random((n,) * R + (2 ** R,))
    got = analysis._walk_average(tables, walk)
    for pt in itertools.product(range(n), repeat=R):
        np.testing.assert_allclose(got[pt], walk_average_loop(tables, walk, pt), rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    r=st.integers(1, 3),
    eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    rho_sq=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_block_matches_reference(n, r, eta, beta, rho_sq, seed):
    # the second edge of lifted_config repeats a vertex when r >= 2
    gap, theta, graph, _, _, _ = lifted_config(n, 1, r, "dictator", seed)
    params = ReductionParams.manual(mu=theta.bias(), r=r, beta=beta, rho_sq=rho_sq, R=1, eta=eta)
    for e_idx in range(len(gap.edges)):
        got = analysis.test_block_distribution(gap, theta, graph, params, e_idx)
        want = reference_block(gap, theta, graph, params, e_idx)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "beta, rho_sq, eta", [(0.8, 1.0, 0.3), (0.3, 0.6, 0.6), (0.5, 0.25, 0.05)]
)
def test_sampler_letters_follow_block(beta, rho_sq, eta):
    """Code-tuple frequencies of the sampler against the block, chi-square,
    at arity 2 (n = 8) and arity 3 (n = 4).

    The coordinates of every row are i.i.d. copies of the block, so the
    m x R coordinates are pooled; cells the block gives probability 0 must
    never be observed and are left out, and the other cells expected fewer
    than 5 times are merged.
    """
    m, R = 20000, 20
    for r, n in ((2, 8), (3, 4)):
        gap, theta, graph, _, _, _ = lifted_config(n, R, r, "dictator", 2)
        params = ReductionParams.manual(mu=theta.bias(), r=r, beta=beta, rho_sq=rho_sq, R=R, eta=eta)
        sampler = BatchTestSampler(gap, theta, graph, params)
        for e_idx in range(len(gap.edges)):
            rng = rng_for(31, "block-chi2", e_idx) if r == 2 else rng_for(31, "block-chi2", r, e_idx)
            cell = 0
            for b, x, z in sampler.sample_parts(e_idx, m, rng):
                cell = cell * 4 * n + 4 * b + 2 * x + z
            observed = np.bincount(cell.ravel(), minlength=(4 * n) ** r)
            block = analysis.test_block_distribution(gap, theta, graph, params, e_idx).ravel()
            expected = block / block.sum() * observed.sum()
            assert observed[expected == 0].sum() == 0
            small = (expected > 0) & (expected < 5)
            obs, exp = observed[expected >= 5], expected[expected >= 5]
            if small.any():
                obs, exp = np.append(obs, observed[small].sum()), np.append(exp, expected[small].sum())
            assert chisquare(obs, exp).pvalue > 1e-3, (r, e_idx)


# ---- beyond the enumerable range ---------------------------------------------------------


def test_planted_dictator_at_n32_r3_matches_estimate():
    # the enumeration would list 128^6 combos times 36 permutation pairs
    gap = ConstraintHypergraph(
        {"a": 0.3, "b": 0.4, "c": 0.3}, [(("a", "b"), 0.6), (("b", "c"), 0.4)], Predicate.and_(2)
    )
    support = [
        (Assignment({"a": 1, "b": 1, "c": 1}), 0.3),
        (Assignment({"a": 0, "b": 0, "c": 0}), 0.7),
    ]
    theta = LocalDistributionFamily.from_distribution(support, 6, gap).smooth(0.1, 0.3)
    graph = generate_sse("planted", 32, 6, 0.25, seed=17)
    params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.2, rho_sq=0.25, R=3, eta=0.01)
    f = dictator_assignment(graph.planted, graph)
    with traced_peak() as peak:
        exact = acceptance_exact(gap, theta, graph, params, f)
    assert peak.bytes < 128 << 20
    assert f.dictator.fallback_count > 0
    mc = acceptance_estimate(gap, theta, graph, params, dictator_assignment(graph.planted, graph), 200000, 18)
    assert mc.value == pytest.approx(exact, abs=4 * mc.stderr)
