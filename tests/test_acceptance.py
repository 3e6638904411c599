"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import itertools
import math
import time

import numpy as np
import pytest

from biascsp.csp import Assignment, ConstraintHypergraph, Predicate
from biascsp.gaussian import (
    borell_check,
    halfspace,
    lambda_bound_check,
    lambda_estimate,
    normal_quantile,
)
from biascsp.harness.rng import rng_for
from biascsp.probspace import (
    BiasedSpace,
    FunctionTable,
    PairedSpace,
    domain_points,
    evaluate,
    fourier_expand,
    high_degree_variance,
    influence,
    noise_apply,
    split_influences,
)
from biascsp.pseudodist import (
    LocalDistributionFamily,
    find_conditioning,
    moment_matrix,
    vector_solution,
)
from biascsp.reduction import (
    LongCodeAssignment,
    ReductionParams,
    acceptance_estimate,
    acceptance_exact,
    averaged_function,
    decoupling_check,
    dictator_assignment,
    generate_sse,
    mixing_check,
)
from biascsp.reduction.analysis import _leak_block, coupled_product_expectation
from biascsp.reduction.dictator import analytic_bias
from biascsp.reduction.sampler import edge_block_probs
from biascsp.rounding import (
    RoundingInput,
    bias_concentration_check,
    covariance_bound_check,
    value_check,
)

TOL = 1e-9


class Criterion:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit = limit_s
        self.t0 = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.description} "
              f"({elapsed:.1f}s / limit {self.limit:.0f}s) {detail}")
        assert ok, f"criterion {self.number} failed: {detail}"
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


# ---- shared builders ---------------------------------------------------------


def cycle_host(n=4, predicate=None):
    predicate = predicate or Predicate.xor(2)
    verts = {f"v{i}": 1.0 / n for i in range(n)}
    edges = [((f"v{i}", f"v{(i + 1) % n}"), 1.0 / n) for i in range(n)]
    return ConstraintHypergraph(verts, edges, predicate)


def random_mixture(g, rng, k=6, level=8):
    n = len(g.vertices)
    probs = rng.dirichlet(np.ones(k))
    support = [
        (Assignment.from_bits(g.vertices, rng.integers(0, 2, size=n)), float(p))
        for p in probs
    ]
    return LocalDistributionFamily.from_distribution(support, level, g)


def oracle_influence(f, j):
    r = f.space.r
    biases = f.space.biases
    total = 0.0
    for pt in itertools.product((0, 1), repeat=r):
        if pt[j] != 0:
            continue
        p_rest = math.prod(biases[t] if pt[t] else 1 - biases[t] for t in range(r) if t != j)
        lo, hi = list(pt), list(pt)
        hi[j] = 1
        v0, v1 = f.value_at(lo), f.value_at(hi)
        p = biases[j]
        mean = (1 - p) * v0 + p * v1
        total += p_rest * ((1 - p) * (v0 - mean) ** 2 + p * (v1 - mean) ** 2)
    return total


def desk_completeness_setup(seed=17):
    """The planted desk configuration shared by criteria 9 and 10."""
    gap = cycle_host(4, Predicate.and_(2))
    support = [
        (Assignment({v: 1 for v in gap.vertices}), 0.3),
        (Assignment({v: 0 for v in gap.vertices}), 0.7),
    ]
    theta = LocalDistributionFamily.from_distribution(support, 6, gap).smooth(0.1, 0.3)
    graph = generate_sse("planted", 32, 6, 0.25, seed=seed)
    params = ReductionParams.manual(
        mu=theta.bias(), r=2, beta=0.2, rho_sq=0.25, R=10, eta=0.01
    )
    return gap, theta, graph, params


# ---- criteria -----------------------------------------------------------------


def test_criterion_1_fourier_suite():
    crit = Criterion(1, "Fourier suite on 200 random tables", 10)
    rng = rng_for(101, "fourier-suite")
    pool = (0.2, 0.5, 0.7)
    ok = True
    detail = ""
    for t in range(200):
        r = int(rng.integers(1, 5))
        biases = tuple(pool[i] for i in rng.integers(0, 3, size=r))
        f = FunctionTable(BiasedSpace(biases), rng.random(2 ** r), bounded=True)
        fh = fourier_expand(f)
        if abs(fh.total_weight() - f.second_moment()) > TOL:
            ok, detail = False, f"table {t}: Parseval"
            break
        if np.abs(evaluate(fh).values - f.values).max() > TOL:
            ok, detail = False, f"table {t}: round-trip"
            break
        if any(abs(influence(fh, j) - oracle_influence(f, j)) > TOL for j in range(r)):
            ok, detail = False, f"table {t}: influence duality"
            break
        rho1, rho2 = rng.random(), rng.random()
        lhs = noise_apply(noise_apply(fh, rho1), rho2).coeffs
        rhs = noise_apply(fh, rho1 * rho2).coeffs
        if np.abs(lhs - rhs).max() > TOL:
            ok, detail = False, f"table {t}: semigroup"
            break
        eta = float(rng.uniform(0.1, 0.9))
        noised = noise_apply(fh, 1 - eta)
        if any(
            high_degree_variance(noised, d) > (1 - eta) ** d + TOL for d in range(1, 6)
        ):
            ok, detail = False, f"table {t}: decay"
            break
    crit.finish(ok, detail)


def test_criterion_2_influence_transfer():
    crit = Criterion(2, "influence transfer on 100 paired tables", 10)
    rng = rng_for(102, "transfer")
    ok = True
    detail = ""
    for t in range(100):
        r = int(rng.integers(1, 4))
        bit = BiasedSpace(tuple(rng.choice((0.2, 0.5, 0.7)) for _ in range(r)), "bit")
        leak = BiasedSpace(tuple(rng.choice((0.1, 0.3)) for _ in range(r)), "leak")
        f = FunctionTable(PairedSpace(bit, leak), rng.random(4 ** r), bounded=True)
        fh = fourier_expand(f)
        for j in range(r):
            inf_letter = influence(fh, j)
            ix, iz = split_influences(fh, j)
            if max(ix, iz) > inf_letter + TOL:
                ok, detail = False, f"table {t}: transfer at {j}"
                break
            pair_sum = sum(
                fh.coefficient(s, u) ** 2
                for s in range(2 ** r)
                for u in range(2 ** r)
                if ((s >> j) & 1) or ((u >> j) & 1)
            )
            if abs(pair_sum - inf_letter) > TOL:
                ok, detail = False, f"table {t}: pair-coefficient identity at {j}"
                break
        if not ok:
            break
    crit.finish(ok, detail)


def test_criterion_3_pseudodistribution_pipeline():
    crit = Criterion(3, "smoothing + greedy conditioning on 50 mixtures", 60)
    rng = rng_for(103, "pd-pipeline")
    g = cycle_host(6)
    ok = True
    detail = ""
    successes = 0
    for t in range(50):
        fam = random_mixture(g, rng, k=int(rng.integers(2, 7)))
        mu = fam.bias()
        if mu < 1e-9 or mu > 1 - 1e-9:
            continue
        eta_s = float(rng.uniform(0.1, 0.4))
        sm = fam.smooth(eta_s, mu)
        if abs(sm.bias() - mu) > TOL:
            ok, detail = False, f"mixture {t}: bias drifted"
            break
        floor1 = eta_s * min(mu, 1 - mu)
        for size in (1, 2, 3):
            for subset in itertools.combinations(g.vertices, size):
                if np.asarray(sm.local(subset)).min() < floor1 ** size - 1e-12:
                    ok, detail = False, f"mixture {t}: min-probability at {subset}"
                    break
            if not ok:
                break
        if not ok:
            break
        res = find_conditioning(sm, target=0.05, budget=6)
        # exhaustive recomputation of the reported average, independent path
        stats = res.family.statistics()
        verts = list(g.vertices)
        w = g.vertex_weight_vector(verts)
        total = wsum = 0.0
        for i in range(len(verts)):
            for j in range(len(verts)):
                if i == j:
                    continue
                pij = res.family.prob((verts[i], verts[j]), (1, 1))
                mi, mj = res.family.vertex_mean(verts[i]), res.family.vertex_mean(verts[j])
                cov = pij - mi * mj
                si = math.sqrt(max(mi * (1 - mi), 0.0))
                sj = math.sqrt(max(mj * (1 - mj), 0.0))
                corr = 0.0 if si < 1e-12 or sj < 1e-12 else cov / (si * sj)
                total += w[i] * w[j] * abs(corr)
                wsum += w[i] * w[j]
        recomputed = total / wsum
        if abs(recomputed - stats.avg_abs_corr) > 1e-9:
            ok, detail = False, f"mixture {t}: reported average disagrees"
            break
        if res.success != (recomputed <= 0.05):
            ok, detail = False, f"mixture {t}: verdict inconsistent with recomputation"
            break
        successes += int(res.success)
    crit.finish(ok, detail or f"{successes}/50 reached the target")


def test_criterion_4_vector_solution():
    crit = Criterion(4, "vector solution bullets on 50 families", 10)
    rng = rng_for(104, "vectors")
    g = cycle_host(5)
    ok = True
    detail = ""
    for t in range(50):
        fam = random_mixture(g, rng).smooth(float(rng.uniform(0.05, 0.3)), 0.4)
        sol = vector_solution(fam)
        stats = fam.statistics()
        verts = list(g.vertices)
        for i, v in enumerate(verts):
            if abs(np.linalg.norm(sol.w[i]) - stats.stdev[i]) > 1e-7:
                ok, detail = False, f"family {t}: fluctuation norm at {v}"
                break
            for j in range(len(verts)):
                pair = (
                    fam.prob((verts[i], verts[j]), (1, 1))
                    if i != j
                    else fam.vertex_mean(v)
                )
                if abs(np.dot(sol.u[i], sol.u[j]) - pair) > 1e-7:
                    ok, detail = False, f"family {t}: joint probability at ({i},{j})"
                    break
                if abs(np.dot(sol.w[i], sol.w[j]) - stats.cov[i, j]) > 1e-7:
                    ok, detail = False, f"family {t}: covariance at ({i},{j})"
                    break
            if not ok:
                break
        if not ok:
            break
    crit.finish(ok, detail)


def test_criterion_5_gaussian_stability():
    crit = Criterion(5, "stability estimates, product bound, halfspace equality", 300)
    n1 = 10 ** 6
    ok = True
    details = []

    est = lambda_estimate(0.0, (0.3, 0.6, 0.2), n1, 105)
    if abs(est.value - 0.3 * 0.6 * 0.2) > 3 * est.stderr:
        ok = False
        details.append("independent product")

    est = lambda_estimate(1.0, (0.45, 0.3), n1, 106)
    if abs(est.value - 0.3) > 3 * est.stderr:
        ok = False
        details.append("coupled minimum")

    target = 0.25 + math.asin(0.25) / (2 * math.pi)
    est = lambda_estimate(0.5, (0.5, 0.5), n1, 107)
    if abs(est.value - target) > 3 * est.stderr:
        ok = False
        details.append(f"orthant value {est.value:.5f} vs {target:.5f}")

    rep = lambda_bound_check(1.0 / (16 * math.log(100)), (0.01, 0.01), 10 ** 7, 108)
    if not (rep.applicable and rep.holds):
        ok = False
        details.append("product bound")

    masses = (0.35, 0.55)
    fns = [halfspace([1.0, 0.0], normal_quantile(m)) for m in masses]
    brep = borell_check(fns, 2, 0.5, n1, 109)
    if abs(brep.joint.value - brep.stability_bound.value) > 3 * brep.stderr:
        ok = False
        details.append("halfspace equality")
    if not brep.holds:
        ok = False
        details.append("halfspace bound")
    crit.finish(ok, "; ".join(details))


def _dictator_tables(g, family, r_dim, coord=0):
    pts = domain_points(r_dim)
    out = {}
    for v in g.vertices:
        mu_v = family.vertex_mean(v)
        out[v] = FunctionTable(
            BiasedSpace((mu_v,) * r_dim), pts[:, coord].astype(float), bounded=True
        )
    return out


def _random_clipped_poly(rng, dim):
    c = rng.uniform(0.2, 0.8)
    lin = 0.3 * rng.standard_normal(dim)
    quad = 0.08 * rng.standard_normal((dim, dim))

    def fn(pts):
        vals = c + pts @ lin + ((pts @ quad) * pts).sum(axis=-1)
        return np.clip(vals, 0.0, 1.0)

    return fn


def test_criterion_6_rounding():
    crit = Criterion(6, "covariance bound, variance bound, dictator value", 300)
    ok = True
    details = []

    rng = np.random.default_rng(110)
    pair_plan = [0.0] * 7 + [0.3] * 7 + [1.0] * 6
    for k, rho in enumerate(pair_plan):
        f_i = _random_clipped_poly(rng, 3)
        f_j = f_i if rho == 1.0 and k % 2 == 0 else _random_clipped_poly(rng, 3)
        rep = covariance_bound_check(f_i, f_j, rho, 3, 10 ** 6, 1100 + k)
        if not rep.holds:
            ok = False
            details.append(f"covariance pair {k} at rho={rho}")
            break

    g = cycle_host(4)
    rng2 = np.random.default_rng(111)
    for t in range(10):
        fam = random_mixture(g, rng2).smooth(0.15, 0.45)
        sol = vector_solution(fam)
        inp = RoundingInput(g, _dictator_tables(g, fam, 3), sol, eta=0.05, family=fam)
        rep = bias_concentration_check(inp, 2000, 1200 + t)
        if not rep.holds:
            ok = False
            details.append(f"variance bound pipeline {t}")
            break

    raw = random_mixture(g, np.random.default_rng(112))
    fam = find_conditioning(raw.smooth(0.8, 0.5), target=0.05, budget=4).family
    inp = RoundingInput(
        g, _dictator_tables(g, fam, 4), vector_solution(fam), eta=0.01, family=fam
    )
    vrep = value_check(inp, 10 ** 5, 113)
    if abs(vrep.value - vrep.bound) > 3 * vrep.stderr + 0.02:
        ok = False
        details.append(
            f"value gap {abs(vrep.value - vrep.bound):.4f}"
        )
    crit.finish(ok, "; ".join(details))


def test_criterion_7_arithmetization_identity():
    crit = Criterion(7, "acceptance identity on 20 exact configurations", 60)
    ok = True
    detail = ""
    n, R, r = 4, 2, 2
    for t in range(20):
        rng = np.random.default_rng(300 + t)
        graph = generate_sse("planted", n, 2, 0.5, seed=300 + t)
        predicate = Predicate.from_strings(2, ["01", "10"]) if t % 2 else Predicate.and_(2)
        verts = {v: w for v, w in zip("abc", (0.3, 0.4, 0.3))}
        gap = ConstraintHypergraph(
            verts, [(("a", "b"), 0.6), (("b", "c"), 0.4)], predicate
        )
        probs = rng.dirichlet(np.ones(5))
        support = [
            (Assignment.from_bits(gap.vertices, rng.integers(0, 2, size=3)), float(p))
            for p in probs
        ]
        theta = LocalDistributionFamily.from_distribution(support, 6, gap).smooth(
            float(rng.uniform(0.1, 0.3)), float(rng.uniform(0.25, 0.6))
        )
        params = ReductionParams.manual(
            mu=theta.bias(),
            r=r,
            beta=float(rng.uniform(0.15, 0.45)),
            rho_sq=float(rng.uniform(0.1, 0.9)),
            R=R,
            eta=float(rng.uniform(0.05, 0.3)),
        )
        f = LongCodeAssignment.from_table(n, R, rng.integers(0, 2, size=n ** R * 4 ** R))
        lhs = acceptance_exact(gap, theta, graph, params, f)
        rhs = 0.0
        for edge, w_e in gap.edges:
            block_probs, _ = edge_block_probs(theta, edge)
            d_block = _leak_block(block_probs, r, params.beta, params.rho_sq).reshape(-1)
            acc = 0.0
            for A in itertools.product(range(n), repeat=R):
                noised = {}
                for v in set(edge):
                    g_t = averaged_function(
                        f, np.array(A), theta.vertex_mean(v), params.beta, params.eta, graph
                    )
                    noised[v] = evaluate(
                        noise_apply(fourier_expand(g_t), 1.0 - params.eta)
                    ).values
                for a in sorted(gap.predicate.accepting):
                    hv = [
                        noised[v] if a[pos] == 1 else 1.0 - noised[v]
                        for pos, v in enumerate(edge)
                    ]
                    acc += coupled_product_expectation(hv, d_block, r, R) / n ** R
            rhs += w_e * acc
        if abs(lhs - rhs) > TOL:
            ok, detail = False, f"config {t}: |{lhs:.12f} - {rhs:.12f}|"
            break
    crit.finish(ok, detail)


def test_criterion_8_half_decoupling():
    crit = Criterion(8, "decoupled bound on 200 low-influence instances", 120)
    rng = np.random.default_rng(114)
    gap = cycle_host(4)
    holds = 0
    violations_with_low_influence = 0
    tau = 0.05
    for t in range(200):
        theta = random_mixture(gap, rng).smooth(
            float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.3, 0.6))
        )
        params = ReductionParams.manual(
            mu=theta.bias(),
            r=2,
            beta=float(rng.uniform(0.1, 0.4)),
            rho_sq=float(rng.uniform(0.1, 0.9)),
            R=2,
            eta=0.1,
        )
        edge = gap.edges[int(rng.integers(len(gap.edges)))][0]
        block_probs, _ = edge_block_probs(theta, edge)
        space = PairedSpace(
            BiasedSpace((theta.vertex_mean(edge[0]),) * 2, "bit"),
            BiasedSpace((params.beta,) * 2, "leak"),
        )
        tables = []
        for _ in range(2):
            base = rng.uniform(0.3, 0.7)
            vals = np.clip(base + 0.05 * rng.standard_normal(16), 0.0, 1.0)
            tables.append(FunctionTable(space, vals, bounded=True))
        rep = decoupling_check(tables, block_probs, params, mode="exact")
        if rep.holds:
            holds += 1
        elif rep.max_influence <= tau:
            violations_with_low_influence += 1
    ok = holds >= 198 and violations_with_low_influence == 0
    crit.finish(ok, f"{holds}/200 held; low-influence violations: {violations_with_low_influence}")


def test_criterion_9_completeness():
    crit = Criterion(9, "planted completeness at the desk parameters", 300)
    gap, theta, graph, params = desk_completeness_setup()
    f = dictator_assignment(graph.planted, graph)
    rep = acceptance_estimate(gap, theta, graph, params, f, 10 ** 6, 115)
    mus = {v: theta.vertex_mean(v) for v in gap.vertices}
    bias = analytic_bias(gap.vertex_weights, mus)
    ok = bool(rep.holds) and abs(bias - params.mu) <= 1e-12
    crit.finish(
        ok,
        f"estimate {rep.value:.4f} >= bound {rep.bound:.4f}; bias {bias:.4f}",
    )


def test_criterion_10_mixing():
    crit = Criterion(10, "restriction-mean concentration at the desk parameters", 300)
    gap, theta, graph, params = desk_completeness_setup()
    f = dictator_assignment(graph.planted, graph)
    rep = mixing_check(
        gap, theta, graph, params, f, alpha=2.0, a_samples=10 ** 4, seed=116,
        inner_samples=512,
    )
    crit.finish(rep.holds, f"fraction {rep.value:.4f} <= bound {rep.bound:.4f}")


def test_criterion_11_determinism():
    crit = Criterion(11, "bit-for-bit reproducibility with a shared master seed", 120)
    gap, theta, graph, params = desk_completeness_setup()
    ok = True
    details = []
    f1 = dictator_assignment(graph.planted, graph)
    f2 = dictator_assignment(graph.planted, graph)
    a = acceptance_estimate(gap, theta, graph, params, f1, 10 ** 5, 117)
    b = acceptance_estimate(gap, theta, graph, params, f2, 10 ** 5, 117)
    if a.value != b.value:
        ok = False
        details.append("acceptance estimate")
    la = lambda_estimate(0.5, (0.5, 0.5), 10 ** 5, 118)
    lb = lambda_estimate(0.5, (0.5, 0.5), 10 ** 5, 118)
    if la.value != lb.value:
        ok = False
        details.append("stability estimate")
    from biascsp.harness import mc_run

    ma = mc_run(lambda rng, n: rng.random(n), 10 ** 5, 119)
    mb = mc_run(lambda rng, n: rng.random(n), 10 ** 5, 119)
    if ma.value != mb.value:
        ok = False
        details.append("mc run")
    crit.finish(ok, "; ".join(details))
