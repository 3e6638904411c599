"""Gadget graphs, parameter ledger, test sampler, dictators, and verifiers."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascsp.csp import Assignment, ConstraintHypergraph, Predicate
from biascsp.harness.rng import rng_for
from biascsp.probspace import (
    BiasedSpace,
    FunctionTable,
    PairedSpace,
    evaluate,
    fourier_expand,
    noise_apply,
)
from biascsp.pseudodist import LocalDistributionFamily
from biascsp.reduction import (
    LongCodeAssignment,
    ReductionParams,
    SseGraph,
    acceptance_estimate,
    acceptance_exact,
    averaged_function,
    decoupling_check,
    dictator_assignment,
    expansion,
    generate_sse,
    influence_decode_stat,
    mixing_check,
    noisy_walk,
    derive_params,
    sample_test_tuple,
    walk_matrix,
)
from biascsp.reduction.analysis import _leak_block, coupled_product_expectation
from biascsp.reduction.dictator import PlantedDictator
from biascsp.reduction.sampler import BatchTestSampler, edge_block_probs, leakage_apply


def complete_graph(n):
    adj = np.array([[j for j in range(n) if j != i] for i in range(n)])
    return SseGraph(n, n - 1, adj)


def cycle_sse(n):
    adj = np.array([[(i - 1) % n, (i + 1) % n] for i in range(n)])
    return SseGraph(n, 2, adj)


def two_cliques(k):
    n = 2 * k
    adj = np.array(
        [[j for j in range(k) if j != i] for i in range(k)]
        + [[k + j for j in range(k) if j != i - k] for i in range(k, n)]
    )
    return SseGraph(n, k - 1, adj)


def small_gap(predicate=None, weights=(0.3, 0.4, 0.3)):
    predicate = predicate or Predicate.xor(2)
    verts = {v: w for v, w in zip("abc", weights)}
    edges = [(("a", "b"), 0.6), (("b", "c"), 0.4)]
    return ConstraintHypergraph(verts, edges, predicate)


def mixture_theta(gap, rng, smooth=(0.2, 0.45), k=5, level=6):
    n = len(gap.vertices)
    probs = rng.dirichlet(np.ones(k))
    support = [
        (Assignment.from_bits(gap.vertices, rng.integers(0, 2, size=n)), float(p))
        for p in probs
    ]
    fam = LocalDistributionFamily.from_distribution(support, level, gap)
    return fam.smooth(*smooth) if smooth else fam


def desk_params(theta, r=2, beta=0.3, rho_sq=0.4, R=2, eta=0.15):
    return ReductionParams.manual(mu=theta.bias(), r=r, beta=beta, rho_sq=rho_sq, R=R, eta=eta)


class TestParams:
    def test_manual_r_dimension(self):
        # 1/(r * beta * delta) with beta=0.2, delta=0.25, r=2
        assert 1.0 / (2 * 0.2 * 0.25) == pytest.approx(10.0)
        p = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=10, eta=0.01)
        assert p.rho == pytest.approx(0.5)

    def test_ledger_formulas(self):
        mu, r, n_gap, delta, s = 0.3, 2, 6, 0.25, 0.5
        p = derive_params(mu, r, n_gap, delta, s)
        assert p.beta == pytest.approx(mu ** (4 * r) / n_gap ** 4)
        assert p.rho_sq == pytest.approx((1.0 / (4 * r * r * math.log(1 / mu))) ** 2)
        assert p.R * r * p.beta * delta == pytest.approx(1.0, rel=1e-6)
        assert p.nu == pytest.approx(s / 10 ** r)
        assert p.eta == pytest.approx(min(p.beta ** 2 / r, p.nu))
        ln_inv_gamma = 10 * p.R * math.log(2) - 2 * math.log(p.nu)
        assert p.kappa == pytest.approx(p.beta / ln_inv_gamma)
        assert p.log10["gamma"] == pytest.approx(-ln_inv_gamma / math.log(10))

    def test_eta_min_rule(self):
        for mu, s in [(0.2, 0.9), (0.4, 0.05)]:
            p = derive_params(mu, 2, 4, 0.25, s)
            assert p.eta == pytest.approx(min(p.beta ** 2 / 2, p.nu))

    def test_extreme_regime_warns(self):
        p = derive_params(0.3, 2, 100, 0.01, 0.5)
        assert any("samplable" in w for w in p.warnings)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=1.5, R=10, eta=0.01)
        with pytest.raises(ValueError):
            ReductionParams.manual(mu=0.0, r=2, beta=0.2, rho_sq=0.5, R=10, eta=0.01)


class TestExpansion:
    def test_single_vertex_complete_graph(self):
        g = complete_graph(6)
        assert expansion(g, [0]) == pytest.approx(1.0)

    def test_cycle_arc(self):
        g = cycle_sse(12)
        for k in (2, 3, 4):
            arc = list(range(k))
            assert expansion(g, arc) == pytest.approx(1.0 / k)

    def test_clique_island(self):
        g = two_cliques(4)
        assert expansion(g, list(range(4))) == pytest.approx(0.0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            expansion(cycle_sse(4), [])


class TestGenerate:
    def test_planted_properties(self):
        g = generate_sse("planted", 32, 6, 0.25, seed=1, eps=0.05)
        assert g.planted == list(range(8))
        assert g.planted_volume == pytest.approx(0.25)
        assert g.adj.shape == (32, 6)
        assert expansion(g, g.planted) <= 0.05

    def test_random_regular_degrees(self):
        for n, deg in [(20, 4), (15, 2), (16, 5)]:
            g = generate_sse("random-regular", n, deg, seed=2)
            assert g.adj.shape == (n, deg)

    def test_volume_must_be_integral(self):
        with pytest.raises(ValueError):
            generate_sse("planted", 10, 3, 0.25, seed=0)

    def test_json_roundtrip(self):
        g = generate_sse("planted", 16, 4, 0.25, seed=3)
        back = SseGraph.from_json(g.to_json())
        np.testing.assert_array_equal(back.adj, g.adj)
        assert back.planted == g.planted


class TestNoisyWalk:
    def test_full_noise_is_uniform(self):
        g = cycle_sse(8)
        rng = rng_for(0, "walk-unif")
        out = noisy_walk(g, 1.0, np.zeros(20000, dtype=int), rng)
        counts = np.bincount(out, minlength=8) / 20000
        assert np.abs(counts - 1 / 8).max() < 4 * math.sqrt(0.125 * 0.875 / 20000)

    def test_zero_noise_single_edge(self):
        adj = np.array([[1, 1], [0, 0]])  # doubled edge between two vertices
        g = SseGraph(2, 2, adj)
        rng = rng_for(0, "walk-swap")
        out = noisy_walk(g, 0.0, np.zeros(100, dtype=int), rng)
        assert (out == 1).all()

    def test_transition_frequencies_match_matrix(self):
        g = generate_sse("random-regular", 6, 3, seed=4)
        eta = 0.3
        p = walk_matrix(g, eta)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        rng = rng_for(0, "walk-freq")
        n_samp = 200000
        out = noisy_walk(g, eta, np.full(n_samp, 2, dtype=int), rng)
        freq = np.bincount(out, minlength=6) / n_samp
        for b in range(6):
            se = math.sqrt(p[2, b] * (1 - p[2, b]) / n_samp)
            assert abs(freq[b] - p[2, b]) <= 4 * se + 1e-12


class TestLeakage:
    def test_all_top_is_identity(self):
        g = cycle_sse(6)
        rng = rng_for(0, "leak-id")
        a = np.array([0, 3, 5, 1])
        x = np.array([1, 0, 0, 1])
        a2, x2 = leakage_apply(np.ones(4, dtype=int), 0.4, (a, x), g, rng)
        np.testing.assert_array_equal(a2, a)
        np.testing.assert_array_equal(x2, x)

    def test_all_bot_marginals(self):
        g = cycle_sse(6)
        rng = rng_for(0, "leak-fresh")
        n = 50000
        a = np.zeros(n, dtype=int)
        x = np.zeros(n, dtype=int)
        a2, x2 = leakage_apply(np.zeros(n, dtype=int), 0.35, (a, x), g, rng)
        assert abs(x2.mean() - 0.35) < 4 * math.sqrt(0.35 * 0.65 / n)
        counts = np.bincount(a2, minlength=6) / n
        assert np.abs(counts - 1 / 6).max() < 4 * math.sqrt((1 / 6) * (5 / 6) / n)

    def test_mixed_coordinates(self):
        g = cycle_sse(6)
        rng = rng_for(0, "leak-mixed")
        n = 50000
        a = np.tile(np.array([2, 4]), (n, 1))
        x = np.tile(np.array([1, 0]), (n, 1))
        z = np.tile(np.array([1, 0]), (n, 1))
        a2, x2 = leakage_apply(z, 0.5, (a, x), g, rng)
        assert (a2[:, 0] == 2).all() and (x2[:, 0] == 1).all()
        assert abs(x2[:, 1].mean() - 0.5) < 4 * math.sqrt(0.25 / n)


class TestSampleTuple:
    def test_forced_coupling(self):
        gap = small_gap()
        rng_master = np.random.default_rng(6)
        theta = mixture_theta(gap, rng_master)
        graph = cycle_sse(6)
        params = ReductionParams.manual(
            mu=theta.bias(), r=2, beta=0.3, rho_sq=1.0, R=4, eta=1e-9
        )
        rng = rng_for(1, "tuple-coupled")
        for _ in range(20):
            s = sample_test_tuple(gap, theta, graph, params, rng)
            for pos in range(2):
                np.testing.assert_array_equal(
                    s.trace["z_prime"][pos], s.trace["z_common"]
                )

    def test_coordinate_marginals_match_edge_local(self):
        gap = small_gap()
        rng_master = np.random.default_rng(7)
        theta = mixture_theta(gap, rng_master)
        graph = cycle_sse(6)
        params = desk_params(theta, R=4)
        sampler = BatchTestSampler(gap, theta, graph, params)
        e_idx = 0
        probs, pos_bits = sampler.blocks[e_idx]
        rng = rng_for(2, "marginals")
        m = 25000
        edge, _ = gap.edges[e_idx]
        outcomes = rng.choice(4, size=(m, params.R), p=probs)
        counts = np.bincount(outcomes.reshape(-1), minlength=4) / (m * params.R)
        for o in range(4):
            se = math.sqrt(probs[o] * (1 - probs[o]) / (m * params.R))
            assert abs(counts[o] - probs[o]) <= 4 * se

    def test_independent_leaks_agreement_rate(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(8))
        graph = cycle_sse(6)
        beta = 0.3
        params = ReductionParams.manual(
            mu=theta.bias(), r=2, beta=beta, rho_sq=1e-12, R=6, eta=1e-12
        )
        rng = rng_for(3, "agree")
        agree = total = 0
        for _ in range(4000):
            s = sample_test_tuple(gap, theta, graph, params, rng)
            z1, z2 = s.trace["z_prime"]
            agree += int((z1 == z2).sum())
            total += params.R
        rate = agree / total
        expect = beta ** 2 + (1 - beta) ** 2
        assert rate == pytest.approx(expect, abs=4 * math.sqrt(expect * (1 - expect) / total))

    def test_coupled_agreement_rate(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(9))
        graph = cycle_sse(6)
        beta, rho_sq = 0.3, 0.4
        params = ReductionParams.manual(
            mu=theta.bias(), r=2, beta=beta, rho_sq=rho_sq, R=6, eta=1e-12
        )
        rng = rng_for(4, "agree2")
        agree = total = 0
        for _ in range(4000):
            s = sample_test_tuple(gap, theta, graph, params, rng)
            z1, z2 = s.trace["z_prime"]
            agree += int((z1 == z2).sum())
            total += params.R
        iid = beta ** 2 + (1 - beta) ** 2
        expect = rho_sq + (1 - rho_sq) * iid
        assert agree / total == pytest.approx(expect, abs=4 * math.sqrt(expect * (1 - expect) / total))

    def test_missing_edge_local_raises(self):
        gap = small_gap()
        fam = LocalDistributionFamily(
            gap, 2, {("a",): np.array([0.5, 0.5]), ("b",): np.array([0.5, 0.5]), ("c",): np.array([0.5, 0.5])}
        )
        graph = cycle_sse(6)
        params = ReductionParams.manual(mu=0.5, r=2, beta=0.3, rho_sq=0.4, R=2, eta=0.1)
        from biascsp.pseudodist import StructuralError

        with pytest.raises(StructuralError):
            sample_test_tuple(gap, fam, graph, params, rng_for(0, "missing"))


class TestKernelTrace:
    @settings(max_examples=300, deadline=None)
    @given(
        R=st.integers(1, 12),
        eta=st.floats(0.01, 0.99),
        beta=st.floats(0.01, 0.99),
        rho_sq=st.floats(0.01, 1.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_parts_are_permuted_folded_trace(self, R, eta, beta, rho_sq, seed):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(10))
        params = ReductionParams.manual(
            mu=theta.bias(), r=2, beta=beta, rho_sq=rho_sq, R=R, eta=eta
        )
        s = sample_test_tuple(gap, theta, cycle_sse(6), params, rng_for(seed, "kernel-trace"))
        for pos, (b, x, z) in enumerate(s.parts):
            perm = s.perms[pos]
            np.testing.assert_array_equal(np.sort(perm), np.arange(R))
            np.testing.assert_array_equal(z, s.trace["z_prime"][pos][perm])
            top = z == 1
            np.testing.assert_array_equal(b[top], s.trace["B"][pos][perm][top])
            np.testing.assert_array_equal(x[top], s.trace["x_tilde"][pos][perm][top])


class TestDictator:
    def test_unique_marked_coordinate(self):
        mask = np.zeros(8, dtype=bool)
        mask[[1, 5]] = True
        d = PlantedDictator(mask)
        A = np.array([[1, 0, 2, 3], [0, 0, 5, 2]])
        z = np.array([[1, 0, 1, 0], [0, 1, 1, 1]])
        idx = d.istar_batch(A, z)
        # row 0: marked & top only at coordinate 0; row 1: only coordinate 2
        np.testing.assert_array_equal(idx, [0, 2])
        for row in range(2):
            j = idx[row]
            assert mask[A[row, j]] and z[row, j] == 1

    def test_analytic_bias_exact(self):
        from biascsp.reduction.dictator import analytic_bias

        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(10))
        mus = {v: theta.vertex_mean(v) for v in gap.vertices}
        assert analytic_bias(gap.vertex_weights, mus) == pytest.approx(theta.bias(), abs=1e-12)

    def test_bias_over_x_is_vertex_mean(self):
        # the selected index never looks at x, so E_x[f] = mu at every (A, z)
        mask = np.zeros(6, dtype=bool)
        mask[2] = True
        d = PlantedDictator(mask)
        rng = rng_for(5, "bias-x")
        R = 4
        for _ in range(20):
            A = rng.integers(0, 6, size=(1, R))
            z = (rng.random((1, R)) < 0.3).astype(np.int8)
            vals = []
            for bits in itertools.product((0, 1), repeat=R):
                x = np.array([bits])
                vals.append(d.evaluate_batch(A, x, z)[0])
            # mean over the mu-biased cube equals mu for a coordinate read
            mu = 0.37
            weights = [
                math.prod(mu if b else 1 - mu for b in bits)
                for bits in itertools.product((0, 1), repeat=R)
            ]
            assert sum(w * v for w, v in zip(weights, vals)) == pytest.approx(mu, abs=1e-12)

    def test_permutation_respect_sampled(self):
        graph = generate_sse("planted", 32, 6, 0.25, seed=11)
        f = dictator_assignment(graph.planted, None, graph)
        rng = rng_for(6, "perm-respect")
        n_pts, R = 10000, 10
        A = rng.integers(0, 32, size=(n_pts, R))
        x = (rng.random((n_pts, R)) < 0.3).astype(np.int8)
        z = (rng.random((n_pts, R)) < 0.2).astype(np.int8)
        base = f.evaluate_batch(A, x, z)
        perms = np.argsort(rng.random((n_pts, R)), axis=1)
        permuted = f.evaluate_batch(
            np.take_along_axis(A, perms, axis=1),
            np.take_along_axis(x, perms, axis=1),
            np.take_along_axis(z, perms, axis=1),
        )
        assert int((base != permuted).sum()) == 0

    def test_orbit_consistent_index(self):
        mask = np.zeros(16, dtype=bool)
        mask[[3, 7]] = True
        d = PlantedDictator(mask)
        rng = rng_for(7, "orbit")
        R = 6
        for _ in range(300):
            A = rng.integers(0, 16, size=(1, R))
            z = (rng.random((1, R)) < 0.25).astype(np.int8)
            base = int(d.istar_batch(A, z)[0])
            perm = rng.permutation(R)
            moved = int(d.istar_batch(A[:, perm], z[:, perm])[0])
            # permuted point reads the same underlying coordinate
            assert perm[moved] == base


class TestAcceptance:
    def test_constant_assignments(self):
        gap = small_gap(Predicate.and_(2))
        theta = mixture_theta(gap, np.random.default_rng(12))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        zero = LongCodeAssignment.from_callback(lambda A, x, z: np.zeros(len(A), dtype=np.int8))
        one = LongCodeAssignment.from_callback(lambda A, x, z: np.ones(len(A), dtype=np.int8))
        assert acceptance_estimate(gap, theta, graph, params, zero, 2000, 1).estimate == 0.0
        assert acceptance_estimate(gap, theta, graph, params, one, 2000, 1).estimate == 1.0

    def test_estimate_matches_exact_enumeration(self):
        rng = np.random.default_rng(13)
        gap = small_gap()
        theta = mixture_theta(gap, rng)
        graph = generate_sse("planted", 4, 2, 0.5, seed=13)
        params = desk_params(theta, R=2)
        fvals = rng.integers(0, 2, size=4 ** 2 * 4 ** 2)
        f = LongCodeAssignment.from_table(4, 2, fvals)
        exact = acceptance_exact(gap, theta, graph, params, f)
        mc = acceptance_estimate(gap, theta, graph, params, f, 200000, 14)
        assert mc.estimate == pytest.approx(exact, abs=4 * mc.stderr)

    def test_deterministic_per_seed(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(15))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        f = dictator_assignment([0, 1], params, graph)
        a = acceptance_estimate(gap, theta, graph, params, f, 30000, 16)
        f2 = dictator_assignment([0, 1], params, graph)
        b = acceptance_estimate(gap, theta, graph, params, f2, 30000, 16)
        assert a.estimate == b.estimate

    def test_dictator_clears_planted_bound(self):
        gap = small_gap(Predicate.and_(2))
        support = [
            (Assignment({"a": 1, "b": 1, "c": 1}), 0.3),
            (Assignment({"a": 0, "b": 0, "c": 0}), 0.7),
        ]
        theta = LocalDistributionFamily.from_distribution(support, 6, gap).smooth(0.1, 0.3)
        graph = generate_sse("planted", 32, 6, 0.25, seed=17)
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.2, rho_sq=0.25, R=10, eta=0.01)
        f = dictator_assignment(graph.planted, params, graph)
        rep = acceptance_estimate(gap, theta, graph, params, f, 200000, 18, assert_bound=True)
        assert rep.holds
        # the dictator beats the independent-bits background on this instance
        assert rep.estimate > theta.bias() ** 2 + 3 * rep.stderr


class TestAveragedFunction:
    def test_constant_assignment(self):
        graph = cycle_sse(6)
        c = LongCodeAssignment.from_callback(
            lambda A, x, z: np.full(len(A), 1, dtype=np.int8)
        )
        table = averaged_function(c, np.array([0, 1]), 0.4, 0.3, 0.2, graph)
        np.testing.assert_allclose(table.values, 1.0, atol=1e-12)

    def test_full_walk_noise_mixes_vertex_part(self):
        graph = cycle_sse(4)
        R = 2
        # assignment depending only on the vertex vector
        f = LongCodeAssignment.from_callback(
            lambda A, x, z: (A.sum(axis=1) % 2).astype(np.int8)
        )
        table = averaged_function(f, np.array([0, 0]), 0.5, 0.3, 1.0, graph)
        overall = np.mean(
            [(a + b) % 2 for a in range(4) for b in range(4)]
        )
        np.testing.assert_allclose(table.values, overall, atol=1e-12)

    def test_mc_matches_exact(self):
        graph = cycle_sse(4)
        rng_master = np.random.default_rng(19)
        fvals = rng_master.integers(0, 2, size=4 ** 2 * 4 ** 2)
        f = LongCodeAssignment.from_table(4, 2, fvals)
        a_pt = np.array([1, 3])
        exact = averaged_function(f, a_pt, 0.35, 0.3, 0.2, graph, mode="exact")
        mc = averaged_function(
            f, a_pt, 0.35, 0.3, 0.2, graph, mode="mc",
            rng=rng_for(20, "avg-mc"), samples_per_point=40000,
        )
        assert np.abs(exact.values - mc.values).max() < 0.02


class TestArithmetizationIdentity:
    def _identity_config(self, seed):
        rng = np.random.default_rng(seed)
        n, R = 4, 2
        graph = generate_sse("planted", n, 2, 0.5, seed=seed)
        gap = small_gap(
            Predicate.from_strings(2, ["01", "10"])
            if seed % 2
            else Predicate.from_strings(2, ["11", "10"])
        )
        theta = mixture_theta(gap, rng)
        params = ReductionParams.manual(
            mu=theta.bias(),
            r=2,
            beta=float(rng.uniform(0.15, 0.45)),
            rho_sq=float(rng.uniform(0.1, 0.9)),
            R=R,
            eta=float(rng.uniform(0.05, 0.3)),
        )
        fvals = rng.integers(0, 2, size=n ** R * 4 ** R)
        f = LongCodeAssignment.from_table(n, R, fvals)
        return gap, theta, graph, params, f

    @staticmethod
    def averaged_route(gap, theta, graph, params, f):
        n, R, r = graph.n, params.R, 2
        total = 0.0
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
            total += w_e * acc
        return total

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_exact_identity(self, seed):
        gap, theta, graph, params, f = self._identity_config(seed)
        lhs = acceptance_exact(gap, theta, graph, params, f)
        rhs = self.averaged_route(gap, theta, graph, params, f)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDecoupling:
    @staticmethod
    def paired_space(R, mu, beta):
        return PairedSpace(BiasedSpace((mu,) * R, "bit"), BiasedSpace((beta,) * R, "leak"))

    def random_low_influence(self, rng, space, scale=0.05):
        base = rng.uniform(0.3, 0.7)
        vals = base + scale * rng.standard_normal(space.size)
        return FunctionTable(space, np.clip(vals, 0.0, 1.0), bounded=True)

    def test_zero_coupling_equality(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(24))
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.3, rho_sq=1e-15, R=2, eta=0.1)
        probs, _ = edge_block_probs(theta, gap.edges[0][0])
        space = self.paired_space(2, theta.vertex_mean("a"), 0.3)
        rng = np.random.default_rng(25)
        tables = [self.random_low_influence(rng, space, scale=0.2) for _ in range(2)]
        rep = decoupling_check(tables, probs, params, mode="exact")
        # at zero coupling the leaks factor out: lhs equals the product term
        assert rep.lhs == pytest.approx(rep.product_term, abs=1e-9)
        assert rep.holds

    def test_leak_free_tables(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(26))
        params = desk_params(theta, R=2)
        probs, _ = edge_block_probs(theta, gap.edges[0][0])
        space = self.paired_space(2, theta.vertex_mean("a"), params.beta)
        rng = np.random.default_rng(27)
        bit_vals = rng.random(4)
        vals = np.repeat(bit_vals, 4)  # constant in the leak part
        tables = [FunctionTable(space, vals, bounded=True)] * 2
        rep = decoupling_check(tables, probs, params, mode="exact")
        assert rep.lhs == pytest.approx(rep.product_term, abs=1e-9)
        assert rep.holds

    def test_random_low_influence_instances(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(28))
        params = desk_params(theta, R=2)
        probs, _ = edge_block_probs(theta, gap.edges[0][0])
        rng = np.random.default_rng(29)
        space = self.paired_space(2, theta.vertex_mean("a"), params.beta)
        for _ in range(50):
            tables = [self.random_low_influence(rng, space) for _ in range(2)]
            rep = decoupling_check(tables, probs, params, mode="exact")
            assert rep.holds

    def test_influential_leak_violation_is_flagged(self):
        # leak dictators under strong coupling break the decoupled bound,
        # and the report shows the influence responsible
        gap = small_gap()
        support = [
            (Assignment({"a": 1, "b": 1, "c": 1}), 0.1),
            (Assignment({"a": 0, "b": 0, "c": 0}), 0.9),
        ]
        theta = LocalDistributionFamily.from_distribution(support, 6, gap).smooth(0.05, 0.1)
        beta = 0.1
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=beta, rho_sq=1.0, R=2, eta=0.1)
        probs, _ = edge_block_probs(theta, gap.edges[0][0])
        space = self.paired_space(2, theta.vertex_mean("a"), beta)
        pts = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(float)
        z_dict = FunctionTable(space, pts[:, 2], bounded=True)  # reads z(0)
        rep = decoupling_check([z_dict, z_dict], probs, params, mode="exact")
        assert not rep.holds
        assert rep.max_influence > 0.05

    def test_mc_mode_agrees(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(30))
        params = desk_params(theta, R=2)
        probs, _ = edge_block_probs(theta, gap.edges[0][0])
        rng = np.random.default_rng(31)
        space = self.paired_space(2, theta.vertex_mean("a"), params.beta)
        tables = [self.random_low_influence(rng, space, scale=0.15) for _ in range(2)]
        exact = decoupling_check(tables, probs, params, mode="exact")
        mc = decoupling_check(tables, probs, params, mode="mc", samples=1 << 18, seed=32)
        assert mc.lhs == pytest.approx(exact.lhs, abs=0.01)


class TestMixing:
    def test_x_only_assignment_concentrates(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(33))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        f = LongCodeAssignment.from_callback(lambda A, x, z: x[:, 0].astype(np.int8))
        rep = mixing_check(gap, theta, graph, params, f, alpha=1.0, a_samples=300, seed=34, inner_samples=4096)
        assert rep.fraction == 0.0
        assert rep.holds

    def test_huge_alpha_zero_fraction(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(35))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        f = dictator_assignment([0, 1], params, graph)
        rep = mixing_check(gap, theta, graph, params, f, alpha=50.0, a_samples=200, seed=36)
        assert rep.fraction == 0.0 and rep.holds

    def test_dictator_at_desk_parameters(self):
        gap = small_gap(Predicate.and_(2))
        theta = mixture_theta(gap, np.random.default_rng(37), smooth=(0.2, 0.3))
        graph = generate_sse("planted", 32, 6, 0.25, seed=38)
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.2, rho_sq=0.25, R=10, eta=0.01)
        f = dictator_assignment(graph.planted, params, graph)
        rep = mixing_check(gap, theta, graph, params, f, alpha=2.0, a_samples=2000, seed=39, inner_samples=512)
        assert rep.holds

    def test_vertex_sensitive_assignment_exact(self):
        # deviation probability measured exactly against the ledger bound
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(40))
        graph = cycle_sse(4)
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.4, rho_sq=0.4, R=2, eta=0.2)
        marked = np.array([1, 0, 1, 0], dtype=bool)  # vertex membership flag
        f = LongCodeAssignment.from_callback(
            lambda A, x, z: (x[:, 0] & marked[A[:, 0]].astype(np.int8)).astype(np.int8)
        )
        verts = gap.vertices
        wvec = gap.vertex_weight_vector(verts)
        mu_a = {}
        for A in itertools.product(range(4), repeat=2):
            total = 0.0
            for i, v in enumerate(verts):
                table = averaged_function(
                    f, np.array(A), theta.vertex_mean(v), params.beta, params.eta, graph
                )
                total += wvec[i] * table.expectation()
            mu_a[A] = total
        center = np.mean(list(mu_a.values()))
        alpha = 1.0
        threshold = alpha * math.sqrt(center)
        frac = np.mean([abs(v - center) >= threshold for v in mu_a.values()])
        assert frac <= len(verts) * params.beta / alpha ** 2 + 1e-12


class TestDecodeStat:
    @staticmethod
    def _graph():
        return generate_sse("planted", 8, 2, 0.25, seed=41, eps=0.05)

    def test_constant_tables_empty_lists(self):
        graph = self._graph()
        params = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=3, eta=0.2)
        space = BiasedSpace((0.3,) * 3, "bit")

        def family(pt):
            return FunctionTable(space, np.full(8, 0.3), bounded=True)

        rep = influence_decode_stat(family, graph, params, tau=0.01, samples=2000, seed=42)
        assert rep.max_list_size == 0
        assert rep.respect_violations == 0
        assert rep.match_prob == pytest.approx(rep.baseline, abs=4 * rep.stderr)

    def test_planted_covariant_dictators_signal(self):
        graph = self._graph()
        mask = graph.planted_mask()
        R = 3
        mu = 0.3
        params = ReductionParams.manual(mu=mu, r=2, beta=0.2, rho_sq=0.25, R=R, eta=0.15)
        space = BiasedSpace((mu,) * R, "bit")
        pts = ((np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1).astype(float)

        def family(pt):
            marked = np.flatnonzero(mask[np.asarray(pt)])
            if len(marked) == 1:
                return FunctionTable(space, pts[:, marked[0]], bounded=True)
            return FunctionTable(space, np.full(8, mu), bounded=True)

        tau = 0.05
        rep = influence_decode_stat(family, graph, params, tau=tau, samples=3000, seed=43)
        assert rep.respect_violations == 0
        assert rep.list_cap_holds
        assert rep.match_prob >= params.eta ** 2 * tau ** 2 / 16
        assert rep.match_prob > rep.baseline + 5 * rep.stderr

    def test_low_influence_tables_baseline(self):
        graph = self._graph()
        R = 3
        params = ReductionParams.manual(mu=0.4, r=2, beta=0.2, rho_sq=0.25, R=R, eta=0.2)
        space = BiasedSpace((0.4,) * R, "bit")
        rng = np.random.default_rng(44)
        # tiny symmetric perturbations keep every influence below tau/2
        cache = {}

        def family(pt):
            key = tuple(sorted(pt))
            if key not in cache:
                local = np.random.default_rng(hash(key) % (2 ** 32))
                cache[key] = np.clip(0.4 + 0.01 * local.standard_normal(), 0.0, 1.0)
            return FunctionTable(space, np.full(8, cache[key]), bounded=True)

        rep = influence_decode_stat(family, graph, params, tau=0.05, samples=2500, seed=45)
        assert rep.max_list_size == 0
        assert rep.match_prob == pytest.approx(rep.baseline, abs=4 * rep.stderr)
