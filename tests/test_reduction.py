"""Gadget graphs, parameter ledger, test sampler, dictators, and verifiers."""
import itertools
import json
import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascsp.csp import Assignment, ConstraintHypergraph, Predicate
from biascsp.harness import mc
from biascsp.harness.mc import BLOCK_ENTRIES, CHUNK
from biascsp.harness.rng import rng_for
from biascsp.polynomial import _apply_axis
from biascsp.probspace import (
    BiasedSpace,
    FunctionTable,
    PairedSpace,
    _character_transform,
    _mask_degrees,
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
from biascsp.reduction import analysis
from biascsp.reduction.analysis import _leak_block, _pair_indices, coupled_product_expectation
from biascsp.reduction.dictator import PlantedDictator
from biascsp.reduction.sampler import LOOKUP, BatchTestSampler, LetterLookup, edge_block_probs, letter_block

from conftest import cpus, traced_peak


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
        d = derive_params(mu, r, n_gap, delta, s)
        p = d.params
        assert p.beta == pytest.approx(mu ** (4 * r) / n_gap ** 4)
        assert p.rho_sq == pytest.approx((1.0 / (4 * r * r * math.log(1 / mu))) ** 2)
        assert p.R * r * p.beta * delta == pytest.approx(1.0, rel=1e-6)
        assert d.nu == pytest.approx(s / 10 ** r)
        assert p.eta == pytest.approx(min(p.beta ** 2 / r, d.nu))
        ln_inv_gamma = 10 * p.R * math.log(2) - 2 * math.log(d.nu)
        assert d.kappa == pytest.approx(p.beta / ln_inv_gamma)
        assert d.log10["gamma"] == pytest.approx(-ln_inv_gamma / math.log(10))

    def test_eta_min_rule(self):
        for mu, s in [(0.2, 0.9), (0.4, 0.05)]:
            d = derive_params(mu, 2, 4, 0.25, s)
            assert d.params.eta == pytest.approx(min(d.params.beta ** 2 / 2, d.nu))

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

    def test_planted_graph_without_a_crossing_swap_warns(self):
        # int(0.05 * 6 * 6 / 2) = 0 swaps at n = 24: no edge leaves the planted set
        with pytest.warns(UserWarning, match="no crossing swap"):
            g = generate_sse("planted", 24, 6, 0.25, seed=1, eps=0.05)
        assert expansion(g, g.planted) == 0.0
        # int(0.05 * 6 * 8 / 2) = 1 swap at n = 32
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = generate_sse("planted", 32, 6, 0.25, seed=1, eps=0.05)
        assert expansion(g, g.planted) > 0.0

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

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("masked", [False, True, "pointwise", "middle"])
    def test_in_place_step_reads_one_stream(self, eta, masked):
        # the step as a formula of fresh arrays, in the walk's draw order; a
        # mask is broadcast over (3, 7, 50), has the point's own shape, or
        # repeats each row of a (7, 1, 50) point 3 times, as the mixing walk's
        g = generate_sse("planted", 32, 6, 0.25, seed=17)
        point = rng_for(5, "walk-point").integers(0, g.n, size=(7, 50))
        mask_shape = {"pointwise": (7, 50), "middle": (7, 3, 50)}.get(masked, (3, 7, 50))
        if masked == "middle":
            point = point[:, None, :]
        where = rng_for(5, "walk-where").random(mask_shape) < 0.4 if masked else None
        rng, ref_rng = rng_for(6, "walk-in-place"), rng_for(6, "walk-in-place")
        got = noisy_walk(g, eta, point, rng, where=where)
        shape = point.shape if where is None else where.shape
        want = ref_rng.integers(0, g.n, size=shape)
        steps = np.arange(want.size) if where is None else np.flatnonzero(where)
        steps = steps[ref_rng.random(steps.size) >= eta]
        src = np.broadcast_to(point, shape).flat[steps]
        want.reshape(-1)[steps] = g.adj.reshape(-1)[src * g.deg + ref_rng.integers(0, g.deg, size=steps.size)]
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.int64
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("masked", [False, True])
    def test_int32_point_walks_to_the_same_vertices(self, masked):
        g = generate_sse("planted", 32, 6, 0.25, seed=17)
        point = rng_for(7, "walk-point").integers(0, g.n, size=(7, 50))
        where = rng_for(7, "walk-where").random((3, 7, 50)) < 0.4 if masked else None
        wide, narrow = rng_for(8, "walk-int32"), rng_for(8, "walk-int32")
        want = noisy_walk(g, 0.3, point, wide, where=where)
        got = noisy_walk(g, 0.3, point.astype(np.int32), narrow, where=where)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.int32
        assert narrow.random() == wide.random()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 2 ** 31 - 1), size=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_int32_draws_equal_int64(self, n, size, seed):
        # what lets the sampler and the walk hold vertices as int32: the same
        # values, and the generator left in the same state
        wide, narrow = rng_for(seed, "int32-draws"), rng_for(seed, "int32-draws")
        a = wide.integers(0, n, size=size)
        b = narrow.integers(0, n, size=size, dtype=np.int32)
        np.testing.assert_array_equal(a, b)
        state = lambda r: json.dumps(r.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)
        assert state(wide) == state(narrow)

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
            # fully coupled leaks: both positions carry the same z'
            np.testing.assert_array_equal(s.trace["z_prime"][0], s.trace["z_prime"][1])

    @staticmethod
    def x_folded(law, mus):
        """``letter_block``'s law with each position's x replaced by a
        Bernoulli(mu) bit where its z is bot: the law of the letters
        2x' + z' that the sampler draws."""
        t = law.reshape((2, 2) * len(mus))
        for pos, mu in enumerate(mus):
            t = np.moveaxis(t, (2 * pos, 2 * pos + 1), (0, 1)).copy()
            t[:, 0] = np.multiply.outer([1.0 - mu, mu], t[:, 0].sum(axis=0))
            t = np.moveaxis(t, (0, 1), (2 * pos, 2 * pos + 1))
        return t.reshape(-1)

    def test_letter_frequencies_match_letter_block(self):
        # the sampler's letter pairs (2x' + z' per position), pooled over
        # the coordinates, against the x-folded law of letter_block
        gap = small_gap()
        rng_master = np.random.default_rng(7)
        theta = mixture_theta(gap, rng_master)
        graph = cycle_sse(6)
        params = desk_params(theta, R=4)
        sampler = BatchTestSampler(gap, theta, graph, params)
        m = 25000
        total = m * params.R
        for e_idx, (edge, _) in enumerate(gap.edges):
            trace: dict = {}
            sampler.sample_parts(e_idx, m, rng_for(2, "letters", e_idx), trace)
            (x0, x1), (z0, z1) = trace["x_prime"], trace["z_prime"]
            counts = np.bincount(((2 * x0 + z0) * 4 + 2 * x1 + z1).reshape(-1), minlength=16) / total
            law = self.x_folded(letter_block(theta, edge, params), [theta.vertex_mean(v) for v in edge])
            for c in range(16):
                se = math.sqrt(law[c] * (1 - law[c]) / total)
                assert abs(counts[c] - law[c]) <= 4 * se + 1e-12, (e_idx, c, counts[c], law[c])

    @staticmethod
    def agreement(gap, theta, params, rng):
        """(z' agreements of the two positions, coordinates counted) over
        4000 rows per edge, one sample_parts call per edge."""
        sampler = BatchTestSampler(gap, theta, cycle_sse(6), params)
        agree = total = 0
        for e_idx in range(len(gap.edges)):
            trace: dict = {}
            sampler.sample_parts(e_idx, 4000, rng, trace)
            z1, z2 = trace["z_prime"]
            agree += int(np.count_nonzero(z1 == z2))
            total += z1.size
        return agree, total

    def test_independent_leaks_agreement_rate(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(8))
        beta = 0.3
        params = ReductionParams.manual(
            mu=theta.bias(), r=2, beta=beta, rho_sq=1e-12, R=6, eta=1e-12
        )
        agree, total = self.agreement(gap, theta, params, rng_for(3, "agree"))
        expect = beta ** 2 + (1 - beta) ** 2
        assert agree / total == pytest.approx(expect, abs=4 * math.sqrt(expect * (1 - expect) / total))

    def test_coupled_agreement_rate(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(9))
        beta, rho_sq = 0.3, 0.4
        params = ReductionParams.manual(
            mu=theta.bias(), r=2, beta=beta, rho_sq=rho_sq, R=6, eta=1e-12
        )
        agree, total = self.agreement(gap, theta, params, rng_for(4, "agree2"))
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
            np.testing.assert_array_equal(x, s.trace["x_prime"][pos][perm])


class TestFoldedKernel:
    """The leakage fold of the sampled letters: B' walks from A only where z'
    is top, with the lazy step, and is uniform where z' is bot; x' is the
    noised bit where z' is top and a fresh Bernoulli(mu) bit where z' is
    bot.  The parts come back unpermuted, aligned with the trace."""

    @staticmethod
    def draws(eta, seed, m=20000, R=4, theta=None):
        gap = small_gap()
        theta = theta or mixture_theta(gap, np.random.default_rng(10))
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.5, rho_sq=0.4, R=R, eta=eta)
        sampler = BatchTestSampler(gap, theta, cycle_sse(6), params)
        trace: dict = {}
        parts = sampler.sample_parts(0, m, rng_for(seed, "folded-kernel"), trace)
        mus = [theta.vertex_mean(v) for v in gap.edges[0][0]]
        return parts, trace, mus

    @staticmethod
    def assert_rate(hits, total, p):
        assert abs(hits / total - p) <= 4 * math.sqrt(p * (1 - p) / total) + 1e-12, (hits / total, p)

    def test_vertex_fold(self):
        eta = 0.5
        parts, trace, _ = self.draws(eta, 1)
        a = trace["A"]
        for pos, (b, _, z) in enumerate(parts):
            np.testing.assert_array_equal(z, trace["z_prime"][pos])
            step = (b - a) % 6
            top, bot = z == 1, z == 0
            np.testing.assert_array_equal(b[top], trace["B"][pos][top])
            assert (trace["B"][pos][bot] == -1).all()
            # cycle of 6: a walk step lands on a +- 1, the lazy step anywhere
            self.assert_rate(int((step[top] == 0).sum()), int(top.sum()), eta / 6)
            self.assert_rate(int(np.isin(step[top], (1, 5)).sum()), int(top.sum()), 1 - eta + eta / 3)
            # bot: uniform, whatever A was
            self.assert_rate(int(np.isin(step[bot], (1, 5)).sum()), int(bot.sum()), 1 / 3)
            self.assert_rate(int((step[bot] == 0).sum()), int(bot.sum()), 1 / 6)

    def test_bit_fold(self):
        # a family whose two positions agree on every support point, lightly
        # smoothed: the unfolded letters have x0 = x1 almost always, so
        # x'0 = x'1 = 1 where both z' are bot comes at about mu, not mu0 mu1
        gap = small_gap()
        support = [(Assignment({v: 1 for v in gap.vertices}), 0.4), (Assignment({v: 0 for v in gap.vertices}), 0.6)]
        theta = LocalDistributionFamily.from_distribution(support, 2, gap).smooth(0.05, 0.4)
        parts, _, mus = self.draws(0.05, 2, theta=theta)
        (_, x0, z0), (_, x1, z1) = parts
        for x, z, mu in ((x0, z0, mus[0]), (x1, z1, mus[1])):
            bot = z == 0
            self.assert_rate(int(x[bot].sum()), int(bot.sum()), mu)
        both = (z0 == 0) & (z1 == 0)
        self.assert_rate(int((x0[both] & x1[both]).sum()), int(both.sum()), mus[0] * mus[1])
        # where both z' are top, x' keeps the positions' agreement
        tops = (z0 == 1) & (z1 == 1)
        assert (x0[tops] == x1[tops]).mean() > 0.8


class TestLetterLookup:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 6), min_size=0, max_size=40),
        on_grid=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_codes_equal_searchsorted(self, weights, on_grid, seed):
        # zero weights are zero-mass letters: repeated CDF entries
        rng = np.random.default_rng(seed)
        if on_grid:  # every entry on a bucket edge, 0 and 1 included
            cdf = np.sort(rng.integers(0, LOOKUP + 1, size=len(weights))) / LOOKUP
        else:  # as _letter_sampler builds it
            cdf = np.cumsum(np.array([*weights, 1]) * rng.uniform(0.5, 1.5, size=len(weights) + 1))
            cdf = cdf[:-1] / cdf[-1]
        edges = np.arange(LOOKUP) / LOOKUP
        inside = cdf[cdf < 1.0]
        u = np.concatenate([
            rng.random(2000),
            edges,
            np.nextafter(edges[1:], 0.0),
            inside,
            np.nextafter(inside, 0.0),
            [np.nextafter(1.0, 0.0)],
        ])
        codes = LetterLookup(cdf).codes(u.copy())
        np.testing.assert_array_equal(codes, np.searchsorted(cdf, u, side="right"))


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
        f = dictator_assignment(graph.planted, graph)
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


def tie_break_by_sort(code):
    """A sort-based tie-break written out with shifted neighbour rows, kept
    as the reference: (index of the smallest code appearing once in the row,
    rows with no such code), falling back to the first smallest code."""
    s = np.sort(code, axis=1)
    m = len(s)
    left = np.concatenate([np.full((m, 1), -1, dtype=s.dtype), s[:, :-1]], axis=1)
    right = np.concatenate([s[:, 1:], np.full((m, 1), -2, dtype=s.dtype)], axis=1)
    uniq = (s != left) & (s != right)
    has_uniq = uniq.any(axis=1)
    min_uniq = np.where(uniq, s, np.iinfo(s.dtype).max).min(axis=1)
    target = np.where(has_uniq, min_uniq, s[:, 0])
    return np.argmax(code == target[:, None], axis=1), ~has_uniq


def select_by_codes(mask, A, z):
    """The planted dictator's selection read off the codes 2A + z of every
    row, kept as the reference: (selected index, fallback rows).  A code is
    marked iff A is planted and z is top; a row with exactly one marked code
    selects it, and every other row goes to the sort-based tie-break."""
    marked_codes = np.zeros(2 * len(mask), dtype=bool)
    marked_codes[1::2] = mask
    code = 2 * A.astype(np.int64) + z
    marked = marked_codes[code]
    single = np.count_nonzero(marked, axis=1) == 1
    idx, fallback = tie_break_by_sort(code)
    return np.where(single, np.argmax(marked, axis=1), idx), fallback & ~single


class TestPermutedEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 32]),
        R=st.integers(2, 40),
        m=st.integers(0, 12),
        a_dtype=st.sampled_from([np.int32, np.int64]),
        z_dtype=st.sampled_from([np.int8, np.int32, np.int64]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_select_matches_the_codes(self, n, R, m, a_dtype, z_dtype, seed):
        # the marked mask from the planted mask and z, codes only for the
        # rows the tie-break reads: rows with 0, 1 and 2 or more marked
        # coordinates and a row with no unique code lead m random rows
        rng = np.random.default_rng(seed)
        mask = rng.random(n) < 0.5
        mask[rng.integers(n)] = True
        planted = np.flatnonzero(mask)
        A = rng.integers(0, n, size=(4 + m, R))
        z = (rng.random((4 + m, R)) < rng.random()).astype(np.int64)
        z[0] = 0  # no marked coordinate
        z[1] = 0
        z[1, 0], A[1, 0] = 1, rng.choice(planted)  # exactly one
        z[2, :2], A[2, :2] = 1, rng.choice(planted, size=2)  # two or more
        half = R // 2  # every code at least twice: no unique code
        A[3, half:2 * half], z[3, half:2 * half] = A[3, :half], z[3, :half]
        A[3, 2 * half:], z[3, 2 * half:] = A[3, 0], z[3, 0]
        A, z = A.astype(a_dtype), z.astype(z_dtype)
        d = PlantedDictator(mask)
        idx, fallback = d._select(A, z)
        ref_idx, ref_fallback = select_by_codes(mask, A, z)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(fallback, ref_fallback)
        marked = np.count_nonzero(mask[A] & (z == 1), axis=1)
        assert marked[0] == 0 and marked[1] == 1 and marked[2] >= 2 and ref_fallback[3]
        assert (d.query_count, d.fallback_count) == (4 + m, int(ref_fallback.sum()))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 32]),
        R=st.integers(1, 40),
        m=st.integers(1, 20),
        doubled=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_tie_break_matches_sort(self, n, R, m, doubled, seed):
        rng = np.random.default_rng(seed)
        code = 2 * rng.integers(0, n, size=(m, R)) + rng.integers(0, 2, size=(m, R))
        if doubled:  # every code at least twice: no row has a unique code
            code = np.concatenate([code, rng.permuted(code, axis=1)], axis=1)
        idx, fallback = PlantedDictator(np.arange(n) == 0)._tie_break(code)
        ref_idx, ref_fallback = tie_break_by_sort(code)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(fallback, ref_fallback)
        if doubled:
            assert fallback.all()

    def test_tie_break_memory_follows_rows_not_vertices(self):
        # one CHUNK of rows at n = 128, R = 40: a count over all 2n codes
        # per row would need m x 256 int64 entries (128 MiB)
        n, R = 128, 40
        rng = np.random.default_rng(3)
        code = 2 * rng.integers(0, n, size=(CHUNK, R)) + rng.integers(0, 2, size=(CHUNK, R))
        dictator = PlantedDictator(np.arange(n) == 0)
        with traced_peak() as peak:
            dictator._tie_break(code)
        assert peak.bytes < 2 * code.nbytes

    def test_covariant_rows_read_unpermuted(self):
        graph = generate_sse("planted", 32, 6, 0.25, seed=11)
        f = dictator_assignment(graph.planted, graph)
        rng = rng_for(8, "covariant")
        A = rng.integers(0, 32, size=(5000, 10))
        x = (rng.random((5000, 10)) < 0.3).astype(np.int8)
        z = (rng.random((5000, 10)) < 0.2).astype(np.int8)
        base = f.evaluate_batch(A, x, z)
        fallbacks = f.dictator.fallback_count
        permuted = f.evaluate_batch(A, x, z, rng_for(9, "covariant-perm"))
        np.testing.assert_array_equal(permuted, base)
        assert fallbacks == 0 and f.permuted_rows == 0
        assert f.dictator.query_count == 10000

    def test_fallback_rows_read_at_a_permutation(self):
        # codes 7, 7, 10, 10: no unique code, so the row falls back to the
        # first 7 of the permuted row, coordinate 0 or 1 with probability 1/2
        f = dictator_assignment([0, 1], cycle_sse(6))
        m = 4000
        A = np.tile([3, 3, 5, 5], (m, 1))
        z = np.tile([1, 1, 0, 0], (m, 1))
        x = np.tile([1, 0, 0, 0], (m, 1))
        vals = f.evaluate_batch(A, x, z, rng_for(10, "fallback-perm"))
        assert abs(vals.mean() - 0.5) <= 4 * math.sqrt(0.25 / m)
        assert (f.dictator.query_count, f.dictator.fallback_count, f.permuted_rows) == (m, m, m)

    def test_row_blocks_read_one_stream(self):
        # more rows than two blocks, with fallback rows in each block
        f = dictator_assignment([0], cycle_sse(4))
        rng = rng_for(13, "row-blocks")
        m, R = 80000, 8
        assert m > 2 * (BLOCK_ENTRIES // R)
        A = rng.integers(0, 4, size=(m, R))
        x = (rng.random((m, R)) < 0.4).astype(np.int8)
        z = (rng.random((m, R)) < 0.3).astype(np.int8)
        core = PlantedDictator(np.arange(4) == 0)
        got_rng, ref_rng = rng_for(14, "row-blocks"), rng_for(14, "row-blocks")
        got = f.evaluate_batch(A, x, z, got_rng)
        want, permuted = core.evaluate_permuted(A, x, z, ref_rng)
        np.testing.assert_array_equal(got, want)
        assert 0 < permuted < m
        assert (f.dictator.query_count, f.dictator.fallback_count, f.permuted_rows) == (
            core.query_count, core.fallback_count, permuted
        )
        assert got_rng.random() == ref_rng.random()

    def test_other_assignments_permute_every_row(self):
        f = LongCodeAssignment(lambda A, x, z: x[:, 0])
        m = 4000
        x = np.tile([1, 0, 0, 0, 0], (m, 1))
        vals = f.evaluate_batch(np.zeros((m, 5), dtype=int), x, np.zeros((m, 5), dtype=int), rng_for(11, "perm-all"))
        assert abs(vals.mean() - 0.2) <= 4 * math.sqrt(0.2 * 0.8 / m)
        assert f.permuted_rows == m


class TestSettledTable:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_every_predicate_against_its_completions(self, arity):
        # every accepting set of every arity up to 3; the entry for a prefix
        # is the value all its completions share, or -1 where they differ
        points = list(itertools.product((0, 1), repeat=arity))
        for code in range(2 ** 2 ** arity):
            psi = Predicate(arity, frozenset(p for j, p in enumerate(points) if code >> j & 1))
            settled = psi.settled()
            assert len(settled) == arity
            np.testing.assert_array_equal(settled[-1], psi.table())
            for i, tab in enumerate(settled):
                assert tab.dtype == np.int8 and tab.shape == (2 ** (i + 1),)
                for prefix in itertools.product((0, 1), repeat=i + 1):
                    values = {psi(prefix + rest) for rest in itertools.product((0, 1), repeat=arity - i - 1)}
                    want = values.pop() if len(values) == 1 else -1
                    assert tab[int("".join(map(str, prefix)), 2)] == want, (psi.accepting, prefix)


class TestAcceptance:
    def test_constant_assignments(self):
        gap = small_gap(Predicate.and_(2))
        theta = mixture_theta(gap, np.random.default_rng(12))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        zero = LongCodeAssignment(lambda A, x, z: np.zeros(len(A), dtype=np.int8))
        one = LongCodeAssignment(lambda A, x, z: np.ones(len(A), dtype=np.int8))
        assert acceptance_estimate(gap, theta, graph, params, zero, 2000, 1).value == 0.0
        assert acceptance_estimate(gap, theta, graph, params, one, 2000, 1).value == 1.0

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
        assert mc.value == pytest.approx(exact, abs=4 * mc.stderr)

    def test_dictator_estimate_matches_exact_with_fallbacks(self):
        # n = 4, R = 2: equal codes are common, so the fallback rows, the only
        # ones the dictator permutes, carry a visible share of the estimate.
        # Coupled leaks and a family whose edges always disagree make the two
        # positions' fallback reads strongly correlated at a shared coordinate.
        gap = small_gap()
        support = [(Assignment({"a": 0, "b": 1, "c": 0}), 0.5), (Assignment({"a": 1, "b": 0, "c": 1}), 0.5)]
        theta = LocalDistributionFamily.from_distribution(support, 6, gap).smooth(0.05, 0.5)
        graph = generate_sse("planted", 4, 2, 0.5, seed=13)
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.7, rho_sq=1.0, R=2, eta=0.02)
        exact = acceptance_exact(gap, theta, graph, params, dictator_assignment(graph.planted, graph))
        f = dictator_assignment(graph.planted, graph)
        mc = acceptance_estimate(gap, theta, graph, params, f, 200000, 21)
        assert f.dictator.fallback_count >= 0.05 * f.dictator.query_count
        assert f.permuted_rows == f.dictator.fallback_count
        assert mc.value == pytest.approx(exact, abs=4 * mc.stderr)

    def test_coordinate_reader_closed_form(self):
        # f reads x at coordinate 0 of the permuted row, i.e. at a uniform
        # coordinate of each position, independently: the two reads share a
        # coordinate with probability 1/R, and only then are they coupled,
        # by the fraction k of coordinates where both positions keep their
        # outcome bits.  P[z'_1 = z'_2 = top] = beta^2 + rho^2 (1-eta)^2 (beta - beta^2).
        gap = small_gap(Predicate.and_(2))
        theta = mixture_theta(gap, np.random.default_rng(22))
        R, beta, rho_sq, eta = 3, 0.5, 0.9, 0.05
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=beta, rho_sq=rho_sq, R=R, eta=eta)
        k = (beta ** 2 + rho_sq * (1 - eta) ** 2 * (beta - beta ** 2)) * (1 - eta) ** 2
        table = gap.predicate.table()
        expect = 0.0
        for edge, w in gap.edges:
            probs, _ = edge_block_probs(theta, edge)
            mu = [np.array([1 - theta.vertex_mean(v), theta.vertex_mean(v)]) for v in edge]
            indep = np.outer(mu[0], mu[1]).reshape(-1)
            expect += w * float(table @ (indep + k / R * (probs - indep)))
        f = LongCodeAssignment(lambda A, x, z: x[:, 0])
        mc = acceptance_estimate(gap, theta, cycle_sse(6), params, f, 200000, 23)
        assert mc.value == pytest.approx(expect, abs=4 * mc.stderr)

    def test_deterministic_per_seed(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(15))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        f = dictator_assignment([0, 1], graph)
        a = acceptance_estimate(gap, theta, graph, params, f, 30000, 16)
        f2 = dictator_assignment([0, 1], graph)
        b = acceptance_estimate(gap, theta, graph, params, f2, 30000, 16)
        assert a.value == b.value

    def test_dictator_clears_planted_bound(self):
        gap = small_gap(Predicate.and_(2))
        support = [
            (Assignment({"a": 1, "b": 1, "c": 1}), 0.3),
            (Assignment({"a": 0, "b": 0, "c": 0}), 0.7),
        ]
        theta = LocalDistributionFamily.from_distribution(support, 6, gap).smooth(0.1, 0.3)
        graph = generate_sse("planted", 32, 6, 0.25, seed=17)
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.2, rho_sq=0.25, R=10, eta=0.01)
        f = dictator_assignment(graph.planted, graph)
        rep = acceptance_estimate(gap, theta, graph, params, f, 200000, 18)
        assert rep.holds
        # the dictator beats the independent-bits background on this instance
        assert rep.value > theta.bias() ** 2 + 3 * rep.stderr

    def test_asymmetric_predicate_matches_exact(self):
        # x1 and not x2: position 0 settles the rows that read 0, and the
        # packed prefix must keep position 0 as its most significant bit.
        # The family puts a at 1 and b at 0 together, so the vertex means
        # differ and reading the positions in the other order shows.
        gap = small_gap(Predicate.from_strings(2, ["10"]))
        support = [(Assignment({"a": 1, "b": 0, "c": 1}), 0.6), (Assignment({"a": 0, "b": 1, "c": 0}), 0.4)]
        theta = LocalDistributionFamily.from_distribution(support, 6, gap).smooth(0.1, 0.5)
        graph = cycle_sse(6)
        params = desk_params(theta, R=2)
        exact = acceptance_exact(gap, theta, graph, params, dictator_assignment([0, 1], graph))
        f = dictator_assignment([0, 1], graph)
        mc = acceptance_estimate(gap, theta, graph, params, f, 200000, 24)
        assert mc.value == pytest.approx(exact, abs=3 * mc.stderr)
        assert 200000 < f.dictator.query_count < 2 * 200000

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("kind", ["xor", "and", "or"])
    def test_queries_stop_where_the_predicate_settles(self, kind, r):
        # XOR never settles before the last position: every trial reads all
        # r positions.  AND settles on a 0 and OR on a 1; at arity 2 the
        # dictator reads x' at a coordinate its selection picks without
        # looking at x', so position 0 reads 1 with its vertex's mean and
        # the second reads come at the edge-weighted rate of that bit.
        accepting = {
            "xor": [a for a in itertools.product((0, 1), repeat=r) if sum(a) % 2],
            "and": [(1,) * r],
            "or": [a for a in itertools.product((0, 1), repeat=r) if any(a)],
        }[kind]
        names = "abcd"[: r + 1]
        edges = [(tuple(names[:r]), 0.6), (tuple(names[1:]), 0.4)]
        gap = ConstraintHypergraph({v: 1 / len(names) for v in names}, edges, Predicate(r, frozenset(accepting)))
        theta = mixture_theta(gap, np.random.default_rng(25))
        graph = cycle_sse(6)
        trials = 20000
        f = dictator_assignment([0, 1], graph)
        acceptance_estimate(gap, theta, graph, desk_params(theta, r=r, R=3), f, trials, 26)
        if kind == "xor":
            assert f.dictator.query_count == r * trials
            return
        assert trials < f.dictator.query_count < r * trials
        if r == 2:
            ones = sum(w * theta.vertex_mean(e[0]) for e, w in edges)
            second = ones if kind == "and" else 1.0 - ones
            se = math.sqrt(second * (1 - second) / trials)
            assert f.dictator.query_count / trials - 1 == pytest.approx(second, abs=4 * se)

    def test_refuses_before_enumerating(self):
        """The work cap is checked before any permutation or combo is built.

        At arity 3, R = 1, n = 256 the grid (4n)^R = 2^10 and the contraction
        (4n)^((r-1)R) = 2^20 pass the cap, but the test block (4n)^r = 2^30
        entries (8 GiB of float64) does not."""
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(13))
        graph = generate_sse("planted", 4, 2, 0.5, seed=13)
        params = desk_params(theta, R=10)
        f = dictator_assignment(graph.planted, graph)
        gap3 = ConstraintHypergraph({"a": 0.3, "b": 0.4, "c": 0.3}, [(("a", "b", "c"), 1.0)], Predicate.and_(3))
        theta3 = mixture_theta(gap3, np.random.default_rng(13))
        graph3 = cycle_sse(256)
        params3 = desk_params(theta3, r=3, R=1)
        f3 = dictator_assignment([0, 1], graph3)
        with traced_peak() as peak:
            with pytest.raises(ValueError, match="too large"):
                acceptance_exact(gap, theta, graph, params, f)
            with pytest.raises(ValueError, match="too large"):
                averaged_function(f, np.zeros(8, dtype=np.int64), 0.4, params.beta, params.eta, graph)
            with pytest.raises(ValueError, match="too large"):
                acceptance_exact(gap3, theta3, graph3, params3, f3)
            with pytest.raises(ValueError, match="too large"):
                analysis.test_block_distribution(gap3, theta3, graph3, params3, 0)
        assert peak.bytes < 1 << 20
        assert f3.dictator.query_count == 0


class TestParallelAcceptance:
    """acceptance_estimate runs its chunks on every usable CPU.  On three
    patched CPUs, with small chunks and a 1 us switch interval, the estimate,
    its stderr and the assignment's counters equal the serial run's."""

    @staticmethod
    def assignment(kind, graph, params):
        if kind in ("dictator", "settling"):
            return dictator_assignment([0, 1], graph)
        if kind == "table":
            n, R = graph.n, params.R
            values = np.random.default_rng(31).integers(0, 2, size=n ** R * 4 ** R)
            return LongCodeAssignment.from_table(n, R, values)
        return LongCodeAssignment(lambda A, x, z: x[:, 0] ^ z[:, 1] ^ (A[:, 2] % 2))

    @pytest.mark.parametrize("kind", ["dictator", "table", "callback", "settling"])
    def test_equals_the_serial_run(self, monkeypatch, kind):
        # R = 3 on a 6-cycle: a row of three equal codes, the dictator's
        # fallback, comes about once in 144 queries.  "settling" is the
        # dictator under AND, whose rows with a first bit of 0 settle there.
        gap = small_gap(Predicate.and_(2) if kind == "settling" else None)
        theta = mixture_theta(gap, np.random.default_rng(30))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        monkeypatch.setattr(analysis, "_LIFTED_ROWS", 512)
        trials = 40 * 512 + 7

        def run(k):
            cpus(monkeypatch, k)
            f = self.assignment(kind, graph, params)
            rep = acceptance_estimate(gap, theta, graph, params, f, trials, 32)
            counts = [f.permuted_rows]
            if f.dictator is not None:
                counts += [f.dictator.query_count, f.dictator.fallback_count]
            return rep, counts

        serial, serial_counts = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            par, par_counts = run(3)
        finally:
            sys.setswitchinterval(interval)
        assert (serial.threads, par.threads) == (1, 3)
        assert (par.value, par.stderr) == (serial.value, serial.stderr)
        assert par_counts == serial_counts
        if kind == "dictator":
            assert serial_counts[1] == 2 * trials
            assert 0 < serial_counts[2] == serial_counts[0]
        elif kind == "settling":
            assert trials < serial_counts[1] < 2 * trials
            assert 0 < serial_counts[2] == serial_counts[0]
        else:
            assert serial_counts == [2 * trials]


class TestAveragedFunction:
    def test_constant_assignment(self):
        graph = cycle_sse(6)
        c = LongCodeAssignment(
            lambda A, x, z: np.full(len(A), 1, dtype=np.int8)
        )
        table = averaged_function(c, np.array([0, 1]), 0.4, 0.3, 0.2, graph)
        np.testing.assert_allclose(table.values, 1.0, atol=1e-12)

    def test_full_walk_noise_mixes_vertex_part(self):
        graph = cycle_sse(4)
        R = 2
        # assignment depending only on the vertex vector
        f = LongCodeAssignment(
            lambda A, x, z: (A.sum(axis=1) % 2).astype(np.int8)
        )
        table = averaged_function(f, np.array([0, 0]), 0.5, 0.3, 1.0, graph)
        overall = np.mean(
            [(a + b) % 2 for a in range(4) for b in range(4)]
        )
        np.testing.assert_allclose(table.values, overall, atol=1e-12)


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

    def test_mc_reports_both_standard_errors(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(30))
        params = desk_params(theta, R=3)
        probs, _ = edge_block_probs(theta, gap.edges[0][0])
        rng = np.random.default_rng(48)
        space = self.paired_space(3, theta.vertex_mean("a"), params.beta)
        tables = [self.random_low_influence(rng, space, scale=0.15) for _ in range(2)]
        exact = decoupling_check(tables, probs, params, mode="exact")
        mc = decoupling_check(tables, probs, params, mode="mc", samples=100_000, seed=49)
        assert (exact.stderr, exact.product_stderr) == (0.0, 0.0)
        assert 0.0 < mc.stderr < 0.01 and 0.0 < mc.product_stderr < 0.01
        assert mc.lhs == pytest.approx(exact.lhs, abs=4 * mc.stderr)
        assert mc.product_term == pytest.approx(exact.product_term, abs=4 * mc.product_stderr)
        assert mc.holds == (mc.lhs <= mc.rhs)

    def test_mc_working_set_does_not_grow_with_samples(self, monkeypatch):
        # both sides run one CHUNK of rows at a time through mc_run, one chunk
        # per thread, and each chunk draws its codes a block at a time: a
        # thread holds its chunk's values, their squares and one block
        R = 6
        space = self.paired_space(R, 0.4, 0.2)
        rng = np.random.default_rng(50)
        tables = [self.random_low_influence(rng, space) for _ in range(2)]
        params = ReductionParams.manual(mu=0.4, r=2, beta=0.2, rho_sq=0.25, R=R, eta=0.01)
        probs = np.array([0.4, 0.2, 0.2, 0.2])
        peaks = {}
        for k in (1, 4):
            cpus(monkeypatch, k)
            for samples in (1 << 18, 1 << 20):
                with traced_peak() as peak:
                    decoupling_check(tables, probs, params, mode="mc", samples=samples, seed=51)
                peaks[k, samples] = peak.bytes
        assert peaks[1, 1 << 20] < 1.1 * peaks[1, 1 << 18], peaks
        # one thread measured 1.29 MiB; drawing a whole chunk's (CHUNK, R)
        # codes at once took it to 6.5 MiB, and four threads to 26 MiB
        assert peaks[1, 1 << 20] < 2 * 2 ** 20, peaks
        # four threads overlap by chance, so their peak is one to four
        # threads' worth
        assert max(peaks[4, 1 << 18], peaks[4, 1 << 20]) < 4 * 2 * 2 ** 20, peaks

    def test_mc_blocks_are_one_draw_of_the_chunk(self):
        # the blocks read the chunk's generator in row order; 400 rows is two
        # blocks and a shorter third at R = 100
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        R, m = 100, 400
        assert analysis._DRAW_ENTRIES // R == 163
        seen = []

        def product(codes):
            seen.append(len(codes))
            return codes.sum(axis=1).astype(float)

        blocked = analysis._drawn_in_blocks(product, probs, R)(rng_for(52, "blocks"), m)
        whole = rng_for(52, "blocks").choice(probs.size, size=(m, R), p=probs)
        assert seen == [163, 163, 74]
        np.testing.assert_array_equal(blocked, whole.sum(axis=1).astype(float))

    def test_mc_equal_on_one_and_on_three_cpus(self, monkeypatch):
        rng = np.random.default_rng(53)
        space = self.paired_space(3, 0.4, 0.2)
        tables = [self.random_low_influence(rng, space) for _ in range(2)]
        params = ReductionParams.manual(mu=0.4, r=2, beta=0.2, rho_sq=0.25, R=3, eta=0.01)
        probs = np.array([0.4, 0.2, 0.2, 0.2])
        checks = []
        for k in (1, 3):
            cpus(monkeypatch, k)
            checks.append(decoupling_check(tables, probs, params, mode="mc", samples=3 * CHUNK, seed=54))
        one, three = checks
        assert (one.counters["threads"], three.counters["threads"]) == (1, 3)
        assert (one.value, one.stderr, one.product_term, one.product_stderr) == (
            three.value, three.stderr, three.product_term, three.product_stderr
        )
        exact = decoupling_check(tables, probs, params, mode="exact")
        assert "threads" not in exact.counters


class TestMixing:
    def test_x_only_assignment_concentrates(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(33))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        f = LongCodeAssignment(lambda A, x, z: x[:, 0].astype(np.int8))
        rep = mixing_check(gap, theta, graph, params, f, alpha=1.0, a_samples=300, seed=34, inner_samples=4096)
        assert rep.value == 0.0
        assert rep.holds

    def test_huge_alpha_zero_fraction(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(35))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        f = dictator_assignment([0, 1], graph)
        rep = mixing_check(gap, theta, graph, params, f, alpha=50.0, a_samples=200, seed=36)
        assert rep.value == 0.0 and rep.holds

    def test_vacuous_when_threshold_exceeds_every_deviation(self):
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(35))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        f = dictator_assignment([0, 1], graph)
        # centre 0.3: no mean in [0,1] is 2*sqrt(0.3) ~ 1.10 away, but 0.2*sqrt(0.3) is reachable
        wide = mixing_check(gap, theta, graph, params, f, alpha=2.0, a_samples=50, seed=41, mu=0.3)
        narrow = mixing_check(gap, theta, graph, params, f, alpha=0.2, a_samples=50, seed=41, mu=0.3)
        assert wide.center == narrow.center == 0.3
        assert (wide.span, narrow.span) == ((0.0, 0.0), (0.0, 1.0))
        # narrow's bound 3 * 0.3 / 0.2^2 = 22.5 exceeds every fraction, so it is vacuous too
        assert narrow.bound > 1.0
        assert wide.vacuous and narrow.vacuous

    def test_dictator_at_desk_parameters(self):
        gap = small_gap(Predicate.and_(2))
        theta = mixture_theta(gap, np.random.default_rng(37), smooth=(0.2, 0.3))
        graph = generate_sse("planted", 32, 6, 0.25, seed=38)
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.2, rho_sq=0.25, R=10, eta=0.01)
        f = dictator_assignment(graph.planted, graph)
        rep = mixing_check(gap, theta, graph, params, f, alpha=2.0, a_samples=2000, seed=39, inner_samples=512)
        assert rep.holds

    def test_vertex_sensitive_assignment_exact(self):
        # deviation probability measured exactly against the ledger bound
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(40))
        graph = cycle_sse(4)
        params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.4, rho_sq=0.4, R=2, eta=0.2)
        marked = np.array([1, 0, 1, 0], dtype=bool)  # vertex membership flag
        f = LongCodeAssignment(
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

    @staticmethod
    def chunked_setup():
        # three chunks of 341, 341 and 5 vertex-vectors, with dictator fallbacks
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(35))
        graph = cycle_sse(6)
        params = desk_params(theta, R=3)
        inner = 256
        return gap, theta, graph, params, inner, 2 * analysis._mixing_block(params.R, inner) + 5

    @staticmethod
    def chunk_means(gap, theta, graph, params, f, seed, inner, a_samples):
        """The per-vertex-vector means, chunk after chunk on this thread,
        each drawn from rng_for(seed, "mixing", c) in the documented order:
        A, vertex indices, x bits, z bits, walk, fallback permutations."""
        R = params.R
        verts = gap.vertices
        wvec = gap.vertex_weight_vector(verts)
        mus = np.array([theta.vertex_mean(v) for v in verts])
        per_chunk = analysis._mixing_block(R, inner)
        means = []
        for c, start in enumerate(range(0, a_samples, per_chunk)):
            k = min(per_chunk, a_samples - start)
            m = k * inner
            rng = rng_for(seed, "mixing", c)
            a = rng.integers(0, graph.n, size=(k, R), dtype=np.int32)
            idx = rng.choice(len(verts), size=m, p=wvec)
            x = (rng.random((m, R)) < mus[idx][:, None]).astype(np.int8)
            z = (rng.random((m, R)) < params.beta).astype(np.int8)
            b = noisy_walk(graph, params.eta, a[:, None, :], rng, where=z.reshape(k, inner, R).astype(bool))
            means.append(f.evaluate_batch(b.reshape(m, R), x, z, rng).reshape(k, inner).mean(axis=1))
        return np.concatenate(means)

    @pytest.mark.parametrize("kw, name", [
        ({"a_samples": 0}, "a_samples"),
        ({"inner_samples": 0}, "inner_samples"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": -1.0}, "alpha"),
    ], ids=["no-vertex-vectors", "no-inner-draws", "zero-alpha", "negative-alpha"])
    def test_refuses_bad_input_before_drawing(self, monkeypatch, kw, name):
        # no inner draws averaged empty rows into a pass, no vertex-vectors
        # and alpha = 0 divided by zero, and alpha = -1 read fraction 1.0
        made = []
        monkeypatch.setattr(analysis, "rng_for", lambda *path: made.append(path))
        gap = small_gap()
        theta = mixture_theta(gap, np.random.default_rng(35))
        graph = cycle_sse(6)
        f = dictator_assignment([0, 1], graph)
        args = {"alpha": 1.0, "a_samples": 10, "inner_samples": 16, **kw}
        with pytest.raises(ValueError, match=f"^{name} "):
            mixing_check(gap, theta, graph, desk_params(theta, R=3), f, seed=1, **args)
        assert made == []

    @pytest.mark.parametrize("R, inner, per_chunk", [
        (40, 512, 12), (160, 512, 3), (3, 256, 341), (40, 1 << 13, 1), (1, 1, BLOCK_ENTRIES),
    ])
    def test_chunks_hold_one_block_of_lifted_entries(self, R, inner, per_chunk):
        # the most vertex-vectors whose R * inner lifted entries fit in one
        # block, and one when a single vertex-vector does not fit
        assert analysis._mixing_block(R, inner) == per_chunk
        assert per_chunk == 1 or per_chunk * R * inner <= BLOCK_ENTRIES < (per_chunk + 1) * R * inner

    def test_chunks_draw_from_their_own_streams(self, monkeypatch):
        # chunk c makes rng_for(seed, "mixing", c) once, whichever thread
        # works it; chunk 0 starts late, so on three threads it ends last,
        # and the means still come back in chunk order
        gap, theta, graph, params, inner, a_samples = self.chunked_setup()
        made = []

        def late_first_chunk(seed, *path):
            made.append((seed, *path))
            if path[-1] == 0:
                time.sleep(0.3)
            return rng_for(seed, *path)

        cpus(monkeypatch, 3)
        monkeypatch.setattr(analysis, "rng_for", late_first_chunk)
        f = dictator_assignment([0, 1], graph)
        means, threads = analysis._restriction_means(gap, theta, graph, params, f, a_samples, 57, inner)
        assert threads == 3
        assert sorted(made) == [(57, "mixing", c) for c in range(3)]
        want = self.chunk_means(gap, theta, graph, params, dictator_assignment([0, 1], graph), 57, inner, a_samples)
        assert np.array_equal(means, want)

    def test_report_reads_the_joined_means(self):
        # centre, threshold and fraction over all the means at once; the
        # short last chunk makes a mean of chunk means differ
        gap, theta, graph, params, inner, a_samples = self.chunked_setup()
        rep = mixing_check(gap, theta, graph, params, dictator_assignment([0, 1], graph), 0.05, a_samples, 58,
                           inner_samples=inner)
        means = self.chunk_means(gap, theta, graph, params, dictator_assignment([0, 1], graph), 58, inner, a_samples)
        center = float(means.mean())
        threshold = 0.05 * math.sqrt(center)
        assert (rep.center, rep.threshold) == (center, threshold)
        assert rep.value == float((np.abs(means - center) >= threshold).mean())
        assert 0.0 < rep.value < 1.0

    def test_equal_on_one_and_on_three_cpus(self, monkeypatch):
        # every report field but the thread count, and the dictator's
        # counters, bit for bit
        gap, theta, graph, params, inner, a_samples = self.chunked_setup()
        runs = []
        for k in (1, 3):
            cpus(monkeypatch, k)
            f = dictator_assignment([0, 1], graph)
            fields = dict(vars(mixing_check(gap, theta, graph, params, f, 0.05, a_samples, 59, inner_samples=inner)))
            counters = fields["counters"] = dict(fields["counters"])
            assert counters.pop("threads") == k
            runs.append((fields, f.dictator.query_count, f.dictator.fallback_count, f.permuted_rows))
        assert runs[0] == runs[1]
        _, queries, fallbacks, permuted = runs[0]
        assert queries == a_samples * inner
        assert 0 < fallbacks == permuted


def reduce_mc_setup(R=40):
    """The reduce-mc benchmark's lifted test: a 4-cycle AND gap, a 0.3/0.7
    mixture smoothed toward 0.3, a planted graph on 32 vertices, at lift
    dimension R (the benchmark's is 40)."""
    gap = ConstraintHypergraph(
        {f"v{i}": 0.25 for i in range(4)},
        [((f"v{i}", f"v{(i + 1) % 4}"), 0.25) for i in range(4)],
        Predicate.and_(2),
    )
    support = [
        (Assignment({v: 1 for v in gap.vertices}), 0.3),
        (Assignment({v: 0 for v in gap.vertices}), 0.7),
    ]
    theta = LocalDistributionFamily.from_distribution(support, 6, gap).smooth(0.1, 0.3)
    graph = generate_sse("planted", 32, 6, 0.25, seed=42)
    params = ReductionParams.manual(mu=theta.bias(), r=2, beta=0.2, rho_sq=0.25, R=R, eta=0.01)
    return gap, theta, graph, params, dictator_assignment(graph.planted, graph)


class TestWorkingMemory:
    """Traced peaks of the Monte Carlo kernels at the reduce-mc sizes, in
    units of one (rows, R) array of 8-byte entries."""

    def test_one_mixing_batch(self, monkeypatch):
        # one chunk on one thread: 12 vertex-vectors x 512 inner draws, one
        # block of lifted entries, with a measured peak of 1.84 units of its
        # rows (3.45 MiB).  It comes at the dictator read: the int32 walk
        # (half a unit) and the int8 x and z bits (a quarter) are held, and
        # the selection adds about 1.1, mostly the codes and their sorted
        # copy on the 73 % of rows that go to the tie-break.  A chunk of a
        # quarter of CHUNK rows (32 vertex-vectors) peaked at 7.4 MiB, under
        # a bound of 1.6 of its 16,384-row units (8.0 MiB).
        cpus(monkeypatch, 1)
        gap, theta, graph, params, f = reduce_mc_setup()
        per_chunk = analysis._mixing_block(params.R, 512)
        with traced_peak() as peak:
            rep = mixing_check(gap, theta, graph, params, f, 2.0, per_chunk, 44, inner_samples=512)
        rows = rep.a_samples * rep.inner_samples
        assert rows == 12 * 512 and rows * params.R <= BLOCK_ENTRIES
        unit = rows * params.R * 8
        assert peak.bytes < 2.0 * unit, peak.bytes / unit

    def test_mixing_chunk_peak_is_flat_in_R(self, monkeypatch):
        # a chunk holds one block of lifted entries whatever R is: at R = 160
        # it is 3 vertex-vectors, and its peak is 1.18 times R = 40's (a
        # chunk of a fixed 32 vertex-vectors peaked at 3.7 times)
        cpus(monkeypatch, 1)
        peaks = {}
        for R in (40, 160):
            gap, theta, graph, params, f = reduce_mc_setup(R)
            with traced_peak() as peak:
                mixing_check(gap, theta, graph, params, f, 2.0, analysis._mixing_block(R, 512), 44, inner_samples=512)
            peaks[R] = peak.bytes
        assert peaks[160] <= 1.3 * peaks[40], peaks

    def test_mixing_threads_hold_one_chunk_each(self, monkeypatch):
        # each thread beyond the first adds at most one chunk's working set
        gap, theta, graph, params, f = reduce_mc_setup()
        per_chunk = analysis._mixing_block(params.R, 512)
        cpus(monkeypatch, 1)
        with traced_peak() as one_chunk:
            mixing_check(gap, theta, graph, params, f, 2.0, per_chunk, 44, inner_samples=512)
        peaks = {}
        for k in (1, 3):
            cpus(monkeypatch, k)
            with traced_peak() as peak:
                mixing_check(gap, theta, graph, params, f, 2.0, 6 * per_chunk, 44, inner_samples=512)
            peaks[k] = peak.bytes
        assert peaks[3] - peaks[1] <= 2 * one_chunk.bytes, (peaks, one_chunk.bytes)

    def test_one_acceptance_chunk(self):
        # _LIFTED_ROWS rows split over the 4 edges: each edge draws about a
        # quarter of them, and the measured peak is 2.53 units of those rows.
        # It comes at position 0's dictator read over all of an edge's rows:
        # the int32 vertex points (half), the uint8 letter codes (an
        # eighth), position 0's decoded int8 letters (a quarter) and its
        # int32 walk (half) are held, and the dictator's selection over
        # them, one row block at this size, adds about 1.1; building the
        # codes 2A + z of every row, not only the tie-break's, it added 1.8
        # and the peak was 3.16.  Position 0's walk peaks lower, at 2.0
        # with its intp index temporaries (0.6).
        # Position 1 decodes, walks and reads only the rows whose first bit
        # leaves the AND open, about 30 %, and peaks at 1.44.  Decoding both
        # positions' letters and walking both before reading either peaked
        # at 3.33; with a fresh-bit block in the fold the peak was 4.0 units.
        assert analysis._LIFTED_ROWS == CHUNK // 4
        gap, theta, graph, params, f = reduce_mc_setup()
        sampler = BatchTestSampler(gap, theta, graph, params)
        with traced_peak() as peak:
            sampler.accept_indicators(f, analysis._LIFTED_ROWS, rng_for(45, "accept-memory"))
        unit = analysis._LIFTED_ROWS // 4 * params.R * 8
        assert peak.bytes < 2.9 * unit, peak.bytes / unit

    def test_acceptance_threads_hold_one_chunk_each(self, monkeypatch):
        # each thread beyond the first adds at most one chunk's working set
        gap, theta, graph, params, f = reduce_mc_setup()
        cpus(monkeypatch, 1)
        with traced_peak() as one_chunk:
            acceptance_estimate(gap, theta, graph, params, f, analysis._LIFTED_ROWS, 46)
        peaks = {}
        for k in (1, 3):
            cpus(monkeypatch, k)
            with traced_peak() as peak:
                acceptance_estimate(gap, theta, graph, params, f, 6 * analysis._LIFTED_ROWS, 46)
            peaks[k] = peak.bytes
        assert peaks[3] - peaks[1] <= 2 * one_chunk.bytes, (peaks, one_chunk.bytes)


class TestDecodeStat:
    @staticmethod
    def _graph():
        return generate_sse("planted", 8, 2, 0.25, seed=41, eps=0.05)

    def test_walk_average_in_place(self):
        # n = 64, R = 3: a 16 MiB family.  Contracting every axis with
        # _apply_axis copies the transposed family per axis and peaks at
        # three families; in place it is one family and a block.
        n, R = 64, 3
        walk = walk_matrix(generate_sse("planted", n, 6, 0.25, seed=44), 0.15)
        tables = np.random.default_rng(44).random((n,) * R + (2 ** R,))
        want = tables
        for j in range(R):
            want = _apply_axis(want, walk, j)
        with traced_peak() as peak:
            got = analysis._walk_average(tables, walk)
        np.testing.assert_array_equal(got, want)
        assert peak.bytes < 1.25 * tables.nbytes, peak.bytes / tables.nbytes

    @staticmethod
    def stacked(table, n, R):
        """The (n^R, 2^R) family whose row for a vertex-vector A is table(A),
        rows in np.ndindex order."""
        return np.stack([np.asarray(table(pt), dtype=float) for pt in np.ndindex((n,) * R)])

    def test_constant_tables_empty_lists(self):
        graph = self._graph()
        params = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=3, eta=0.2)
        space = BiasedSpace((0.3,) * 3, "bit")
        tables = np.full((8 ** 3, 8), 0.3)
        rep = influence_decode_stat(tables, space, graph, params, tau=0.01, samples=2000, seed=42)
        assert rep.value == 0
        assert rep.respect_violations == 0
        assert rep.match_prob == pytest.approx(rep.baseline, abs=4 * rep.match_stderr)

    def test_planted_covariant_dictators_signal(self):
        graph = self._graph()
        mask = graph.planted_mask()
        R = 3
        mu = 0.3
        params = ReductionParams.manual(mu=mu, r=2, beta=0.2, rho_sq=0.25, R=R, eta=0.15)
        space = BiasedSpace((mu,) * R, "bit")
        pts = ((np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1).astype(float)

        def table(pt):
            marked = np.flatnonzero(mask[np.asarray(pt)])
            if len(marked) == 1:
                return pts[:, marked[0]]
            return np.full(8, mu)

        tau = 0.05
        rep = influence_decode_stat(self.stacked(table, 8, R), space, graph, params, tau=tau, samples=3000, seed=43)
        assert rep.respect_violations == 0
        assert rep.holds
        assert rep.match_prob >= params.eta ** 2 * tau ** 2 / 16
        assert rep.match_prob > rep.baseline + 5 * rep.match_stderr

    def test_low_influence_tables_baseline(self):
        graph = self._graph()
        R = 3
        params = ReductionParams.manual(mu=0.4, r=2, beta=0.2, rho_sq=0.25, R=R, eta=0.2)
        space = BiasedSpace((0.4,) * R, "bit")
        # tiny symmetric perturbations keep every influence below tau/2
        cache = {}

        def table(pt):
            key = tuple(sorted(pt))
            if key not in cache:
                local = np.random.default_rng(hash(key) % (2 ** 32))
                cache[key] = np.clip(0.4 + 0.01 * local.standard_normal(), 0.0, 1.0)
            return np.full(8, cache[key])

        rep = influence_decode_stat(self.stacked(table, 8, R), space, graph, params, tau=0.05, samples=2500, seed=45)
        assert rep.value == 0
        assert rep.match_prob == pytest.approx(rep.baseline, abs=4 * rep.match_stderr)

    def test_single_broken_entry_is_a_respect_violation(self):
        graph = self._graph()
        params = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=3, eta=0.2)
        space = BiasedSpace((0.3,) * 3, "bit")
        tables = np.full((8 ** 3, 8), 0.3)
        # the point (0, 0, 1) at the vertex-vector (0, 1, 2) only
        tables[np.ravel_multi_index((0, 1, 2), (8,) * 3), 1] = 0.9
        rep = influence_decode_stat(tables, space, graph, params, tau=0.01, samples=100, seed=46)
        assert rep.respect_violations > 0

    @staticmethod
    def all_permutation_violations(values: np.ndarray, R: int) -> int:
        """Entries T[A][x] of a (n,)*R + (2,)*R family with T[A o pi][x o pi]
        != T[A][x] for some permutation pi, listing all of S_R."""
        bad = np.zeros(values.shape, dtype=bool)
        for perm in itertools.permutations(range(R)):
            moved = values.transpose([*perm, *(R + p for p in perm)])
            bad |= np.abs(moved - values) > 1e-9
        return int(bad.sum())

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        R=st.integers(1, 3),
        seed=st.integers(0, 2 ** 32 - 1),
        breaks=st.integers(0, 2),
    )
    def test_respect_check_matches_all_permutations(self, n, R, seed, breaks):
        # a family that depends on the multiset of (A(j), x(j)) respects every
        # permutation; a few changed entries may or may not break it
        rng = np.random.default_rng(seed)
        grid = np.indices((n,) * R + (2,) * R).reshape(2 * R, -1).T
        codes = np.sort(2 * grid[:, :R] + grid[:, R:], axis=1)
        _, orbit = np.unique(codes, axis=0, return_inverse=True)
        values = rng.integers(0, 3, size=orbit.max() + 1)[orbit.reshape(-1)] / 2.0
        values[rng.integers(0, values.size, size=breaks)] = rng.integers(0, 3, size=breaks) / 2.0
        values = values.reshape((n,) * R + (2,) * R)
        space = BiasedSpace((0.3,) * R, "bit")
        graph = SseGraph(n, 1, np.roll(np.arange(n), 1)[:, None])
        params = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=R, eta=0.2)

        tables = values.reshape(n ** R, 2 ** R)
        rep = influence_decode_stat(tables, space, graph, params, tau=0.05, samples=16, seed=seed % 1000)
        expected = self.all_permutation_violations(values, R)
        # adjacent transpositions generate S_R: they flag some entry exactly
        # when some permutation does, and never an entry no permutation moves
        assert (rep.respect_violations > 0) == (expected > 0)
        assert rep.respect_violations <= expected

    def test_family_above_the_cap_is_refused_before_it_is_read(self):
        graph = cycle_sse(64)
        params = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=4, eta=0.2)
        space = BiasedSpace((0.3,) * 4, "bit")

        class Unreadable:
            def __array__(self, *args, **kwargs):
                raise AssertionError("read a table of a refused family")

        # 64^4 vertex-vectors * 2^4 points = 2^28 > ORACLE_CAP
        with pytest.raises(ValueError, match="too large"):
            influence_decode_stat(Unreadable(), space, graph, params, tau=0.05, samples=16, seed=0)

    @pytest.mark.parametrize("bad", ["shape", "range", "space"])
    def test_malformed_family_is_refused(self, bad):
        graph = self._graph()
        params = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=3, eta=0.2)
        space = BiasedSpace((0.3,) * (2 if bad == "space" else 3), "bit")
        tables = np.full((8 ** 3, 4 if bad == "shape" else 8), 0.3)
        if bad == "range":
            tables[5, 2] = 1.0 + 1e-6
        with pytest.raises(ValueError):
            influence_decode_stat(tables, space, graph, params, tau=0.05, samples=16, seed=0)

    def test_decoder_covers_every_vertex_vector(self):
        # one walk sample reads at most two of the 16 vertex-vectors; the
        # list sizes still cover the dictator at (3, 3) wherever it lands
        graph = SseGraph(4, 1, np.array([[1], [0], [3], [2]]))
        params = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=2, eta=0.2)
        space = BiasedSpace((0.3,) * 2, "bit")
        tables = np.full((16, 4), 0.3)
        tables[np.ravel_multi_index((3, 3), (4, 4))] = [0.0, 0.0, 1.0, 1.0]
        rep = influence_decode_stat(tables, space, graph, params, tau=0.05, samples=1, seed=47)
        assert rep.value == 1

    def test_cli_family_is_the_planted_dictator(self, tmp_path):
        # the CLI's numpy-built family, against one table per vertex-vector
        from biascsp.harness.cli import _cmd_reduce_decode_stat, build_parser

        graph = self._graph()
        gap = small_gap()
        paths = {}
        for name, obj in (("instance", gap.to_json()), ("graph", graph.to_json()),
                          ("pd", {"kind": "product", "mu": 0.3, "level": 3})):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(obj))
        args = build_parser().parse_args(
            ["reduce", "decode-stat", "--instance", str(paths["instance"]), "--pd", str(paths["pd"]),
             "--graph", str(paths["graph"]), "--R", "3", "--mu", "0.3", "--eta", "0.15", "--tau", "0.05",
             "--samples", "500", "--seed", "9"]
        )
        record = _cmd_reduce_decode_stat(args)
        mask = graph.planted_mask()
        bits = ((np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1).astype(float)

        def table(pt):
            marked = np.flatnonzero(mask[np.asarray(pt)])
            return bits[:, marked[0]] if len(marked) == 1 else np.full(8, 0.3)

        params = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=3, eta=0.15)
        rep = influence_decode_stat(self.stacked(table, 8, 3), BiasedSpace((0.3,) * 3, "bit"), graph, params,
                                    tau=0.05, samples=500, seed=9)
        assert record["extra"]["match_prob"] == rep.match_prob
        assert record["value"] == rep.value
        assert record["extra"]["respect_violations"] == rep.respect_violations == 0


    def test_peak_stays_within_five_families(self):
        # n = 64, R = 3: a 16 MiB family of noisy planted dictators; the
        # report is the one the stacked transforms gave at this seed
        n, R = 64, 3
        graph = generate_sse("planted", n, 2, 0.25, seed=41, eps=0.05)
        params = ReductionParams.manual(mu=0.3, r=2, beta=0.2, rho_sq=0.25, R=R, eta=0.15)
        marked = graph.planted_mask()[np.indices((n,) * R).reshape(R, -1).T]
        one = marked.sum(axis=1) == 1
        bits = ((np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1).astype(float)
        tables = np.full((n ** R, 8), 0.3)
        tables[one] = bits[:, np.argmax(marked[one], axis=1)].T
        tables = np.clip(tables + 0.05 * np.random.default_rng(0).standard_normal(tables.shape), 0.0, 1.0)
        with traced_peak() as peak:
            rep = influence_decode_stat(tables, BiasedSpace((0.3,) * R, "bit"), graph, params,
                                        tau=0.05, samples=4000, seed=9)
        assert peak.bytes < 5 * tables.nbytes, f"peak traced allocation {peak.bytes / 2 ** 20:.1f} MiB"
        assert (rep.match_prob, rep.match_stderr, rep.value, rep.respect_violations) == (
            0.562, 0.007844679725775934, 1, 1985420
        )

    @pytest.mark.parametrize("R, rows", [(1, 3), (3, 40000), (5, 9000)])
    def test_influences_match_the_stacked_transform(self, R, rows):
        # the families one after the other in row blocks, against both at once
        rng = np.random.default_rng(R)
        biases, eta = tuple(rng.uniform(0.05, 0.95, R)), 0.15
        tables, averages = rng.random((2, rows, 2 ** R))
        coeffs = _character_transform(np.concatenate([tables, averages]).reshape((-1,) + (2,) * R), biases, 1)
        weight = (coeffs * (1.0 - eta) ** _mask_degrees(R).reshape((2,) * R)) ** 2
        stacked = np.stack([weight.take(1, axis=1 + j).reshape(2 * rows, -1).sum(axis=1) for j in range(R)], axis=1)
        got = [analysis._noised_influences(t, biases, eta) for t in (tables, averages)]
        assert np.array_equal(np.concatenate(got), stacked)


# ---- the loops the probspace bit codec replaced, kept as references ------------


def edge_block_probs_loop(theta, edge):
    key = theta._key(edge)
    k = len(key)
    table = np.asarray(theta.local(key)).reshape(-1)
    r = len(edge)
    pos_of = {v: t for t, v in enumerate(key)}
    outcome_bits = ((np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.int8)
    probs = np.zeros(2 ** r)
    pos_bits = ((np.arange(2 ** r)[:, None] >> np.arange(r - 1, -1, -1)) & 1).astype(np.int8)
    for o in range(2 ** k):
        idx = 0
        for pos, v in enumerate(edge):
            idx = (idx << 1) | int(outcome_bits[o, pos_of[v]])
        probs[idx] += table[o]
    return probs, pos_bits


def pair_indices_loop(outcomes, r, R):
    xb = outcomes // (2 ** r)
    zb = outcomes % (2 ** r)
    out = []
    for pos in range(r):
        x_bits = (xb >> (r - 1 - pos)) & 1
        z_bits = (zb >> (r - 1 - pos)) & 1
        x_idx = np.zeros(len(outcomes), dtype=np.int64)
        z_idx = np.zeros(len(outcomes), dtype=np.int64)
        for j in range(R):
            x_idx = (x_idx << 1) | x_bits[:, j]
            z_idx = (z_idx << 1) | z_bits[:, j]
        out.append(x_idx * 2 ** R + z_idx)
    return out


def table_index_loop(n, R, A, x, z):
    idx = np.zeros(len(A), dtype=np.int64)
    for j in range(R):
        idx = idx * n + A[:, j]
    for j in range(R):
        idx = (idx << 1) | x[:, j]
    for j in range(R):
        idx = (idx << 1) | z[:, j]
    return idx


class TestCodecAgainstLoops:
    @settings(max_examples=40, deadline=None)
    @given(arity=st.integers(1, 4), seed=st.integers(0, 2 ** 31))
    def test_edge_block_probs(self, arity, seed):
        # edges drawn with replacement from 4 vertices, so vertices repeat
        rng = np.random.default_rng(seed)
        verts = {v: 0.25 for v in "abcd"}
        edges = [(tuple(rng.choice(list(verts), size=arity)), 0.2) for _ in range(5)]
        gap = ConstraintHypergraph(verts, edges, Predicate.xor(arity))
        theta = mixture_theta(gap, rng)
        for edge, _ in gap.edges:
            probs, pos_bits = edge_block_probs(theta, edge)
            want_probs, want_bits = edge_block_probs_loop(theta, edge)
            np.testing.assert_array_equal(probs, want_probs)
            np.testing.assert_array_equal(pos_bits, want_bits)
            assert pos_bits.dtype == np.int8

    @settings(max_examples=40, deadline=None)
    @given(r=st.integers(1, 3), R=st.integers(1, 5), seed=st.integers(0, 2 ** 31))
    def test_pair_indices(self, r, R, seed):
        outcomes = np.random.default_rng(seed).integers(0, 4 ** r, size=(64, R))
        got = _pair_indices(outcomes, r, R)
        want = pair_indices_loop(outcomes, r, R)
        assert len(got) == len(want) == r
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("n, R", [(2, 2), (3, 1), (1, 3)])
    def test_from_table_index(self, n, R):
        values = np.arange(n ** R * 4 ** R)  # distinct, so a wrong index shows
        f = LongCodeAssignment.from_table(n, R, values)
        rng = np.random.default_rng(n * 10 + R)
        A = rng.integers(0, n, size=(50, R))
        x = rng.integers(0, 2, size=(50, R)).astype(np.int8)
        z = rng.integers(0, 2, size=(50, R)).astype(np.int8)
        np.testing.assert_array_equal(f.evaluate_batch(A, x, z), values[table_index_loop(n, R, A, x, z)])
