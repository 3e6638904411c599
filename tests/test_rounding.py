"""Gaussian-projection rounding: determinism, covariance/variance bounds, value."""
import itertools
import math

import numpy as np
import pytest

from biascsp.csp import Assignment, ConstraintHypergraph, Predicate, assignment_value
from biascsp.harness.rng import rng_for
from biascsp.probspace import BiasedSpace, FunctionTable, domain_points
from biascsp.pseudodist import LocalDistributionFamily, vector_solution
from biascsp.rounding import (
    TAU,
    RoundingInput,
    bias_concentration_check,
    clip,
    covariance_bound_check,
    exact_test_value,
    round_run,
    value_check,
)

from conftest import cpus, traced_peak


def host(n=4, predicate=None):
    predicate = predicate or Predicate.xor(2)
    verts = {f"v{i}": 1.0 / n for i in range(n)}
    edges = [((f"v{i}", f"v{(i + 1) % n}"), 1.0 / n) for i in range(n)]
    return ConstraintHypergraph(verts, edges, predicate)


def mixture_family(g, rng, k=6, level=6):
    n = len(g.vertices)
    probs = rng.dirichlet(np.ones(k))
    support = [
        (Assignment.from_bits(g.vertices, rng.integers(0, 2, size=n)), float(p))
        for p in probs
    ]
    return LocalDistributionFamily.from_distribution(support, level, g).smooth(0.1, 0.4)


def dictator_tables(g, family, r_dim, coord=0):
    pts = domain_points(r_dim)
    out = {}
    for v in g.vertices:
        mu_v = family.vertex_mean(v)
        out[v] = FunctionTable(
            BiasedSpace((mu_v,) * r_dim), pts[:, coord].astype(float), bounded=True
        )
    return out


def constant_tables(g, family, r_dim, c=None):
    out = {}
    for v in g.vertices:
        mu_v = family.vertex_mean(v)
        val = mu_v if c is None else c
        out[v] = FunctionTable(
            BiasedSpace((mu_v,) * r_dim), np.full(2 ** r_dim, val), bounded=True
        )
    return out


def oracle_test_value(inp):
    """Dict-based enumeration of the dictatorship-test value (independent path)."""
    family = inp.family
    total = 0.0
    R = inp.r_dim
    for edge, w_e in inp.host.edges:
        key = family._key(edge)
        table = family.local(key)
        outcomes = []
        for bits in itertools.product((0, 1), repeat=len(key)):
            outcomes.append((dict(zip(key, bits)), float(table[bits])))
        edge_sum = 0.0
        for a in inp.host.predicate.accepting:
            for combo in itertools.product(range(len(outcomes)), repeat=R):
                p = math.prod(outcomes[c][1] for c in combo)
                if p == 0.0:
                    continue
                prod = 1.0
                for pos, v in enumerate(edge):
                    x = [outcomes[c][0][v] for c in combo]
                    val = inp.noised[v].value_at(x)
                    prod *= val if a[pos] == 1 else 1.0 - val
                edge_sum += p * prod
        total += w_e * edge_sum
    return total


class TestClip:
    def test_values(self):
        assert clip(-0.3) == 0.0
        assert clip(0.4) == pytest.approx(0.4)
        assert clip(1.7) == 1.0
        np.testing.assert_allclose(clip(np.array([-1, 0.5, 2])), [0, 0.5, 1])


class TestRoundOnce:
    """Rounds of ``round_run``, the path of ``biascsp round run``."""

    def test_constant_tables_give_constant_p(self):
        g = host()
        fam = mixture_family(g, np.random.default_rng(0))
        sol = vector_solution(fam)
        inp = RoundingInput(g, constant_tables(g, fam, 3, c=0.35), sol, eta=0.05, family=fam)
        for seed in (1, 2, 3):
            p, _, _ = round_run(inp, 1, seed)
            np.testing.assert_allclose(p, 0.35, rtol=0, atol=1e-9)

    def test_zero_fluctuation_reads_noised_mean(self):
        g = host()
        fam = mixture_family(g, np.random.default_rng(1))
        sol = vector_solution(fam)
        sol.w[:] = 0.0
        inp = RoundingInput(g, dictator_tables(g, fam, 3), sol, eta=0.2, family=fam)
        p, _, _ = round_run(inp, 1, 7)
        for k, v in enumerate(g.vertices):
            # multilinearity at the mean: the table's expectation, exactly
            assert p[0, k] == pytest.approx(inp.g_tables[v].expectation(), abs=1e-9)

    def test_pure_function_of_seed(self):
        g = host()
        fam = mixture_family(g, np.random.default_rng(2))
        sol = vector_solution(fam)
        inp = RoundingInput(g, dictator_tables(g, fam, 4), sol, family=fam)
        a = round_run(inp, 3, 11)
        b = round_run(inp, 3, 11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_outcome_shape(self):
        g = host()
        fam = mixture_family(g, np.random.default_rng(3))
        inp = RoundingInput(g, dictator_tables(g, fam, 4), vector_solution(fam), family=fam)
        p, sigma, value = round_run(inp, 5, 5)
        assert p.shape == sigma.shape == (5, len(g.vertices)) and value.shape == (5,)
        assert np.all((0.0 <= p) & (p <= 1.0)) and set(np.unique(sigma)) <= {0, 1}
        for labels, val in zip(sigma, value):
            assert val == pytest.approx(assignment_value(g, Assignment(dict(zip(g.vertices, labels.tolist())))))

    def test_solution_dimension_is_checked(self):
        g = host()
        fam = mixture_family(g, np.random.default_rng(4))
        sol = vector_solution(fam)
        sol.dimension += 1
        with pytest.raises(ValueError, match="dimension"):
            RoundingInput(g, dictator_tables(g, fam, 3), sol, family=fam)

    def test_polynomial_agrees_with_noised_table_on_corners(self):
        from biascsp.probspace import domain_points as dp

        g = host()
        fam = mixture_family(g, np.random.default_rng(13))
        inp = RoundingInput(g, dictator_tables(g, fam, 3), vector_solution(fam), eta=0.2, family=fam)
        corners = dp(3).astype(float)
        for v in g.vertices:
            np.testing.assert_allclose(
                inp.polys[v].evaluate(corners), inp.noised[v].values, atol=1e-9
            )
        assert inp.functional_bias() == pytest.approx(inp.mu, abs=1e-12)


def random_clipped_poly(rng, dim):
    c = rng.uniform(0.2, 0.8)
    lin = 0.3 * rng.standard_normal(dim)
    quad = 0.08 * rng.standard_normal((dim, dim))

    def fn(pts):
        vals = c + pts @ lin + ((pts @ quad) * pts).sum(axis=-1)
        return np.clip(vals, 0.0, 1.0)

    return fn


class TestCovarianceBound:
    def test_independent_inputs(self):
        rng = np.random.default_rng(4)
        f, gfun = random_clipped_poly(rng, 3), random_clipped_poly(rng, 3)
        rep = covariance_bound_check(f, gfun, 0.0, 3, 300000, 21)
        assert abs(rep.covariance) <= 3 * rep.sigma_total
        assert rep.holds

    def test_identical_inputs_variance(self):
        rng = np.random.default_rng(5)
        f = random_clipped_poly(rng, 3)
        rep = covariance_bound_check(f, f, 1.0, 3, 200000, 22)
        assert rep.covariance <= 0.25 + 3 * rep.sigma_total
        assert rep.holds

    def test_intermediate_correlation(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            f, gfun = random_clipped_poly(rng, 2), random_clipped_poly(rng, 2)
            rep = covariance_bound_check(f, gfun, 0.3, 2, 200000, 100 + trial)
            assert rep.holds


class TestBiasConcentration:
    def test_constant_tables_zero_variance(self):
        g = host()
        fam = mixture_family(g, np.random.default_rng(7))
        sol = vector_solution(fam)
        inp = RoundingInput(g, constant_tables(g, fam, 3, c=0.4), sol, family=fam)
        rep = bias_concentration_check(inp, 400, 31)
        assert rep.variance == pytest.approx(0.0, abs=1e-18)
        assert rep.variance_holds

    def test_variance_bound_random_pipelines(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            g = host()
            fam = mixture_family(g, rng)
            sol = vector_solution(fam)
            inp = RoundingInput(g, dictator_tables(g, fam, 3), sol, family=fam)
            rep = bias_concentration_check(inp, 1500, 200 + trial)
            assert rep.variance_holds, (rep.variance, rep.variance_bound)

    def test_planted_correlated_pair(self):
        g = host(2)
        fam = LocalDistributionFamily.from_distribution(
            [
                (Assignment({"v0": 0, "v1": 0}), 0.5),
                (Assignment({"v0": 1, "v1": 1}), 0.5),
            ],
            4,
            g,
        ).smooth(0.05, 0.5)
        sol = vector_solution(fam)
        inp = RoundingInput(g, dictator_tables(g, fam, 3), sol, family=fam)
        rep = bias_concentration_check(inp, 3000, 33)
        assert rep.variance_bound == pytest.approx(1.0, abs=0.1)  # near-perfect correlation
        assert rep.variance_holds


    def test_checks_draw_their_own_rounds(self, monkeypatch):
        # the variance and value checks must not share Gaussian matrices
        import biascsp.rounding as rounding

        seen = []
        batch_p = rounding._batch_p

        def record(*args):
            seen.append(batch_p(*args))
            return seen[-1]

        monkeypatch.setattr(rounding, "_batch_p", record)
        g = host()
        fam = mixture_family(g, np.random.default_rng(9))
        inp = RoundingInput(g, dictator_tables(g, fam, 3), vector_solution(fam), family=fam)
        bias_concentration_check(inp, 200, 41)
        value_check(inp, 200, 41)
        assert len(seen) == 2 and not np.array_equal(seen[0], seen[1])


class TestBatchRounds:
    """The rounds run in fixed chunks, each from its own stream."""

    @staticmethod
    def round_exact_input(rng):
        # the round-exact benchmark's sizes: 8 vertices, so d = 9, at R = 9
        g = host(8)
        fam = mixture_family(g, rng)
        tables = {
            v: FunctionTable(
                BiasedSpace((fam.vertex_mean(v),) * 9),
                np.clip(0.5 + 0.05 * rng.standard_normal(2 ** 9), 0.0, 1.0),
                bounded=True,
            )
            for v in g.vertices
        }
        return RoundingInput(g, tables, vector_solution(fam), family=fam)

    def test_chunks_read_their_own_streams(self, monkeypatch):
        # a trial count that ends inside a chunk and inside an evaluation
        # chunk; chunk c draws its matrices and then its uniforms from the
        # run's tags plus c, whichever thread works it
        import biascsp.rounding as rounding

        cpus(monkeypatch, 3)
        inp = self.round_exact_input(np.random.default_rng(50))
        R, d, n = inp.r_dim, inp.solution.dimension, len(inp.host.vertices)
        block = rounding._round_block(R, d)
        trials = 2 * block + 777
        p, sigma, values = round_run(inp, trials, 51)
        assert p.shape == (trials, n) and sigma.shape == (trials, n) and values.shape == (trials,)
        for c, start in enumerate(range(0, trials, block)):
            rounds = min(block, trials - start)
            gmats = rng_for(51, "round-run", c).standard_normal((rounds, R, d))
            want = np.empty((rounds, n))
            for k, v in enumerate(inp.host.vertices):
                q = inp.solution.mu_for(v) + gmats.reshape(-1, d) @ inp.solution.w_for(v)
                want[:, k] = clip(inp.polys[v].evaluate(q.reshape(rounds, R)))
            assert np.array_equal(p[start : start + rounds], want)
            u = rng_for(51, "round-run", "bernoulli", c).random((rounds, n))
            assert np.array_equal(sigma[start : start + rounds], (u < want).astype(np.int8))

    def test_checks_make_one_generator_per_chunk_and_tag(self, monkeypatch):
        import biascsp.rounding as rounding

        cpus(monkeypatch, 3)
        made = []

        def recording_rng_for(seed, *path):
            made.append(path)
            return rng_for(seed, *path)

        monkeypatch.setattr(rounding, "rng_for", recording_rng_for)
        inp = self.round_exact_input(np.random.default_rng(50))
        trials = 2 * rounding._round_block(inp.r_dim, inp.solution.dimension) + 777
        bias_concentration_check(inp, trials, 52)
        value_check(inp, trials, 52)
        tags = [("round-batch", "variance"), ("round-batch", "value"), ("value-check-sigma",)]
        assert sorted(made) == sorted((*tag, c) for tag in tags for c in range(3))

    def test_working_memory_is_one_block(self, monkeypatch):
        # On one thread, ten times the trials may add only the per-round
        # values: at most four float64 per added round (each check's one or
        # two values, held per chunk and once joined).  Holding the (trials,
        # n) acceptance probabilities or uniforms would add 36000 x 8
        # float64 entries (2.3 MB) each, and drawing every matrix at once
        # 36000 x 81 (23 MB).
        cpus(monkeypatch, 1)
        inp = self.round_exact_input(np.random.default_rng(52))
        assert (inp.r_dim, inp.solution.dimension, len(inp.host.vertices)) == (9, 9, 8)
        for check in (bias_concentration_check, value_check):
            peaks = {}
            for trials in (4000, 40000):
                with traced_peak() as peak:
                    check(inp, trials, 53)
                peaks[trials] = peak.bytes
            assert peaks[40000] - peaks[4000] <= 36000 * 4 * 8, (check.__name__, peaks)

    def test_working_memory_is_one_block_per_thread(self, monkeypatch):
        # each thread beyond the first adds at most one chunk's working set
        import biascsp.rounding as rounding

        inp = self.round_exact_input(np.random.default_rng(52))
        block = rounding._round_block(inp.r_dim, inp.solution.dimension)
        with traced_peak() as one_chunk:
            rounding._batch_p(inp, block, np.random.default_rng(53))
        peaks = {}
        for k in (1, 3):
            cpus(monkeypatch, k)
            with traced_peak() as peak:
                value_check(inp, 40000, 53)
            peaks[k] = peak.bytes
        assert peaks[3] - peaks[1] <= 2 * one_chunk.bytes, (peaks, one_chunk.bytes)

    @pytest.mark.parametrize("check", ["bias_concentration_check", "value_check", "round_run"])
    def test_equal_on_one_and_on_three_cpus(self, monkeypatch, check):
        # everything but the wall time and the thread count, bit for bit
        import biascsp.rounding as rounding

        inp = self.round_exact_input(np.random.default_rng(54))
        trials = 2 * rounding._round_block(inp.r_dim, inp.solution.dimension) + 777
        runs = []
        for k in (1, 3):
            cpus(monkeypatch, k)
            result = getattr(rounding, check)(inp, trials, 55)
            if check == "round_run":
                runs.append([a.tobytes() for a in result])
                continue
            fields = dict(vars(result))
            assert fields.pop("threads") == k
            for timing in ("trials_per_s", "exact_elapsed_s"):
                fields.pop(timing, None)
            runs.append(fields)
        assert runs[0] == runs[1]


class TestValueCheck:
    def test_exact_value_matches_oracle(self):
        g = host()
        fam = mixture_family(g, np.random.default_rng(9))
        inp = RoundingInput(
            g, dictator_tables(g, fam, 3), vector_solution(fam), eta=0.1, family=fam
        )
        assert exact_test_value(inp) == pytest.approx(oracle_test_value(inp), abs=1e-10)

    @pytest.mark.parametrize("r_dim", [3, 12])
    def test_constant_tables_closed_form(self, r_dim):
        g = host(predicate=Predicate.and_(2))
        fam = mixture_family(g, np.random.default_rng(10))
        c = 0.45
        inp = RoundingInput(g, constant_tables(g, fam, r_dim, c=c), vector_solution(fam), family=fam)
        assert exact_test_value(inp) == pytest.approx(c ** 2, abs=1e-10)
        rep = value_check(inp, 300, 41)
        assert rep.mc_value == pytest.approx(c ** 2, abs=1e-9)

    def test_dictator_true_distribution(self):
        # pre-processed family: near-symmetric biases and low correlations keep
        # the clipping (invariance) error inside the configured budget
        from biascsp.pseudodist import find_conditioning

        g = host()
        rng = np.random.default_rng(11)
        raw = mixture_family(g, rng)
        fam = find_conditioning(raw.smooth(0.8, 0.5), target=0.05, budget=4).family
        inp = RoundingInput(
            g, dictator_tables(g, fam, 4), vector_solution(fam), eta=0.01, family=fam
        )
        rep = value_check(inp, 40000, 42)
        assert abs(rep.mc_value - rep.exact_value) <= 3 * rep.mc_stderr + 0.02
        assert rep.holds

    def test_applicable_only_below_tau(self):
        # dictators have influence p(1-p)(1-eta)^2 >= 0.16 * 0.99^2 > tau = 0.1
        # at vertex means in [0.2, 0.8]; constant tables have influence 0
        g = host()
        fam = mixture_family(g, np.random.default_rng(14)).smooth(0.8, 0.5)
        assert all(0.2 <= fam.vertex_mean(v) <= 0.8 for v in g.vertices)
        sol = vector_solution(fam)
        dictators = RoundingInput(g, dictator_tables(g, fam, 3), sol, family=fam)
        constants = RoundingInput(g, constant_tables(g, fam, 3), sol, family=fam)
        rep = value_check(dictators, 300, 43)
        assert rep.max_influence > TAU and not rep.applicable
        assert rep.exact_elapsed_s >= 0.0
        rep = value_check(constants, 300, 43)
        assert rep.max_influence <= TAU and rep.applicable

    def test_zero_variance_deterministic(self):
        g = host()
        fam = mixture_family(g, np.random.default_rng(12))
        sol = vector_solution(fam)
        sol.w[:] = 0.0
        inp = RoundingInput(g, dictator_tables(g, fam, 3), sol, family=fam)
        p1, _, _ = round_run(inp, 1, 1)
        p2, _, _ = round_run(inp, 1, 2)
        assert np.array_equal(p1, p2)  # acceptance probabilities no longer depend on the draw
