"""Local-distribution families: feasibility, smoothing, conditioning, vectors."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biascsp.csp import Assignment, ConstraintHypergraph, Predicate
from biascsp.polynomial import _apply_axis
from biascsp.probspace import product_measure
from biascsp.pseudodist import (
    LocalDistributionFamily,
    PSDFailureError,
    StructuralError,
    ZeroProbabilityEvent,
    _moments,
    find_conditioning,
    moment_matrix,
    vector_solution,
    verify_feasible,
)

from conftest import traced_peak


def host(n=4, predicate=None, seed=None):
    predicate = predicate or Predicate.xor(2)
    verts = {f"v{i}": 1.0 / n for i in range(n)}
    edges = [((f"v{i}", f"v{(i + 1) % n}"), 1.0 / n) for i in range(n)]
    return ConstraintHypergraph(verts, edges, predicate)


def product_family(g, mu, level=6):
    support = []
    for bits in itertools.product((0, 1), repeat=len(g.vertices)):
        p = math.prod(mu if b else 1 - mu for b in bits)
        support.append((Assignment.from_bits(g.vertices, bits), p))
    return LocalDistributionFamily.from_distribution(support, level, g)


def anti_pair_family(g, level=6):
    """Equal mixture of all-zeros and all-ones."""
    n = len(g.vertices)
    return LocalDistributionFamily.from_distribution(
        [
            (Assignment.from_bits(g.vertices, [0] * n), 0.5),
            (Assignment.from_bits(g.vertices, [1] * n), 0.5),
        ],
        level,
        g,
    )


def random_mixture(g, rng, k=6, level=8):
    n = len(g.vertices)
    probs = rng.dirichlet(np.ones(k))
    support = [
        (Assignment.from_bits(g.vertices, rng.integers(0, 2, size=n)), float(p))
        for p in probs
    ]
    return LocalDistributionFamily.from_distribution(support, level, g)


class TestFromDistribution:
    def test_point_mass_locals(self):
        g = host()
        sigma = Assignment({"v0": 1, "v1": 0, "v2": 1, "v3": 1})
        fam = LocalDistributionFamily.from_distribution([(sigma, 1.0)], 4, g)
        assert fam.vertex_mean("v0") == pytest.approx(1.0)
        assert fam.vertex_mean("v1") == pytest.approx(0.0)
        assert fam.prob(("v0", "v1"), (1, 0)) == pytest.approx(1.0)

    def test_pair_covariance(self):
        g = host(2, Predicate.xor(2))
        fam = anti_pair_family(g)
        stats = fam.statistics()
        assert stats.cov[0, 1] == pytest.approx(0.25)
        assert stats.corr[0, 1] == pytest.approx(1.0)

    def test_bias_is_mixture_average(self):
        g = host()
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4))
        assigns = [Assignment.from_bits(g.vertices, rng.integers(0, 2, size=4)) for _ in probs]
        fam = LocalDistributionFamily.from_distribution(
            list(zip(assigns, map(float, probs))), 4, g
        )
        from biascsp.csp import relative_weight

        expected = sum(p * relative_weight(g, a) for a, p in zip(assigns, probs))
        assert fam.bias() == pytest.approx(expected, abs=1e-12)

    def test_always_feasible(self):
        g = host()
        rng = np.random.default_rng(4)
        for _ in range(10):
            fam = random_mixture(g, rng)
            rep = verify_feasible(fam)
            assert rep.feasible, rep.consistency_violations
            assert rep.min_eigenvalue >= -1e-8

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            LocalDistributionFamily.from_distribution([], 4, host())


class TestVerify:
    def test_product_family_report(self):
        g = host()
        fam = product_family(g, 0.3)
        rep = verify_feasible(fam, 0.3)
        assert rep.feasible
        assert rep.bias == pytest.approx(0.3, abs=1e-12)
        stats = fam.statistics()
        assert np.abs(stats.cov - np.diag(np.diag(stats.cov))).max() < 1e-12

    def test_constructed_inconsistency_detected(self):
        g = host(2)
        locals_ = {
            ("v0",): np.array([0.7, 0.3]),
            ("v1",): np.array([0.5, 0.5]),
            # pair marginal for v0 says 0.4, contradicting the singleton
            ("v0", "v1"): np.array([[0.3, 0.3], [0.2, 0.2]]),
        }
        fam = LocalDistributionFamily(g, 2, locals_)
        rep = verify_feasible(fam)
        assert not rep.feasible
        assert any(v[0] == "marginal" for v in rep.consistency_violations)

    def test_true_mixture_is_feasible(self):
        g = host()
        fam = anti_pair_family(g)
        assert verify_feasible(fam).feasible

    def test_objective_matches_enumeration(self):
        g = host()
        rng = np.random.default_rng(5)
        fam = random_mixture(g, rng)
        from biascsp.csp import assignment_value

        joint = fam.local(g.vertices).reshape(-1)
        pts = [
            Assignment.from_bits(g.vertices, bits)
            for bits in itertools.product((0, 1), repeat=4)
        ]
        expected = sum(p * assignment_value(g, a) for p, a in zip(joint, pts))
        assert fam.objective() == pytest.approx(expected, abs=1e-12)


class TestSmooth:
    def test_bias_preserved_exactly(self):
        g = host()
        rng = np.random.default_rng(6)
        for _ in range(10):
            fam = random_mixture(g, rng)
            mu = fam.bias()
            sm = fam.smooth(0.25, mu)
            assert sm.bias() == pytest.approx(mu, abs=1e-12)

    def test_point_mass_zero_gets_eta_mu(self):
        g = host(2)
        fam = LocalDistributionFamily.from_distribution(
            [(Assignment({"v0": 0, "v1": 0}), 1.0)], 4, g
        )
        sm = fam.smooth(0.3, 0.4)
        assert sm.vertex_mean("v0") == pytest.approx(0.3 * 0.4, abs=1e-12)

    def test_min_probability_bound(self):
        g = host()
        rng = np.random.default_rng(7)
        for _ in range(5):
            fam = random_mixture(g, rng)
            mu = fam.bias()
            eta = 0.2
            sm = fam.smooth(eta, mu)
            floor_1 = eta * min(mu, 1 - mu)
            for size in (1, 2, 3):
                for subset in itertools.combinations(g.vertices, size):
                    table = sm.local(subset)
                    assert table.min() >= floor_1 ** size - 1e-12

    def test_objective_floor_single_and_edge(self):
        g = ConstraintHypergraph(
            {"a": 0.5, "b": 0.5}, [(("a", "b"), 1.0)], Predicate.and_(2)
        )
        fam = LocalDistributionFamily.from_distribution(
            [(Assignment({"a": 1, "b": 1}), 0.7), (Assignment({"a": 0, "b": 0}), 0.3)],
            4,
            g,
        )
        c = fam.objective()
        eta = 0.15
        sm = fam.smooth(eta, fam.bias())
        # exact two-variable computation: both coordinates survive w.p. (1-eta)^2
        assert sm.objective() >= (1 - eta) ** 2 * c - 1e-12

    def test_matches_kernel_on_the_joint(self):
        g = host()
        rng = np.random.default_rng(14)
        eta, mu = 0.2, 0.35
        # row = new value, column = old: keep with 1 - eta, else draw Bernoulli(mu)
        kernel = np.array(
            [[1.0 - eta + eta * (1.0 - mu), eta * (1.0 - mu)], [eta * mu, 1.0 - eta + eta * mu]]
        )
        for _ in range(10):
            fam = random_mixture(g, rng)
            joint = fam.local(g.vertices)
            for axis in range(joint.ndim):
                joint = _apply_axis(joint, kernel, axis)
            assert np.array_equal(fam.smooth(eta, mu).local(g.vertices), joint)

    def test_smoothed_family_feasible(self):
        g = host()
        fam = anti_pair_family(g).smooth(0.1, 0.5)
        assert verify_feasible(fam).feasible


class TestCondition:
    def test_product_unchanged_on_other_vertices(self):
        g = host()
        fam = product_family(g, 0.3)
        cond = fam.condition(("v0",), (1,))
        for v in ("v1", "v2", "v3"):
            assert cond.vertex_mean(v) == pytest.approx(0.3, abs=1e-12)

    def test_anti_pair_collapses(self):
        g = host(2)
        fam = anti_pair_family(g)
        cond = fam.condition(("v0",), (1,))
        assert cond.vertex_mean("v1") == pytest.approx(1.0)
        assert cond.statistics().cov[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_certainty_event_is_identity(self):
        g = host(2)
        sigma = Assignment({"v0": 1, "v1": 0})
        fam = LocalDistributionFamily.from_distribution([(sigma, 1.0)], 5, g)
        cond = fam.condition(("v0",), (1,))
        assert cond.vertex_mean("v1") == pytest.approx(0.0)

    def test_zero_probability_event_rejected(self):
        g = host(2)
        fam = anti_pair_family(g)
        with pytest.raises(ZeroProbabilityEvent):
            fam.condition(("v0", "v1"), (1, 0))

    def test_matches_direct_enumeration(self):
        g = host()
        rng = np.random.default_rng(8)
        for _ in range(10):
            fam = random_mixture(g, rng)
            pin_v, pin_b = "v1", 1
            if fam.vertex_mean(pin_v) < 1e-9:
                continue
            cond = fam.condition((pin_v,), (pin_b,))
            # oracle: zero the off-event entries of the explicit joint and renormalize
            joint = fam.local(g.vertices).copy()
            joint[:, 1 - pin_b] = 0.0
            joint /= joint.sum()
            assert np.array_equal(cond.local(g.vertices), joint)

    def test_zero_mass_union_rejected(self):
        # the pair table puts no mass on v0 = 1 although the singleton of v0 does
        g = host(2)
        locals_ = {
            ("v0",): np.array([0.5, 0.5]),
            ("v1",): np.array([0.5, 0.5]),
            ("v0", "v1"): np.array([[0.5, 0.5], [0.0, 0.0]]),
        }
        fam = LocalDistributionFamily(g, 3, locals_)
        with pytest.raises(ZeroProbabilityEvent):
            fam.condition(("v0",), (1,))

    def test_level_drops(self):
        g = host()
        fam = product_family(g, 0.5, level=4)
        cond = fam.condition(("v0",), (1,))
        assert cond.level == 3


class TestStatistics:
    @pytest.mark.xfail(
        strict=True,
        reason="CHANGES.md FOUND: pseudodist.compute_statistics degeneracy cut; a vertex "
        "pinned to 1 reads mean 0.9999999999999999 and stdev 1.05e-8, above the 1e-12 cut",
    )
    def test_pinned_vertex_is_degenerate(self):
        fam = random_mixture(host(4), np.random.default_rng(0), k=6).smooth(0.1, 0.5)
        stats = fam.condition(("v1",), (1,)).statistics()
        assert stats.degenerate[1]

    def test_correlation_extremes(self):
        g = host(2)
        plus = anti_pair_family(g).statistics()
        assert plus.corr[0, 1] == pytest.approx(1.0)
        minus = LocalDistributionFamily.from_distribution(
            [
                (Assignment({"v0": 0, "v1": 1}), 0.5),
                (Assignment({"v0": 1, "v1": 0}), 0.5),
            ],
            4,
            g,
        ).statistics()
        assert minus.corr[0, 1] == pytest.approx(-1.0)

    def test_degenerate_vertex_flagged(self):
        g = host(2)
        fam = LocalDistributionFamily.from_distribution(
            [(Assignment({"v0": 1, "v1": 0}), 0.5), (Assignment({"v0": 1, "v1": 1}), 0.5)],
            4,
            g,
        )
        stats = fam.statistics()
        assert stats.degenerate[0]
        assert stats.corr[0, 1] == pytest.approx(0.0)

    def test_product_family_avg_corr_zero(self):
        stats = product_family(host(), 0.4).statistics()
        assert stats.avg_abs_corr == pytest.approx(0.0, abs=1e-12)
        # diagonal-inclusive average picks up the unit self-correlations
        assert stats.avg_abs_corr_with_diag == pytest.approx(0.25, abs=1e-12)


class TestVectorSolution:
    def test_proposition_bullets_random_mixtures(self):
        g = host()
        rng = np.random.default_rng(9)
        for _ in range(20):
            fam = random_mixture(g, rng).smooth(0.05, 0.4)
            sol = vector_solution(fam)
            stats = fam.statistics()
            for i, v in enumerate(g.vertices):
                assert sol.mu[i] == pytest.approx(fam.vertex_mean(v), abs=1e-7)
                assert np.linalg.norm(sol.w[i]) == pytest.approx(stats.stdev[i], abs=1e-7)
                assert np.dot(sol.u[i], sol.u_empty) == pytest.approx(sol.mu[i], abs=1e-7)
            for i in range(4):
                for j in range(4):
                    pair_prob = fam.prob(
                        (g.vertices[i], g.vertices[j]), (1, 1)
                    ) if i != j else fam.vertex_mean(g.vertices[i])
                    assert np.dot(sol.u[i], sol.u[j]) == pytest.approx(pair_prob, abs=1e-7)
                    assert np.dot(sol.w[i], sol.w[j]) == pytest.approx(
                        stats.cov[i, j], abs=1e-7
                    )

    def test_product_family_orthogonal_fluctuations(self):
        fam = product_family(host(), 0.3)
        sol = vector_solution(fam)
        for i in range(4):
            assert np.dot(sol.w[i], sol.w[i]) == pytest.approx(0.3 * 0.7, abs=1e-7)
            for j in range(i + 1, 4):
                assert np.dot(sol.w[i], sol.w[j]) == pytest.approx(0.0, abs=1e-7)

    def test_anti_pair_inner_product(self):
        fam = anti_pair_family(host(2))
        sol = vector_solution(fam)
        assert np.dot(sol.w[0], sol.w[1]) == pytest.approx(0.25, abs=1e-7)

    def test_gram_reproduces_moment_matrix(self):
        g = host()
        fam = random_mixture(g, np.random.default_rng(10))
        sol = vector_solution(fam)
        _, m2 = moment_matrix(fam, order=2)
        gram = np.vstack([sol.u_empty, sol.u]) @ np.vstack([sol.u_empty, sol.u]).T
        assert np.abs(gram - m2).max() < 1e-7

    def test_indefinite_matrix_rejected(self):
        g = host(2)
        locals_ = {
            ("v0",): np.array([0.5, 0.5]),
            ("v1",): np.array([0.5, 0.5]),
            # "pair" table forcing an impossible second moment
            ("v0", "v1"): np.array([[0.0, 0.5], [0.5, 0.0]]),
        }
        fam = LocalDistributionFamily(g, 2, locals_)
        locals_bad = dict(locals_)
        locals_bad[("v0", "v1")] = np.array([[0.45, 0.0], [0.0, 0.55]])
        fam_bad = LocalDistributionFamily(g, 2, locals_bad)
        # E[X0 X1] = 0.55 > mu0 = 0.5 makes the moment matrix indefinite
        with pytest.raises(PSDFailureError):
            vector_solution(fam_bad)
        vector_solution(fam)  # the first family is fine

    def test_gram_rows_stable_under_roundoff(self):
        # a product family has one repeated eigenvalue per vertex, so eigh's
        # basis for it is arbitrary; the symmetric square root is unique and
        # moves only as far as the biases do
        g = host(6)
        base = np.full(6, 0.3)
        moved = base + 1e-13 * np.arange(1, 7)
        sols = [
            vector_solution(LocalDistributionFamily(g, 6, {tuple(g.vertices): product_measure(b)}))
            for b in (base, moved)
        ]
        assert sols[0].dimension == sols[1].dimension == 7
        assert np.abs(sols[0].u - sols[1].u).max() < 1e-10
        assert np.abs(sols[0].u_empty - sols[1].u_empty).max() < 1e-10


class TestFindConditioning:
    def test_product_family_returns_empty(self):
        res = find_conditioning(product_family(host(), 0.4), target=1e-6, budget=3)
        assert res.success and res.subset == []

    def test_anti_pair_single_step(self):
        g = host(3)
        fam = anti_pair_family(g, level=6)
        res = find_conditioning(fam, target=0.0, budget=1)
        assert res.success
        assert len(res.subset) == 1
        assert res.family.statistics().avg_abs_corr == pytest.approx(0.0, abs=1e-12)

    def test_budget_exhaustion_reports_failure(self):
        g = host(4)
        fam = anti_pair_family(g, level=6).smooth(0.01, 0.5)
        res = find_conditioning(fam, target=0.0, budget=0)
        assert not res.success
        assert res.family.statistics().avg_abs_corr > 0

    def test_pipeline_postcondition(self):
        # smoothing then successful conditioning drives the average below target
        g = host()
        rng = np.random.default_rng(11)
        hit = 0
        for _ in range(15):
            fam = random_mixture(g, rng)
            mu = fam.bias()
            if mu < 0.05 or mu > 0.95:
                continue
            gamma = 0.3
            sm = fam.smooth(gamma, mu)
            res = find_conditioning(sm, target=gamma ** 2, budget=6)
            if res.success:
                hit += 1
                assert res.family.statistics().avg_abs_corr <= gamma ** 2 + 1e-12
        assert hit > 0

    def test_reports_the_family_average(self):
        fam = random_mixture(host(), np.random.default_rng(15)).smooth(0.1, 0.5)
        for budget in (0, 2):
            res = find_conditioning(fam, target=0.0, budget=budget)
            assert res.avg_abs_corr == res.family.statistics().avg_abs_corr

    def test_no_zero_division_after_smoothing(self):
        g = host()
        fam = anti_pair_family(g).smooth(0.2, 0.5)
        res = find_conditioning(fam, target=0.01, budget=4)
        # all candidate events have positive probability after smoothing
        assert res.family is not None


class TestSerialization:
    def test_roundtrip(self):
        g = host()
        fam = random_mixture(g, np.random.default_rng(12))
        back = LocalDistributionFamily.from_json(fam.to_json(), g)
        for v in g.vertices:
            assert back.vertex_mean(v) == pytest.approx(fam.vertex_mean(v), abs=1e-12)
        assert verify_feasible(back).feasible

    def test_unsorted_local_is_transposed(self):
        # the subset lists v1 first: "10" is v1 = 1, v0 = 0
        g = host(2)
        obj = {"level": 2, "locals": [{"subset": ["v1", "v0"], "probs": {"10": 1.0}}]}
        fam = LocalDistributionFamily.from_json(obj, g)
        np.testing.assert_array_equal(fam.local(("v0",)), [1.0, 0.0])
        np.testing.assert_array_equal(fam.local(("v1",)), [0.0, 1.0])
        assert fam.prob(("v1", "v0"), (1, 0)) == 1.0

    def test_sorted_locals_load_as_given(self):
        g = host(4)
        fam = random_mixture(g, np.random.default_rng(16))
        joint = fam.local(tuple(g.vertices))
        back = LocalDistributionFamily.from_json(fam.to_json(), g)
        for item in fam.to_json()["locals"]:
            key = tuple(item["subset"])
            np.testing.assert_array_equal(back.local(key), fam.local(key))
        np.testing.assert_array_equal(LocalDistributionFamily(g, 8, {tuple(g.vertices): joint}).local(tuple(g.vertices)), joint)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 8), data=st.data())
    def test_source_matches_linear_scan(self, n, data):
        # the per-vertex index against the scan it replaced: the first stored
        # key, in insertion order, that covers the subset, or StructuralError
        g = host(n)
        subset = lambda mask: [v for i, v in enumerate(g.vertices) if mask >> i & 1]
        stored = map(subset, data.draw(st.lists(st.integers(1, 2 ** n - 1), min_size=1, max_size=12)))
        obj = {"level": n, "locals": [{"subset": s, "probs": {"0" * len(s): 1.0}} for s in stored]}
        fam = LocalDistributionFamily.from_json(obj, g)
        for mask in data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=8)):
            key = fam._key(subset(mask))
            scan = key if key in fam._tables else next((s for s in fam._tables if set(key) <= set(s)), None)
            if scan is None:
                with pytest.raises(StructuralError):
                    fam._source(key)
            else:
                assert fam._source(key) == scan

    def test_unknown_vertex_named(self):
        obj = {"level": 2, "locals": [{"subset": ["zz"], "probs": {"0": 1.0}}]}
        with pytest.raises(KeyError, match="unknown vertex zz"):
            LocalDistributionFamily.from_json(obj, host(2))

    def test_import_detects_bad_normalization(self):
        g = host(2)
        obj = {
            "level": 2,
            "locals": [
                {"subset": ["v0"], "probs": {"0": 0.6, "1": 0.6}},
                {"subset": ["v1"], "probs": {"0": 0.5, "1": 0.5}},
                {"subset": ["v0", "v1"], "probs": {"00": 0.5, "11": 0.5}},
            ],
        }
        fam = LocalDistributionFamily.from_json(obj, g)
        rep = verify_feasible(fam)
        assert not rep.feasible


class TestJointFastPath:
    """Moments read from a family's joint table against the same family
    re-imported through JSON, which stores one table per local."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 8),
        level=st.sampled_from([2, 4, 6]),
        k=st.integers(1, 6),
        transform=st.sampled_from(["raw", "smooth", "condition", "condition-after-import"]),
        pin=st.tuples(st.integers(0, 7), st.integers(0, 1)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_agrees_with_locals_path(self, n, level, k, transform, pin, seed):
        assume(not transform.startswith("condition") or level > 2)
        g = host(n)
        fam = random_mixture(g, np.random.default_rng(seed), k=k, level=level)
        if transform != "raw":
            fam = fam.smooth(0.2, 0.4)
        event = ((f"v{pin[0] % n}",), (pin[1],))
        if transform == "condition":
            fam = fam.condition(*event)
        back = LocalDistributionFamily.from_json(fam.to_json(), g)
        if transform == "condition-after-import":
            fam, back = fam.condition(*event), back.condition(*event)
        index_fast, m_fast = moment_matrix(fam)
        index_slow, m_slow = moment_matrix(back)
        assert index_fast == index_slow
        np.testing.assert_allclose(m_fast, m_slow, rtol=0.0, atol=1e-12)
        fast, slow = verify_feasible(fam), verify_feasible(back)
        assert fast.moment_size == slow.moment_size == len(index_fast)
        assert abs(fast.min_eigenvalue - slow.min_eigenvalue) <= 1e-12
        assert fast.feasible == slow.feasible

    def test_negative_joint_entry_is_infeasible(self):
        g = host(3)
        joint = np.full((2, 2, 2), 0.125)
        joint[0, 0, 0] = 0.3
        joint[1, 1, 1] = -0.05  # total stays 1
        rep = verify_feasible(LocalDistributionFamily(g, 2, {tuple(g.vertices): joint}))
        assert not rep.feasible
        assert {v[0] for v in rep.consistency_violations} == {"negative"}
        assert rep.consistency_violations[0][2] == pytest.approx(-0.05)

    def test_scattered_negative_mass_is_infeasible(self):
        # every entry is above -tol, but a marginal entry sums them below it
        g = host(3)
        joint = np.full((2, 2, 2), 0.25)
        joint[1] = -0.6e-9
        joint /= joint.sum()
        assert joint.min() > -1e-9
        rep = verify_feasible(LocalDistributionFamily(g, 2, {tuple(g.vertices): joint}))
        assert not rep.feasible
        assert {v[0] for v in rep.consistency_violations} == {"negative"}

    def test_unnormalized_joint_is_infeasible(self):
        g = host(3)
        joint = np.full((2, 2, 2), 1.01 / 8)
        rep = verify_feasible(LocalDistributionFamily(g, 2, {tuple(g.vertices): joint}))
        assert not rep.feasible
        assert {v[0] for v in rep.consistency_violations} == {"normalization"}
        assert rep.consistency_violations[0][2] == pytest.approx(1.01)

    def test_work_cap_refuses_before_allocating(self):
        # level 6 at n = 64: 43745 index subsets (size <= 3), 43745^2 > ORACLE_CAP
        g = host(64)
        locals_ = {(f"v{i}", f"v{(i + 1) % 64}"): np.full((2, 2), 0.25) for i in range(64)}
        fam = LocalDistributionFamily(g, 6, locals_)
        with traced_peak() as peak:
            with pytest.raises(ValueError, match="n=64, order 6: 43745 index subsets"):
                moment_matrix(fam)
            with pytest.raises(ValueError, match="work cap"):
                verify_feasible(fam)
        # the (|index|, |index|) gather alone would be 15 GB
        assert peak.bytes < 256 * 1024

    def test_dense_joint_at_n16_matches_closed_form(self):
        # uniform on 16 bits: every moment matrix entry is 2^-|a | b|
        g = host(16)
        fam = LocalDistributionFamily(g, 6, {tuple(g.vertices): np.full((2,) * 16, 2.0 ** -16)})
        index, m = moment_matrix(fam)
        assert len(index) == 697
        sizes = np.array([[len(set(a) | set(b)) for b in index] for a in index])
        np.testing.assert_allclose(m, 2.0 ** -sizes, rtol=1e-12, atol=0.0)
        rep = verify_feasible(fam)
        assert rep.feasible and rep.moment_size == 697

    def test_locals_disagreeing_on_one_moment_are_inconsistent(self):
        # the (v1, v2) table is a distribution that puts E[x_v1] 1e-6 above
        # the other tables' value and agrees with them on every other moment
        g = host(3)
        locals_ = {
            ("v0",): np.array([0.5, 0.5]),
            ("v1",): np.array([0.5, 0.5]),
            ("v2",): np.array([0.5, 0.5]),
            ("v0", "v1"): np.array([[0.25, 0.25], [0.25, 0.25]]),
            ("v1", "v2"): np.array([[0.25 - 1e-6, 0.25], [0.25 + 1e-6, 0.25]]),
            ("v0", "v2"): np.array([[0.25, 0.25], [0.25, 0.25]]),
        }
        rep = verify_feasible(LocalDistributionFamily(g, 2, locals_))
        assert not rep.feasible
        assert {v[0] for v in rep.consistency_violations} == {"marginal"}
        assert [v[1] for v in rep.consistency_violations] == [("v1",)]
        assert rep.consistency_violations[0][2] == pytest.approx(1e-6)

    def test_uncovered_union_is_missing_local(self):
        # a path v0 - v1 - v2: the moment matrix reads y of {v0, v2}, which
        # no stored table holds
        path = ConstraintHypergraph(
            {f"v{i}": 1.0 / 3 for i in range(3)},
            [(("v0", "v1"), 0.5), (("v1", "v2"), 0.5)],
            Predicate.xor(2),
        )
        locals_ = {(f"v{i}",): np.array([0.5, 0.5]) for i in range(3)}
        locals_.update({("v0", "v1"): np.full((2, 2), 0.25), ("v1", "v2"): np.full((2, 2), 0.25)})
        fam = LocalDistributionFamily(path, 2, locals_)
        rep = verify_feasible(fam)
        assert not rep.feasible
        assert [v[:2] for v in rep.consistency_violations] == [("missing-local", ("v0", "v2"))]
        # the rows of v0 and v2 are left out: [[1, 1/2], [1/2, 1/2]] remains
        assert rep.min_eigenvalue == pytest.approx((1.5 - math.sqrt(1.25)) / 2, abs=1e-12)
        with pytest.raises(StructuralError, match="v0.*v2"):
            moment_matrix(fam)

    def test_scattered_negative_mass_in_a_local_is_infeasible(self):
        # each entry of the pair table is above -tol; their sum is not
        g = host(2)
        pair = np.array([[0.5 + 1.2e-9, -0.6e-9], [-0.6e-9, 0.5]])
        locals_ = {("v0",): pair.sum(axis=1), ("v1",): pair.sum(axis=0), ("v0", "v1"): pair}
        assert pair.min() > -1e-9 and abs(pair.sum() - 1.0) < 1e-15
        rep = verify_feasible(LocalDistributionFamily(g, 2, locals_))
        assert not rep.feasible
        assert {v[0] for v in rep.consistency_violations} == {"negative"}
        assert rep.consistency_violations[0][1] == ("v0", "v1")

    def test_moments_of_an_n20_joint_stay_within_a_few_joints(self):
        n = 20
        joint = np.random.default_rng(0).dirichlet(np.ones(2 ** n))
        g = host(n)
        fam = LocalDistributionFamily(g, 6, {tuple(g.vertices): joint})
        with traced_peak() as peak:
            masks, y = _moments(fam, 6)
        assert masks.size == sum(math.comb(n, k) for k in range(7))
        assert peak.bytes < 6 * joint.nbytes
        # y_S = P[x_v = 1 for v in S]; vertex 0 is the most significant bit
        t = joint.reshape((2,) * n)
        for subset in ((0,), (0, 1), (1, 2, 19), (0, 3, 4, 10, 18, 19)):
            mask = sum(1 << (n - 1 - v) for v in subset)
            want = t[tuple(1 if v in subset else slice(None) for v in range(n))].sum()
            assert y[np.searchsorted(masks, mask)] == pytest.approx(want, rel=1e-12)
