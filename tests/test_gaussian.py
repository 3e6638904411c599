"""Quantile facts, correlated sampling, joint-orthant stability."""
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from biascsp.gaussian import (
    CorrelatedSampler,
    borell_check,
    box,
    constant,
    halfspace,
    lambda_bound_check,
    lambda_estimate,
    normal_quantile,
)
from biascsp.harness.mc import CHUNK, mc_run
from biascsp.harness.rng import rng_for
from conftest import cpus


class TestCdfQuantile:
    def test_symmetry_points(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-10)

    def test_standard_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_against_scipy(self):
        for d in (1e-8, 1e-4, 0.3, 0.5, 0.9, 1 - 1e-8):
            assert normal_quantile(d) == pytest.approx(
                float(scipy.special.ndtri(d)), abs=1e-8
            )

    def test_roundtrip_tolerance(self):
        for d in (1e-9, 1e-6, 1e-3, 0.2, 0.5, 0.77, 1 - 1e-6):
            assert abs(scipy.special.ndtr(normal_quantile(d)) - d) <= 1e-10

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)

    def test_small_mass_sandwich(self):
        # |quantile(d)| within (1 +- 0.1) sqrt(2 ln(1/d)) for small d
        eps = 0.1
        for d in (1e-6, 1e-8, 1e-10):
            q = abs(normal_quantile(d))
            ref = math.sqrt(2 * math.log(1 / d))
            assert (1 - eps) * ref <= q <= (1 + eps) * ref

    def test_shifted_cdf_doubling(self):
        for d in (1e-3, 1e-4, 1e-5):
            t = normal_quantile(d)
            delta = 1.0 / math.sqrt(4 * math.log(1 / d))
            assert scipy.special.ndtr(t + delta) <= 2 * d


def copies(sampler, rng, n):
    """Every copy ``product`` draws, stacked: (r, n, R).  The functions
    record their copies and return ones, so every row draws every copy."""
    seen = []

    def record(h):
        seen.append(h.copy())
        return np.ones(len(h))

    assert np.array_equal(sampler.product(rng, n, [record] * sampler.copies), np.ones(n))
    return np.stack(seen)


class TestCorrelatedSampler:
    def test_independent_copies(self):
        h = copies(CorrelatedSampler(1, 0.0, 3), rng_for(0, "t-ind"), 200000)
        corr = np.corrcoef(h[:, :, 0])
        assert np.abs(corr[np.triu_indices(3, 1)]).max() < 3 / math.sqrt(200000)

    def test_identical_copies(self):
        h_1 = rng_for(0, "t-one").standard_normal((100, 3))  # the first copy, drawn first
        for rho in (1.0, -1.0):
            h = copies(CorrelatedSampler(3, rho, 3), rng_for(0, "t-one"), 100)
            assert np.array_equal(h[0], h_1)
            for i in range(1, 3):
                assert np.array_equal(h[i], h[0])

    def test_sharing_structure(self):
        # pairwise correlation rho^2: the first copy with a later one, and two later copies
        n = 400000
        for rho in (0.6, -0.6):
            h = copies(CorrelatedSampler(1, rho, 3), rng_for(0, "t-share"), n)
            corr = np.corrcoef(h[:, :, 0])
            for i, j in ((0, 1), (0, 2), (1, 2)):
                assert corr[i, j] == pytest.approx(0.36, abs=6 / math.sqrt(n))

    def test_marginals_standard(self):
        h = copies(CorrelatedSampler(2, 0.8, 3), rng_for(0, "t-marg"), 200000)
        for copy in h:
            assert copy.mean() == pytest.approx(0.0, abs=0.01)
            assert copy.std() == pytest.approx(1.0, abs=0.01)

    def test_single_tuple_shape(self):
        h = copies(CorrelatedSampler(5, 0.3, 4), rng_for(0, "t-shape"), 1)
        assert h.shape == (4, 1, 5)

    @pytest.mark.parametrize("dim, rho, r", [(1, 0.5, 3), (4, -0.3, 2), (2, 1.0, 2), (3, 0.0, 1), (2, -1.0, 3), (3, 0.7, 4)])
    def test_product_matches_the_reference_draw_order(self, dim, rho, r):
        sampler = CorrelatedSampler(dim, rho, r)
        # halfspaces and a [0, 1]-valued ramp, so rows die at each copy
        fns = [halfspace(np.linspace(1.0, -0.5, dim), 0.3), ramp(dim), halfspace(np.ones(dim), 0.5), ramp(dim)][:r]
        got = sampler.product(rng_for(1, "t-order"), 1001, fns)
        assert np.array_equal(got, reference_product(sampler, rng_for(1, "t-order"), 1001, fns))

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_no_function_sees_a_row_an_earlier_one_zeroed(self, rho):
        # at |rho| = 1 every copy is h_1 exactly, so a row's first coordinate names it
        windows = [(-math.inf, 1.0), (-1.0, math.inf), (-math.inf, 0.5)]
        handed = []

        def window(k):
            def f(h):
                x = h[:, 0]
                for lo, hi in windows[:k]:
                    if ((x < lo) | (x > hi)).any():
                        raise AssertionError(f"copy {k + 1} was handed a row an earlier copy zeroed")
                handed.append(len(x))
                lo, hi = windows[k]
                return ((lo <= x) & (x <= hi)).astype(float)

            return f

        n = 5000
        got = CorrelatedSampler(2, rho, 3).product(rng_for(2, "t-strict"), n, [window(k) for k in range(3)])
        x = rng_for(2, "t-strict").standard_normal((n, 2))[:, 0]
        assert handed == [n, np.count_nonzero(x <= 1.0), np.count_nonzero((-1.0 <= x) & (x <= 1.0))]
        assert np.array_equal(got, ((-1.0 <= x) & (x <= 0.5)).astype(float))

    @pytest.mark.parametrize("count", [2, 4])
    def test_one_function_per_copy(self, count):
        sampler = CorrelatedSampler(2, 0.5, 3)
        with pytest.raises(ValueError, match="one function per copy"):
            sampler.product(rng_for(0, "t-count"), 10, [constant(0.5)] * count)

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.floats(-1.0, 1.0),
        dim=st.integers(1, 3),
        n=st.integers(1, 300),
        seed=st.integers(0, 2 ** 16),
        cuts=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    )
    def test_product_is_a_mass_zero_where_the_first_function_is(self, rho, dim, n, seed, cuts):
        first = []

        def clipped(cut):
            def f(h):
                v = np.clip(0.5 + h[:, 0] - cut, 0.0, 1.0)
                if not first:
                    first.append(v.copy())
                return v

            return f

        got = CorrelatedSampler(dim, rho, len(cuts)).product(rng_for(seed, "t-mass"), n, [clipped(c) for c in cuts])
        assert got.shape == (n,)
        assert ((0.0 <= got) & (got <= 1.0)).all()
        assert (got[first[0] == 0.0] == 0.0).all()


def ramp(dim):
    """A [0, 1]-valued function that is 0 on about a third of the plane."""
    w = np.linspace(0.5, 1.0, dim)
    return lambda pts: np.clip(pts @ w + 0.5, 0.0, 1.0)


# ---- test-side references: the kernel's draw order, and the law it must keep ----


def reference_product(sampler, rng, n, fns):
    """``CorrelatedSampler.product`` written plainly: h_1 on every row, then
    xi (for rho*g given h_1) and each later zeta on the rows whose product is
    still nonzero, each drawn as a fresh array."""
    rho, s = sampler.rho, math.sqrt(1.0 - sampler.rho * sampler.rho)
    h_1 = rng.standard_normal((n, sampler.dimension))
    product = np.array(fns[0](h_1), dtype=float)
    rho_g = None
    for f in fns[1:]:
        rows = np.flatnonzero(product)
        if not rows.size:
            break
        if rho_g is None:
            rho_g = np.empty_like(h_1)
            rho_g[rows] = rho * rho * h_1[rows] + rho * s * rng.standard_normal((rows.size, sampler.dimension))
        h = s * rng.standard_normal((rows.size, sampler.dimension)) + rho_g[rows]
        product[rows] = product[rows] * f(h)
    return product


def reference_orthant(rho, deltas, samples, seed, tag):
    thresholds = sorted(normal_quantile(d) for d in deltas)
    sampler = CorrelatedSampler(1, rho, len(deltas))
    below = [lambda h, t=t: h[:, 0] <= t for t in thresholds]
    return mc_run(lambda rng, n: reference_product(sampler, rng, n, below), samples, seed, tag=tag)


def reference_borell(functions, dimension, rho, samples, seed):
    """The joint, mean and stability runs of borell_check; the joint takes
    the functions in ascending order of their estimated means."""
    sampler = CorrelatedSampler(dimension, rho, len(functions))
    means = [
        mc_run(lambda rng, n, f=f: f(rng.standard_normal((n, dimension))), samples, seed, tag=f"borell-mean-{i}")
        for i, f in enumerate(functions)
    ]
    ordered = [f for _, f in sorted(zip([m.value for m in means], functions), key=lambda t: t[0])]
    joint = mc_run(lambda rng, n: reference_product(sampler, rng, n, ordered), samples, seed, tag="borell-joint")
    clipped = [min(max(m.value, 1e-9), 1.0 - 1e-9) for m in means]
    return joint, means, reference_orthant(rho, clipped, samples, seed, "borell-lambda")


def shared_source(sampler, rng, n):
    """The shared-source construction itself: g (n, R), then all r copies
    h_i = rho*g + sqrt(1 - rho^2)*zeta_i at once, (r, n, R)."""
    g = rng.standard_normal((n, sampler.dimension))
    h = rng.standard_normal((sampler.copies, n, sampler.dimension))
    h *= math.sqrt(1.0 - sampler.rho * sampler.rho)
    h += sampler.rho * g
    return g, h


def within_4_sigma(a, b):
    return abs(a.value - b.value) <= 4.0 * math.hypot(a.stderr, b.stderr)


class TestSharedSourceLaw:
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.9, 1.0])
    def test_lambda_and_joint_agree_with_the_shared_source(self, rho, r):
        samples, seed = 60000, 30 + r
        deltas = (0.55, 0.3, 0.7, 0.45, 0.6)[:r]
        thresholds = np.array([normal_quantile(d) for d in deltas])[:, None]
        orthant = CorrelatedSampler(1, rho, r)
        ref = mc_run(lambda rng, n: (shared_source(orthant, rng, n)[1][:, :, 0] <= thresholds).all(axis=0),
                     samples, seed, tag="law-lambda")
        assert within_4_sigma(lambda_estimate(rho, deltas, samples, seed), ref)

        fns = [halfspace([1.0, -0.5], 0.4), ramp(2), box([-1.5, -1.0], [1.0, 2.0]), halfspace([0.2, 1.0], 0.8),
               ramp(2)][:r]
        sampler = CorrelatedSampler(2, rho, r)
        ref = mc_run(lambda rng, n: np.prod([f(h) for f, h in zip(fns, shared_source(sampler, rng, n)[1])], axis=0),
                     samples, seed, tag="law-joint")
        assert within_4_sigma(borell_check(fns, 2, rho, samples, seed).joint, ref)


# a partial last chunk, on three threads whatever the host has
PARTIAL = 2 * CHUNK + 1234


@pytest.fixture
def three_cpus(monkeypatch):
    cpus(monkeypatch, 3)


def orthant_oracle(rho, a, b):
    """Bivariate normal lower-orthant mass by scipy quadrature."""
    cov = np.array([[1.0, rho], [rho, 1.0]])
    return float(scipy.stats.multivariate_normal(mean=[0, 0], cov=cov).cdf([a, b]))


class TestLambda:
    def test_independent_product(self):
        deltas = (0.3, 0.6, 0.2)
        est = lambda_estimate(0.0, deltas, 400000, 5)
        assert est.value == pytest.approx(math.prod(deltas), abs=3 * est.stderr)

    def test_fully_coupled_min(self):
        est = lambda_estimate(1.0, (0.4, 0.4), 400000, 6)
        assert est.value == pytest.approx(0.4, abs=3 * est.stderr)

    def test_half_coupling_orthant_value(self):
        # copies share correlation rho^2 = 0.25; closed-form orthant oracle
        expected = 0.25 + math.asin(0.25) / (2 * math.pi)
        assert expected == pytest.approx(0.29022, abs=1e-5)
        assert orthant_oracle(0.25, 0.0, 0.0) == pytest.approx(expected, abs=1e-9)
        est = lambda_estimate(0.5, (0.5, 0.5), 10 ** 6, 7)
        assert est.value == pytest.approx(expected, abs=3 * est.stderr)

    def test_monotone_in_masses(self):
        grid = [0.1, 0.3, 0.5]
        vals = [lambda_estimate(0.5, (d, 0.4), 300000, 8).value for d in grid]
        se = 3 * lambda_estimate(0.5, (0.5, 0.4), 300000, 8).stderr
        assert vals[0] <= vals[1] + se and vals[1] <= vals[2] + se

    def test_reproducible(self):
        a = lambda_estimate(0.4, (0.3, 0.3), 100000, 9)
        b = lambda_estimate(0.4, (0.3, 0.3), 100000, 9)
        assert a.value == b.value

    @pytest.mark.parametrize("rho, deltas", [(0.5, (0.3, 0.55, 0.6)), (-0.2, (0.1, 0.9))])
    def test_matches_stacked_estimator(self, three_cpus, rho, deltas):
        # the reference of the draw order, serial and drawing fresh arrays
        est = lambda_estimate(rho, deltas, PARTIAL, 18)
        ref = reference_orthant(rho, deltas, PARTIAL, 18, "lambda")
        assert (est.value, est.stderr, est.threads) == (ref.value, ref.stderr, 3)


class TestLambdaBound:
    def test_zero_coupling_trivial(self):
        rep = lambda_bound_check(0.0, (0.01, 0.01), 2 * 10 ** 6, 10)
        assert rep.applicable and rep.holds

    def test_small_coupling_bound(self):
        rho = 1.0 / (16 * math.log(100))
        rep = lambda_bound_check(rho, (0.01, 0.01), 2 * 10 ** 6, 11)
        assert rep.applicable
        assert rep.holds

    def test_precondition_failure_flagged(self):
        rep = lambda_bound_check(0.9, (0.01, 0.01), 10 ** 5, 12)
        assert not rep.applicable
        assert rep.holds is None
        assert rep.status == "not-applicable"


class TestBorell:
    def test_halfspace_fixed_point(self):
        masses = (0.35, 0.6)
        fns = [halfspace([1.0, 0.0], normal_quantile(m)) for m in masses]
        rep = borell_check(fns, 2, 0.5, 400000, 13)
        assert rep.holds
        # rearranged halfspaces achieve the bound with equality
        assert rep.joint.value == pytest.approx(rep.stability_bound.value, abs=3 * rep.stderr)

    def test_random_boxes(self):
        rng = rng_for(14, "boxes")
        for _ in range(3):
            lo = rng.uniform(-2, 0, size=2)
            hi = lo + rng.uniform(0.5, 2.5, size=2)
            fns = [box(lo, hi), box(lo - 0.3, hi + 0.1)]
            rep = borell_check(fns, 2, 0.5, 300000, 15)
            assert rep.holds

    def test_box_matches_the_whole_array_indicator(self):
        lo, hi = np.array([-1.0, -0.5, 0.0]), np.array([1.0, 2.0, 0.5])
        pts = rng_for(20, "t-box").standard_normal((2000, 3))
        pts[:3], pts[3:6], pts[6, 1] = lo, hi, np.nan  # both faces count inside; NaN does not
        ref = np.logical_and(pts >= lo, pts <= hi).all(axis=-1).astype(float)
        assert np.array_equal(box(lo, hi)(pts), ref)
        assert np.array_equal(box(-0.5, 0.5)(pts.reshape(40, 50, 3)),
                              (np.abs(pts) <= 0.5).all(axis=-1).astype(float).reshape(40, 50))

    def test_constants_dominated(self):
        fns = [constant(0.3), constant(0.7)]
        rep = borell_check(fns, 2, 0.6, 300000, 16)
        assert rep.joint.value == pytest.approx(0.21, abs=3 * rep.joint.stderr + 1e-9)
        assert rep.holds

    def test_matches_stacked_estimators(self, three_cpus):
        fns = [halfspace([1.0, -0.3, 0.2], 0.1), box([-1.0] * 3, [1.0, 0.5, 2.0]), constant(0.7)]
        rep = borell_check(fns, 3, 0.4, PARTIAL, 19)
        joint, means, lam = reference_borell(fns, 3, 0.4, PARTIAL, 19)
        assert (rep.joint.value, rep.joint.stderr) == (joint.value, joint.stderr)
        assert (rep.means, rep.mean_stderrs) == ([m.value for m in means], [m.stderr for m in means])
        assert (rep.stability_bound.value, rep.stability_bound.stderr) == (lam.value, lam.stderr)
        assert {rep.joint.threads, rep.stability_bound.threads} == {3}

    def test_stability_has_its_own_stream(self):
        # the stability term must not be the seed+1 lambda estimate
        fns = [halfspace([1.0, -0.5], 0.2), box([-1.0, -1.0], [1.0, 0.5])]
        samples, seed = 50000, 17
        rep = borell_check(fns, 2, 0.5, samples, seed)
        clipped = [min(max(m, 1e-9), 1.0 - 1e-9) for m in rep.means]
        reused = lambda_estimate(0.5, clipped, samples, seed + 1)
        assert rep.stability_bound.value != reused.value
        assert rep.stability_bound.tag == "borell-lambda"
        assert rep.joint.tag == "borell-joint"

