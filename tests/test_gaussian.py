"""CDF facts, correlated sampling, joint-orthant stability."""
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from biascsp.gaussian import (
    CorrelatedSampler,
    borell_check,
    box,
    constant,
    halfspace,
    lambda_bound_check,
    lambda_estimate,
    normal_cdf,
    normal_quantile,
)
from biascsp.harness.mc import CHUNK, mc_run
from biascsp.harness.rng import rng_for
from conftest import cpus


class TestCdfQuantile:
    def test_symmetry_points(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-10)

    def test_standard_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_against_scipy(self):
        for t in np.linspace(-8, 8, 33):
            assert normal_cdf(t) == pytest.approx(scipy.stats.norm.cdf(t), abs=1e-12)
        for d in (1e-8, 1e-4, 0.3, 0.5, 0.9, 1 - 1e-8):
            assert normal_quantile(d) == pytest.approx(
                float(scipy.special.ndtri(d)), abs=1e-8
            )

    def test_roundtrip_tolerance(self):
        for d in (1e-9, 1e-6, 1e-3, 0.2, 0.5, 0.77, 1 - 1e-6):
            assert abs(normal_cdf(normal_quantile(d)) - d) <= 1e-10

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
            assert normal_cdf(t + delta) <= 2 * d


def copies(sampler, rng, n):
    """Every copy each_copy yields, stacked: (r, n, R)."""
    return np.stack([h.copy() for h in sampler.each_copy(rng, n)])


class TestCorrelatedSampler:
    def test_independent_copies(self):
        h = copies(CorrelatedSampler(1, 0.0, 2), rng_for(0, "t-ind"), 200000)
        corr = np.corrcoef(h[0, :, 0], h[1, :, 0])[0, 1]
        assert abs(corr) < 3 / math.sqrt(200000)

    def test_identical_copies(self):
        h = copies(CorrelatedSampler(3, 1.0, 3), rng_for(0, "t-one"), 100)
        g = rng_for(0, "t-one").standard_normal((100, 3))  # the shared source, drawn first
        for i in range(3):
            np.testing.assert_allclose(h[i], g, atol=1e-12)

    def test_sharing_structure(self):
        n = 400000
        h = copies(CorrelatedSampler(1, 0.6, 2), rng_for(0, "t-share"), n)
        g = rng_for(0, "t-share").standard_normal((n, 1))
        se = 3 / math.sqrt(n)
        assert np.corrcoef(g[:, 0], h[0, :, 0])[0, 1] == pytest.approx(0.6, abs=se)
        assert np.corrcoef(h[0, :, 0], h[1, :, 0])[0, 1] == pytest.approx(0.36, abs=2 * se)

    def test_marginals_standard(self):
        h = copies(CorrelatedSampler(2, 0.8, 2), rng_for(0, "t-marg"), 200000)
        assert h[0].mean() == pytest.approx(0.0, abs=0.01)
        assert h[0].std() == pytest.approx(1.0, abs=0.01)

    def test_single_tuple_shape(self):
        h = copies(CorrelatedSampler(5, 0.3, 4), rng_for(0, "t-shape"), 1)
        assert h.shape == (4, 1, 5)

    @pytest.mark.parametrize("dim, rho, r", [(1, 0.5, 3), (4, -0.3, 2), (2, 1.0, 2), (3, 0.0, 1)])
    def test_sample_and_each_copy_match_the_stacked_draw(self, dim, rho, r):
        sampler = CorrelatedSampler(dim, rho, r)
        _, h_ref = stacked_sample(sampler, rng_for(1, "t-stack"), 1001)
        assert np.array_equal(copies(sampler, rng_for(1, "t-stack"), 1001), h_ref)


# ---- the stacked estimators the streaming ones replaced, kept as references ----


def stacked_sample(sampler, rng, n):
    """g (n, R), then all r copies at once, (r, n, R)."""
    g = rng.standard_normal((n, sampler.dimension))
    h = rng.standard_normal((sampler.copies, n, sampler.dimension))
    h *= math.sqrt(1.0 - sampler.rho * sampler.rho)
    h += sampler.rho * g
    return g, h


def stacked_orthant(rho, deltas, samples, seed, tag):
    thresholds = np.array([normal_quantile(d) for d in deltas])[:, None]
    sampler = CorrelatedSampler(1, rho, len(deltas))

    def below(rng, n):
        _, h = stacked_sample(sampler, rng, n)
        return (h[:, :, 0] <= thresholds).all(axis=0)

    return mc_run(below, samples, seed, tag=tag)


def stacked_borell(functions, dimension, rho, samples, seed):
    """The joint, mean and stability runs of borell_check."""
    sampler = CorrelatedSampler(dimension, rho, len(functions))

    def joint_product(rng, n):
        _, h = stacked_sample(sampler, rng, n)
        return np.prod([np.asarray(f(h[i])) for i, f in enumerate(functions)], axis=0)

    joint = mc_run(joint_product, samples, seed, tag="borell-joint")
    means = [
        mc_run(lambda rng, n, f=f: f(rng.standard_normal((n, dimension))), samples, seed, tag=f"borell-mean-{i}")
        for i, f in enumerate(functions)
    ]
    clipped = [min(max(m.value, 1e-9), 1.0 - 1e-9) for m in means]
    return joint, means, stacked_orthant(rho, clipped, samples, seed, "borell-lambda")


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
        est = lambda_estimate(rho, deltas, PARTIAL, 18)
        ref = stacked_orthant(rho, deltas, PARTIAL, 18, "lambda")
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

    def test_constants_dominated(self):
        fns = [constant(0.3), constant(0.7)]
        rep = borell_check(fns, 2, 0.6, 300000, 16)
        assert rep.joint.value == pytest.approx(0.21, abs=3 * rep.joint.stderr + 1e-9)
        assert rep.holds

    def test_matches_stacked_estimators(self, three_cpus):
        fns = [halfspace([1.0, -0.3, 0.2], 0.1), box([-1.0] * 3, [1.0, 0.5, 2.0]), constant(0.7)]
        rep = borell_check(fns, 3, 0.4, PARTIAL, 19)
        joint, means, lam = stacked_borell(fns, 3, 0.4, PARTIAL, 19)
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

