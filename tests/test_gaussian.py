"""CDF facts, correlated sampling, joint-orthant stability, Hermite utilities."""
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
    hermite_1d,
    hermite_eval,
    lambda_bound_check,
    lambda_estimate,
    normal_cdf,
    normal_quantile,
    sample_correlated,
)
from biascsp.harness.rng import rng_for


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


class TestCorrelatedSampler:
    def test_independent_copies(self):
        sampler = CorrelatedSampler(1, 0.0, 2)
        _, h = sampler.sample(rng_for(0, "t-ind"), 200000)
        corr = np.corrcoef(h[0, :, 0], h[1, :, 0])[0, 1]
        assert abs(corr) < 3 / math.sqrt(200000)

    def test_identical_copies(self):
        sampler = CorrelatedSampler(3, 1.0, 3)
        g, h = sampler.sample(rng_for(0, "t-one"), 100)
        for i in range(3):
            np.testing.assert_allclose(h[i], g, atol=1e-12)

    def test_sharing_structure(self):
        n = 400000
        sampler = CorrelatedSampler(1, 0.6, 2)
        g, h = sampler.sample(rng_for(0, "t-share"), n)
        se = 3 / math.sqrt(n)
        assert np.corrcoef(g[:, 0], h[0, :, 0])[0, 1] == pytest.approx(0.6, abs=se)
        assert np.corrcoef(h[0, :, 0], h[1, :, 0])[0, 1] == pytest.approx(0.36, abs=2 * se)

    def test_marginals_standard(self):
        sampler = CorrelatedSampler(2, 0.8, 2)
        _, h = sampler.sample(rng_for(0, "t-marg"), 200000)
        assert h[0].mean() == pytest.approx(0.0, abs=0.01)
        assert h[0].std() == pytest.approx(1.0, abs=0.01)

    def test_single_tuple_shape(self):
        got = sample_correlated(CorrelatedSampler(5, 0.3, 4), rng_for(0, "t-shape"))
        assert got.shape == (4, 5)


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
        assert rep.notes


class TestBorell:
    def test_halfspace_fixed_point(self):
        masses = (0.35, 0.6)
        fns = [halfspace([1.0, 0.0], normal_quantile(m)) for m in masses]
        rep = borell_check(fns, 2, 0.5, 400000, 13)
        assert rep.holds
        # rearranged halfspaces achieve the bound with equality
        assert rep.joint.value == pytest.approx(rep.stability_bound.value, abs=3 * rep.sigma_total)

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


class TestHermite:
    def test_low_degrees(self):
        x = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(hermite_1d(0, x), np.ones_like(x))
        np.testing.assert_allclose(hermite_1d(1, x), x)
        np.testing.assert_allclose(hermite_1d(2, x), (x ** 2 - 1) / math.sqrt(2))

    def test_orthonormality_monte_carlo(self):
        rng = rng_for(17, "hermite")
        g = rng.standard_normal(400000)
        for k in range(4):
            vals = hermite_1d(k, g)
            second = vals ** 2
            se = 3 * second.std() / math.sqrt(len(g))
            assert second.mean() == pytest.approx(1.0, abs=se)
        cross = hermite_1d(1, g) * hermite_1d(3, g)
        assert cross.mean() == pytest.approx(0.0, abs=3 * cross.std() / math.sqrt(len(g)))

    def test_product_basis(self):
        pts = np.array([[0.5, -1.0], [2.0, 0.3]])
        expect = hermite_1d(2, pts[:, 0]) * hermite_1d(1, pts[:, 1])
        np.testing.assert_allclose(hermite_eval((2, 1), pts), expect)

    def test_noise_action_on_low_degree(self):
        # E[f(h) * basis(g)] = rho^{degree} * coefficient, f of degree <= 3
        rho = 0.6
        rng = rng_for(18, "hermite-noise")
        n = 600000
        g = rng.standard_normal(n)
        h = rho * g + math.sqrt(1 - rho ** 2) * rng.standard_normal(n)
        coeffs = {0: 0.5, 1: -0.8, 2: 0.3, 3: 0.2}
        f = sum(c * hermite_1d(k, h) for k, c in coeffs.items())
        for k, c in coeffs.items():
            prod = f * hermite_1d(k, g)
            se = 3 * prod.std() / math.sqrt(n)
            assert prod.mean() == pytest.approx(rho ** k * c, abs=se)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            hermite_1d(9, 0.0)
        with pytest.raises(ValueError):
            hermite_eval((5, 4), np.zeros((1, 2)))
