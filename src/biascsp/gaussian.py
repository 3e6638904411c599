"""Correlated Gaussian sampling, joint-orthant stability estimation, and
Hermite utilities.

All Monte Carlo assertions in this module use 3-sigma normal-approximation
bands, and every report records its seed and sample count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harness.mc import McRun, mc_run

_SQRT2 = math.sqrt(2.0)


def normal_cdf(t: float) -> float:
    """Standard normal CDF via erfc; absolute error well under 1e-12."""
    return 0.5 * math.erfc(-float(t) / _SQRT2)


def normal_pdf(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def normal_quantile(delta: float) -> float:
    """Inverse CDF by bisection, finished with one Newton step.

    Accurate to |cdf(result) - delta| <= 1e-10 on (0,1).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("quantile defined on (0,1)")
    lo, hi = -40.0, 40.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < delta:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    t = 0.5 * (lo + hi)
    pdf = normal_pdf(t)
    if pdf > 0.0:
        t -= (normal_cdf(t) - delta) / pdf
    return t


@dataclass(frozen=True)
class CorrelatedSampler:
    """Shared-source construction: copies h_i = rho*g + sqrt(1-rho^2)*zeta_i.

    Each copy is marginally standard normal in every coordinate; distinct
    copies have pairwise coordinate correlation rho^2 (through the shared g).
    """

    dimension: int
    rho: float
    copies: int

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1,1]")
        if self.dimension < 1 or self.copies < 1:
            raise ValueError("dimension and copies must be >= 1")

    def sample(self, rng: np.random.Generator, n: int = 1):
        """Draw n tuples; returns (g, copies) with shapes (n, R), (r, n, R)."""
        r, R, rho = self.copies, self.dimension, self.rho
        g = rng.standard_normal((n, R))
        h = rng.standard_normal((r, n, R))
        h *= math.sqrt(1.0 - rho * rho)
        h += rho * g
        return g, h


def sample_correlated(sampler: CorrelatedSampler, rng: np.random.Generator):
    """One tuple of correlated copies, shape (copies, dimension)."""
    _, h = sampler.sample(rng, 1)
    return h[:, 0, :]


def _orthant_run(rho: float, deltas, samples: int, seed: int, tag: str) -> McRun:
    """Pr[forall i: h_i <= quantile(delta_i)] over shared-source copies."""
    thresholds = np.array([normal_quantile(d) for d in deltas])[:, None]
    sampler = CorrelatedSampler(1, rho, len(deltas))

    def below(rng, n):
        _, h = sampler.sample(rng, n)  # (r, n, 1)
        return (h[:, :, 0] <= thresholds).all(axis=0)

    return mc_run(below, samples, seed, tag=tag)


def lambda_estimate(rho: float, deltas, samples: int, seed: int) -> McRun:
    """Monte Carlo estimate of the joint lower-orthant probability of the
    shared-source correlated copies: Pr[forall i: g_i <= quantile(delta_i)]."""
    deltas = [float(d) for d in deltas]
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise ValueError("deltas must lie in (0,1)")
    return _orthant_run(rho, deltas, samples, seed, "lambda")


@dataclass
class BoundCheckReport:
    applicable: bool
    holds: bool | None
    estimate: McRun
    bound: float
    preconditions: dict
    notes: list[str] = field(default_factory=list)


def lambda_bound_check(
    rho: float,
    deltas,
    samples: int,
    seed: int,
    delta0: float = 1e-2,
) -> BoundCheckReport:
    """Check the small-correlation product bound on joint orthant mass.

    Applies only when every delta_i <= delta0 and
    rho <= 1/(4 r^2 ln(1/min delta)); otherwise the report is informational.
    When applicable, asserts estimate <= 2^r * prod(deltas) + 3*stderr.
    """
    deltas = [float(d) for d in deltas]
    r = len(deltas)
    d_star = min(deltas)
    rho_cap = 1.0 / (4.0 * r * r * math.log(1.0 / d_star)) if d_star < 1.0 else float("inf")
    pre = {
        "deltas_small": all(d <= delta0 for d in deltas),
        "rho_small": rho <= rho_cap,
        "rho_cap": rho_cap,
        "delta0": delta0,
    }
    est = lambda_estimate(rho, deltas, samples, seed)
    bound = (2.0 ** r) * math.prod(deltas)
    applicable = pre["deltas_small"] and pre["rho_small"]
    holds = est.value <= bound + 3.0 * est.stderr if applicable else None
    notes = [] if applicable else ["preconditions not met; bound not asserted"]
    return BoundCheckReport(applicable, holds, est, bound, pre, notes)


# ---- bounded-function stability (rearrangement upper bound) -----------------


def halfspace(normal, threshold: float):
    """Indicator of {x : <normal, x> <= threshold}."""
    normal = np.asarray(normal, dtype=float)

    def fn(pts: np.ndarray) -> np.ndarray:
        return (pts @ normal <= threshold).astype(float)

    return fn


def box(lo, hi):
    """Indicator of an axis-aligned box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def fn(pts: np.ndarray) -> np.ndarray:
        return np.logical_and(pts >= lo, pts <= hi).all(axis=-1).astype(float)

    return fn


def constant(c: float):
    c = float(c)

    def fn(pts: np.ndarray) -> np.ndarray:
        return np.full(pts.shape[:-1], c)

    return fn


@dataclass
class BorellReport:
    joint: McRun
    means: list[float]
    mean_stderrs: list[float]
    stability_bound: McRun
    sigma_total: float
    holds: bool


def borell_check(functions, dimension: int, rho: float, samples: int, seed: int) -> BorellReport:
    """Empirical check that the joint product expectation of [0,1]-valued
    functions of correlated copies is at most the stability of parallel
    halfspaces with the same masses.

    The joint expectation, each function's mean and the halfspace stability
    are independent runs with tags "borell-joint", "borell-mean-<i>" and
    "borell-lambda".
    """
    sampler = CorrelatedSampler(dimension, rho, len(functions))

    def joint_product(rng, n):
        _, h = sampler.sample(rng, n)
        return np.prod([np.asarray(f(h[i])) for i, f in enumerate(functions)], axis=0)

    joint = mc_run(joint_product, samples, seed, tag="borell-joint")
    means = [
        mc_run(lambda rng, n, f=f: f(rng.standard_normal((n, dimension))), samples, seed,
               tag=f"borell-mean-{i}")
        for i, f in enumerate(functions)
    ]
    clipped = [min(max(m.value, 1e-9), 1.0 - 1e-9) for m in means]
    lam = _orthant_run(rho, clipped, samples, seed, "borell-lambda")
    sigma_total = math.sqrt(joint.stderr ** 2 + lam.stderr ** 2 + sum(m.stderr ** 2 for m in means))
    holds = joint.value <= lam.value + 3.0 * sigma_total
    return BorellReport(joint, [m.value for m in means], [m.stderr for m in means],
                        lam, sigma_total, holds)


# ---- Hermite utilities -------------------------------------------------------

MAX_HERMITE_DEGREE = 8


def hermite_1d(k: int, x) -> np.ndarray:
    """Probabilists' Hermite polynomial of degree k, normalized to unit norm
    against the standard normal."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k > MAX_HERMITE_DEGREE:
        raise ValueError(f"degree {k} exceeds cap {MAX_HERMITE_DEGREE}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev
    h = x.copy()
    for deg in range(1, k):
        h, h_prev = x * h - deg * h_prev, h
    return h / math.sqrt(math.factorial(k))


def hermite_eval(multi_index, point) -> float | np.ndarray:
    """Product Hermite basis function for a multi-index over coordinates."""
    multi_index = [int(k) for k in multi_index]
    if sum(multi_index) > MAX_HERMITE_DEGREE:
        raise ValueError(f"total degree exceeds cap {MAX_HERMITE_DEGREE}")
    pts = np.asarray(point, dtype=float)
    if pts.shape[-1] != len(multi_index):
        raise ValueError("point dimension must match multi-index length")
    out = np.ones(pts.shape[:-1])
    for j, k in enumerate(multi_index):
        if k:
            out = out * hermite_1d(k, pts[..., j])
    return out if out.shape else float(out)
