"""Correlated Gaussian sampling and joint-orthant stability estimation.

All Monte Carlo assertions in this module use 3-sigma normal-approximation
bands, and every report records its seed and sample count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .harness.mc import McRun, mc_run, scratch


def normal_cdf(t: float) -> float:
    """Standard normal CDF via erfc; absolute error well under 1e-12."""
    return 0.5 * math.erfc(-float(t) / math.sqrt(2.0))


def normal_quantile(delta: float) -> float:
    """Inverse CDF on (0,1), the standard library's
    ``NormalDist().inv_cdf``: |cdf(result) - delta| is at roundoff level."""
    if not 0.0 < delta < 1.0:
        raise ValueError("quantile defined on (0,1)")
    return NormalDist().inv_cdf(delta)


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

    def each_copy(self, rng: np.random.Generator, n: int):
        """Yield the r copies of n tuples one after another, each in the same
        (n, R) buffer, which the next copy overwrites.

        The shared source g is drawn first, then each copy's zeta_i in turn:
        the stream and float operations of drawing g and all r copies at
        once, with a working set of two (n, R) arrays, not r + 2.  Both are
        the running chunk's scratch (``harness.mc.scratch``), drawn into
        with ``out=``: the same stream as drawing them fresh.
        """
        shared = rng.standard_normal(out=scratch("gaussian.shared", (n, self.dimension)))
        shared *= self.rho  # rho * g; g itself is not needed
        scale = math.sqrt(1.0 - self.rho * self.rho)
        h = scratch("gaussian.copy", shared.shape)
        for _ in range(self.copies):
            rng.standard_normal(out=h)
            h *= scale
            h += shared
            yield h


def _orthant_run(rho: float, deltas, samples: int, seed: int, tag: str) -> McRun:
    """Pr[forall i: h_i <= quantile(delta_i)] over shared-source copies."""
    thresholds = [normal_quantile(d) for d in deltas]
    sampler = CorrelatedSampler(1, rho, len(deltas))

    def below(rng, n):
        inside = np.ones(n, dtype=bool)
        for h, t in zip(sampler.each_copy(rng, n), thresholds):
            inside &= h[:, 0] <= t
        return inside

    return mc_run(below, samples, seed, tag=tag, parallel=True)


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
        product = None
        for f, h in zip(functions, sampler.each_copy(rng, n)):
            value = np.asarray(f(h))
            # a copy first: f may return a view of the reused buffer
            product = value.copy() if product is None else product * value
        return product

    joint = mc_run(joint_product, samples, seed, tag="borell-joint", parallel=True)
    means = [
        mc_run(lambda rng, n, f=f: f(rng.standard_normal(out=scratch("gaussian.mean", (n, dimension)))),
               samples, seed, tag=f"borell-mean-{i}", parallel=True)
        for i, f in enumerate(functions)
    ]
    clipped = [min(max(m.value, 1e-9), 1.0 - 1e-9) for m in means]
    lam = _orthant_run(rho, clipped, samples, seed, "borell-lambda")
    sigma_total = math.sqrt(joint.stderr ** 2 + lam.stderr ** 2 + sum(m.stderr ** 2 for m in means))
    holds = joint.value <= lam.value + 3.0 * sigma_total
    return BorellReport(joint, [m.value for m in means], [m.stderr for m in means],
                        lam, sigma_total, holds)
