"""Correlated Gaussian sampling and joint-orthant stability estimation.

The bound checks return a :class:`~biascsp.harness.verdict.Check`: the
estimate against its bound within ``verdict.SIGMAS`` standard errors, with
its seed, its sample count and the Monte Carlo runs behind it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .harness.mc import McRun, mc_run, rows_per_chunk, scratch
from .harness.verdict import Check


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

    def product(self, rng: np.random.Generator, n: int, fns) -> np.ndarray:
        """prod_i fns[i](h_i) over n tuples of copies, as n floats.

        The copies are drawn in this order, with s = sqrt(1 - rho^2):
        - h_1 ~ N(0, I) on all n rows;
        - then g | h_1 ~ N(rho*h_1, s^2 I), kept as rho*g = rho^2*h_1 + rho*s*xi;
        - then each later h_i = rho*g + s*zeta_i.
        (g, h_1, ..., h_r) has the law of the shared-source construction, at
        rho = +-1 and 0 too.  g and each later copy are drawn only on the rows
        whose running product is still nonzero: a row at 0 stays 0 whatever
        its later copies are, so its value is that of drawing them all.

        Each ``fns[i]`` maps an (m, dimension) array of copies to m values in
        [0, 1] and must be row-wise: a row's value depends on that row alone,
        since a function sees only the rows still alive, compacted.  It must
        not keep the array, whose buffer is reused.  The working set is the
        running chunk's scratch (``harness.mc.scratch``): an (n, dimension)
        array for the first copy, one for g on the rows the first function
        leaves nonzero, and n floats.  g's rows are gathered out of the first
        copy's buffer, which then takes the later copies, and the two swap
        whenever g's rows are compacted.  The running product on the live
        rows is the head of the n floats, which end as the result, so inside
        a run the result is valid until the thread's next ``product`` call.
        """
        if len(fns) != self.copies:
            raise ValueError(f"need one function per copy: {len(fns)} for {self.copies} copies")
        rho, s = self.rho, math.sqrt(1.0 - self.rho * self.rho)
        h = rng.standard_normal(out=scratch("gaussian.copy", (n, self.dimension)))
        product = scratch("gaussian.product", n)
        np.copyto(product, fns[0](h))
        # running is the product on the live rows (all n while rows is None),
        # at the head of product; g holds h_1 until rho*g is formed in place,
        # and spare, sized by the rows still live at xi, takes each copy.  The
        # indices are in range, so "clip" only spares take the copy it makes
        # to check them.
        running, rows, g, spare = product, None, h, None
        for i, f in enumerate(fns[1:]):
            # nonzero finds a bool array's nonzeros several times faster than a float's
            live = np.flatnonzero(np.not_equal(running, 0.0, out=scratch("gaussian.live", running.shape, bool)))
            if not live.size:
                break
            if spare is None:
                spare = scratch("gaussian.shared", (live.size, self.dimension))
            if live.size < running.size:
                g, spare = np.take(g, live, axis=0, out=spare[: live.size], mode="clip"), g
                running = np.take(running, live, out=product[: live.size], mode="clip")
                rows = live if rows is None else rows[live]
            h = spare[: live.size]
            if i == 0:
                g *= rho * rho
                rng.standard_normal(out=h)  # xi
                h *= rho * s
                g += h
            rng.standard_normal(out=h)  # zeta_i
            h *= s
            h += g
            running *= f(h)
        if rows is not None:
            running = running.copy()  # product's head, which the zeros overwrite
            product.fill(0.0)
            product[rows] = running
        return product


def _orthant_run(rho: float, deltas, samples: int, seed: int, tag: str) -> McRun:
    """Pr[forall i: h_i <= quantile(delta_i)] over shared-source copies.

    The thresholds go in ascending order, so the first copy settles the most
    rows; the copies are exchangeable, so the order leaves the law as it is.
    """
    sampler = CorrelatedSampler(1, rho, len(deltas))
    below = [lambda h, t=t: h[:, 0] <= t for t in sorted(normal_quantile(d) for d in deltas)]
    return mc_run(lambda rng, n: sampler.product(rng, n, below), samples, seed, tag=tag)


def lambda_estimate(rho: float, deltas, samples: int, seed: int) -> McRun:
    """Monte Carlo estimate of the joint lower-orthant probability of the
    shared-source correlated copies: Pr[forall i: g_i <= quantile(delta_i)]."""
    deltas = [float(d) for d in deltas]
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise ValueError("deltas must lie in (0,1)")
    return _orthant_run(rho, deltas, samples, seed, "lambda")


def lambda_bound_check(
    rho: float,
    deltas,
    samples: int,
    seed: int,
    delta0: float = 1e-2,
) -> Check:
    """Check the small-correlation product bound on joint orthant mass:
    estimate <= 2^r * prod(deltas) within 3 standard errors.

    Applies only when every delta_i <= delta0 and
    rho <= 1/(4 r^2 ln(1/min delta)); otherwise the check asserts nothing.
    ``estimate`` is the Monte Carlo run.
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
    return Check(
        est.value, (2.0 ** r) * math.prod(deltas), stderr=est.stderr, span=(0.0, 1.0), samples=samples,
        seed=seed, applicable=pre["deltas_small"] and pre["rho_small"],
        counters={"preconditions": pre, "threads": est.threads},
        detail={"estimate": est},
    )


# ---- bounded-function stability (rearrangement upper bound) -----------------


def halfspace(normal, threshold: float):
    """Indicator of {x : <normal, x> <= threshold}."""
    normal = np.asarray(normal, dtype=float)

    def fn(pts: np.ndarray) -> np.ndarray:
        side = pts @ normal
        return np.less_equal(side, threshold, out=side)  # 1.0 or 0.0 in the projections' floats

    return fn


def box(lo, hi):
    """Indicator of an axis-aligned box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def fn(pts: np.ndarray) -> np.ndarray:
        # a coordinate at a time: all() over a short last axis is several times slower
        d = pts.shape[-1]
        inside = np.ones(pts.shape[:-1], dtype=bool)
        for x, a, b in zip(np.moveaxis(pts, -1, 0), np.broadcast_to(lo, d), np.broadcast_to(hi, d)):
            inside &= x >= a
            inside &= x <= b
        return inside.astype(float)

    return fn


def constant(c: float):
    c = float(c)

    def fn(pts: np.ndarray) -> np.ndarray:
        return np.full(pts.shape[:-1], c)

    return fn


def borell_check(functions, dimension: int, rho: float, samples: int, seed: int) -> Check:
    """Empirical check that the joint product expectation of [0,1]-valued
    functions of correlated copies is at most the stability of parallel
    halfspaces with the same masses, within 3 combined standard errors.

    The joint expectation, each function's mean and the halfspace stability
    are independent runs with tags "borell-joint", "borell-mean-<i>" and
    "borell-lambda", kept as ``joint``, ``means`` (values) with
    ``mean_stderrs``, and ``stability_bound``.  The means run first, and
    the joint takes the functions in ascending order of their estimated
    means (a stable sort): the copies are exchangeable, so the order leaves
    the joint's law as it is, and the least mass first leaves the fewest
    rows for the later copies.  The mean and joint runs go in chunks of
    ``rows_per_chunk(dimension)`` rows, so a chunk's draws do not grow
    with the dimension; the stability run is one-dimensional.
    """
    sampler = CorrelatedSampler(dimension, rho, len(functions))
    chunk = rows_per_chunk(dimension)
    means = [
        mc_run(lambda rng, n, f=f: f(rng.standard_normal(out=scratch("gaussian.mean", (n, dimension)))),
               samples, seed, tag=f"borell-mean-{i}", chunk=chunk)
        for i, f in enumerate(functions)
    ]
    ordered = [functions[i] for i in sorted(range(len(functions)), key=lambda i: means[i].value)]
    joint = mc_run(lambda rng, n: sampler.product(rng, n, ordered), samples, seed, tag="borell-joint", chunk=chunk)
    clipped = [min(max(m.value, 1e-9), 1.0 - 1e-9) for m in means]
    lam = _orthant_run(rho, clipped, samples, seed, "borell-lambda")
    sigma_total = math.sqrt(joint.stderr ** 2 + lam.stderr ** 2 + sum(m.stderr ** 2 for m in means))
    return Check(
        joint.value, lam.value, stderr=sigma_total, span=(0.0, 1.0), samples=samples, seed=seed,
        counters={"means": [m.value for m in means], "threads": joint.threads},
        detail={"joint": joint, "stability_bound": lam, "mean_stderrs": [m.stderr for m in means]},
    )
