"""Gaussian-projection rounding and its empirical guarantees.

One round samples a single Gaussian matrix shared by all vertices, projects
each fluctuation vector through it, evaluates each vertex's noised rounding
polynomial at the projected point, clips to [0,1], and rounds independent
Bernoullis.  The same matrix must be shared within a round; per-vertex fresh
Gaussians would destroy the covariance guarantees.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .csp import ConstraintHypergraph
from .harness.mc import BLOCK_ENTRIES, run_chunks, scratch
from .harness.rng import rng_for
from .polynomial import _EVAL_CHUNK, MultilinearPolynomial
from .probspace import (
    FunctionTable,
    evaluate,
    fourier_expand,
    iid_product_expectation,
    max_influence,
    multilinear_extend,
    noise_apply,
    pack_bits,
)
from .pseudodist import LocalDistributionFamily, VectorSolution


# The value guarantee's low-influence premise: every noised table has
# max influence <= TAU.
TAU = 0.1


def clip(x):
    """Clamp to [0,1]: 0 below, identity inside, 1 above."""
    return np.clip(x, 0.0, 1.0)


@dataclass
class RoundingInput:
    """Host instance, per-vertex rounding tables, and the vector solution."""

    host: ConstraintHypergraph
    g_tables: dict[str, FunctionTable]  # bounded tables over {0,1}^R at each vertex bias
    solution: VectorSolution
    eta: float = 0.01
    mu: float | None = None
    family: LocalDistributionFamily | None = None
    # derived
    noised: dict[str, FunctionTable] = field(init=False)
    polys: dict[str, MultilinearPolynomial] = field(init=False)

    def __post_init__(self):
        d = self.solution.dimension
        if any(self.solution.w_for(v).shape[0] != d for v in self.host.vertices):
            raise ValueError("vector solution dimension mismatch")
        self.noised = {}
        self.polys = {}
        for v, table in self.g_tables.items():
            if table.values.min() < -1e-12 or table.values.max() > 1.0 + 1e-12:
                raise ValueError(f"rounding table at {v} not [0,1]-valued")
            fh = noise_apply(fourier_expand(table), 1.0 - self.eta)
            self.noised[v] = evaluate(fh)
            self.polys[v] = multilinear_extend(fh)
        if self.mu is None:
            self.mu = self.functional_bias()

    @property
    def r_dim(self) -> int:
        return next(iter(self.g_tables.values())).space.r

    def functional_bias(self) -> float:
        """Vertex-weighted mean of the rounding tables."""
        return math.fsum(
            w * self.g_tables[v].expectation() for v, w in self.host.vertex_weights.items()
        )

    def max_influences(self) -> dict[str, float]:
        return {v: max_influence(fourier_expand(t)) for v, t in self.noised.items()}


def _round_block(R: int, d: int) -> int:
    """Rounds per chunk of the rounding checks: about ``BLOCK_ENTRIES``
    Gaussian entries, in whole chunks of ``_EVAL_CHUNK`` rounds, so that the
    polynomial evaluations see full row chunks."""
    return _EVAL_CHUNK * max(1, BLOCK_ENTRIES // (R * d * _EVAL_CHUNK))


def _round_chunks(inp: RoundingInput, trials: int, work) -> tuple[list, int]:
    """``work(c, rounds)`` over ``trials`` rounds cut into chunks of
    :func:`_round_block` rounds, on every usable CPU: the results in chunk
    order and the thread count (:func:`harness.mc.run_chunks`)."""
    return run_chunks(work, trials, _round_block(inp.r_dim, inp.solution.dimension))


def _batch_p(inp: RoundingInput, rounds: int, rng: np.random.Generator) -> np.ndarray:
    """Acceptance probabilities of ``rounds`` shared-matrix rounds, (rounds, n).

    One (rounds, R, d) draw of the matrices from ``rng``, held flat as
    (rounds * R, d), so that each vertex's projection is one matrix-vector
    product.  The matrices, the projections and the polynomial values go
    into scratch (``harness.mc.scratch``) with ``out=``: the same stream and
    floats as fresh arrays.
    """
    R = inp.r_dim
    verts = inp.host.vertices
    gmats = rng.standard_normal(out=scratch("rounding.draws", (rounds * R, inp.solution.dimension)))
    q = scratch("rounding.projection", (rounds, R))
    p = scratch("rounding.p", rounds)
    out = np.empty((rounds, len(verts)))
    for k, v in enumerate(verts):
        np.matmul(gmats, inp.solution.w_for(v), out=q.reshape(-1))
        q += inp.solution.mu_for(v)
        out[:, k] = clip(inp.polys[v].evaluate(q, out=p))
    return out


def _assign(host: ConstraintHypergraph, p: np.ndarray, rng: np.random.Generator):
    """The Bernoulli step of rounds with acceptance probabilities ``p``
    (rounds, n): the int8 assignments, one uniform per vertex and round in C
    order (drawn into scratch), and each round's value."""
    # the buffer of _batch_p's matrices, which are done with by now
    sigma = (rng.random(out=scratch("rounding.draws", p.shape)) < p).astype(np.int8)
    vindex = {v: i for i, v in enumerate(host.vertices)}
    table = host.predicate.table()
    values = np.zeros(len(p))
    for edge, w_e in host.edges:
        values += w_e * table[pack_bits(sigma[:, vindex[v]] for v in edge)]
    return sigma, values


def round_run(inp: RoundingInput, trials: int, seed: int):
    """``trials`` full rounds: ``(p, sigma, value)``, the (trials, n)
    acceptance probabilities and int8 assignments and the (trials,) values.

    Chunk c of the rounds draws its shared matrices from
    ``rng_for(seed, "round-run", c)`` and its Bernoulli uniforms from
    ``rng_for(seed, "round-run", "bernoulli", c)``.  Both fill in C order,
    so round t does not depend on ``trials``.
    """
    def work(c, rounds):
        p = _batch_p(inp, rounds, rng_for(seed, "round-run", c))
        return (p, *_assign(inp.host, p, rng_for(seed, "round-run", "bernoulli", c)))

    parts, _ = _round_chunks(inp, trials, work)
    return tuple(np.concatenate(a) for a in zip(*parts))


# ---- bias concentration ------------------------------------------------------


@dataclass
class BiasConcentrationReport:
    variance: float
    variance_stderr: float
    variance_bound: float  # avg |corr| over iid vertex pairs, diagonal included
    variance_holds: bool
    mean_bias: float
    deviation_threshold: float
    deviation_fraction: float
    deviation_bound: float
    chebyshev_premise: bool  # gamma <= mu^4 regime for the fraction bound
    trials: int
    seed: int
    threads: int  # the threads the rounds ran on
    trials_per_s: float  # rounds per second of wall time


def bias_concentration_check(inp: RoundingInput, trials: int, seed: int) -> BiasConcentrationReport:
    """Variance of the per-round expected bias against the correlation average.

    Asserts the variance bound.  The deviation-window fraction is reported
    against its sqrt(gamma) reference but only meaningful in the small-gamma
    regime, which desk-scale instances rarely reach.  Chunk c of the rounds
    draws from ``rng_for(seed, "round-batch", "variance", c)`` and keeps only
    each round's bias ``p @ w``.
    """
    wvec = inp.host.vertex_weight_vector()
    t0 = time.perf_counter()
    parts, threads = _round_chunks(
        inp, trials, lambda c, rounds: _batch_p(inp, rounds, rng_for(seed, "round-batch", "variance", c)) @ wvec
    )
    m = np.concatenate(parts)
    elapsed = time.perf_counter() - t0
    mean = float(m.mean())
    centered = m - mean
    var = float((centered ** 2).mean())
    m4 = float((centered ** 4).mean())
    var_se = math.sqrt(max(m4 - var ** 2, 0.0) / trials)
    corr = inp.solution.corr_matrix()
    bound = float(wvec @ np.abs(corr) @ wvec)
    gamma = math.sqrt(bound) if bound > 0 else 0.0
    mu = inp.mu if inp.mu is not None else mean
    threshold = mu * math.sqrt(gamma)
    frac = float((np.abs(m - mean) >= threshold).mean()) if threshold > 0 else 1.0
    frac_bound = math.sqrt(gamma)
    return BiasConcentrationReport(
        variance=var,
        variance_stderr=var_se,
        variance_bound=bound,
        variance_holds=var <= bound + 3.0 * var_se,
        mean_bias=mean,
        deviation_threshold=threshold,
        deviation_fraction=frac,
        deviation_bound=frac_bound,
        chebyshev_premise=gamma <= mu ** 4,
        trials=trials,
        seed=seed,
        threads=threads,
        trials_per_s=trials / elapsed,
    )


# ---- pairwise covariance bound ----------------------------------------------


@dataclass
class CovarianceBoundReport:
    covariance: float
    bound: float
    sigma_total: float
    holds: bool
    samples: int
    seed: int


def covariance_bound_check(f_i, f_j, rho_ij: float, dimension: int, samples: int, seed: int) -> CovarianceBoundReport:
    """|cov(F_i(z_i), F_j(z_j))| <= |rho| + 3 sigma for [0,1]-valued functions
    of per-coordinate rho-correlated standard Gaussian inputs."""
    if not -1.0 <= rho_ij <= 1.0:
        raise ValueError("correlation must lie in [-1,1]")
    rng = rng_for(seed, "cov-bound")
    zi = rng.standard_normal((samples, dimension))
    zj = rho_ij * zi + math.sqrt(1.0 - rho_ij ** 2) * rng.standard_normal((samples, dimension))
    a = np.asarray(f_i(zi), dtype=float)
    b = np.asarray(f_j(zj), dtype=float)
    ma, mb = float(a.mean()), float(b.mean())
    prod = a * b
    cov = float(prod.mean()) - ma * mb
    se = math.sqrt(
        prod.var() / samples + mb ** 2 * a.var() / samples + ma ** 2 * b.var() / samples
    )
    return CovarianceBoundReport(
        covariance=cov,
        bound=abs(rho_ij),
        sigma_total=se,
        holds=abs(cov) <= abs(rho_ij) + 3.0 * se,
        samples=samples,
        seed=seed,
    )


# ---- value guarantee ----------------------------------------------------------


def signed_tables(inp: RoundingInput, edge: tuple[str, ...], accepting: tuple[int, ...]):
    """Noised tables, complemented at the positions the accepting string zeroes."""
    out = []
    for pos, v in enumerate(edge):
        vals = inp.noised[v].values
        out.append(vals if accepting[pos] == 1 else 1.0 - vals)
    return out


def exact_test_value(inp: RoundingInput) -> float:
    """Exact dictatorship-test value of the noised tables under the family.

    Per edge and accepting string, the expectation of the product of signed
    tables where each coordinate of the x-vectors is drawn jointly from the
    edge's local distribution, by per-coordinate contraction
    (:func:`iid_product_expectation`).  A vertex that appears at several
    positions of an edge carries the product of its signed tables.
    Independent of the rounding path.
    """
    if inp.family is None:
        raise ValueError("exact test value needs the local-distribution family")
    family = inp.family
    total = 0.0
    for edge, w_e in inp.host.edges:
        key = family._key(edge)
        block = np.asarray(family.local(key), dtype=float).reshape((2,) * len(key))
        edge_total = 0.0
        for a in sorted(inp.host.predicate.accepting):
            per_vertex = {v: 1.0 for v in key}
            for v, t in zip(edge, signed_tables(inp, edge, a)):
                per_vertex[v] = per_vertex[v] * t
            edge_total += iid_product_expectation([per_vertex[v] for v in key], block)
        total += w_e * edge_total
    return total


@dataclass
class ValueCheckReport:
    mc_value: float
    mc_stderr: float
    mc_sigma_value: float
    exact_value: float
    budget: float
    max_influence: float
    holds: bool
    trials: int
    seed: int
    applicable: bool  # max_influence <= TAU: the low-influence premise of the guarantee
    exact_elapsed_s: float
    threads: int  # the threads the rounds ran on
    trials_per_s: float  # rounds per second of the Monte Carlo side's wall time


def _conditional_value(host: ConstraintHypergraph, p: np.ndarray) -> np.ndarray:
    """Each round's exact probability that the Bernoulli step with
    acceptance probabilities ``p`` (rounds, n) satisfies the edges, weighted."""
    vindex = {v: i for i, v in enumerate(host.vertices)}
    cond = np.zeros(len(p))
    for edge, w_e in host.edges:
        for a in sorted(host.predicate.accepting):
            term = np.ones(len(p))
            for pos, v in enumerate(edge):
                pv = p[:, vindex[v]]
                term = term * (pv if a[pos] == 1 else 1.0 - pv)
            cond += w_e * term
    return cond


def value_check(inp: RoundingInput, trials: int, seed: int, budget: float = 0.02) -> ValueCheckReport:
    """Monte Carlo rounded value against the exact test value.

    The Monte Carlo side averages, over shared-matrix rounds, the exact
    conditional edge-satisfaction probability of the Bernoulli step; a
    plain sampled-assignment average is reported alongside.  Chunk c of the
    rounds draws its matrices from ``rng_for(seed, "round-batch", "value", c)``
    and its Bernoulli uniforms from ``rng_for(seed, "value-check-sigma", c)``,
    and keeps only each round's two values.  ``applicable`` says whether the
    tables meet the guarantee's low-influence premise (max influence <=
    :data:`TAU`); the verdict does not depend on it.
    """
    def work(c, rounds):
        p = _batch_p(inp, rounds, rng_for(seed, "round-batch", "value", c))
        _, sampled = _assign(inp.host, p, rng_for(seed, "value-check-sigma", c))
        return _conditional_value(inp.host, p), sampled

    t0 = time.perf_counter()
    parts, threads = _round_chunks(inp, trials, work)
    cond, sig_vals = (np.concatenate(a) for a in zip(*parts))
    elapsed = time.perf_counter() - t0
    mc_value = float(cond.mean())
    mc_se = float(cond.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    t0 = time.perf_counter()
    exact = exact_test_value(inp)
    exact_elapsed = time.perf_counter() - t0
    max_inf = max(inp.max_influences().values())
    return ValueCheckReport(
        mc_value=mc_value,
        mc_stderr=mc_se,
        mc_sigma_value=float(sig_vals.mean()),
        exact_value=exact,
        budget=budget,
        max_influence=max_inf,
        holds=mc_value >= exact - budget - 3.0 * mc_se,
        trials=trials,
        seed=seed,
        applicable=max_inf <= TAU,
        exact_elapsed_s=exact_elapsed,
        threads=threads,
        trials_per_s=trials / elapsed,
    )
