"""Gaussian-projection rounding and its empirical guarantees.

One round samples a single Gaussian matrix shared by all vertices, projects
each fluctuation vector through it, evaluates each vertex's noised rounding
polynomial at the projected point, clips to [0,1], and rounds independent
Bernoullis.  The same matrix must be shared within a round; per-vertex fresh
Gaussians would destroy the covariance guarantees.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .csp import Assignment, ConstraintHypergraph, assignment_value, relative_weight
from .harness.rng import rng_for
from .polynomial import MultilinearPolynomial
from .probspace import (
    FunctionTable,
    evaluate,
    fourier_expand,
    max_influence,
    multilinear_extend,
    noise_apply,
)
from .pseudodist import LocalDistributionFamily, VectorSolution


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
    tau: float = 0.1
    nu: float = 0.1
    mu: float | None = None
    family: LocalDistributionFamily | None = None
    # derived
    noised: dict[str, FunctionTable] = field(init=False)
    polys: dict[str, MultilinearPolynomial] = field(init=False)

    def __post_init__(self):
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


@dataclass
class RoundingOutcome:
    p: dict[str, float]
    sigma: Assignment
    bias: float
    value: float
    seed: int


def round_once(inp: RoundingInput, seed: int) -> RoundingOutcome:
    """One full round; a pure function of (input, seed)."""
    return round_with(inp, rng_for(seed, "round-once"), seed)


def round_with(inp: RoundingInput, rng: np.random.Generator, seed: int) -> RoundingOutcome:
    """One full round drawn from ``rng``; ``seed`` is recorded in the outcome."""
    R = inp.r_dim
    d = inp.solution.dimension
    gmat = rng.standard_normal((R, d))
    p = {}
    for v in inp.host.vertices:
        w_v = inp.solution.w_for(v)
        if w_v.shape[0] != d:
            raise ValueError("vector solution dimension mismatch")
        q = inp.solution.mu_for(v) + gmat @ w_v
        p[v] = float(clip(inp.polys[v].evaluate(q)))
    draws = rng.random(len(p))
    sigma = Assignment({v: int(u < p[v]) for (v, u) in zip(p, draws)})
    return RoundingOutcome(
        p=p,
        sigma=sigma,
        bias=relative_weight(inp.host, sigma),
        value=assignment_value(inp.host, sigma),
        seed=seed,
    )


def _batch_p(inp: RoundingInput, trials: int, seed: int) -> np.ndarray:
    """Acceptance probabilities for `trials` shared-matrix rounds, (trials, n)."""
    rng = rng_for(seed, "round-batch")
    R = inp.r_dim
    d = inp.solution.dimension
    gmats = rng.standard_normal((trials, R, d))
    verts = inp.host.vertices
    out = np.empty((trials, len(verts)))
    for k, v in enumerate(verts):
        q = inp.solution.mu_for(v) + gmats @ inp.solution.w_for(v)  # (trials, R)
        out[:, k] = clip(inp.polys[v].evaluate(q))
    return out


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
    bernoulli_quantile: float
    trials: int
    seed: int


def bias_concentration_check(inp: RoundingInput, trials: int, seed: int) -> BiasConcentrationReport:
    """Variance of the per-round expected bias against the correlation average.

    Asserts the variance bound.  The deviation-window fraction is reported
    against its sqrt(gamma) reference but only meaningful in the small-gamma
    regime, which desk-scale instances rarely reach.
    """
    p = _batch_p(inp, trials, seed)
    wvec = inp.host.vertex_weight_vector()
    m = p @ wvec
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
    rng = rng_for(seed, "round-batch-bernoulli")
    draws = rng.random(p.shape)
    sigma_bias = ((draws < p) @ wvec)
    bern_dev = np.abs(sigma_bias - m)
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
        bernoulli_quantile=float(np.quantile(bern_dev, 0.95)),
        trials=trials,
        seed=seed,
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

    Enumerates, per edge, the product-of-r-tables expectation where each
    coordinate of the x-vectors is drawn jointly from the edge's local
    distribution.  Independent of the rounding path.
    """
    if inp.family is None:
        raise ValueError("exact enumeration needs the local-distribution family")
    family = inp.family
    R = inp.r_dim
    total = 0.0
    for edge, w_e in inp.host.edges:
        key = family._key(edge)
        k = len(key)
        block = np.asarray(family.local(key)).reshape(-1)  # over 2^k outcomes
        outcome_bits = np.array(
            [[(o >> (k - 1 - t)) & 1 for t in range(k)] for o in range(2 ** k)]
        )
        pos_of = {v: t for t, v in enumerate(key)}
        combos = np.array(
            list(itertools.product(range(2 ** k), repeat=R)), dtype=np.int64
        )  # (n_combo, R)
        probs = block[combos].prod(axis=1)
        edge_total = 0.0
        for a in sorted(inp.host.predicate.accepting):
            tables = signed_tables(inp, edge, a)
            prod = np.ones(len(combos))
            for pos, v in enumerate(edge):
                bits = outcome_bits[combos, pos_of[v]]  # (n_combo, R)
                idx = np.zeros(len(combos), dtype=np.int64)
                for j in range(R):
                    idx = (idx << 1) | bits[:, j]
                prod *= tables[pos][idx]
            edge_total += float((probs * prod).sum())
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


def value_check(inp: RoundingInput, trials: int, seed: int, budget: float = 0.02) -> ValueCheckReport:
    """Monte Carlo rounded value against the exactly enumerated test value.

    The Monte Carlo side averages, over shared-matrix rounds, the exact
    conditional edge-satisfaction probability of the Bernoulli step; a
    plain sampled-assignment average is reported alongside.
    """
    p = _batch_p(inp, trials, seed)
    verts = inp.host.vertices
    vindex = {v: i for i, v in enumerate(verts)}
    cond = np.zeros(trials)
    for edge, w_e in inp.host.edges:
        for a in sorted(inp.host.predicate.accepting):
            term = np.ones(trials)
            for pos, v in enumerate(edge):
                pv = p[:, vindex[v]]
                term = term * (pv if a[pos] == 1 else 1.0 - pv)
            cond += w_e * term
    mc_value = float(cond.mean())
    mc_se = float(cond.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    rng = rng_for(seed, "value-check-sigma")
    sig = (rng.random(p.shape) < p).astype(np.int8)
    table = inp.host.predicate.table()
    sig_vals = np.zeros(trials)
    for edge, w_e in inp.host.edges:
        idx = np.zeros(trials, dtype=np.int64)
        for v in edge:
            idx = (idx << 1) | sig[:, vindex[v]]
        sig_vals += w_e * table[idx]
    exact = exact_test_value(inp)
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
    )
