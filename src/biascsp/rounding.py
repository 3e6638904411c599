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
from .harness.verdict import Check
from .polynomial import _EVAL_CHUNK, MultilinearPolynomial
from .probspace import (
    BiasedSpace,
    FunctionTable,
    _character_transform,
    iid_product_expectation,
    influences,
    pack_bits,
)
from .pseudodist import LocalDistributionFamily, VectorSolution


# The value guarantee's low-influence premise: every noised table has
# max influence <= TAU.
TAU = 0.1


def clip(x):
    """Clamp to [0,1]: 0 below, identity inside, 1 above."""
    return np.clip(x, 0.0, 1.0)


def _noised_stack(values: np.ndarray, biases: np.ndarray, eta: float):
    """Tables ``values`` (k, 2^R) at per-table biases ``biases`` (k, R)
    under the noise operator T_{1-eta}: their Fourier coefficients, their
    values and their monomial coefficients, each (k,) + (2,)*R.  Each is R
    batched axis passes of :func:`probspace._character_transform`, the
    noise folded into the Fourier pass; the values and the monomials come
    from the coefficients."""
    k, R = biases.shape
    coeffs = _character_transform(values.reshape((k,) + (2,) * R), biases, 1, rho=1.0 - eta)
    return (
        coeffs,
        _character_transform(coeffs, biases, 1, "values"),
        _character_transform(coeffs, biases, 1, "monomials"),
    )


@dataclass
class RoundingInput:
    """Host instance, per-vertex rounding tables, and the vector solution.

    The tables of the host's vertices are stacked in vertex order and
    transformed together (:func:`_noised_stack`).  ``noised_coeffs`` holds
    the noised Fourier coefficients (n, 2^R), ``stacked`` every vertex's
    noised polynomial as one stack (row k: vertex k), and ``noised`` the
    per-vertex noised tables, views of their stack.
    """

    host: ConstraintHypergraph
    g_tables: dict[str, FunctionTable]  # bounded tables over {0,1}^R at each vertex bias
    solution: VectorSolution
    eta: float = 0.01
    mu: float | None = None
    family: LocalDistributionFamily | None = None
    # derived
    noised: dict[str, FunctionTable] = field(init=False)
    stacked: MultilinearPolynomial = field(init=False)
    noised_coeffs: np.ndarray = field(init=False)  # (n, 2^R), vertex order

    def __post_init__(self):
        d = self.solution.dimension
        if any(self.solution.w_for(v).shape[0] != d for v in self.host.vertices):
            raise ValueError("vector solution dimension mismatch")
        verts = self.host.vertices
        tables = [self.g_tables[v] for v in verts]
        spaces = [t.space for t in tables]
        if any(not isinstance(s, BiasedSpace) or s.alphabet != "bit" for s in spaces):
            raise TypeError("rounding tables live on bit spaces")
        if len({s.r for s in spaces}) != 1:
            raise ValueError("rounding tables must share R")
        values = np.stack([t.values for t in tables])
        bad = (values.min(axis=1) < -1e-12) | (values.max(axis=1) > 1.0 + 1e-12)
        if bad.any():
            raise ValueError(f"rounding table at {verts[int(np.argmax(bad))]} not [0,1]-valued")
        biases = np.array([s.biases for s in spaces])
        coeffs, noised, monomials = _noised_stack(values, biases, self.eta)
        self.noised_coeffs = coeffs.reshape(len(verts), -1)
        self.stacked = MultilinearPolynomial.stack(MultilinearPolynomial(m) for m in monomials)
        self.noised = {v: FunctionTable(s, t.reshape(-1)) for v, s, t in zip(verts, spaces, noised)}
        if self.mu is None:
            self.mu = self.functional_bias()

    @property
    def r_dim(self) -> int:
        return self.stacked.nvars

    def functional_bias(self) -> float:
        """Vertex-weighted mean of the rounding tables."""
        return math.fsum(
            w * self.g_tables[v].expectation() for v, w in self.host.vertex_weights.items()
        )

    def max_influences(self) -> dict[str, float]:
        """Each vertex's largest coordinate influence in its noised table."""
        per_vertex = influences(self.noised_coeffs, self.r_dim).max(axis=1)
        return dict(zip(self.host.vertices, per_vertex.tolist()))


def _round_block(R: int, d: int) -> int:
    """Rounds per chunk of the rounding checks: about ``BLOCK_ENTRIES``
    Gaussian entries, in whole chunks of ``_EVAL_CHUNK`` rounds, so that the
    polynomial evaluations see full row chunks."""
    return _EVAL_CHUNK * max(1, BLOCK_ENTRIES // (R * d * _EVAL_CHUNK))


def _eval_block(R: int, d: int, n: int) -> int:
    """Rounds per evaluation block of :func:`_batch_p`: the largest power of
    two up to ``_EVAL_CHUNK`` (so it divides every chunk) whose block holds
    at most ``BLOCK_ENTRIES`` working entries.  Per round those are the
    draws (R d), the projections (R n), each vertex's monomials and product
    (n (2^ceil(R/2) + 2^floor(R/2))) and its value (n): 256 rounds at
    R = d = 9, n = 8."""
    per_round = R * d + R * n + n * (2 ** (R - R // 2) + 2 ** (R // 2) + 1)
    w = _EVAL_CHUNK
    while w > 1 and w * per_round > BLOCK_ENTRIES:
        w //= 2
    return w


def _round_chunks(inp: RoundingInput, trials: int, work) -> tuple[list, int]:
    """``work(c, rounds)`` over ``trials`` rounds cut into chunks of
    :func:`_round_block` rounds, on every usable CPU: the results in chunk
    order and the thread count (:func:`harness.mc.run_chunks`)."""
    return run_chunks(work, trials, _round_block(inp.r_dim, inp.solution.dimension))


def _batch_p(inp: RoundingInput, rounds: int, rng: np.random.Generator) -> np.ndarray:
    """Acceptance probabilities of ``rounds`` shared-matrix rounds, (rounds, n).

    The rounds go through in evaluation blocks of :func:`_eval_block`
    rounds (all of them when fewer).  A block draws its (rounds, R, d)
    matrices from ``rng``: the chunk's one (rounds, R, d) draw in C order,
    taken a block at a time.  One batched GEMM projects them onto every
    vertex's fluctuation vector, variable-major (R, n, rounds), and one
    call of the stacked polynomial evaluates every vertex at its
    projection.  A chunk's last, shorter block is zero-padded and
    evaluated at full width, so round t's value does not depend on how
    many rounds follow it.  The matrices, the projections and the values
    go into scratch (``harness.mc.scratch``).
    """
    R, d = inp.r_dim, inp.solution.dimension
    n = len(inp.host.vertices)
    idx = [inp.solution.vertices.index(v) for v in inp.host.vertices]
    w_t, mu = inp.solution.w[idx], inp.solution.mu[idx, None]  # (n, d), (n, 1)
    width = min(_eval_block(R, d, n), rounds)
    draws = scratch("rounding.draws", (width, R, d))
    proj = scratch("rounding.projection", (R, n, width))
    p = scratch("rounding.p", (width, n))
    out = np.empty((rounds, n))
    for start in range(0, rounds, width):
        m = min(width, rounds - start)
        rng.standard_normal(out=draws[:m])
        draws[m:] = 0.0
        np.matmul(w_t, draws.transpose(1, 2, 0), out=proj)
        proj += mu
        inp.stacked.evaluate(proj.transpose(2, 1, 0), out=p)
        np.clip(p[:m], 0.0, 1.0, out=out[start : start + m])
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


def _counters(inp: RoundingInput, threads: int) -> dict:
    """The rounding checks' kernel counters: the ``threads`` that ran the
    rounds and ``eval_block``, the rounds per evaluation block of a full
    chunk."""
    return {"threads": threads, "eval_block": _eval_block(inp.r_dim, inp.solution.dimension, len(inp.host.vertices))}


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


def bias_concentration_check(inp: RoundingInput, trials: int, seed: int) -> Check:
    """Variance of the per-round expected bias against the correlation average.

    The check is variance <= avg |corr| over iid vertex pairs (diagonal
    included).  A round's bias lies in [0, 1], so its variance lies in
    [0, 1/4], and a bound of 1/4 or more is vacuous.  The deviation-window
    fraction is reported against its sqrt(gamma) reference but only
    meaningful in the small-gamma regime, which desk-scale instances rarely
    reach.  Chunk c of the rounds draws from
    ``rng_for(seed, "round-batch", "variance", c)`` and keeps only each
    round's bias ``p @ w``.
    """
    wvec = inp.host.vertex_weight_vector()
    parts, threads = _round_chunks(
        inp, trials, lambda c, rounds: _batch_p(inp, rounds, rng_for(seed, "round-batch", "variance", c)) @ wvec
    )
    m = np.concatenate(parts)
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
    return Check(
        var, bound, stderr=var_se, span=(0.0, 0.25), samples=trials, seed=seed,
        counters={"deviation_fraction": frac, "deviation_bound": math.sqrt(gamma), **_counters(inp, threads)},
        detail={"trials": trials},
    )


# ---- pairwise covariance bound ----------------------------------------------


def covariance_bound_check(f_i, f_j, rho_ij: float, dimension: int, samples: int, seed: int) -> Check:
    """|cov(F_i(z_i), F_j(z_j))| <= |rho| within 3 sigma for [0,1]-valued
    functions of per-coordinate rho-correlated standard Gaussian inputs.
    Such a covariance lies in [-1/4, 1/4], so |rho| >= 1/4 is vacuous."""
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
    return Check(abs(cov), abs(rho_ij), stderr=se, span=(0.0, 0.25), samples=samples, seed=seed)


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


def value_check(inp: RoundingInput, trials: int, seed: int, budget: float = 0.02) -> Check:
    """Monte Carlo rounded value against the exact test value, down to
    ``budget`` below it.

    The Monte Carlo side averages, over shared-matrix rounds, the exact
    conditional edge-satisfaction probability of the Bernoulli step; a
    plain sampled-assignment average is reported alongside.  Chunk c of the
    rounds draws its matrices from ``rng_for(seed, "round-batch", "value", c)``
    and its Bernoulli uniforms from ``rng_for(seed, "value-check-sigma", c)``,
    and keeps only each round's two values.  The check applies when the
    tables meet the guarantee's low-influence premise (max influence <=
    :data:`TAU`); otherwise it asserts nothing.
    """
    def work(c, rounds):
        p = _batch_p(inp, rounds, rng_for(seed, "round-batch", "value", c))
        _, sampled = _assign(inp.host, p, rng_for(seed, "value-check-sigma", c))
        return _conditional_value(inp.host, p), sampled

    parts, threads = _round_chunks(inp, trials, work)
    cond, sig_vals = (np.concatenate(a) for a in zip(*parts))
    mc_value = float(cond.mean())
    mc_se = float(cond.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    t0 = time.perf_counter()
    exact = exact_test_value(inp)
    exact_elapsed = time.perf_counter() - t0
    max_inf = max(inp.max_influences().values())
    return Check(
        mc_value, exact, ">=", stderr=mc_se, slack=budget, span=(0.0, 1.0), samples=trials, seed=seed,
        applicable=max_inf <= TAU,
        counters={
            "sigma_value": float(sig_vals.mean()), "max_influence": max_inf, "exact_elapsed_s": exact_elapsed,
            **_counters(inp, threads),
        },
        detail={"trials": trials},
    )
