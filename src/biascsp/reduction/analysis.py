"""Verifiers for the lifted test: acceptance estimation and exact enumeration,
averaged restriction tables, leak-variable decoupling, long-code mixing, and
influence-decoding statistics."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..csp import ConstraintHypergraph
from ..harness.mc import CHUNK, mc_run
from ..harness.rng import rng_for
from ..probspace import (
    BiasedSpace,
    FunctionTable,
    PairedSpace,
    fourier_expand,
    influence,
    max_influence,
    noise_apply,
)
from ..pseudodist import LocalDistributionFamily
from .dictator import LongCodeAssignment
from .graphs import SseGraph, noisy_walk, walk_matrix
from .params import ReductionParams
from .sampler import BatchTestSampler, edge_block_probs, leakage_apply, permute_rows

_EXACT_WORK_CAP = 1 << 24


# ---- averaged restriction tables --------------------------------------------


def averaged_function(
    f: LongCodeAssignment,
    A,
    mu_i: float,
    beta: float,
    eta: float,
    graph: SseGraph,
    mode: str = "exact",
    rng: np.random.Generator | None = None,
    samples_per_point: int = 4096,
) -> FunctionTable:
    """Restriction of f to a lifted vertex-vector, averaged over the noisy
    walk, the leakage fold, and a uniform coordinate permutation.

    Returns a bounded table on the paired (bit, leak) space of the vertex.
    """
    A = np.asarray(A, dtype=np.int64)
    R = A.size
    space = PairedSpace(
        BiasedSpace((mu_i,) * R, "bit"), BiasedSpace((beta,) * R, "leak")
    )
    walk = walk_matrix(graph, eta) if mode == "exact" else None
    n = graph.n
    perms = [np.array(p) for p in itertools.permutations(range(R))]
    pts = ((np.arange(4 ** R)[:, None] >> np.arange(2 * R - 1, -1, -1)) & 1).astype(np.int8)
    values = np.empty(4 ** R)
    for k, row in enumerate(pts):
        x, z = row[:R], row[R:]
        bots = np.flatnonzero(z == 0)
        work = n ** R * 2 ** len(bots) * len(perms)
        if mode == "exact":
            if work > _EXACT_WORK_CAP:
                raise ValueError("enumeration too large; use mode='mc'")
            values[k] = _avg_point_exact(f, A, x, z, bots, mu_i, walk, n, perms)
        elif mode == "mc":
            if rng is None:
                raise ValueError("mc mode needs an rng")
            values[k] = _avg_point_mc(f, A, x, z, mu_i, eta, graph, rng, samples_per_point)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return FunctionTable(space, np.clip(values, 0.0, 1.0), bounded=True)


def _avg_point_exact(f, A, x, z, bots, mu_i, walk, n, perms):
    R = A.size
    dists = [walk[A[j]] if z[j] == 1 else np.full(n, 1.0 / n) for j in range(R)]
    b_combos = np.array(list(itertools.product(range(n), repeat=R)), dtype=np.int64)
    pb = np.ones(len(b_combos))
    for j in range(R):
        pb *= dists[j][b_combos[:, j]]
    x_free = np.array(list(itertools.product((0, 1), repeat=len(bots))), dtype=np.int8)
    px = (mu_i ** x_free * (1.0 - mu_i) ** (1 - x_free)).prod(axis=1) if len(bots) else np.ones(1)
    if not len(bots):
        x_free = np.zeros((1, 0), dtype=np.int8)
    total = 0.0
    nb, nx = len(b_combos), len(x_free)
    big_b = np.repeat(b_combos, nx, axis=0)
    big_x = np.tile(np.asarray(x, dtype=np.int8), (nb * nx, 1))
    if len(bots):
        big_x[:, bots] = np.tile(x_free, (nb, 1))
    big_z = np.tile(np.asarray(z, dtype=np.int8), (nb * nx, 1))
    probs = (pb[:, None] * px[None, :]).reshape(-1)
    acc = np.zeros(nb * nx)
    for perm in perms:
        acc += f.evaluate_batch(big_b[:, perm], big_x[:, perm], big_z[:, perm])
    total = float(np.dot(probs, acc / len(perms)))
    return total


def _avg_point_mc(f, A, x, z, mu_i, eta, graph, rng, samples):
    shape = (samples, A.size)
    b = noisy_walk(graph, eta, np.broadcast_to(A, shape), rng)
    zs = np.broadcast_to(np.asarray(z, dtype=np.int8), shape)
    b, xs = leakage_apply(zs, mu_i, (b, np.broadcast_to(x, shape)), graph, rng)
    _, parts = permute_rows(rng, b, xs, zs)
    return float(np.mean(f.evaluate_batch(*parts)))


# ---- exact acceptance via per-coordinate blocks ------------------------------


def test_block_distribution(
    gap: ConstraintHypergraph,
    theta: LocalDistributionFamily,
    graph: SseGraph,
    params: ReductionParams,
    edge_index: int,
    mus: dict[str, float] | None = None,
) -> np.ndarray:
    """Exact one-coordinate joint of ((B', x', z') per position) for one edge.

    Output tensor has one axis of size 4n per edge position; the per-position
    code is vertex*4 + bit*2 + leak.  Coordinates of the full R-dimensional
    tuple are i.i.d. copies of this block.
    """
    edge, _ = gap.edges[edge_index]
    r = len(edge)
    n = graph.n
    mus = mus or {v: theta.vertex_mean(v) for v in gap.vertices}
    probs, pos_bits = edge_block_probs(theta, edge)
    walk = walk_matrix(graph, params.eta)
    uniform = np.full(n, 1.0 / n)
    beta, eta, rho_sq = params.beta, params.eta, params.rho_sq
    bdist = np.array([1.0 - beta, beta])
    block = np.zeros((4 * n,) * r)
    for a in range(n):
        for zc in (0, 1):
            for xi in (0, 1):
                p_latent = (1.0 / n) * bdist[zc] * (rho_sq if xi else 1.0 - rho_sq)
                for o in range(2 ** r):
                    p = p_latent * probs[o]
                    if p == 0.0:
                        continue
                    conds = []
                    for pos, v in enumerate(edge):
                        x_val = int(pos_bits[o, pos])
                        mu_v = mus[v]
                        mdist = np.array([1.0 - mu_v, mu_v])

                        z_src = np.zeros(2)
                        if xi:
                            z_src[zc] = 1.0
                        else:
                            z_src[:] = bdist
                        q_z = (1.0 - eta) * z_src + eta * bdist
                        q_x = eta * mdist
                        q_x[x_val] += 1.0 - eta
                        cond = np.zeros((n, 2, 2))
                        cond[:, :, 1] = q_z[1] * np.outer(walk[a], q_x)
                        cond[:, :, 0] = q_z[0] * np.outer(uniform, mdist)
                        conds.append(cond.reshape(-1))
                    joint = conds[0]
                    for c in conds[1:]:
                        joint = np.multiply.outer(joint, c)
                    block += p * joint
    return block


def acceptance_exact(
    gap: ConstraintHypergraph,
    theta: LocalDistributionFamily,
    graph: SseGraph,
    params: ReductionParams,
    f: LongCodeAssignment,
) -> float:
    """Acceptance probability by full enumeration of the test distribution.

    Feasible only for tiny lift dimension and graph size; intended as the
    oracle side of identity checks.
    """
    R = params.R
    n = graph.n
    total = 0.0
    perms = [np.array(p) for p in itertools.permutations(range(R))]
    table = gap.predicate.table()
    for e_idx, (edge, w_e) in enumerate(gap.edges):
        r = len(edge)
        n_codes = (4 * n) ** r
        n_combos = n_codes ** R
        if n_combos * math.factorial(R) ** r > _EXACT_WORK_CAP:
            raise ValueError("exact acceptance enumeration too large")
        block = test_block_distribution(gap, theta, graph, params, e_idx).reshape(-1)
        combos = np.array(list(itertools.product(range(n_codes), repeat=R)), dtype=np.int64)
        probs = block[combos].prod(axis=1)
        keep = probs > 0
        combos, probs = combos[keep], probs[keep]
        b_pos, x_pos, z_pos = [], [], []
        for pos in range(r):
            code = (combos // (4 * n) ** (r - 1 - pos)) % (4 * n)
            b_pos.append(code // 4)
            x_pos.append(((code // 2) % 2).astype(np.int8))
            z_pos.append((code % 2).astype(np.int8))
        acc = np.zeros(len(combos))
        for perm_tuple in itertools.product(perms, repeat=r):
            idx = np.zeros(len(combos), dtype=np.int64)
            for pos in range(r):
                pm = perm_tuple[pos]
                bits = f.evaluate_batch(b_pos[pos][:, pm], x_pos[pos][:, pm], z_pos[pos][:, pm])
                idx = (idx << 1) | bits.astype(np.int64)
            acc += table[idx]
        acc /= math.factorial(R) ** r
        total += w_e * float(np.dot(probs, acc))
    return total


# ---- Monte Carlo acceptance ---------------------------------------------------


@dataclass
class AcceptanceReport:
    estimate: float
    stderr: float
    trials: int
    seed: int
    objective: float
    completeness_bound: float
    slack: float
    holds: bool | None

    def to_json(self) -> dict:
        return {
            "value": self.estimate,
            "stderr": self.stderr,
            "samples": self.trials,
            "seed": self.seed,
            "objective": self.objective,
            "bound": self.completeness_bound,
            "slack": self.slack,
            "verdict": self.holds,
        }


def acceptance_estimate(
    gap: ConstraintHypergraph,
    theta: LocalDistributionFamily,
    graph: SseGraph,
    params: ReductionParams,
    f: LongCodeAssignment,
    trials: int,
    seed: int,
    slack: float = 10.0,
    assert_bound: bool = False,
) -> AcceptanceReport:
    """Monte Carlo acceptance probability of an assignment under the test.

    The completeness reference is exp(-6)*coupling/arity times the family's
    objective, minus a slack multiple of arity*noise; it is only asserted when
    requested (dictator assignments on planted instances).
    """
    sampler = BatchTestSampler(gap, theta, graph, params)
    run = mc_run(lambda rng, m: sampler.accept_indicators(f, m, rng), trials, seed, tag="acceptance")
    c = theta.objective()
    bound = math.exp(-6.0) * params.rho_sq / params.r * c - slack * params.r * params.eta
    holds = run.value >= bound - 3.0 * run.stderr if assert_bound else None
    return AcceptanceReport(run.value, run.stderr, trials, seed, c, bound, slack, holds)


# ---- leak-variable decoupling --------------------------------------------------


@dataclass
class DecouplingReport:
    lhs: float
    rhs: float
    product_term: float
    additive_term: float
    max_influence: float
    budget: float
    holds: bool
    mode: str


def _leak_block(block_probs: np.ndarray, r: int, beta: float, rho_sq: float) -> np.ndarray:
    """Joint (x-block, z-block) one-coordinate distribution: position bits from
    the edge's local distribution; leak bits either copied from one draw or
    i.i.d., independent of the bits."""
    z_iid = np.ones(1)
    for _ in range(r):
        z_iid = np.multiply.outer(z_iid, np.array([1.0 - beta, beta])).reshape(-1)
    z_coupled = np.zeros(2 ** r)
    z_coupled[0] = 1.0 - beta
    z_coupled[-1] = beta
    z_dist = rho_sq * z_coupled + (1.0 - rho_sq) * z_iid
    return np.multiply.outer(block_probs, z_dist)


def _pair_indices(outcomes: np.ndarray, r: int, R: int) -> list[np.ndarray]:
    """Flat paired-table indices per position for coordinatewise outcomes.

    ``outcomes`` is (N, R) with entries in [0, 4^r): per-coordinate joint
    (x-block, z-block) codes.  Returns one (N,) index array per position.
    """
    xb = outcomes // (2 ** r)
    zb = outcomes % (2 ** r)
    out = []
    for pos in range(r):
        x_bits = (xb >> (r - 1 - pos)) & 1
        z_bits = (zb >> (r - 1 - pos)) & 1
        x_idx = np.zeros(len(outcomes), dtype=np.int64)
        z_idx = np.zeros(len(outcomes), dtype=np.int64)
        for j in range(R):
            x_idx = (x_idx << 1) | x_bits[:, j]
            z_idx = (z_idx << 1) | z_bits[:, j]
        out.append(x_idx * 2 ** R + z_idx)
    return out


def coupled_product_expectation(
    h_values: list[np.ndarray], d_block_flat: np.ndarray, r: int, R: int
) -> float:
    """Exact E[prod_i h_i] when coordinates are i.i.d. copies of one
    (x-block, z-block) joint; h_i are flat paired-space tables."""
    n_blk = 4 ** r
    if n_blk ** R > _EXACT_WORK_CAP:
        raise ValueError("exact coupled enumeration too large")
    combos = np.array(list(itertools.product(range(n_blk), repeat=R)), dtype=np.int64)
    probs = d_block_flat[combos].prod(axis=1)
    prod = np.ones(len(combos))
    for pos, idx in enumerate(_pair_indices(combos, r, R)):
        prod *= h_values[pos][idx]
    return float(np.dot(probs, prod))


def product_expectation_over_blocks(
    h_values: list[np.ndarray], block_probs: np.ndarray, r: int, R: int
) -> float:
    """Exact E[prod_i h_i(x_i)] with coordinatewise x-blocks; h_i are flat
    bit-space tables."""
    combos = np.array(list(itertools.product(range(2 ** r), repeat=R)), dtype=np.int64)
    probs = np.asarray(block_probs, dtype=float)[combos].prod(axis=1)
    prod = np.ones(len(combos))
    for pos in range(r):
        bits = (combos >> (r - 1 - pos)) & 1
        idx = np.zeros(len(combos), dtype=np.int64)
        for j in range(R):
            idx = (idx << 1) | bits[:, j]
        prod *= h_values[pos][idx]
    return float(np.dot(probs, prod))


def decoupling_check(
    h_tables: list[FunctionTable],
    block_probs: np.ndarray,
    params: ReductionParams,
    mode: str = "exact",
    budget: float = 0.0,
    samples: int = 1 << 20,
    seed: int = 0,
) -> DecouplingReport:
    """Coupled product expectation against its decoupled upper bound.

    LHS draws the full coupled tuple; RHS is 2^r times the product expectation
    of the leak-averaged tables under the edge distribution, plus bias^arity.
    Exact mode enumerates both sides.
    """
    r = len(h_tables)
    space = h_tables[0].space
    if not isinstance(space, PairedSpace):
        raise TypeError("tables must live on the paired space")
    R = space.r
    beta = space.leak.biases[0]
    d_block = _leak_block(np.asarray(block_probs, dtype=float), r, beta, params.rho_sq)
    n_blk = 4 ** r
    flat = d_block.reshape(-1)

    # leak-averaged tables
    zw = np.ones(1)
    for _ in range(R):
        zw = np.multiply.outer(zw, np.array([1.0 - beta, beta])).reshape(-1)
    hbars = [t.values.reshape(2 ** R, 2 ** R) @ zw for t in h_tables]

    if mode == "exact":
        lhs = coupled_product_expectation([t.values for t in h_tables], flat, r, R)
        product_term = product_expectation_over_blocks(hbars, block_probs, r, R)
    elif mode == "mc":
        rng = rng_for(seed, "decoupling")
        draws = rng.choice(n_blk, size=(samples, R), p=flat)
        prod = np.ones(samples)
        for pos, idx in enumerate(_pair_indices(draws, r, R)):
            prod *= h_tables[pos].values[idx]
        lhs = float(prod.mean())
        xd = rng.choice(2 ** r, size=(samples, R), p=np.asarray(block_probs, dtype=float))
        prod_term = np.ones(samples)
        for pos in range(r):
            bits = (xd >> (r - 1 - pos)) & 1
            idx = np.zeros(samples, dtype=np.int64)
            for j in range(R):
                idx = (idx << 1) | bits[:, j]
            prod_term *= hbars[pos][idx]
        product_term = float(prod_term.mean())
    else:
        raise ValueError(f"unknown mode {mode!r}")

    additive = params.mu ** r
    rhs = 2 ** r * product_term + additive
    max_inf = max(max_influence(fourier_expand(t)) for t in h_tables)
    return DecouplingReport(
        lhs=lhs,
        rhs=rhs,
        product_term=product_term,
        additive_term=additive,
        max_influence=max_inf,
        budget=budget,
        holds=lhs <= rhs + budget,
        mode=mode,
    )


# ---- long-code mixing -----------------------------------------------------------


@dataclass
class MixingReport:
    fraction: float
    fraction_stderr: float
    bound: float
    threshold: float
    alpha: float
    center: float
    a_samples: int
    inner_samples: int
    holds: bool
    seed: int


def mixing_check(
    gap: ConstraintHypergraph,
    theta: LocalDistributionFamily,
    graph: SseGraph,
    params: ReductionParams,
    f: LongCodeAssignment,
    alpha: float,
    a_samples: int,
    seed: int,
    inner_samples: int = 1024,
    mu: float | None = None,
) -> MixingReport:
    """Concentration of the per-vertex-vector mean of the averaged tables.

    Estimates the probability that the restriction mean deviates from its
    center by alpha*sqrt(bias) and compares with |V_gap|*beta/alpha^2.
    """
    R = params.R
    n = graph.n
    verts = gap.vertices
    wvec = gap.vertex_weight_vector(verts)
    mus = np.array([theta.vertex_mean(v) for v in verts])
    rng = rng_for(seed, "mixing")
    a_pts = rng.integers(0, n, size=(a_samples, R))
    mu_hat = np.empty(a_samples)
    batch = max(1, CHUNK // max(inner_samples, 1))
    for start in range(0, a_samples, batch):
        a_blk = a_pts[start : start + batch]
        m = len(a_blk) * inner_samples
        a_rep = np.repeat(a_blk, inner_samples, axis=0)
        vert_idx = rng.choice(len(verts), size=m, p=wvec)
        mu_draw = mus[vert_idx][:, None]
        x = (rng.random((m, R)) < mu_draw).astype(np.int8)
        z = (rng.random((m, R)) < params.beta).astype(np.int8)
        b = noisy_walk(graph, params.eta, a_rep, rng)
        b, x = leakage_apply(z, mu_draw, (b, x), graph, rng)
        _, parts = permute_rows(rng, b, x, z)
        vals = f.evaluate_batch(*parts)
        mu_hat[start : start + len(a_blk)] = vals.reshape(len(a_blk), inner_samples).mean(axis=1)
    center = float(mu_hat.mean()) if mu is None else float(mu)
    threshold = alpha * math.sqrt(max(center, 1e-300))
    frac = float((np.abs(mu_hat - center) >= threshold).mean())
    se = math.sqrt(max(frac * (1 - frac), 0.0) / a_samples)
    bound = len(verts) * params.beta / alpha ** 2
    return MixingReport(
        fraction=frac,
        fraction_stderr=se,
        bound=bound,
        threshold=threshold,
        alpha=alpha,
        center=center,
        a_samples=a_samples,
        inner_samples=inner_samples,
        holds=frac <= bound + 3.0 * se,
        seed=seed,
    )


# ---- influence decoding -----------------------------------------------------------


@dataclass
class DecodeStatReport:
    match_prob: float
    stderr: float
    baseline: float
    max_list_size: int
    list_size_cap: float
    list_cap_holds: bool
    respect_violations: int
    respect_checks: int
    samples: int
    seed: int


def influence_decode_stat(
    table_family,
    graph: SseGraph,
    params: ReductionParams,
    tau: float,
    samples: int,
    seed: int,
    respect_checks: int = 200,
) -> DecodeStatReport:
    """Candidate-coordinate matching statistic for a permutation-respecting
    table family indexed by vertex-vectors.

    ``table_family(A_tuple)`` must return a bounded bit-space table.  Builds
    the influence candidate lists of the noised tables and of their walk
    averages, realizes one lazily-sampled randomized decoder, and estimates
    the probability that two endpoints of a walk step decode to a common
    unpermuted coordinate.
    """
    R = params.R
    n = graph.n
    eta = params.eta
    if n ** R > 4096:
        raise ValueError("vertex-vector space too large for exact walk averages")
    rng = rng_for(seed, "decode-stat")
    walk = walk_matrix(graph, eta)

    tables: dict[tuple, np.ndarray] = {}

    def table_of(pt: tuple) -> np.ndarray:
        if pt not in tables:
            tables[pt] = np.asarray(table_family(pt).values, dtype=float)
        return tables[pt]

    all_points = list(itertools.product(range(n), repeat=R))
    space = table_family(all_points[0]).space

    def noised_influences(vals: np.ndarray) -> np.ndarray:
        fh = noise_apply(fourier_expand(FunctionTable(space, vals)), 1.0 - eta)
        return np.array([influence(fh, j) for j in range(R)])

    # permutation-respect spot check
    violations = 0
    pts_x = ((np.arange(2 ** R)[:, None] >> np.arange(R - 1, -1, -1)) & 1).astype(np.int8)
    for _ in range(respect_checks):
        pt = all_points[int(rng.integers(len(all_points)))]
        perm = rng.permutation(R)
        x = pts_x[int(rng.integers(2 ** R))]
        permuted_pt = tuple(np.asarray(pt)[perm])
        lhs = table_of(permuted_pt)[_pack_bits(x[perm])]
        rhs = table_of(pt)[_pack_bits(x)]
        if abs(lhs - rhs) > 1e-9:
            violations += 1

    g_tables: dict[tuple, np.ndarray] = {}

    def g_of(pt: tuple) -> np.ndarray:
        if pt not in g_tables:
            per_coord = [walk[pt[j]] for j in range(R)]
            acc = np.zeros(2 ** R)
            for b_pt in all_points:
                p = 1.0
                for j in range(R):
                    p *= per_coord[j][b_pt[j]]
                if p > 0:
                    acc += p * table_of(b_pt)
            g_tables[pt] = acc
        return g_tables[pt]

    lists1: dict[tuple, np.ndarray] = {}
    lists2: dict[tuple, np.ndarray] = {}

    def candidate_lists(pt: tuple) -> tuple[np.ndarray, np.ndarray]:
        if pt not in lists1:
            inf_f = noised_influences(table_of(pt))
            inf_g = noised_influences(g_of(pt))
            lists1[pt] = np.flatnonzero(inf_f >= tau / 2.0)
            lists2[pt] = np.flatnonzero(inf_g >= tau)
        return lists1[pt], lists2[pt]

    decoder: dict[tuple, int] = {}

    def decode(pt: tuple) -> int:
        if pt not in decoder:
            l1, l2 = candidate_lists(pt)
            pick = l1 if rng.random() < 0.5 else l2
            decoder[pt] = int(rng.choice(pick)) if len(pick) else 0
        return decoder[pt]

    matches = 0
    for _ in range(samples):
        a = np.array([int(rng.integers(n)) for _ in range(R)])
        b = np.array([int(rng.choice(n, p=walk[a[j]])) for j in range(R)])
        pa, pb = rng.permutation(R), rng.permutation(R)
        ja = int(pa[decode(tuple(a[pa]))])
        jb = int(pb[decode(tuple(b[pb]))])
        matches += int(ja == jb)
    match_prob = matches / samples
    se = math.sqrt(max(match_prob * (1 - match_prob), 0.0) / samples)
    max_list = max(
        [len(l) for l in lists1.values()] + [len(l) for l in lists2.values()] + [0]
    )
    cap = 2.0 / (eta * tau)
    return DecodeStatReport(
        match_prob=match_prob,
        stderr=se,
        baseline=1.0 / R,
        max_list_size=max_list,
        list_size_cap=cap,
        list_cap_holds=max_list <= cap,
        respect_violations=violations,
        respect_checks=respect_checks,
        samples=samples,
        seed=seed,
    )


def _pack_bits(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx
