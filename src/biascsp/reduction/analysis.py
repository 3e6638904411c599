"""Verifiers for the lifted test: acceptance estimation and its exact oracle,
averaged restriction tables, leak-variable decoupling, long-code mixing, and
influence-decoding statistics."""
from __future__ import annotations

import math

import numpy as np

from ..csp import ConstraintHypergraph
from ..harness.mc import BLOCK_ENTRIES, CHUNK, ORACLE_CAP, mc_run, run_chunks
from ..harness.rng import rng_for
from ..harness.verdict import Check
from ..polynomial import _apply_axis
from ..probspace import (
    TOL,
    BiasedSpace,
    FunctionTable,
    PairedSpace,
    _character_transform,
    _mask_degrees,
    domain_points,
    fourier_expand,
    iid_product_expectation,
    max_influence,
    pack_bits,
    product_measure,
)
from ..pseudodist import LocalDistributionFamily
from .dictator import LongCodeAssignment, permute_rows
from .graphs import SseGraph, noisy_walk, walk_matrix
from .params import ReductionParams
from .sampler import BatchTestSampler, _interleave, _leak_block, bernoulli_bits, letter_block

# The completeness reference of :func:`acceptance_estimate` gives up this
# multiple of arity*noise.
COMPLETENESS_SLACK = 10.0


# ---- the permutation-averaged assignment ------------------------------------


def _symmetrized(f: LongCodeAssignment, n: int, R: int) -> np.ndarray:
    """f averaged over the coordinate permutations, on the lifted grid.

    Axis j of the (4n,)*R result is coordinate j, with letter
    4*A(j) + 2*x(j) + z(j).  f is read once per grid point, CHUNK rows at a
    time, and the grid is refused above ORACLE_CAP before f is read.  The
    average over S_R is taken one axis at a time: S_k is the union of the
    cosets (j k-1) S_{k-1}, j < k, so swapping axis k-1 with each earlier
    axis averages a table symmetric in its first k-1 axes over S_k.
    """
    size = (4 * n) ** R
    if size > ORACLE_CAP:
        raise ValueError(
            f"lifted grid (4n)^R = {size} is too large for the exact oracle (cap {ORACLE_CAP})"
        )
    t = np.empty(size)
    for start in range(0, size, CHUNK):
        stop = min(start + CHUNK, size)
        code = np.stack(np.unravel_index(np.arange(start, stop), (4 * n,) * R), axis=1)
        t[start:stop] = f.evaluate_batch(code // 4, code // 2 % 2, code % 2)
    t = t.reshape((4 * n,) * R)
    for k in range(2, R + 1):
        acc = t.copy()
        for j in range(k - 1):
            acc += np.swapaxes(t, j, k - 1)
        acc /= k
        t = acc
    return t


# ---- averaged restriction tables --------------------------------------------


def averaged_function(
    f: LongCodeAssignment,
    A,
    mu_i: float,
    beta: float,
    eta: float,
    graph: SseGraph,
) -> FunctionTable:
    """Restriction of f to a lifted vertex-vector, averaged over the noisy
    walk, the leakage fold, and a uniform coordinate permutation.

    Returns a bounded table on the paired (bit, leak) space of the vertex.
    The permutation average of f on the (4n)^R lifted grid is contracted one
    coordinate at a time, so the call is refused when that grid exceeds
    ORACLE_CAP.
    """
    A = np.asarray(A, dtype=np.int64)
    R = A.size
    space = PairedSpace(
        BiasedSpace((mu_i,) * R, "bit"), BiasedSpace((beta,) * R, "leak")
    )
    t = _symmetrized(f, graph.n, R)
    walk = walk_matrix(graph, eta)
    for j in range(R):
        t = _apply_axis(t, _fold_kernel(walk[A[j]], mu_i), j)
    # letters 2x + z per axis -> x bits, then z bits: the paired layout
    values = t.reshape((2, 2) * R).transpose([*range(0, 2 * R, 2), *range(1, 2 * R, 2)]).reshape(-1)
    return FunctionTable(space, np.clip(values, 0.0, 1.0), bounded=True)


# ---- exact acceptance via per-coordinate blocks ------------------------------


def _fold_kernel(walk_rows: np.ndarray, mu: float) -> np.ndarray:
    """The leakage fold from letter 2x + z to code 4b + 2x' + z', as a (4, 4n)
    conditional law with rows indexed by the letter: z' = z; where z is top,
    b follows ``walk_rows`` and x' = x; where z is bot, b is uniform and x' is
    a fresh Bernoulli(mu) bit.  Leading axes of ``walk_rows`` (one walk row
    per source vertex, say) lead the result."""
    lead, n = walk_rows.shape[:-1], walk_rows.shape[-1]
    kernel = np.zeros((*lead, 2, 2, n, 2, 2))
    kernel[..., :, 1, :, :, 1] = walk_rows[..., None, :, None] * np.eye(2)[:, None, :]
    kernel[..., :, 0, :, :, 0] = np.multiply.outer(np.full(n, 1.0 / n), [1.0 - mu, mu])
    return kernel.reshape(*lead, 4, 4 * n)


def test_block_distribution(
    gap: ConstraintHypergraph,
    theta: LocalDistributionFamily,
    graph: SseGraph,
    params: ReductionParams,
    edge_index: int,
) -> np.ndarray:
    """Exact one-coordinate joint of ((B', x', z') per position) for one edge.

    Output tensor has one axis of size 4n per edge position; the per-position
    code is vertex*4 + bit*2 + leak.  Coordinates of the full R-dimensional
    tuple are i.i.d. copies of this block.  It is the edge's
    :func:`letter_block`, the law the sampler draws its letters from, folded
    from one uniform vertex a shared by all positions.  A block above
    ORACLE_CAP entries is refused before anything is allocated.

    The fold is contracted from the last position to the first: positions
    r-1, ..., 1 per source vertex a, as batched matmuls, and position 0 jointly
    over (a, letter) as one matmul, which also takes the mean over a.  At
    r = 2 that is sum_a K_a^T L K_a' / n for the fold kernels K_a, K_a' of
    the two positions and the letter block L.  Each position's kernels are
    one (n, 4, 4n) array, like the walk matrix O(n^2); at r >= 2 neither
    they nor any intermediate exceeds the block's (4n)^r entries.
    """
    edge, _ = gap.edges[edge_index]
    r = len(edge)
    n = graph.n
    if (4 * n) ** r > ORACLE_CAP:
        raise ValueError(f"test block (4n)^r = {(4 * n) ** r} is too large (cap {ORACLE_CAP})")
    mus = [theta.vertex_mean(v) for v in edge]
    walk = walk_matrix(graph, params.eta)
    # t[a, earlier letters, letter of pos, folded codes of the later positions]
    t = letter_block(theta, edge, params).reshape(1, 4 ** (r - 1), 4, 1)
    for pos in range(r - 1, 0, -1):
        t = np.swapaxes(t, 2, 3) @ _fold_kernel(walk, mus[pos])[:, None]
        t = np.swapaxes(t, 2, 3).reshape(n, 4 ** (pos - 1), 4, -1)
    t = np.broadcast_to(t, (n, 1, 4, t.shape[-1])).reshape(4 * n, -1)
    block = _fold_kernel(walk, mus[0]).reshape(4 * n, 4 * n).T @ t
    block /= n
    return block.reshape((4 * n,) * r)


def acceptance_exact(
    gap: ConstraintHypergraph,
    theta: LocalDistributionFamily,
    graph: SseGraph,
    params: ReductionParams,
    f: LongCodeAssignment,
) -> float:
    """Acceptance probability of f under the test, exactly.

    Each position reads f at an independent uniform coordinate permutation,
    that is, it reads the permutation average of f, and the R coordinates of
    the test are i.i.d. copies of :func:`test_block_distribution`.  So per
    edge and accepting string the acceptance is a product expectation of the
    average or its complement per position, contracted one coordinate at a
    time.  The (4n)^R grid and, at arity r, the contraction's (4n)^((r-1)R)
    entries are checked against ORACLE_CAP before f is read.
    """
    R = params.R
    n = graph.n
    for edge, _ in gap.edges:
        if (4 * n) ** ((len(edge) - 1) * R) > ORACLE_CAP:
            raise ValueError("exact acceptance contraction too large")
        if (4 * n) ** len(edge) > ORACLE_CAP:
            raise ValueError("exact acceptance test block too large")
    fbar = _symmetrized(f, n, R)
    reads = (1.0 - fbar, fbar)
    total = 0.0
    for e_idx, (edge, w_e) in enumerate(gap.edges):
        block = test_block_distribution(gap, theta, graph, params, e_idx)
        for a in sorted(gap.predicate.accepting):
            total += w_e * iid_product_expectation([reads[bit] for bit in a], block)
    return total


# ---- Monte Carlo acceptance ---------------------------------------------------

# Rows in one chunk of acceptance_estimate's Monte Carlo run: a quarter of
# CHUNK, so four threads in flight hold about one CHUNK of rows.
_LIFTED_ROWS = CHUNK // 4


def acceptance_estimate(
    gap: ConstraintHypergraph,
    theta: LocalDistributionFamily,
    graph: SseGraph,
    params: ReductionParams,
    f: LongCodeAssignment,
    trials: int,
    seed: int,
) -> Check:
    """Monte Carlo acceptance probability of an assignment under the test,
    checked against the completeness reference within 3 standard errors.

    The reference is exp(-6)*coupling/arity times the family's objective,
    minus :data:`COMPLETENESS_SLACK` times arity*noise; it speaks for
    dictator assignments on planted instances, and a reference <= 0 is
    vacuous.

    The trials run in chunks of ``_LIFTED_ROWS`` on every usable CPU
    (``mc_run``), so ``f`` is called from several threads at once; the
    result is the serial one bit for bit.  The sampler is immutable once
    built, so the threads share it.
    """
    sampler = BatchTestSampler(gap, theta, graph, params)
    run = mc_run(lambda rng, m: sampler.accept_indicators(f, m, rng), trials, seed, "acceptance", chunk=_LIFTED_ROWS)
    c = theta.objective()
    bound = math.exp(-6.0) * params.rho_sq / params.r * c - COMPLETENESS_SLACK * params.r * params.eta
    return Check(
        run.value, bound, ">=", stderr=run.stderr, span=(0.0, 1.0), samples=trials, seed=seed,
        counters={"objective": c, "threads": run.threads}, detail={"trials": trials},
    )


# ---- leak-variable decoupling --------------------------------------------------


def _pair_indices(outcomes: np.ndarray, r: int, R: int) -> list[np.ndarray]:
    """Flat paired-table indices per position for coordinatewise outcomes.

    ``outcomes`` is (N, R) with entries in [0, 4^r): per-coordinate joint
    (x-block, z-block) codes.  Returns one (N,) int64 index array per
    position, packed from that position's (N, R) int8 x and z bits, which
    are gathered from a (4^r, 2r) table of each code's bits.
    """
    code_bits = domain_points(2 * r).astype(np.int8)  # x-block bits, then z-block bits
    return [pack_bits([*code_bits[outcomes, pos].T, *code_bits[outcomes, r + pos].T]) for pos in range(r)]


def coupled_product_expectation(
    h_values: list[np.ndarray], d_block_flat: np.ndarray, r: int, R: int
) -> float:
    """Exact E[prod_i h_i] when coordinates are i.i.d. copies of one
    (x-block, z-block) joint; h_i are flat paired-space tables."""
    return iid_product_expectation(
        [_interleave(h, R) for h in h_values], _interleave(d_block_flat, r)
    )


# Entries of one draw block of Monte Carlo decoupling: about 128 KiB of codes.
_DRAW_ENTRIES = BLOCK_ENTRIES // 16


def _drawn_in_blocks(product, probs: np.ndarray, R: int):
    """An ``mc_run`` estimator: ``product(codes)`` of (rows, R) i.i.d. codes
    drawn from ``probs``, ``_DRAW_ENTRIES // R`` rows at a time.  The blocks
    read the chunk's generator in row order, so the codes are those of one
    draw of the whole chunk, and a thread holds its chunk's values and one
    block of codes whatever the chunk size."""
    rows = max(1, _DRAW_ENTRIES // R)

    def estimator(rng, m):
        out = np.empty(m)
        for lo in range(0, m, rows):
            out[lo:lo + rows] = product(rng.choice(probs.size, size=(min(rows, m - lo), R), p=probs))
        return out

    return estimator


def decoupling_check(
    h_tables: list[FunctionTable],
    block_probs: np.ndarray,
    params: ReductionParams,
    mode: str = "exact",
    samples: int = 1 << 20,
    seed: int = 0,
) -> Check:
    """Coupled product expectation against its decoupled upper bound,
    lhs <= rhs, within 3 standard errors of lhs in Monte Carlo mode.

    LHS draws the full coupled tuple; RHS is 2^r times the product expectation
    of the leak-averaged tables under the edge distribution, plus bias^arity.
    Exact mode computes both sides by per-coordinate contraction.  Monte
    Carlo mode runs each side through ``mc_run`` (tags ``decoupling-lhs`` and
    ``decoupling-product``) on every usable CPU and draws each chunk in
    blocks (:func:`_drawn_in_blocks`), so a thread holds one chunk's values
    and one block of codes whatever ``samples`` is; its counters carry the
    thread count.  LHS is a mean of [0, 1] products, so rhs >= 1 is vacuous.
    """
    r = len(h_tables)
    space = h_tables[0].space
    if not isinstance(space, PairedSpace):
        raise TypeError("tables must live on the paired space")
    R = space.r
    beta = space.leak.biases[0]
    block_probs = np.asarray(block_probs, dtype=float)
    d_block = _leak_block(block_probs, r, beta, params.rho_sq)
    flat = d_block.reshape(-1)

    # leak-averaged tables
    zw = product_measure([beta] * R)
    hbars = [t.values.reshape(2 ** R, 2 ** R) @ zw for t in h_tables]

    if mode == "exact":
        lhs = coupled_product_expectation([t.values for t in h_tables], flat, r, R)
        product_term = iid_product_expectation(hbars, np.reshape(block_probs, (2,) * r))
        lhs_se = product_se = 0.0
        threads = {}
    elif mode == "mc":

        def coupled(draws):
            prod = np.ones(len(draws))
            for pos, idx in enumerate(_pair_indices(draws, r, R)):
                prod *= h_tables[pos].values[idx]
            return prod

        outcome_bits = domain_points(r).astype(np.int8)

        def decoupled(draws):
            prod = np.ones(len(draws))
            for pos in range(r):
                prod *= hbars[pos][pack_bits(outcome_bits[draws, pos].T)]
            return prod

        lhs_run = mc_run(_drawn_in_blocks(coupled, flat, R), samples, seed, tag="decoupling-lhs")
        product_run = mc_run(_drawn_in_blocks(decoupled, block_probs, R), samples, seed, tag="decoupling-product")
        lhs, lhs_se = lhs_run.value, lhs_run.stderr
        product_term, product_se = product_run.value, product_run.stderr
        threads = {"threads": lhs_run.threads}
    else:
        raise ValueError(f"unknown mode {mode!r}")

    rhs = 2 ** r * product_term + params.mu ** r
    max_inf = max(max_influence(fourier_expand(t)) for t in h_tables)
    return Check(
        lhs, rhs, stderr=lhs_se, span=(0.0, 1.0), samples=samples if mode == "mc" else None, seed=seed,
        counters={"max_influence": max_inf, "mode": mode, "product_stderr": product_se, **threads},
        detail={"lhs": lhs, "rhs": rhs, "product_term": product_term},
    )


# ---- long-code mixing -----------------------------------------------------------


def _mixing_block(R: int, inner_samples: int) -> int:
    """Vertex-vectors per chunk of the mixing check: at most one
    ``BLOCK_ENTRIES`` block of lifted entries (``inner_samples`` rows of R
    per vertex-vector), one at least, so a chunk's x and z uniforms and its
    dictator read are one block each whatever R is."""
    return max(1, BLOCK_ENTRIES // (R * inner_samples))


def _restriction_means(
    gap: ConstraintHypergraph,
    theta: LocalDistributionFamily,
    graph: SseGraph,
    params: ReductionParams,
    f: LongCodeAssignment,
    a_samples: int,
    seed: int,
    inner_samples: int,
) -> tuple[np.ndarray, int]:
    """Per-vertex-vector means of ``f`` under the mixing draw, and the thread count.

    Chunk c covers :func:`_mixing_block` vertex-vectors and draws from
    ``rng_for(seed, "mixing", c)`` alone, in this order: its vertex-vectors
    A, the vertex indices, the x and z bits, the walk and the dictator's
    fallback permutations.  The chunks run on every usable CPU
    and are joined in chunk order (:func:`harness.mc.run_chunks`), so the
    means do not depend on the thread count; ``f`` must then be safe to call
    from several threads at once.
    """
    R = params.R
    verts = gap.vertices
    wvec = gap.vertex_weight_vector(verts)
    mus = np.array([theta.vertex_mean(v) for v in verts])

    def chunk(c: int, k: int) -> np.ndarray:
        rng = rng_for(seed, "mixing", c)
        # int32 vertices: the same draws as int64 at half the memory
        a_blk = rng.integers(0, graph.n, size=(k, R), dtype=np.int32)
        m = k * inner_samples
        vert_idx = rng.choice(len(verts), size=m, p=wvec)
        # x is already a Bernoulli(mu) draw, so the fold's refresh of x where
        # z is bot would not change its law; only the vertex part is folded.
        x = bernoulli_bits(rng, mus[vert_idx][:, None], (m, R))
        z = bernoulli_bits(rng, params.beta, (m, R))
        b = noisy_walk(graph, params.eta, a_blk[:, None, :], rng, where=z.reshape(k, inner_samples, R).view(bool))
        vals = f.evaluate_batch(b.reshape(m, R), x, z, rng)
        return vals.reshape(k, inner_samples).mean(axis=1)

    parts, threads = run_chunks(chunk, a_samples, _mixing_block(R, inner_samples))
    return np.concatenate(parts), threads


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
) -> Check:
    """Concentration of the per-vertex-vector mean of the averaged tables.

    Estimates the probability that the restriction mean deviates from its
    center by alpha*sqrt(bias) and compares with |V_gap|*beta/alpha^2.  The
    fraction lies in [0, 1], and is 0 when the threshold exceeds
    max(center, 1 - center), which no mean in [0, 1] reaches.  The
    means are drawn in chunks on every usable CPU
    (:func:`_restriction_means`); the report is the same bit for bit on any
    CPU count, except ``threads``.  ``a_samples < 1``, ``inner_samples < 1``
    and ``alpha <= 0`` are refused before anything is drawn.
    """
    if a_samples < 1:
        raise ValueError(f"a_samples must be at least 1, got {a_samples}")
    if inner_samples < 1:
        raise ValueError(f"inner_samples must be at least 1, got {inner_samples}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    mu_hat, threads = _restriction_means(gap, theta, graph, params, f, a_samples, seed, inner_samples)
    center = float(mu_hat.mean()) if mu is None else float(mu)
    threshold = alpha * math.sqrt(max(center, 1e-300))
    frac = float((np.abs(mu_hat - center) >= threshold).mean())
    se = math.sqrt(max(frac * (1 - frac), 0.0) / a_samples)
    bound = len(gap.vertices) * params.beta / alpha ** 2
    span = (0.0, 0.0) if threshold > max(center, 1.0 - center) else (0.0, 1.0)
    return Check(
        frac, bound, stderr=se, span=span, samples=a_samples, seed=seed,
        counters={"threshold": threshold, "threads": threads, "inner_samples": inner_samples},
        detail={"a_samples": a_samples, "center": center},
    )


# ---- influence decoding -----------------------------------------------------------


def _walk_average(tables: np.ndarray, walk: np.ndarray) -> np.ndarray:
    """g(A) = E[t_B] with B(j) drawn from ``walk[A(j)]`` independently per
    coordinate; ``tables`` holds t_B at index B on its first axes, one per
    coordinate, and the table on its last.

    Axis 0 is contracted into a new array, and each later axis j in place,
    as ``walk @ v[b]`` over the (n^j, n, rest) view v, a block of about
    ``BLOCK_ENTRIES`` entries at a time: the same products as contracting
    the whole axis, with a working set of the result and one block."""
    n = len(walk)
    out = (walk @ tables.reshape(n, -1)).reshape(tables.shape)
    for j in range(1, tables.ndim - 1):
        v = out.reshape(n ** j, n, -1)
        step = max(1, BLOCK_ENTRIES // v[0].size)
        for lo in range(0, len(v), step):
            v[lo : lo + step] = walk @ v[lo : lo + step]
    return out


def _respect_violations(tables: np.ndarray, R: int) -> int:
    """Entries of a (n,)*R + (2,)*R table family, vertex-vector axes first,
    that some adjacent transposition of the coordinates, applied to the
    vertex-vector and the point together, maps to a value more than 1e-9
    away.  The R - 1 adjacent transpositions generate S_R, so the count is 0
    exactly when the family respects every coordinate permutation.  One
    float buffer serves every transposition."""
    bad = np.zeros(tables.shape, dtype=bool)
    diff = np.empty(tables.shape)
    for j in range(R - 1):
        moved = np.swapaxes(np.swapaxes(tables, j, j + 1), R + j, R + j + 1)
        np.subtract(moved, tables, out=diff)
        bad |= np.abs(diff, out=diff) > 1e-9
    return int(np.count_nonzero(bad))


def _noised_influences(tables: np.ndarray, biases, eta: float) -> np.ndarray:
    """Influence of each coordinate in T_{1-eta} of each row of ``tables``:
    (m, 2^R) values over the given biases in, (m, R) influences out.  Rows
    are transformed in blocks of ``BLOCK_ENTRIES`` entries."""
    R = len(biases)
    damping = (1.0 - eta) ** _mask_degrees(R).reshape((2,) * R)
    rows = max(1, BLOCK_ENTRIES // tables.shape[1])
    out = np.empty((len(tables), R))
    for start in range(0, len(tables), rows):
        block = tables[start : start + rows]
        weight = _character_transform(block.reshape((-1,) + (2,) * R), biases, first_axis=1)
        weight *= damping
        np.square(weight, out=weight)
        for j in range(R):
            out[start : start + rows, j] = weight.take(1, axis=1 + j).reshape(len(block), -1).sum(axis=1)
    return out


def _check_decode_size(n: int, R: int) -> None:
    """Refuse a family of n^R tables, n^R * 2^R entries, above ORACLE_CAP."""
    if n ** R * 2 ** R > ORACLE_CAP:
        raise ValueError(
            f"table family n^R * 2^R = {n ** R * 2 ** R} is too large for exact walk averages (cap {ORACLE_CAP})"
        )


def influence_decode_stat(
    tables,
    space: BiasedSpace,
    graph: SseGraph,
    params: ReductionParams,
    tau: float,
    samples: int,
    seed: int,
) -> Check:
    """Candidate-coordinate matching statistic for a permutation-respecting
    table family indexed by vertex-vectors, and the check that every
    candidate list has at most 2/(eta*tau) entries.

    ``tables`` holds the family's [0, 1] values on the bit space ``space``,
    one row per vertex-vector A in ``np.ndindex((n,)*R)`` order; its
    n^R * 2^R entries are refused above ORACLE_CAP before any is read.
    Candidate lists are the coordinates of influence >= tau/2 in the noised
    table and >= tau in the noised walk average.  One randomized decoder is
    realized for every vertex-vector (a fair coin picks a list, then a
    uniform entry of it; coordinate 0 if it is empty), before the walk is
    drawn.  The statistic is the probability that both endpoints of a
    noisy-walk step, each read at an independent uniform coordinate
    permutation, decode to a common unpermuted coordinate; it is reported
    as ``match_prob`` with ``match_stderr``, next to the ``baseline`` 1/R.
    A list has at most R entries, so a cap of R or more is vacuous.
    """
    R = params.R
    n = graph.n
    eta = params.eta
    _check_decode_size(n, R)
    tables = np.asarray(tables, dtype=float)
    if tables.shape != (n ** R, 2 ** R) or space.r != R:
        raise ValueError(f"expected ({n ** R}, {2 ** R}) tables at R = {R}, got {tables.shape} at R = {space.r}")
    if tables.min() < -TOL or tables.max() > 1.0 + TOL:
        raise ValueError("table family has values outside [0,1]")
    rng = rng_for(seed, "decode-stat")
    tables = tables.reshape((n,) * R + (-1,))
    violations = _respect_violations(tables.reshape((n,) * R + (2,) * R), R)
    g_tables = _walk_average(tables, walk_matrix(graph, eta))

    # candidate lists, (2, n^R, R): the tables' at tau/2, the walk averages' at tau
    cells = n ** R
    lists = np.stack([
        _noised_influences(t.reshape(cells, -1), space.biases, eta) >= cut
        for t, cut in ((tables, tau / 2.0), (g_tables, tau))
    ])
    del g_tables
    # the decoder: a fair coin picks a list, then a uniform entry of it
    pick = lists[(rng.random(cells) >= 0.5).astype(np.int64), np.arange(cells)]
    size = np.count_nonzero(pick, axis=1)
    k = rng.integers(0, np.maximum(size, 1))
    decoder = np.where(size > 0, np.argmax(np.cumsum(pick, axis=1) > k[:, None], axis=1), 0)

    a = rng.integers(0, n, size=(samples, R))
    ends = []
    for pt in (a, noisy_walk(graph, eta, a, rng)):
        perm, (permuted,) = permute_rows(rng, pt)
        picked = decoder[np.ravel_multi_index(tuple(permuted.T), (n,) * R)]
        ends.append(perm[np.arange(samples), picked])
    match_prob = float(np.mean(ends[0] == ends[1]))
    se = math.sqrt(max(match_prob * (1 - match_prob), 0.0) / samples)
    max_list = int(np.count_nonzero(lists, axis=2).max())
    return Check(
        max_list, 2.0 / (eta * tau), span=(0.0, float(R)), samples=samples, seed=seed,
        counters={"match_prob": match_prob, "baseline": 1.0 / R, "respect_violations": violations},
        detail={"match_stderr": se},
    )
