"""The lifted test distribution: one constraint tuple per draw.

For a sampled gap edge, each output position carries a triple
(vertex-vector, bit-vector, leak-vector).  The coordinates are i.i.d.; each
is a uniform source vertex A shared by all positions, the letters 2x' + z'
of all positions drawn at once from :func:`letter_block` with the bit half
of the leakage fold applied (:func:`_bit_fold`), and then the vertex half,
a noisy-walk step from A where z' is top, walked one position at a time
(``analysis.test_block_distribution`` folds :func:`letter_block` exactly,
by its own kernel).  Each position is
read at an independent uniform coordinate permutation; since the
permutation is independent of everything else, it is applied where the
assignment is evaluated (``LongCodeAssignment.evaluate_batch`` with an
rng), not here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..csp import ConstraintHypergraph
from ..harness.mc import BLOCK_ENTRIES
from ..polynomial import _apply_axis
from ..probspace import domain_points, pack_bits, product_measure
from ..pseudodist import LocalDistributionFamily, _smooth_kernel, edge_block_probs
from .dictator import permute_rows
from .graphs import SseGraph, noisy_walk
from .params import ReductionParams


def _leak_block(block_probs: np.ndarray, r: int, beta: float, rho_sq: float) -> np.ndarray:
    """Joint (x-block, z-block) one-coordinate distribution: position bits from
    the edge's local distribution; leak bits either copied from one draw or
    i.i.d., independent of the bits."""
    z_iid = product_measure([beta] * r)
    z_coupled = np.zeros(2 ** r)
    z_coupled[0] = 1.0 - beta
    z_coupled[-1] = beta
    z_dist = rho_sq * z_coupled + (1.0 - rho_sq) * z_iid
    return np.multiply.outer(block_probs, z_dist)


def _interleave(values: np.ndarray, n: int) -> np.ndarray:
    """Regroup a (2,)*n + (2,)*n tensor (x bits, then z bits) as (4,)*n with
    letter 2*x_j + z_j on axis j."""
    t = np.asarray(values, dtype=float).reshape((2,) * (2 * n))
    return t.transpose([a for j in range(n) for a in (j, n + j)]).reshape((4,) * n)


def letter_block(theta: LocalDistributionFamily, edge: tuple[str, ...], params: ReductionParams) -> np.ndarray:
    """One coordinate's law of the noised letters 2x~ + z' of an edge, as a
    (4,)*r tensor with position i on axis i: the leak block (letters 2x + z)
    with each position's letter re-randomized by N(mu_v, eta) on x and
    N(beta, eta) on z, where N(p, eta) = (1 - eta) I + eta Bernoulli(p) is
    ``pseudodist._smooth_kernel(eta, p)``, the smoothing kernel."""
    r = len(edge)
    probs, _ = edge_block_probs(theta, edge)
    letters = _interleave(_leak_block(probs, r, params.beta, params.rho_sq), r)
    for pos, v in enumerate(edge):
        kernel = np.kron(_smooth_kernel(params.eta, theta.vertex_mean(v)), _smooth_kernel(params.eta, params.beta))
        letters = _apply_axis(letters, kernel, pos)
    return letters


def bernoulli_bits(rng: np.random.Generator, p, shape: tuple[int, ...]) -> np.ndarray:
    """int8 Bernoulli(p) bits of ``shape``; ``p`` is a scalar or holds one
    value per row, broadcasting against ``shape`` with a last axis of 1.  The
    uniforms are drawn in row blocks of ``BLOCK_ENTRIES`` into one buffer:
    the same stream as one draw of the whole shape."""
    out = np.empty(shape, dtype=np.int8)
    width = shape[-1]
    rows = out.reshape(-1, width)
    p = np.broadcast_to(p, (*shape[:-1], 1)).reshape(-1, 1)
    step = max(1, BLOCK_ENTRIES // width)
    u = np.empty((min(step, len(rows)), width))
    for lo in range(0, len(rows), step):
        blk = u[: len(rows) - lo]
        np.less(rng.random(out=blk), p[lo : lo + step], out=rows[lo : lo + step].view(bool))
    return out


def _bit_fold(mu: float) -> np.ndarray:
    """The bit half of the leakage fold on one position's letter 2x + z, as a
    (new, old) kernel: where z is top x is kept, and where z is bot it is
    replaced by a Bernoulli(mu) bit; z is kept."""
    kernel = np.zeros((4, 4))
    kernel[1, 1] = kernel[3, 3] = 1.0
    kernel[0, ::2] = 1.0 - mu
    kernel[2, ::2] = mu
    return kernel


@dataclass
class TestSample:
    """One ordered constraint tuple of lifted vertices, with its trace."""

    edge: tuple[str, ...]
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # (B', x', z') per position
    perms: list[np.ndarray]
    trace: dict


def sample_test_tuple(
    gap: ConstraintHypergraph,
    theta: LocalDistributionFamily,
    graph: SseGraph,
    params: ReductionParams,
    rng: np.random.Generator,
) -> TestSample:
    """Draw one ordered constraint tuple from the lifted test distribution.

    The single-draw view of :meth:`BatchTestSampler.sample_parts`: pick the
    edge by weight, build only its letter sampler, draw one row with its
    trace, drop the row axis, and permute each position's coordinates by an
    independent uniform permutation, recorded in ``perms``.
    """
    if params.R > 1 << 16:
        raise ValueError("lift dimension too large to sample explicitly")
    edge_idx = int(rng.choice(len(gap.edges), p=_edge_weights(gap)))
    trace: dict = {}
    letters = _letter_sampler(theta, gap.edges[edge_idx][0], params)
    rows = _sample_parts(letters, graph, params, 1, rng, trace)
    trace = {k: [a[0] for a in v] if isinstance(v, list) else v[0] for k, v in trace.items()}
    # one (positions, R) array per part: row i is position i's coordinates
    perms, (b, x, z) = permute_rows(rng, *(np.concatenate(a) for a in zip(*rows)))
    return TestSample(edge=gap.edges[edge_idx][0], parts=list(zip(b, x, z)), perms=list(perms), trace=trace)


# Buckets of the letter lookup: a uniform u falls in bucket floor(u * LOOKUP).
LOOKUP = 1 << 12


class LetterLookup:
    """``codes(u)`` is ``searchsorted(cdf, u, side="right")`` for uniforms u
    in [0, 1), read mostly from a table of LOOKUP buckets.

    The codes are constant on a bucket [b, b + 1) / LOOKUP that no CDF entry
    splits, so those uniforms read ``base[b]``; the rest go to
    ``searchsorted``.  The CDF is kept scaled by LOOKUP, a power of two, so
    scaling u is exact and compares with it as u does with the CDF.
    """

    def __init__(self, cdf: np.ndarray):
        edges = np.arange(LOOKUP + 1) / LOOKUP
        base = np.searchsorted(cdf, edges[:-1], side="right")
        self.split = np.searchsorted(cdf, edges[1:], side="left") != base
        self.base = base.astype(np.min_scalar_type(cdf.size))
        self.scaled_cdf = cdf * LOOKUP

    def codes(self, u: np.ndarray) -> np.ndarray:
        """The codes of ``u``, which is scaled in place."""
        u *= LOOKUP
        bucket = u.astype(np.int16)
        out = self.base[bucket]
        hard = np.flatnonzero(self.split[bucket])
        out.flat[hard] = np.searchsorted(self.scaled_cdf, u.flat[hard], side="right")
        return out


def _letter_sampler(theta: LocalDistributionFamily, edge: tuple[str, ...], params: ReductionParams):
    """One edge's letter lookup, whose code of a uniform is a packed letter
    code drawn from :func:`letter_block` with :func:`_bit_fold` of the
    vertex's mean applied at each position, and the (2, r, 4^r) int8 x' and
    z' bits of each code per position."""
    letters = letter_block(theta, edge, params)
    for pos, v in enumerate(edge):
        letters = _apply_axis(letters, _bit_fold(theta.vertex_mean(v)), pos)
    cdf = np.cumsum(letters)
    cdf = cdf[:-1] / cdf[-1]  # exactly 1 from the last nonzero cell on
    r = len(edge)
    digits = domain_points(2 * r).T.astype(np.int8).reshape(r, 2, -1).swapaxes(0, 1)
    return LetterLookup(cdf), digits


def _walk_positions(letters, graph: SseGraph, params: ReductionParams, m: int, rng, visit) -> np.ndarray:
    """The lifted sampler's kernel for m rows of the edge whose letter
    sampler (:func:`_letter_sampler`) is ``letters``; returns A.

    A and the folded letters x', z' of every position are drawn once, as
    packed letter codes.  Then, position by position, that position's x'
    and z' are decoded and B' is walked from A on the rows still live
    (every row at first), and they are handed on as ``visit(b, x, z,
    rows)``: the live rows' (B', x', z') of that position and their row
    indices, or None for all m.  ``visit`` returns the mask of those rows
    that stay live, or None to keep them all; once no row is live, no later
    position is decoded or walked.
    """
    lookup, digits = letters
    shape = (m, params.R)
    # int32 vertices: the same draws as int64 at half the memory
    a = rng.integers(0, graph.n, size=shape, dtype=np.int32)
    codes = lookup.codes(rng.random(shape))
    rows = None
    for pos in range(digits.shape[1]):
        ap, cp = (a, codes) if rows is None else (a[rows], codes[rows])
        xp, zp = np.take(digits[:, pos], cp, axis=1)
        # z' read as bool: numpy finds a bool array's nonzeros faster
        keep = visit(noisy_walk(graph, params.eta, ap, rng, where=zp.view(bool)), xp, zp, rows)
        if keep is not None and not keep.all():
            rows = np.flatnonzero(keep) if rows is None else rows[keep]
            if rows.size == 0:
                break
    return a


def _sample_parts(letters, graph: SseGraph, params: ReductionParams, m: int, rng, trace: dict | None):
    """:meth:`BatchTestSampler.sample_parts` for the edge whose letter
    sampler (:func:`_letter_sampler`) is ``letters``: the kernel with every
    row live at every position."""
    parts: list = []
    a = _walk_positions(letters, graph, params, m, rng, lambda b, x, z, rows: parts.append((b, x, z)))
    if trace is not None:
        b, x, z = zip(*parts)
        trace.update(A=a, B=[np.where(zp == 0, -1, bp) for bp, zp in zip(b, z)], x_prime=list(x), z_prime=list(z))
    return parts


def _edge_weights(gap: ConstraintHypergraph) -> np.ndarray:
    """The gap instance's edge weights, normalized to sum to 1."""
    weights = np.array([w for _, w in gap.edges])
    return weights / weights.sum()


class BatchTestSampler:
    """Vectorized sampler for Monte Carlo estimates over the test distribution.

    Every edge's letter sampler is built here, so the sampler does not change
    after construction and threads can share it."""

    def __init__(
        self,
        gap: ConstraintHypergraph,
        theta: LocalDistributionFamily,
        graph: SseGraph,
        params: ReductionParams,
    ):
        self.gap = gap
        self.graph = graph
        self.params = params
        self.edge_weights = _edge_weights(gap)
        self.settled = gap.predicate.settled()
        self.letters = [_letter_sampler(theta, edge, params) for edge, _ in gap.edges]

    def sample_parts(
        self, edge_index: int, m: int, rng: np.random.Generator, trace: dict | None = None
    ):
        """m tuples for one fixed edge; returns list of (B', x', z') of shape (m, R).

        The parts are unpermuted: read them at a uniform coordinate
        permutation (``LongCodeAssignment.evaluate_batch`` with an rng).
        Per coordinate: the source vertex A, then one uniform mapped to the
        folded letters 2x' + z' of all positions (:func:`_letter_sampler`),
        then, one position after another, the walk from A where z' is top;
        where z' is bot B' is a uniform vertex (``noisy_walk`` with
        ``where``).  That is :func:`_walk_positions` with every row live.

        When ``trace`` is given it receives the (m, R) draws: "A", and per
        position the lists "x_prime", "z_prime" (the letters) and "B" (the
        walk), which is -1 where z' is bot: the fold refreshes those
        entries, so the walk is never drawn there.
        """
        return _sample_parts(self.letters[edge_index], self.graph, self.params, m, rng, trace)

    def accept_indicators(self, f, m: int, rng: np.random.Generator) -> np.ndarray:
        """m draws of the 0/1 acceptance indicator under assignment f.

        Each edge's rows go through the sampler's kernel position by
        position: f is read on the rows still live, and a row leaves once
        the predicate's settled table (``Predicate.settled``) at its bits so
        far fixes its value.  That value does not depend on the positions
        the row skips, so the indicator has the law of reading every
        position.  An edge's rows go in segments of at most
        ``BLOCK_ENTRIES // R`` rows, one after another from ``rng``, so a
        segment's (rows, R) arrays do not grow with R."""
        counts = rng.multinomial(m, self.edge_weights)
        out = np.empty(m, dtype=np.int8)
        step = max(1, BLOCK_ENTRIES // self.params.R)
        offset = 0
        for e_idx, cnt in enumerate(counts):
            for start in range(offset, offset + cnt, step):
                block = out[start : min(start + step, offset + cnt)]
                bits, tables = [], iter(self.settled)

                def visit(b, x, z, rows, block=block):
                    nonlocal bits
                    bits.append(f.evaluate_batch(b, x, z, rng))
                    value = next(tables)[pack_bits(bits)]
                    live = value < 0
                    done = ~live
                    block[done if rows is None else rows[done]] = value[done]
                    bits = [c[live] for c in bits]
                    return live

                _walk_positions(self.letters[e_idx], self.graph, self.params, block.size, rng, visit)
            offset += cnt
        return out
