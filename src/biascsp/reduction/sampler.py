"""The lifted test distribution: one constraint tuple per draw.

For a sampled gap edge, each output position carries a triple
(vertex-vector, bit-vector, leak-vector).  Per coordinate: the bit values
across positions follow the edge's local distribution; the leak values are
either copied from a common draw (with the coupling probability) or fresh;
both are then re-randomized at the noise rate; finally the leakage fold
refreshes vertex and bit together wherever the leak symbol is bot, and each
position is independently coordinate-permuted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..csp import ConstraintHypergraph
from ..pseudodist import LocalDistributionFamily
from .graphs import SseGraph, noisy_walk
from .params import ReductionParams


def edge_block_probs(theta: LocalDistributionFamily, edge: tuple[str, ...]):
    """Per-coordinate distribution of the position bits of one edge.

    Returns (probs over 2^r outcomes, outcome -> per-position bit matrix).
    Outcome index packs position bits with position 0 most significant;
    duplicate vertices within the edge induce identical columns.
    """
    key = theta._key(edge)
    k = len(key)
    table = np.asarray(theta.local(key)).reshape(-1)
    r = len(edge)
    pos_of = {v: t for t, v in enumerate(key)}
    outcome_bits = ((np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.int8)
    probs = np.zeros(2 ** r)
    pos_bits = ((np.arange(2 ** r)[:, None] >> np.arange(r - 1, -1, -1)) & 1).astype(np.int8)
    for o in range(2 ** k):
        idx = 0
        for pos, v in enumerate(edge):
            idx = (idx << 1) | int(outcome_bits[o, pos_of[v]])
        probs[idx] += table[o]
    return probs, pos_bits


def leakage_apply(z, mu, point, graph: SseGraph, rng: np.random.Generator):
    """Fold (A, x): copy where the leak symbol is top, refresh both where bot.

    ``mu`` is the bit bias of the refresh: a float, or an array that
    broadcasts against x (one bias per row).
    """
    a, x = point
    a = np.asarray(a, dtype=np.int64)
    x = np.asarray(x, dtype=np.int8)
    z = np.asarray(z, dtype=np.int8)
    keep = z == 1
    a_new = np.where(keep, a, rng.integers(0, graph.n, size=a.shape))
    x_new = np.where(keep, x, (rng.random(x.shape) < mu).astype(np.int8))
    return a_new, x_new


def permute_rows(rng: np.random.Generator, *arrays):
    """One uniform coordinate permutation per row, applied to every array.

    Returns (perm, permuted arrays); ``perm`` has the arrays' common shape.
    """
    perm = np.argsort(rng.random(np.shape(arrays[0])), axis=-1)
    return perm, [np.take_along_axis(a, perm, axis=-1) for a in arrays]


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
    edge by weight, draw one row with its trace, and drop the row axis.
    """
    if params.R > 1 << 16:
        raise ValueError("lift dimension too large to sample explicitly")
    sampler = BatchTestSampler(gap, theta, graph, params)
    edge_idx = int(rng.choice(len(gap.edges), p=sampler.edge_weights))
    trace: dict = {}
    parts = sampler.sample_parts(edge_idx, 1, rng, trace)
    trace = {k: [a[0] for a in v] if isinstance(v, list) else v[0] for k, v in trace.items()}
    perms = trace.pop("perm")
    parts = [tuple(a[0] for a in part) for part in parts]
    return TestSample(edge=gap.edges[edge_idx][0], parts=parts, perms=perms, trace=trace)


class BatchTestSampler:
    """Vectorized sampler for Monte Carlo estimates over the test distribution."""

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
        self.mus = {v: theta.vertex_mean(v) for v in gap.vertices}
        self.edge_weights = np.array([w for _, w in gap.edges])
        self.edge_weights = self.edge_weights / self.edge_weights.sum()
        self.blocks = [edge_block_probs(theta, e) for e, _ in gap.edges]

    def sample_parts(
        self, edge_index: int, m: int, rng: np.random.Generator, trace: dict | None = None
    ):
        """m tuples for one fixed edge; returns list of (B', x', z') of shape (m, R).

        When ``trace`` is given it receives the (m, R) latent draws: "A",
        "z_common", "xi", and per position the lists "B" (walk), "x", "z",
        "x_tilde", "z_prime" (before the fold) and "perm".
        """
        g, p = self.graph, self.params
        shape = (m, p.R)
        edge, _ = self.gap.edges[edge_index]
        probs, pos_bits = self.blocks[edge_index]
        a = rng.integers(0, g.n, size=shape)
        outcomes = rng.choice(len(probs), size=shape, p=probs)
        z_common = (rng.random(shape) < p.beta).astype(np.int8)
        xi = rng.random(shape) < p.rho_sq
        if trace is not None:
            trace.update(A=a, z_common=z_common, xi=xi.astype(np.int8))
        parts = []
        for pos, v in enumerate(edge):
            mu = self.mus[v]
            b = noisy_walk(g, p.eta, a, rng)
            x = pos_bits[outcomes, pos]
            z = np.where(xi, z_common, (rng.random(shape) < p.beta).astype(np.int8))
            x_tilde = np.where(
                rng.random(shape) < p.eta, (rng.random(shape) < mu).astype(np.int8), x
            )
            z_prime = np.where(
                rng.random(shape) < p.eta, (rng.random(shape) < p.beta).astype(np.int8), z
            )
            b_new, x_new = leakage_apply(z_prime, mu, (b, x_tilde), g, rng)
            perm, part = permute_rows(rng, b_new, x_new, z_prime)
            parts.append(tuple(part))
            if trace is not None:
                steps = {"B": b, "x": x, "z": z, "x_tilde": x_tilde, "z_prime": z_prime, "perm": perm}
                for key, val in steps.items():
                    trace.setdefault(key, []).append(val)
        return parts

    def accept_indicators(self, f, m: int, rng: np.random.Generator) -> np.ndarray:
        """m draws of the 0/1 acceptance indicator under assignment f."""
        counts = rng.multinomial(m, self.edge_weights)
        table = self.gap.predicate.table()
        out = np.empty(m, dtype=np.int8)
        offset = 0
        for e_idx, cnt in enumerate(counts):
            if cnt == 0:
                continue
            parts = self.sample_parts(e_idx, cnt, rng)
            idx = np.zeros(cnt, dtype=np.int64)
            for b, x, z in parts:
                bits = f.evaluate_batch(b, x, z)
                idx = (idx << 1) | bits.astype(np.int64)
            out[offset : offset + cnt] = table[idx]
            offset += cnt
        return out
