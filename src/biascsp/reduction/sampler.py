"""The lifted test distribution: one constraint tuple per draw.

For a sampled gap edge, each output position carries a triple
(vertex-vector, bit-vector, leak-vector).  Per coordinate: the bit values
across positions follow the edge's local distribution; the leak values are
either copied from a common draw (with the coupling probability) or fresh;
both are then re-randomized at the noise rate; finally the leakage fold
refreshes vertex and bit together wherever the leak symbol is bot.  Each
position is read at an independent uniform coordinate permutation; since the
permutation is independent of everything else, it is applied where the
assignment is evaluated (``LongCodeAssignment.evaluate_batch`` with an rng),
not here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..csp import ConstraintHypergraph
from ..probspace import domain_points, pack_bits
from ..pseudodist import LocalDistributionFamily
from .dictator import permute_rows
from .graphs import SseGraph, noisy_walk_at
from .params import ReductionParams


def edge_block_probs(theta: LocalDistributionFamily, edge: tuple[str, ...]):
    """Per-coordinate distribution of the position bits of one edge.

    Returns (probs over 2^r outcomes, outcome -> per-position bit matrix).
    Outcome index packs position bits with position 0 most significant;
    duplicate vertices within the edge induce identical columns.
    """
    key = theta._key(edge)
    table = np.asarray(theta.local(key)).reshape(-1)
    key_bits = domain_points(len(key))
    # the outcome each assignment of the key's vertices induces on the positions
    outcome = pack_bits(key_bits[:, key.index(v)] for v in edge)
    probs = np.bincount(outcome, weights=table, minlength=2 ** len(edge))
    return probs, domain_points(len(edge)).astype(np.int8)


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
    edge by weight, draw one row with its trace, drop the row axis, and
    permute each position's coordinates by an independent uniform
    permutation, recorded in ``perms``.
    """
    if params.R > 1 << 16:
        raise ValueError("lift dimension too large to sample explicitly")
    sampler = _cached_sampler(gap, theta, graph, params)
    edge_idx = int(rng.choice(len(gap.edges), p=sampler.edge_weights))
    trace: dict = {}
    rows = sampler.sample_parts(edge_idx, 1, rng, trace)
    trace = {k: [a[0] for a in v] if isinstance(v, list) else v[0] for k, v in trace.items()}
    # one (positions, R) array per part: row i is position i's coordinates
    perms, (b, x, z) = permute_rows(rng, *(np.concatenate(a) for a in zip(*rows)))
    return TestSample(edge=gap.edges[edge_idx][0], parts=list(zip(b, x, z)), perms=list(perms), trace=trace)


_last_sampler: list = [(), None]  # [inputs, their BatchTestSampler]


def _cached_sampler(gap, theta, graph, params) -> "BatchTestSampler":
    """The sampler of the last inputs if they are the same objects, else a
    new one, which replaces it: a loop of single draws builds one sampler.
    The inputs are compared by identity, so one changed in place between
    calls keeps its old sampler."""
    inputs = (gap, theta, graph, params)
    key, sampler = _last_sampler
    if len(key) != 4 or any(a is not b for a, b in zip(key, inputs)):
        sampler = BatchTestSampler(*inputs)
        _last_sampler[:] = [inputs, sampler]
    return sampler


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)`` on first use."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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
        # built per vertex and per edge on first use, so that a single draw
        # (sample_test_tuple) pays only for the edge it draws
        self.mus = _Memo(theta.vertex_mean)
        self.edge_weights = np.array([w for _, w in gap.edges])
        self.edge_weights = self.edge_weights / self.edge_weights.sum()
        self.blocks = _Memo(lambda e: edge_block_probs(theta, gap.edges[e][0]))

    def sample_parts(
        self, edge_index: int, m: int, rng: np.random.Generator, trace: dict | None = None
    ):
        """m tuples for one fixed edge; returns list of (B', x', z') of shape (m, R).

        The parts are unpermuted: read them at a uniform coordinate
        permutation (``LongCodeAssignment.evaluate_batch`` with an rng).
        z' is drawn first for every position; then B' walks from A only where
        z' is top and is a uniform vertex elsewhere, and x' is the edge's
        outcome bit where z' is top and the bit's noise did not fire, a fresh
        Bernoulli(mu) elsewhere.

        When ``trace`` is given it receives the (m, R) latent draws: "A",
        "z_common", "xi", and per position the lists "B" (walk), "x", "z",
        "x_tilde" (x after its noise) and "z_prime".  "B" and "x_tilde" are
        -1 where z' is bot: the fold refreshes those entries, so they are
        never drawn.
        """
        g, p = self.graph, self.params
        edge, _ = self.gap.edges[edge_index]
        r = len(edge)
        shape = (m, p.R)
        probs, pos_bits = self.blocks[edge_index]
        cdf = np.cumsum(probs)[:-1] / np.sum(probs)

        def outcome(u):  # k where cdf[k-1] <= u < cdf[k]: the thresholds at or below u
            return sum(u >= c for c in cdf)

        a = rng.integers(0, g.n, size=shape)
        u_outcome = rng.random(shape)
        # The other uniforms go through one (m, R) buffer, a position at a
        # time: random fills in C order, so the stream is that of (r, m, R)
        # draws.  The buffer is let go during the walk.
        u = np.empty(shape)
        z_common = rng.random(out=u) < p.beta
        xi = rng.random(out=u) < p.rho_sq
        z = np.empty((r, *shape), dtype=bool)
        for pos in range(r):
            z[pos] = (xi & z_common) | (~xi & (rng.random(out=u) < p.beta))
        # One uniform u per entry refreshes z at rate eta: u < eta fires the
        # refresh, and given that, u / eta is uniform, so u < eta * beta is
        # the refreshed Bernoulli(beta) symbol.
        z_prime = np.empty((r, *shape), dtype=np.int8)
        for pos in range(r):
            rng.random(out=u)
            z_prime[pos] = (u < p.eta * p.beta) | ((u >= p.eta) & z[pos])
        del u
        top = np.flatnonzero(z_prime)
        b = noisy_walk_at(g, p.eta, a, z_prime.shape, top, rng)
        u = np.empty(shape)
        x_new = np.empty((r, *shape), dtype=np.int8)
        for pos, v in enumerate(edge):
            x_new[pos] = rng.random(out=u) < self.mus[v]
        del u
        keep = top[rng.random(top.size) >= p.eta]
        position, coord = np.divmod(keep, a.size)
        x_new.reshape(-1)[keep] = pos_bits[outcome(u_outcome.reshape(-1)[coord]), position]
        if trace is not None:
            bot = z_prime == 0
            x = pos_bits[outcome(u_outcome)].transpose(2, 0, 1)
            trace.update(
                A=a,
                z_common=z_common.astype(np.int8),
                xi=xi.astype(np.int8),
                B=list(np.where(bot, -1, b)),
                x=list(x),
                z=list(z.astype(np.int8)),
                x_tilde=list(np.where(bot, -1, x_new).astype(np.int8)),
                z_prime=list(z_prime),
            )
        return [(b[pos], x_new[pos], z_prime[pos]) for pos in range(r)]

    def accept_indicators(self, f, m: int, rng: np.random.Generator) -> np.ndarray:
        """m draws of the 0/1 acceptance indicator under assignment f."""
        counts = rng.multinomial(m, self.edge_weights)
        table = self.gap.predicate.table()
        out = np.empty(m, dtype=np.int8)
        offset = 0
        for e_idx, cnt in enumerate(counts):
            if cnt == 0:
                continue
            # parts inline, so that an edge's parts are gone before the next
            # edge draws its own
            idx = pack_bits(f.evaluate_batch(b, x, z, rng) for b, x, z in self.sample_parts(e_idx, cnt, rng))
            out[offset : offset + cnt] = table[idx]
            offset += cnt
        return out
