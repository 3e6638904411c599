"""Regular graphs for the expansion gadget: generation, expansion, noisy walks."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class SseGraph:
    """Regular (multi)graph with an optional planted low-expansion set.

    Adjacency is a fixed-width (n, deg) array; parallel edges are allowed and
    counted with multiplicity.
    """

    n: int
    deg: int
    adj: np.ndarray
    planted: list[int] | None = None

    def __post_init__(self):
        self.adj = np.asarray(self.adj, dtype=np.int64)
        if self.adj.shape != (self.n, self.deg):
            raise ValueError("adjacency must be (n, deg)")
        if self.adj.min() < 0 or self.adj.max() >= self.n:
            raise ValueError("adjacency entries out of range")
        if self.planted is not None:
            self.planted = sorted(int(v) for v in self.planted)

    @property
    def planted_volume(self) -> float | None:
        """Fraction of the vertices in the planted set."""
        return None if self.planted is None else len(self.planted) / self.n

    def planted_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        if self.planted:
            mask[self.planted] = True
        return mask

    def to_json(self) -> dict:
        out = {"n": self.n, "deg": self.deg, "adj": self.adj.tolist()}
        if self.planted is not None:
            out["planted"] = list(self.planted)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SseGraph":
        return cls(obj["n"], obj["deg"], np.array(obj["adj"]), obj.get("planted"))


def expansion(g: SseGraph, subset) -> float:
    """Probability that a random edge incident to the set leaves it."""
    subset = set(int(v) for v in subset)
    if not subset:
        raise ValueError("expansion of the empty set is undefined")
    if len(subset) > g.n / 2:
        warnings.warn("expansion queried on a set larger than half the graph")
    mask = np.zeros(g.n, dtype=bool)
    mask[list(subset)] = True
    rows = g.adj[list(subset)]
    leaving = (~mask[rows]).sum()
    return float(leaving) / (g.deg * len(subset))


def walk_matrix(g: SseGraph, eta: float) -> np.ndarray:
    """Single-coordinate transition matrix: lazy uniform-neighbor step.

    Row a: (1-eta) * multiplicity(a,b)/deg + eta/n.
    """
    p = np.zeros((g.n, g.n))
    for a in range(g.n):
        counts = np.bincount(g.adj[a], minlength=g.n)
        p[a] = (1.0 - eta) * counts / g.deg
    p += eta / g.n
    return p


def vertex_indices(arr) -> np.ndarray:
    """``arr`` as vertex indices: int32 stays int32, and anything else
    becomes int64.  Bounded integer draws give the same values and leave the
    generator in the same state at either width, so int32 halves the memory
    of a sample; it needs n * deg < 2^31, which any adjacency that fits in
    memory meets."""
    a = np.asarray(arr)
    return a.astype(np.int32 if a.dtype == np.int32 else np.int64, copy=False)


def noisy_walk(g: SseGraph, eta: float, point, rng: np.random.Generator, where=None) -> np.ndarray:
    """One step of the noisy walk applied independently per coordinate.

    Given a boolean mask ``where``, which ``point`` broadcasts against, only
    the coordinates where it holds take the step, and every other coordinate
    gets a fresh uniform vertex.  That is the vertex part of the lifted
    test's leakage fold, which walks only where the leak symbol is top.
    The flat adjacency index src * deg + slot, then the neighbour it reads,
    are built in place in one intp array.  The result has the dtype of
    :func:`vertex_indices` of ``point``.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0,1]")
    a = vertex_indices(point)
    shape = a.shape if where is None else np.shape(where)
    out = rng.integers(0, g.n, size=shape, dtype=a.dtype)  # also the lazy step's uniform vertex
    steps = np.arange(out.size) if where is None else np.flatnonzero(where)
    steps = steps[rng.random(steps.size) >= eta]
    # intp, as np.take indexes with it: an int32 index would be copied there
    nbr = np.broadcast_to(a, shape).flat[steps].astype(np.intp, copy=False)
    nbr *= g.deg
    nbr += rng.integers(0, g.deg, size=steps.size, dtype=a.dtype)
    np.take(g.adj.reshape(-1), nbr, out=nbr)
    out.reshape(-1)[steps] = nbr
    return out


def _random_permutation_no_fixed_point(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        perm = rng.permutation(n)
        if n == 1 or not np.any(perm == np.arange(n)):
            return perm


def _regular_edges_on(vertices: np.ndarray, deg: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """deg-regular multigraph on the given vertices via permutation unions."""
    k = len(vertices)
    if k < 2 or (deg % 2 and k % 2):
        raise ValueError(f"degree {deg} infeasible on {k} vertices")
    edges: list[tuple[int, int]] = []
    pairs, matching = divmod(deg, 2)
    for _ in range(pairs):
        perm = _random_permutation_no_fixed_point(k, rng)
        edges.extend((int(vertices[i]), int(vertices[perm[i]])) for i in range(k))
    if matching:
        if k % 2:
            raise ValueError("odd degree needs an even vertex count")
        order = rng.permutation(k)
        for t in range(0, k, 2):
            edges.append((int(vertices[order[t]]), int(vertices[order[t + 1]])))
    return edges


def _adjacency_from_edges(n: int, deg: int, edges) -> np.ndarray:
    slots = [[] for _ in range(n)]
    for u, v in edges:
        slots[u].append(v)
        slots[v].append(u)
    if any(len(s) != deg for s in slots):
        raise ValueError("edge list is not regular")
    return np.array(slots, dtype=np.int64)


def generate_sse(
    kind: str,
    n: int,
    deg: int,
    delta: float = 0.25,
    seed: int = 0,
    eps: float = 0.05,
) -> SseGraph:
    """Instance generator.

    ``planted`` embeds a near-isolated community of exactly delta*n vertices:
    both sides are built regular, then edge pairs are swapped to create at
    most eps*deg*|S| crossing endpoints, preserving all degrees.  It makes
    int(eps*deg*|S|/2) swaps; when that is 0 no edge leaves the planted set,
    and a warning says so.  ``random-regular`` is the plain
    permutation-union construction.
    """
    from ..harness.rng import rng_for

    rng = rng_for(seed, "sse-gen", kind, n, deg, delta)
    if kind == "random-regular":
        edges = _regular_edges_on(np.arange(n), deg, rng)
        return SseGraph(n, deg, _adjacency_from_edges(n, deg, edges))
    if kind != "planted":
        raise ValueError(f"unknown kind {kind!r}")
    k = delta * n
    if abs(k - round(k)) > 1e-9:
        raise ValueError("delta * n must be integral")
    k = int(round(k))
    if k < 1 or k >= n:
        raise ValueError("planted set must be a proper nonempty subset")
    inside = np.arange(k)
    outside = np.arange(k, n)
    in_edges = _regular_edges_on(inside, deg, rng)
    out_edges = _regular_edges_on(outside, deg, rng)
    swaps = min(int(eps * deg * k / 2), len(in_edges) - 1, len(out_edges) - 1)
    if swaps < 1:
        warnings.warn(
            f"planted graph at n = {n}, deg = {deg}, delta = {delta}, eps = {eps} makes no crossing swap: "
            f"no edge leaves its {k} planted vertices",
            stacklevel=2,
        )
    cross: list[tuple[int, int]] = []
    for _ in range(max(swaps, 0)):
        a, b = in_edges.pop(int(rng.integers(len(in_edges))))
        u, v = out_edges.pop(int(rng.integers(len(out_edges))))
        cross.extend([(a, u), (b, v)])  # degree-preserving rewiring
    edges = in_edges + out_edges + cross
    return SseGraph(n, deg, _adjacency_from_edges(n, deg, edges), planted=list(range(k)))
