"""Predicates, weighted constraint hypergraphs, and exhaustive constrained optima."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .harness.mc import BLOCK_ENTRIES, ORACLE_CAP
from .polynomial import MultilinearPolynomial
from .probspace import domain_points, pack_bits, unpack_bits

WEIGHT_TOL = 1e-9
EXHAUSTIVE_CAP = 22
# Low bits of the split-index scan: rows of 2^10 values (8 KiB) per high pattern.
_SCAN_LOW_BITS = 10


class IncompleteAssignmentError(KeyError):
    pass


class InstanceTooLargeError(ValueError):
    pass


def _as_bits(s) -> tuple[int, ...]:
    if isinstance(s, str):
        return tuple(int(c) for c in s)
    return tuple(int(b) for b in s)


@dataclass(frozen=True)
class Predicate:
    """Arity-r Boolean predicate given by its accepting set; r is at most
    12, so that an edge's 4^r lifted letters fit ``ORACLE_CAP``."""

    arity: int
    accepting: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if 4 ** self.arity > ORACLE_CAP:
            raise ValueError(f"arity {self.arity} exceeds the cap: 4^arity > {ORACLE_CAP}")
        acc = frozenset(_as_bits(a) for a in self.accepting)
        for a in acc:
            if len(a) != self.arity or any(b not in (0, 1) for b in a):
                raise ValueError(f"bad accepting string {a}")
        object.__setattr__(self, "accepting", acc)

    def __call__(self, bits) -> int:
        return int(_as_bits(bits) in self.accepting)

    def table(self) -> np.ndarray:
        """Acceptance indicator indexed by packed bits (first argument = MSB)."""
        out = np.zeros(2 ** self.arity, dtype=np.int8)
        out[[pack_bits(a) for a in self.accepting]] = 1
        return out

    def settled(self) -> list[np.ndarray]:
        """Per prefix length: entry i, indexed by the packed bits of the
        first i + 1 arguments (the first most significant, as in
        :meth:`table`), is the predicate's value once those bits are read,
        or -1 where the later bits can still change it.  The last entry is
        :meth:`table`."""
        table = self.table()
        out = []
        for i in range(1, self.arity + 1):
            rows = table.reshape(2 ** i, -1)
            lo, hi = rows.min(axis=1), rows.max(axis=1)
            out.append(np.where(lo == hi, lo, -1).astype(np.int8))
        return out

    @classmethod
    def from_strings(cls, arity: int, strings) -> "Predicate":
        return cls(arity, frozenset(_as_bits(s) for s in strings))

    @classmethod
    def xor(cls, arity: int = 2) -> "Predicate":
        acc = [a for a in itertools.product((0, 1), repeat=arity) if sum(a) % 2 == 1]
        return cls(arity, frozenset(acc))

    @classmethod
    def and_(cls, arity: int = 2) -> "Predicate":
        return cls(arity, frozenset([(1,) * arity]))


def predicate_multilinear(psi: Predicate) -> MultilinearPolynomial:
    """Multilinear representation: sum over accepting strings of the
    indicator product prod x_j (a_j=1) * prod (1 - x_j) (a_j=0)."""
    poly = MultilinearPolynomial.zero(psi.arity)
    for a in psi.accepting:
        t = np.array(1.0)
        for b in a:
            factor = np.array([0.0, 1.0]) if b == 1 else np.array([1.0, -1.0])
            t = np.multiply.outer(t, factor)
        poly = poly + MultilinearPolynomial(t)
    return poly


@dataclass
class ConstraintHypergraph:
    """Vertex-weighted, edge-weighted ordered r-uniform constraint hypergraph."""

    vertex_weights: dict[str, float]
    edges: list[tuple[tuple[str, ...], float]]
    predicate: Predicate

    def __post_init__(self):
        vw = {str(v): float(w) for v, w in self.vertex_weights.items()}
        if any(w < 0 for w in vw.values()):
            raise ValueError("negative vertex weight")
        if abs(math.fsum(vw.values()) - 1.0) > WEIGHT_TOL:
            raise ValueError("vertex weights must sum to 1")
        edges = []
        for vs, w in self.edges:
            vs = tuple(str(v) for v in vs)
            if len(vs) != self.predicate.arity:
                raise ValueError(f"edge {vs} has wrong arity")
            for v in vs:
                if v not in vw:
                    raise ValueError(f"edge vertex {v} unknown")
            if w < 0:
                raise ValueError("negative edge weight")
            edges.append((vs, float(w)))
        if abs(math.fsum(w for _, w in edges) - 1.0) > WEIGHT_TOL:
            raise ValueError("edge weights must sum to 1")
        self.vertex_weights = vw
        self.edges = edges

    @property
    def vertices(self) -> list[str]:
        return list(self.vertex_weights)

    def vertex_weight_vector(self, order: list[str] | None = None) -> np.ndarray:
        order = order or self.vertices
        return np.array([self.vertex_weights[v] for v in order])

    def to_json(self) -> dict:
        return {
            "predicate": {
                "arity": self.predicate.arity,
                "accepting": sorted("".join(map(str, a)) for a in self.predicate.accepting),
            },
            "vertices": [{"id": v, "weight": w} for v, w in self.vertex_weights.items()],
            "edges": [{"vs": list(vs), "weight": w} for vs, w in self.edges],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConstraintHypergraph":
        pred = Predicate.from_strings(obj["predicate"]["arity"], obj["predicate"]["accepting"])
        vw = {item["id"]: item["weight"] for item in obj["vertices"]}
        edges = [(tuple(item["vs"]), item["weight"]) for item in obj["edges"]]
        return cls(vw, edges, pred)


@dataclass(frozen=True)
class Assignment:
    """Total 0/1 labeling of the vertex set."""

    labels: dict[str, int] = field(default_factory=dict)

    def __getitem__(self, v: str) -> int:
        try:
            return self.labels[v]
        except KeyError as exc:
            raise IncompleteAssignmentError(f"vertex {v} unlabeled") from exc

    @classmethod
    def from_bits(cls, vertices: list[str], bits) -> "Assignment":
        return cls({v: int(b) for v, b in zip(vertices, bits)})


def assignment_value(g: ConstraintHypergraph, sigma: Assignment) -> float:
    """Weight of edges whose (edge-ordered) labels the predicate accepts."""
    total = 0.0
    for vs, w in g.edges:
        total += w * g.predicate([sigma[v] for v in vs])
    return total


def relative_weight(g: ConstraintHypergraph, sigma: Assignment) -> float:
    """Vertex-weighted fraction of ones."""
    return math.fsum(w * sigma[v] for v, w in g.vertex_weights.items())


def _all_values(g: ConstraintHypergraph):
    """Vectorized (relative weight, value) of all 2^n assignments, in blocks.

    Returns ``(verts, blocks)``.  Assignment index i labels vertex j with bit
    ``(i >> (n-1-j)) & 1``, so vertex 0 is the most significant bit.
    ``blocks`` yields ``(start, weights, values)`` for each run of 2^b
    consecutive indices from ``start``, b = min(n, 16), so that a block is
    ``BLOCK_ENTRIES // 4`` entries.  ``weights`` and ``values`` are C-order
    ``(2^(b-k), 2^k)`` arrays, k = min(n, _SCAN_LOW_BITS), whose flat index
    is i - start; both are buffers that the next block overwrites.

    The top n-b vertices are the block's prefix, fixed bits; the other
    vertices' bits are arrays, one axis per high vertex of the block and
    one over the low bits l (the last k vertices).  The weight of i is
    ``hi_weights[h] + lo_weights[l]``, the dot products of the high bits h
    (the first n-k vertices) and of l.  An edge's predicate index is built
    over the bits the edge reads only, and the gathered slab of weighted
    table entries is broadcast-added over the rest.  Edges are added in
    edge order, one float add per entry each, so every entry gets the same
    sum as a per-assignment loop over ``g.edges``.
    """
    verts = g.vertices
    n = len(verts)
    if n > EXHAUSTIVE_CAP:
        raise InstanceTooLargeError(f"{n} vertices exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    k = min(n, _SCAN_LOW_BITS)
    hi = n - k
    top = max(0, n - ((BLOCK_ENTRIES // 4).bit_length() - 1))
    mid = hi - top  # high vertices inside a block
    lo_bits = domain_points(k)
    vw = g.vertex_weight_vector(verts)
    hi_weights, lo_weights = domain_points(hi) @ vw[:hi], lo_bits @ vw[hi:]
    vindex = {v: i for i, v in enumerate(verts)}
    table = g.predicate.table()

    def blocks():
        weights = np.empty((2 ** mid, 2 ** k))
        values = np.empty_like(weights)
        axes = values.reshape((2,) * mid + (2 ** k,))  # one axis per high vertex
        # vertex j's bit: a prefix bit, or an array that broadcasts against `axes`
        bit = [0] * top
        bit += [np.arange(2).reshape((1,) * j + (2,) + (1,) * (mid - j)) for j in range(mid)]
        bit += [lo_bits[:, j].reshape((1,) * mid + (-1,)) for j in range(k)]
        for prefix in range(2 ** top):
            bit[:top] = unpack_bits(prefix, top).tolist()
            rows = slice(prefix << mid, (prefix + 1) << mid)
            np.add(hi_weights[rows, None], lo_weights, out=weights)
            values.fill(0.0)
            for vs, w in g.edges:
                axes += (w * table)[pack_bits(bit[vindex[v]] for v in vs)]
            yield prefix * values.size, weights, values

    return verts, blocks()


@dataclass(frozen=True)
class ScanResult:
    """Best value over the assignments whose relative weight lies in a window.

    ``assignments`` is the number scanned (2^n) and ``in_window`` the number
    that passed the window.  ``outcome`` is the ``(value, witness, feasible)``
    triple that ``opt_constrained`` and ``robust_opt`` return.
    """

    value: float
    witness: Assignment | None
    feasible: bool
    assignments: int
    in_window: int

    @property
    def outcome(self):
        return self.value, self.witness, self.feasible


def _window_scan(g: ConstraintHypergraph, window) -> ScanResult:
    """Scan every assignment; ``window`` maps a block of weights to a mask.

    ``window`` may overwrite its block of weights (:func:`_all_values`),
    and the block's values outside the window are set to -inf in place;
    nothing of 2^n entries is built.  A block's first optimal index
    replaces the best so far only when strictly better, so ties go to the
    first optimal index (vertex 0 most significant).
    """
    verts, blocks = _all_values(g)
    in_window, best, best_index = 0, -np.inf, 0
    for start, weights, values in blocks:
        ok = window(weights)
        count = int(np.count_nonzero(ok))
        if not count:
            continue
        in_window += count
        values[~ok] = -np.inf
        j = int(np.argmax(values))
        if values.flat[j] > best:
            best, best_index = float(values.flat[j]), start + j
    assignments = 2 ** len(verts)
    if not in_window:
        return ScanResult(0.0, None, False, assignments, 0)
    witness = Assignment.from_bits(verts, unpack_bits(best_index, len(verts)))
    return ScanResult(best, witness, True, assignments, in_window)


def opt_constrained_scan(g: ConstraintHypergraph, mu: float, tol: float | None = None) -> ScanResult:
    """``opt_constrained`` with the scan's counters."""
    if tol is None:
        tol = 0.5 * min(g.vertex_weights.values())

    def window(w):
        np.subtract(w, mu, out=w)  # in place: no block-sized temporaries
        return np.abs(w, out=w) <= tol + WEIGHT_TOL

    return _window_scan(g, window)


def robust_opt_scan(g: ConstraintHypergraph, mu: float, gamma: float) -> ScanResult:
    """``robust_opt`` with the scan's counters."""
    half = mu * math.sqrt(max(gamma, 0.0))
    return _window_scan(
        g, lambda w: (w >= mu - half - WEIGHT_TOL) & (w <= mu + half + WEIGHT_TOL)
    )


def opt_constrained(g: ConstraintHypergraph, mu: float, tol: float | None = None):
    """Maximum assignment value subject to |relative weight - mu| <= tol.

    Default tol is half the minimum vertex weight.  Returns
    ``(value, witness, feasible)``; an empty window gives ``(0.0, None, False)``.
    """
    return opt_constrained_scan(g, mu, tol).outcome


def robust_opt(g: ConstraintHypergraph, mu: float, gamma: float):
    """Best constrained value over the window mu*(1 +- sqrt(gamma)),
    realized over relative weights achievable by actual assignments."""
    return robust_opt_scan(g, mu, gamma).outcome
