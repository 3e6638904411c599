"""Coordinate-reading assignments on the lifted vertex set.

An assignment maps a lifted vertex (A, x, z) in V^R x {0,1}^R x {bot,top}^R
to a bit.  The planted-set dictator reads x at a selected index i*(A, z):

* If exactly one coordinate has (A(j), z(j)) in planted x {top}, that
  coordinate is selected (covariant under coordinate permutations).
* Otherwise the selected coordinate holds the smallest (A(j), z(j)) code
  among codes appearing exactly once in the vector.  Uniqueness makes the
  choice permutation-covariant as well; the rare vectors with no unique code
  fall back to the first occurrence of the minimum and are counted, since
  only there can permutation respect fail.  Evaluated at a uniform
  coordinate permutation, as the lifted test reads it, only those vectors
  need the permutation drawn.

The selection never looks at x, so the assignment's analytic bias equals the
vertex-weighted mean bias exactly.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ..harness.mc import BLOCK_ENTRIES
from ..probspace import pack_bits
from .graphs import SseGraph, vertex_indices


def _as_batch(arr, dtype=None) -> np.ndarray:
    """``arr`` as rows of shape (m, R); a single row (R,) becomes (1, R).
    Without ``dtype``, the rows are :func:`~.graphs.vertex_indices`."""
    a = vertex_indices(arr) if dtype is None else np.asarray(arr, dtype=dtype)
    return a[None, :] if a.ndim == 1 else a


def permute_rows(rng: np.random.Generator, *arrays):
    """One uniform coordinate permutation per row, applied to every array.

    Returns (perm, permuted arrays); ``perm`` has the arrays' common shape.
    """
    perm = np.argsort(rng.random(np.shape(arrays[0])), axis=-1)
    return perm, [np.take_along_axis(a, perm, axis=-1) for a in arrays]


class PlantedDictator:
    """f(A, x, z) = x(i*(A, z)) with the planted-set index rule."""

    def __init__(self, planted_mask: np.ndarray):
        self.mask = np.asarray(planted_mask, dtype=bool)
        if not self.mask.any():
            raise ValueError("planted set must be nonempty")
        # the counters are read as plain attributes and updated under the
        # lock, since the lifted test evaluates on several threads
        self._lock = threading.Lock()
        self.fallback_count = 0
        self.query_count = 0

    def _select(self, A: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Selected index per row and the fallback rows; counts both.

        A coordinate is marked where A is planted and z is top; the codes
        2A + z are built only for the rows without exactly one marked
        coordinate, the ones :meth:`_tie_break` reads."""
        marked = self.mask[A]
        np.logical_and(marked, z, out=marked)
        single = np.count_nonzero(marked, axis=1) == 1
        out = np.argmax(marked, axis=1)
        del marked  # not held through the tie-break
        fallback = np.zeros(len(A), dtype=bool)
        rest = np.flatnonzero(~single)
        if rest.size:
            code = A[rest]
            code *= 2
            code += z[rest]
            out[rest], fallback[rest] = self._tie_break(code)
        fallbacks = int(fallback.sum())
        with self._lock:
            self.query_count += len(A)
            self.fallback_count += fallbacks
        return out, fallback

    def istar_batch(self, A: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self._select(_as_batch(A), _as_batch(z))[0]

    @staticmethod
    def _tie_break(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of codes 2A + z: the index of the smallest code that
        appears once in the row, and the rows with no such code, which fall
        back to the first occurrence of their smallest code.  Each row is
        sorted, so the work is m x R whatever the vertex count: a code is
        unique where it differs from both sorted neighbours."""
        s = np.sort(code, axis=1)
        differs = s[:, 1:] != s[:, :-1]
        unique = np.ones(s.shape, dtype=bool)
        unique[:, 1:] = differs
        unique[:, :-1] &= differs
        # argmax is 0 in a row with no unique code: its smallest code
        first = unique.argmax(axis=1)
        rows = np.arange(len(s))
        target = s[rows, first]
        return np.argmax(code == target[:, None], axis=1), ~unique[rows, first]

    def evaluate_batch(self, A, x, z) -> np.ndarray:
        A, x, z = _as_batch(A), _as_batch(x), _as_batch(z)
        idx = self.istar_batch(A, z)
        return x[np.arange(len(idx)), idx]

    def evaluate_permuted(self, A, x, z, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        """f at an independent uniform coordinate permutation of each row,
        and the number of rows that needed one.

        A row with a unique code selects it whatever the permutation, so
        f(row o perm) = f(row) there and the row is read as it is.  Only the
        fallback rows are permuted; having no unique code does not depend on
        the order, so a permuted fallback row falls back again, to the first
        occurrence of its smallest code.  Each row counts once as a query.
        """
        idx, fallback = self._select(A, z)
        rows = np.flatnonzero(fallback)
        if rows.size:
            perm, (a_p, z_p) = permute_rows(rng, A[rows], z[rows])
            j, _ = self._tie_break(2 * a_p + z_p)
            idx[rows] = perm[np.arange(rows.size), j]
        return x[np.arange(len(idx)), idx], int(rows.size)


@dataclass
class LongCodeAssignment:
    """Boolean assignment on lifted vertices with a vectorized evaluator:
    ``LongCodeAssignment(fn)`` reads ``fn(A, x, z)``, one bit per row of the
    (m, R) arrays."""

    _eval: object = field(repr=False)
    dictator: PlantedDictator | None = None
    permuted_rows: int = field(default=0, init=False)  # rows evaluate_batch read at an explicit permutation
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def evaluate_batch(self, A, x, z, rng: np.random.Generator | None = None) -> np.ndarray:
        """f on each row of (A, x, z), each of shape (m, R) or (R,).

        Given ``rng``, f at an independent uniform coordinate permutation of
        each row, as the lifted test reads its parts.  Every row is then
        permuted and evaluated, except for the planted dictator, which
        permutes only the rows it cannot decide covariantly
        (:meth:`PlantedDictator.evaluate_permuted`).
        """
        A, x, z = _as_batch(A), _as_batch(x, np.int8), _as_batch(z, np.int8)
        if rng is None:
            return np.asarray(self._eval(A, x, z), dtype=np.int8)
        if self.dictator is not None:
            # Row blocks bound the selection's temporaries.  Fallback rows
            # draw their permutations block after block, in row order, so the
            # stream is that of one call over all rows.
            vals = np.empty(len(A), dtype=np.int8)
            step = max(1, BLOCK_ENTRIES // A.shape[1])
            permuted = 0
            for lo in range(0, len(A), step):
                hi = lo + step
                vals[lo:hi], count = self.dictator.evaluate_permuted(A[lo:hi], x[lo:hi], z[lo:hi], rng)
                permuted += count
        else:
            _, (A, x, z) = permute_rows(rng, A, x, z)
            vals, permuted = self._eval(A, x, z), len(A)
        with self._lock:
            self.permuted_rows += permuted
        return np.asarray(vals, dtype=np.int8)

    @classmethod
    def from_table(cls, n: int, R: int, values) -> "LongCodeAssignment":
        """Explicit table over the full lifted vertex set (tiny R only)."""
        values = np.asarray(values, dtype=np.int8).reshape(-1)
        if values.size != n ** R * 4 ** R:
            raise ValueError("table size must be n^R * 4^R")

        def fn(A, x, z):  # C order over (n,)*R + (2,)*R + (2,)*R
            a_index = np.ravel_multi_index(tuple(A.T), (n,) * R)
            return values[a_index * 4 ** R + pack_bits([*x.T, *z.T])]

        return cls(fn)


def dictator_assignment(planted, graph: SseGraph | None = None) -> LongCodeAssignment:
    """Dictator assignment reading x at the planted-set-selected index.

    ``planted`` is a vertex list or a boolean mask; ``graph`` supplies the
    vertex count when a list is given.
    """
    planted = list(planted)
    if graph is not None:
        mask = np.zeros(graph.n, dtype=bool)
        mask[planted] = True
    else:
        mask = np.asarray(planted, dtype=bool)
    core = PlantedDictator(mask)
    return LongCodeAssignment(core.evaluate_batch, dictator=core)


def analytic_bias(vertex_weights: dict[str, float], mus: dict[str, float]) -> float:
    """Exact relative weight of any coordinate-reading assignment."""
    return math.fsum(w * mus[v] for v, w in vertex_weights.items())
