"""Locally-consistent distribution families over a constraint hypergraph.

A family stores probability tables keyed by vertex subsets, consistent on
overlaps, with a PSD moment matrix: the desk-scale stand-in for a solution of
the level-l relaxation.  Families are sourced from true distributions (always
feasible), from per-coordinate smoothing, from conditioning, or from JSON
import gated by :func:`verify_feasible`.  No SDP solver is involved.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .csp import Assignment, ConstraintHypergraph
from .harness.mc import BLOCK_ENTRIES, ORACLE_CAP
from .polynomial import _apply_axis
from .probspace import _mask_degrees, domain_points, pack_bits, subset_masks, unpack_bits

CONSISTENCY_TOL = 1e-9
PSD_TOL = -1e-8
VECTOR_TOL = 1e-7  # bound on the vector solution's Gram residual
MIN_EVENT_PROB = 1e-12  # greedy conditioning skips pins of smaller probability
_JOINT_CAP = 20


class StructuralError(KeyError):
    """A required local distribution is not stored and cannot be derived."""


class PSDFailureError(ValueError):
    pass


class ZeroProbabilityEvent(ValueError):
    pass


def _smooth_kernel(eta: float, mu: float) -> np.ndarray:
    """Per-coordinate resampling kernel (1 - eta) I + eta Bernoulli(mu), a bit
    kept or redrawn from Bernoulli(mu); rows = new value, cols = old."""
    return np.array(
        [
            [1.0 - eta + eta * (1.0 - mu), eta * (1.0 - mu)],
            [eta * mu, 1.0 - eta + eta * mu],
        ]
    )


class LocalDistributionFamily:
    """Family {theta_S} of local distributions, |S| <= level.

    Subsets are canonically ordered by the host's vertex order, and each local
    is a probability tensor of shape ``(2,)*|S|`` with axis k indexing the
    k-th vertex of the sorted subset.  The family stores one kind of object,
    tables keyed by vertex subsets: a true distribution is one table over
    every vertex, a JSON import one table per local.  Any local another
    table covers is its marginal.
    """

    def __init__(
        self,
        host: ConstraintHypergraph,
        level: int,
        tables: dict[tuple[str, ...], np.ndarray] | None = None,
    ):
        if level < 2:
            raise ValueError("level must be >= 2")
        self.host = host
        self.level = int(level)
        self._order = {v: i for i, v in enumerate(host.vertices)}
        self._tables: dict[tuple[str, ...], np.ndarray] = {}
        for subset, table in (tables or {}).items():
            key = self._key(subset)
            table = np.asarray(table, dtype=float).reshape((2,) * len(key))
            # axis k of the stored table is the k-th vertex of the sorted key
            self._tables[key] = table.transpose([list(subset).index(v) for v in key])
        # vertex -> the stored keys that hold it, in insertion order
        self._holders: dict[str, list[tuple[str, ...]]] = {}
        for key in self._tables:
            for v in key:
                self._holders.setdefault(v, []).append(key)
        self._widest = max(map(len, self._tables), default=0)

    # ---- subset plumbing -------------------------------------------------

    def _key(self, subset) -> tuple[str, ...]:
        vs = set(subset)
        for v in vs:
            if v not in self._order:
                raise KeyError(f"unknown vertex {v}")
        return tuple(sorted(vs, key=self._order.__getitem__))

    def _source(self, key: tuple[str, ...]) -> tuple[str, ...]:
        """Key of the stored table that ``local(key)`` reads: ``key`` itself if
        it is stored, else the first stored subset that covers it.

        A covering subset holds every vertex of ``key``, so only the holders
        of its rarest vertex are scanned, in insertion order, and none is
        scanned when ``key`` is wider than every stored subset."""
        if key in self._tables:
            return key
        need = set(key)
        if len(need) <= self._widest:
            holders = min((self._holders.get(v, ()) for v in key), key=len, default=self._tables)
            for skey in holders:
                if need <= set(skey):
                    return skey
        raise StructuralError(f"no stored local covers {key}")

    def _cover(self, key: tuple[str, ...]) -> np.ndarray:
        """Marginal on ``key`` of the stored table ``_source(key)``."""
        skey = self._source(key)
        table = self._tables[skey]
        return table if skey == key else _marginal([table], skey, [key])[0][..., 0]

    def local(self, subset) -> np.ndarray:
        """Probability tensor of the local distribution on ``subset``."""
        key = self._key(subset)
        if len(key) > self.level:
            raise ValueError(f"subset of size {len(key)} exceeds level {self.level}")
        return self._cover(key)

    def prob(self, subset, bits) -> float:
        """Probability of X_subset = bits (bits follow the caller's order)."""
        key = self._key(subset)
        table = self.local(key)
        given = dict(zip(subset, bits))
        aligned = tuple(int(given[v]) for v in key)
        return float(table[aligned])

    def vertex_mean(self, v: str) -> float:
        return float(self.local((v,))[1])

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_distribution(
        cls,
        support: list[tuple[Assignment, float]],
        level: int,
        host: ConstraintHypergraph,
    ) -> "LocalDistributionFamily":
        """Family of marginals of a true mixture over assignments."""
        if not support:
            raise ValueError("empty support")
        total = math.fsum(p for _, p in support)
        if abs(total - 1.0) > CONSISTENCY_TOL:
            raise ValueError("support probabilities must sum to 1")
        verts = host.vertices
        n = len(verts)
        if n > _JOINT_CAP:
            raise ValueError(f"joint representation capped at {_JOINT_CAP} vertices")
        joint = np.zeros((2,) * n)
        for sigma, p in support:
            idx = tuple(sigma[v] for v in verts)
            joint[idx] += p
        return cls(host, level, {tuple(verts): joint})

    # ---- transforms ------------------------------------------------------

    def smooth(self, eta: float, mu: float) -> "LocalDistributionFamily":
        """Per-coordinate resample toward Bernoulli(mu) with rate eta.

        Keeps the global bias fixed when the input bias equals mu, and forces
        every small event to probability at least (eta*min(mu,1-mu))^|A|.
        """
        if not 0.0 < eta < 1.0:
            raise ValueError("smoothing rate must lie in (0,1)")
        kernel = _smooth_kernel(eta, mu)
        tables = {}
        for key, t in self._tables.items():
            for axis in range(t.ndim):
                t = _apply_axis(t, kernel, axis)
            tables[key] = t
        return LocalDistributionFamily(self.host, self.level, tables)

    def condition(self, subset, alpha) -> "LocalDistributionFamily":
        """Restrict on the event X_subset = alpha; level drops by |subset|.

        Each stored table is conditioned through its union with the pinned
        vertices, read from the first table that covers it: the off-event
        entries are zeroed, the rest divided by their mass, and the result
        marginalized back.  A table whose union no table covers is dropped.
        """
        key = self._key(subset)
        if isinstance(subset, (tuple, list)):
            pin = {v: int(b) for v, b in zip(subset, alpha)}
        else:
            pin = {subset: int(alpha)}
        new_level = self.level - len(key)
        if new_level < 2:
            raise ValueError("conditioning would drop level below 2")
        tables = {}
        for skey in self._tables:
            union = self._key(skey + key)
            try:
                t = self._cover(union).copy()
            except StructuralError:
                continue
            for v, b in pin.items():
                sl = [slice(None)] * t.ndim
                sl[union.index(v)] = 1 - b
                t[tuple(sl)] = 0.0
            mass = t.sum()
            if mass <= 0.0:
                raise ZeroProbabilityEvent(f"conditioning event {pin} has probability 0")
            t /= mass
            tables[skey] = _marginal([t], union, [skey])[0][..., 0]
        return LocalDistributionFamily(self.host, new_level, tables)

    # ---- reporting -------------------------------------------------------

    def statistics(self) -> "Statistics":
        return compute_statistics(self)

    def objective(self) -> float:
        """Edge-weighted probability of satisfying the predicate."""
        accepting = self.host.predicate.table()
        total = 0.0
        for vs, w in self.host.edges:
            probs, _ = edge_block_probs(self, vs)
            total += w * float(probs @ accepting)
        return total

    def bias(self) -> float:
        return math.fsum(w * self.vertex_mean(v) for v, w in self.host.vertex_weights.items())

    # ---- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """Every local of size <= level that a stored table covers, each table's
        subsets in order of size, then of the host's vertex order."""
        out = {"level": self.level, "locals": []}
        subsets = dict.fromkeys(
            c
            for key in self._tables
            for k in range(1, min(self.level, len(key)) + 1)
            for c in itertools.combinations(key, k)
        )
        for key in subsets:
            table = self.local(key)
            probs = {}
            for bits in itertools.product((0, 1), repeat=len(key)):
                p = float(table[bits])
                if p != 0.0:
                    probs["".join(map(str, bits))] = p
            out["locals"].append({"subset": list(key), "probs": probs})
        return out

    @classmethod
    def from_json(cls, obj: dict, host: ConstraintHypergraph) -> "LocalDistributionFamily":
        """The family of the given locals; a local over more vertices than
        the level or ``_JOINT_CAP`` is refused before its table is made."""
        level = int(obj["level"])
        locals_ = {}
        for item in obj["locals"]:
            subset = tuple(item["subset"])
            if len(subset) > min(level, _JOINT_CAP):
                raise ValueError(f"local over {len(subset)} vertices exceeds level {level} or the cap {_JOINT_CAP}")
            table = np.zeros((2,) * len(subset))
            for bit_string, p in item["probs"].items():
                table[tuple(int(c) for c in bit_string)] = float(p)
            locals_[subset] = table
        return cls(host, level, locals_)


def _marginal(tables: list[np.ndarray], key: tuple[str, ...], keeps) -> list[np.ndarray]:
    """Marginal of each of ``tables`` on each vertex subset in ``keeps``.

    The tables share one memory layout, and their axes follow ``key``.  Each
    marginal has its table axes in ``key``'s order and one last axis that
    runs over ``tables``.

    The entries are added in the order of numpy's ``table.sum(axis=dropped)``
    on each table, so the two agree bit for bit.  That order takes the
    table's axes in memory order (a smoothed table is a permuted view).  The
    trailing run of dropped axes is summed pairwise, as one contiguous row
    per entry of the rest.  Those row sums are then added one at a time into
    each kept entry, in C order of the other dropped axes; with the tables'
    row sums stacked on the innermost axis, each of those adds is one vector
    add over the batch.  Keep sets with the same last kept axis share the
    row sums, which are held for one last kept axis at a time.  A single
    keep set of one table is numpy's sum itself, and one of every vertex
    sums nothing; neither needs that bookkeeping.
    """
    if len(keeps) == 1 and (len(tables) == 1 or len(keeps[0]) == len(key)):
        drop = tuple(i for i, v in enumerate(key) if v not in keeps[0])
        parts = [t.sum(axis=drop) if drop else t for t in tables]
        return [parts[0][..., None] if len(parts) == 1 else np.stack(parts, axis=-1)]
    order = sorted(range(len(key)), key=lambda a: -tables[0].strides[a])  # outermost first
    rows = [t.transpose(order) for t in tables]
    at = {key[a]: k for k, a in enumerate(order)}  # vertex -> memory position
    by_last: dict[int, list[int]] = {}  # last kept position -> keep sets
    for k, keep in enumerate(keeps):
        by_last.setdefault(max(at[v] for v in keep), []).append(k)
    out: list = [None] * len(keeps)
    for last, ks in by_last.items():
        sums = rows if last == len(key) - 1 else [t.reshape(2 ** (last + 1), -1).sum(axis=-1) for t in rows]
        head = sums[0][..., None] if len(sums) == 1 else np.stack(sums, axis=-1)
        head = head.reshape((2,) * (last + 1) + (len(rows),))
        del sums
        for k in ks:
            kept = sorted(at[v] for v in keeps[k])
            dropped = tuple(p for p in range(last) if p not in kept)
            s = head.sum(axis=dropped) if dropped else head
            # s's axes: the kept memory positions in increasing order, then the batch
            out[k] = s.transpose(*(kept.index(at[v]) for v in key if v in keeps[k]), len(kept))
        del head
    return out


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


# ---- statistics ------------------------------------------------------------


@dataclass
class Statistics:
    vertices: list[str]
    means: np.ndarray
    cov: np.ndarray
    stdev: np.ndarray
    corr: np.ndarray
    degenerate: np.ndarray  # vertices with zero stdev: correlation reported 0
    avg_abs_corr: float  # off-diagonal average over iid w-weighted pairs
    avg_abs_corr_with_diag: float


def compute_statistics(theta: LocalDistributionFamily) -> Statistics:
    return _batch_statistics([theta])[0]


def _moment_reads(theta: LocalDistributionFamily) -> dict:
    """Stored key -> [(subset, slot)]: the table ``local`` reads each vertex
    (slot i) and each pair (slot (i, j), i < j) from, in that order."""
    verts = theta.host.vertices
    reads: dict[tuple[str, ...], list] = {}
    wanted = [((v,), i) for i, v in enumerate(verts)]
    wanted += [((verts[i], verts[j]), (i, j)) for i, j in itertools.combinations(range(len(verts)), 2)]
    for subset, slot in wanted:
        reads.setdefault(theta._source(subset), []).append((subset, slot))
    return reads


def _batch_statistics(families: list[LocalDistributionFamily]) -> list[Statistics]:
    """Statistics of families over one host, in one batched pass.

    Families with the same stored keys and table layouts are scored
    together: every mean and pair moment of the group comes from one
    :func:`_marginal` call per table read, over that table of each family.  The arithmetic after that runs with a leading
    family axis, elementwise or as one contiguous row sum per family, so
    each family's statistics equal a batch of one bit for bit.
    """
    verts = families[0].host.vertices
    n = len(verts)
    means = np.empty((len(families), n))
    second = np.empty((len(families), n, n))
    groups: dict[tuple, list[int]] = {}  # stored keys and table strides -> families
    for f, fam in enumerate(families):
        groups.setdefault(tuple((key, t.strides) for key, t in fam._tables.items()), []).append(f)
    for part in groups.values():
        for skey, subsets in _moment_reads(families[part[0]]).items():
            tables = [families[f]._tables[skey] for f in part]
            for (_, slot), marg in zip(subsets, _marginal(tables, skey, [s for s, _ in subsets])):
                if isinstance(slot, int):
                    means[part, slot] = marg[1]
                else:
                    second[part, slot[0], slot[1]] = second[part, slot[1], slot[0]] = marg[1, 1]
    diag = np.arange(n)
    second[:, diag, diag] = means
    cov = second - means[:, :, None] * means[:, None, :]
    var = np.clip(cov[:, diag, diag], 0.0, None)
    stdev = np.sqrt(var)
    degenerate = stdev <= 1e-12
    denom = stdev[:, :, None] * stdev[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    corr[:, diag, diag] = np.where(degenerate, 0.0, 1.0)
    w = families[0].host.vertex_weight_vector(verts)
    pair_w = np.outer(w, w)
    off = ~np.eye(n, dtype=bool)
    off_mass = pair_w[off].sum()
    weighted = pair_w * np.abs(corr)
    # a masked gather over a leading axis is not C-contiguous, and a row sum
    # of it would add sequentially instead of pairwise
    if off_mass > 0:
        avg_off = np.ascontiguousarray(weighted[:, off]).sum(axis=-1) / off_mass
    else:
        avg_off = np.zeros(len(families))
    avg_diag = weighted.reshape(len(families), -1).sum(axis=-1)
    return [
        Statistics(
            vertices=list(verts),
            means=means[f],
            cov=cov[f],
            stdev=stdev[f],
            corr=corr[f],
            degenerate=degenerate[f],
            avg_abs_corr=float(avg_off[f]),
            avg_abs_corr_with_diag=float(avg_diag[f]),
        )
        for f in range(len(families))
    ]


# ---- feasibility -----------------------------------------------------------


@dataclass
class FeasibilityReport:
    consistency_violations: list
    min_eigenvalue: float
    bias: float
    bias_target: float | None
    objective: float
    feasible: bool
    moment_size: int  # |index|: subsets of size <= level/2, the empty one included


_ZETA = np.array([[1.0, 1.0], [0.0, 1.0]])  # superset sum along one axis


def _subset(theta: LocalDistributionFamily, mask) -> tuple[str, ...]:
    verts = theta.host.vertices
    return tuple(v for v, b in zip(verts, unpack_bits(mask, len(verts))) if b)


def _moments(theta: LocalDistributionFamily, max_size: int, violations: list | None = None):
    """Pseudo-moments y_S = P[x_v = 1 for every v in S] with |S| <= max_size.

    Returns (masks, y): the sorted subset masks (``probspace.subset_masks``,
    vertex 0 most significant) that some stored table covers, and their
    moments.  A table's superset-sum (zeta) transform holds the moments of
    the subsets of its key; where several tables give a moment, the first
    stored one is read.  With ``violations``, each table is checked, with
    tol = CONSISTENCY_TOL: its negative mass >= -tol, its total within tol
    of 1, and the moments it shares with other tables agree within tol
    ('marginal').
    """
    n = len(theta.host.vertices)
    masks, values = [], []
    for key, table in theta._tables.items():
        if violations is not None:
            negative = float(table.sum(where=table < 0.0))
            if negative < -CONSISTENCY_TOL:
                violations.append(("negative", key, negative))
            if abs(table.sum() - 1.0) > CONSISTENCY_TOL:
                violations.append(("normalization", key, float(table.sum())))
        z = table
        for axis in range(z.ndim):
            z = _apply_axis(z, _ZETA, axis)
        sel = np.flatnonzero(_mask_degrees(z.ndim) <= max_size)
        masks.append(subset_masks(sel, [theta._order[v] for v in key], n))
        values.append(z.reshape(-1)[sel])
    if not masks:
        raise StructuralError("the family stores no distribution")
    masks, values = np.concatenate(masks), np.concatenate(values)
    order = np.argsort(masks, kind="stable")
    masks, values = masks[order], values[order]
    first = np.flatnonzero(np.r_[True, masks[1:] != masks[:-1]])
    if violations is not None:
        gap = np.maximum.reduceat(values, first) - np.minimum.reduceat(values, first)
        for i in np.flatnonzero(gap > CONSISTENCY_TOL):
            violations.append(("marginal", _subset(theta, masks[first[i]]), float(gap[i])))
    return masks[first], values[first]


def _moment_entries(theta: LocalDistributionFamily, order: int, violations: list | None = None):
    """Index subsets (size <= order/2), moment matrix and usable-row mask.

    Entry (a, b) is the pseudo-moment of a | b, one gather from
    :func:`_moments`, which checks every moment of size <= order when
    ``violations`` is given.  An entry no stored table covers raises
    :class:`StructuralError`; with ``violations`` it is recorded as
    'missing-local' and its rows are marked unusable.
    """
    verts = theta.host.vertices
    n = len(verts)
    half = min(max(order // 2, 1), n)
    size = sum(math.comb(n, k) for k in range(half + 1))
    if size * size > ORACLE_CAP:
        raise ValueError(
            f"moment matrix at n={n}, order {order}: {size} index subsets, {size}^2 entries "
            f"exceed the work cap {ORACLE_CAP}"
        )
    masks, y = _moments(theta, max(order, 2 * half), violations)
    index: list[tuple[str, ...]] = [()]
    for k in range(1, half + 1):
        index.extend(itertools.combinations(verts, k))
    rows = np.array([subset_masks(2 ** len(s) - 1, [theta._order[v] for v in s], n) for s in index])
    union = rows[:, None] | rows
    at = np.searchsorted(masks, union)
    np.minimum(at, masks.size - 1, out=at)
    found = masks[at] == union
    m = y[at]
    usable = found.all(axis=1)
    if not usable.all():
        missing = np.argwhere(np.triu(~found))
        if violations is None:
            raise StructuralError(f"no stored distribution covers {_subset(theta, union[tuple(missing[0])])}")
        violations.extend(("missing-local", _subset(theta, union[a, b]), None) for a, b in missing)
        m[~found] = 0.0
    return index, m, usable


def moment_matrix(theta: LocalDistributionFamily, order: int | None = None):
    """Build the moment matrix of a family; returns (index list, matrix)."""
    index, m, _ = _moment_entries(theta, theta.level if order is None else order)
    return index, m


def verify_feasible(theta: LocalDistributionFamily, mu: float | None = None) -> FeasibilityReport:
    """Check local consistency, moment-matrix PSDness, bias, and objective.

    With tol = CONSISTENCY_TOL, every stored table has negative mass >= -tol
    (a lower bound on each of its marginal entries) and a total within tol
    of 1, and tables agree within tol on the pseudo-moments they share.
    """
    # missing edge locals are structural failures
    for vs, _ in theta.host.edges:
        try:
            theta.local(theta._key(vs))
        except StructuralError as exc:
            raise StructuralError(f"edge {vs} has no stored local") from exc
    violations = []
    index, m, usable = _moment_entries(theta, theta.level, violations)
    sub = m[np.ix_(usable, usable)]
    min_eig = float(np.linalg.eigvalsh(sub).min()) if usable.any() else 0.0
    bias = theta.bias()
    objective = theta.objective()
    feasible = (
        not violations
        and min_eig >= PSD_TOL
        and (mu is None or abs(bias - mu) <= 1e-7)
    )
    return FeasibilityReport(violations, min_eig, bias, mu, objective, feasible, moment_size=len(index))


# ---- vector solution -------------------------------------------------------


@dataclass
class VectorSolution:
    """Gram vectors realizing the degree-2 moments: u_i = mu_i*u0 + w_i."""

    vertices: list[str]
    dimension: int
    u_empty: np.ndarray
    u: np.ndarray  # (n, d)
    w: np.ndarray  # (n, d)
    mu: np.ndarray  # (n,)
    residual: float  # max |Gram matrix of (u0, u) - degree-2 moment matrix|

    def w_for(self, v: str) -> np.ndarray:
        return self.w[self.vertices.index(v)]

    def mu_for(self, v: str) -> float:
        return float(self.mu[self.vertices.index(v)])

    def corr_matrix(self) -> np.ndarray:
        """Pairwise inner products of the normalized fluctuation vectors."""
        norms = np.linalg.norm(self.w, axis=1)
        safe = np.where(norms > 1e-12, norms, 1.0)
        wbar = self.w / safe[:, None]
        wbar[norms <= 1e-12] = 0.0
        return wbar @ wbar.T


def vector_solution(theta: LocalDistributionFamily) -> VectorSolution:
    """Factor the degree-2 moment matrix into explicit vectors: the rows of
    its symmetric square root V diag(sqrt(lam)) V^T.  Unlike eigh's
    V diag(sqrt(lam)), they do not depend on eigenvector signs or on the
    basis of a repeated eigenvalue, so a roundoff-level change of the
    moments moves them only a little.  ``residual`` is the largest entry of
    the Gram matrix's difference from the moment matrix."""
    verts = theta.host.vertices
    index, m2 = moment_matrix(theta, order=2)
    lam, vecs = np.linalg.eigh(m2)
    if lam.min() < PSD_TOL:
        raise PSDFailureError(f"degree-2 moment matrix has eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)
    factors = (vecs * np.sqrt(lam)) @ vecs.T  # rows are the Gram vectors
    u_empty = factors[0]
    u = factors[1 : 1 + len(verts)]
    mu = np.array([theta.vertex_mean(v) for v in verts])
    w = u - np.outer(mu, u_empty)
    # factors @ factors.T of one buffer would run syrk, whose roundoff
    # differs from the gemm that computed the benchmark's stored residuals
    residual = float(np.abs(factors @ factors.copy().T - m2).max())
    return VectorSolution(
        vertices=list(verts),
        dimension=factors.shape[1],
        u_empty=u_empty,
        u=u,
        w=w,
        mu=mu,
        residual=residual,
    )


# ---- greedy conditioning ---------------------------------------------------


@dataclass
class ConditioningResult:
    success: bool
    subset: list[str]
    values: list[int]
    family: LocalDistributionFamily
    avg_abs_corr: float  # of ``family``
    trace: list[dict] = field(default_factory=list)


def _best_pin(current: LocalDistributionFamily, pins: list) -> tuple:
    """(key, vertex, value, family, means) of the lowest-key pin of one block
    of (vertex index, vertex, value) pins, each conditioned, then scored in
    one batched pass; key = (avg_abs_corr, vertex index, value)."""
    families = [current.condition((v,), (b,)) for _, v, b in pins]
    scored = zip(pins, families, _batch_statistics(families))
    return min((((st.avg_abs_corr, i, b), v, b, fam, st.means) for (i, v, b), fam, st in scored), key=lambda c: c[0])


def find_conditioning(theta: LocalDistributionFamily, target: float, budget: int) -> ConditioningResult:
    """Greedy search for a small conditioning with low average |correlation|.

    One (vertex, value) pin per round, full scan, picking the candidate that
    minimizes the resulting off-diagonal average absolute correlation; pins
    of probability <= MIN_EVENT_PROB are skipped.  Ties break toward the
    lowest vertex index, then value 0.  Exhausting the budget yields a
    failure report carrying the best family found.

    A round conditions and scores its candidates in blocks of at most
    ``BLOCK_ENTRIES`` table entries (one candidate at least), so only one
    block and the best family so far are alive at a time.  Each trace row
    counts the round's ``candidates`` and ``blocks``.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    current = theta
    chosen: list[str] = []
    values: list[int] = []
    trace: list[dict] = []
    stats = current.statistics()
    avg, means = stats.avg_abs_corr, stats.means
    while avg > target and len(chosen) < budget:
        if current.level - 1 < 2:
            break
        pins = [
            (i, v, b)
            for i, v in enumerate(current.host.vertices)
            if v not in chosen
            for b in (0, 1)
            if (means[i] if b == 1 else 1.0 - means[i]) > MIN_EVENT_PROB
        ]
        if not pins:
            break
        size = max(1, BLOCK_ENTRIES // sum(t.size for t in current._tables.values()))
        blocks = [pins[k : k + size] for k in range(0, len(pins), size)]
        best = min((_best_pin(current, block) for block in blocks), key=lambda c: c[0])
        (cand_avg, _, _), v, b, current, means = best
        chosen.append(v)
        values.append(b)
        trace.append({
            "vertex": v, "value": b, "avg_abs_corr": cand_avg, "before": avg,
            "candidates": len(pins), "blocks": len(blocks),
        })
        avg = cand_avg
    return ConditioningResult(avg <= target, chosen, values, current, avg, trace)
