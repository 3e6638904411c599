"""Locally-consistent distribution families over a constraint hypergraph.

A family stores one probability vector per small vertex subset, consistent on
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
from .harness.mc import ORACLE_CAP
from .polynomial import _apply_axis
from .probspace import unpack_bits

CONSISTENCY_TOL = 1e-9
PSD_TOL = -1e-8
VECTOR_TOL = 1e-7
_JOINT_CAP = 20
_MOMENT_CHUNK = 1 << 16  # entries of one monomial-indicator chunk


class StructuralError(KeyError):
    """A required local distribution is not stored and cannot be derived."""


class PSDFailureError(ValueError):
    pass


class ZeroProbabilityEvent(ValueError):
    pass


def _smooth_kernel(eta: float, mu: float) -> np.ndarray:
    """Per-coordinate resampling kernel, rows = new value, cols = old."""
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
    k-th vertex of the sorted subset.  Families built from true distributions
    additionally carry the full joint, from which any local is derived on
    demand.
    """

    def __init__(
        self,
        host: ConstraintHypergraph,
        level: int,
        locals_: dict[tuple[str, ...], np.ndarray] | None = None,
        joint: np.ndarray | None = None,
    ):
        if level < 2:
            raise ValueError("level must be >= 2")
        self.host = host
        self.level = int(level)
        self._order = {v: i for i, v in enumerate(host.vertices)}
        self._locals: dict[tuple[str, ...], np.ndarray] = {}
        if locals_:
            for subset, table in locals_.items():
                key = self._key(subset)
                self._locals[key] = np.asarray(table, dtype=float).reshape((2,) * len(key))
        self._joint = None
        if joint is not None:
            n = len(host.vertices)
            self._joint = np.asarray(joint, dtype=float).reshape((2,) * n)

    # ---- subset plumbing -------------------------------------------------

    def _key(self, subset) -> tuple[str, ...]:
        vs = sorted(set(subset), key=lambda v: self._order[v])
        for v in vs:
            if v not in self._order:
                raise KeyError(f"unknown vertex {v}")
        return tuple(vs)

    def stored_subsets(self) -> list[tuple[str, ...]]:
        return list(self._locals)

    def local(self, subset) -> np.ndarray:
        """Probability tensor of the local distribution on ``subset``."""
        key = self._key(subset)
        if len(key) > self.level:
            raise ValueError(f"subset of size {len(key)} exceeds level {self.level}")
        if key in self._locals:
            return self._locals[key]
        if self._joint is not None:
            axes = tuple(i for i, v in enumerate(self.host.vertices) if v not in key)
            table = self._joint.sum(axis=axes) if axes else self._joint
            return np.asarray(table)
        # fall back to marginalizing a stored superset
        for skey, table in self._locals.items():
            if set(key) <= set(skey):
                drop = tuple(i for i, v in enumerate(skey) if v not in key)
                return table.sum(axis=drop) if drop else table
        raise StructuralError(f"no stored local covers {key}")

    def prob(self, subset, bits) -> float:
        """Probability of X_subset = bits (bits follow the caller's order)."""
        key = self._key(subset)
        table = self.local(key)
        given = dict(zip(subset, bits))
        aligned = tuple(int(given[v]) for v in key)
        return float(table[aligned])

    def prob_all_ones(self, subset) -> float:
        key = self._key(subset)
        if not key:
            return 1.0
        table = self.local(key)
        return float(table[(1,) * len(key)])

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
        return cls(host, level, joint=joint)

    # ---- transforms ------------------------------------------------------

    def smooth(self, eta: float, mu: float) -> "LocalDistributionFamily":
        """Per-coordinate resample toward Bernoulli(mu) with rate eta.

        Keeps the global bias fixed when the input bias equals mu, and forces
        every small event to probability at least (eta*min(mu,1-mu))^|A|.
        """
        if not 0.0 < eta < 1.0:
            raise ValueError("smoothing rate must lie in (0,1)")
        kernel = _smooth_kernel(eta, mu)
        joint = None
        if self._joint is not None:
            joint = self._joint
            for axis in range(joint.ndim):
                joint = _apply_axis(joint, kernel, axis)
        locals_ = {}
        for key, table in self._locals.items():
            t = table
            for axis in range(t.ndim):
                t = _apply_axis(t, kernel, axis)
            locals_[key] = t
        return LocalDistributionFamily(self.host, self.level, locals_, joint)

    def condition(self, subset, alpha) -> "LocalDistributionFamily":
        """Restrict on the event X_subset = alpha; level drops by |subset|."""
        key = self._key(subset)
        if isinstance(subset, (tuple, list)):
            pin = {v: int(b) for v, b in zip(subset, alpha)}
        else:
            pin = {subset: int(alpha)}
        new_level = self.level - len(key)
        if new_level < 2:
            raise ValueError("conditioning would drop level below 2")
        p_event = self._event_prob(key, tuple(pin[v] for v in key))
        if p_event <= 0.0:
            raise ZeroProbabilityEvent(f"conditioning event {pin} has probability 0")
        joint = None
        if self._joint is not None:
            joint = self._joint.copy()
            for v, b in pin.items():
                axis = self._order[v]
                sl = [slice(None)] * joint.ndim
                sl[axis] = 1 - b
                joint[tuple(sl)] = 0.0
            joint /= joint.sum()
        locals_ = {}
        for skey in self._locals:
            if len(skey) > new_level:
                continue
            union = self._key(skey + key)
            try:
                big = self.local(union)
            except (StructuralError, ValueError):
                continue
            locals_[skey] = self._condition_table(big, union, skey, pin) / p_event
        return LocalDistributionFamily(self.host, new_level, locals_, joint)

    def _event_prob(self, key: tuple[str, ...], bits: tuple[int, ...]) -> float:
        table = self.local(key)
        return float(table[bits])

    @staticmethod
    def _condition_table(big, union, keep, pin) -> np.ndarray:
        sl = [slice(None)] * len(union)
        for i, v in enumerate(union):
            if v in pin:
                sl[i] = pin[v]
        reduced = big[tuple(sl)]
        kept = [v for v in union if v not in pin]
        # reduced axes follow `kept`; marginalize down to `keep` order
        drop = tuple(i for i, v in enumerate(kept) if v not in keep)
        out = reduced.sum(axis=drop) if drop else reduced
        # conditioned vertices inside `keep` are pinned point masses
        for v in keep:
            if v in pin:
                point = np.zeros(2)
                point[pin[v]] = 1.0
                out = np.multiply.outer(out, point)
        kept_order = [v for v in keep if v not in pin] + [v for v in keep if v in pin]
        perm = [kept_order.index(v) for v in keep]
        return np.transpose(np.asarray(out), perm)

    # ---- reporting -------------------------------------------------------

    def statistics(self) -> "Statistics":
        return compute_statistics(self)

    def objective(self) -> float:
        """Edge-weighted probability of satisfying the predicate."""
        psi = self.host.predicate
        total = 0.0
        for vs, w in self.host.edges:
            key = self._key(vs)
            table = self.local(key)
            pos = {v: i for i, v in enumerate(key)}
            p = 0.0
            for bits in itertools.product((0, 1), repeat=len(key)):
                labels = [bits[pos[v]] for v in vs]
                if psi(labels):
                    p += float(table[bits])
            total += w * p
        return total

    def bias(self) -> float:
        return math.fsum(w * self.vertex_mean(v) for v, w in self.host.vertex_weights.items())

    # ---- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        out = {"level": self.level, "locals": []}
        subsets = self.stored_subsets()
        if not subsets and self._joint is not None:
            n = len(self.host.vertices)
            size = min(self.level, n)
            subsets = [
                self._key(c)
                for k in range(1, size + 1)
                for c in itertools.combinations(self.host.vertices, k)
            ]
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
        locals_ = {}
        for item in obj["locals"]:
            subset = tuple(item["subset"])
            table = np.zeros((2,) * len(subset))
            for bit_string, p in item["probs"].items():
                table[tuple(int(c) for c in bit_string)] = float(p)
            locals_[subset] = table
        return cls(host, obj["level"], locals_)


# ---- statistics ------------------------------------------------------------


@dataclass
class Statistics:
    vertices: list[str]
    means: np.ndarray
    second_moments: np.ndarray
    cov: np.ndarray
    stdev: np.ndarray
    corr: np.ndarray
    degenerate: np.ndarray  # vertices with zero stdev: correlation reported 0
    avg_abs_corr: float  # off-diagonal average over iid w-weighted pairs
    avg_abs_corr_with_diag: float


def compute_statistics(theta: LocalDistributionFamily) -> Statistics:
    verts = theta.host.vertices
    n = len(verts)
    means = np.array([theta.vertex_mean(v) for v in verts])
    second = np.outer(means, means)
    for i in range(n):
        second[i, i] = means[i]
        for j in range(i + 1, n):
            key = theta._key((verts[i], verts[j]))
            second[i, j] = second[j, i] = float(theta.local(key)[1, 1])
    cov = second - np.outer(means, means)
    var = np.clip(np.diag(cov), 0.0, None)
    stdev = np.sqrt(var)
    degenerate = stdev <= 1e-12
    denom = np.outer(stdev, stdev)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    np.fill_diagonal(corr, np.where(degenerate, 0.0, 1.0))
    w = theta.host.vertex_weight_vector(verts)
    pair_w = np.outer(w, w)
    off = ~np.eye(n, dtype=bool)
    off_mass = pair_w[off].sum()
    avg_off = float((pair_w * np.abs(corr))[off].sum() / off_mass) if off_mass > 0 else 0.0
    avg_diag = float((pair_w * np.abs(corr)).sum())
    return Statistics(
        vertices=list(verts),
        means=means,
        second_moments=second,
        cov=cov,
        stdev=stdev,
        corr=corr,
        degenerate=degenerate,
        avg_abs_corr=avg_off,
        avg_abs_corr_with_diag=avg_diag,
    )


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
    support_rows: int | None  # nonzero joint entries; None when locals-backed
    path: str  # "joint" (batched kernel, joint check) or "locals" (per-entry, pairwise scan)


def _joint_backed(theta: LocalDistributionFamily) -> bool:
    return theta._joint is not None and not theta._locals


def _joint_moments(theta: LocalDistributionFamily, index: list[tuple[str, ...]]) -> np.ndarray:
    """P[all ones on sa ∪ sb] for every pair of index subsets, as M^T diag(p) M.

    ``p`` holds the nonzero joint entries and ``M[x, a] = prod_{v in sa} x_v``;
    rows go through in chunks, so no ``rows x |index|`` array is built.
    """
    verts = theta.host.vertices
    n, size = len(verts), len(index)
    p = theta._joint.reshape(-1)
    rows = int(np.count_nonzero(p))
    if rows * size > ORACLE_CAP:
        raise ValueError(
            f"moment matrix at n={n}, level={theta.level}: {rows} nonzero joint rows x "
            f"{size} index subsets exceeds the work cap {ORACLE_CAP}"
        )
    # index subsets as vertex positions, padded with n (a column of ones)
    width = max(len(s) for s in index)
    pos = np.full((size, width), n)
    for a, sa in enumerate(index):
        pos[a, : len(sa)] = [theta._order[v] for v in sa]
    nz = np.flatnonzero(p)
    step = max(1, _MOMENT_CHUNK // size)
    out = np.zeros((size, size))
    for start in range(0, rows, step):
        x = nz[start : start + step]
        bits = np.ones((x.size, n + 1), dtype=bool)
        bits[:, :n] = unpack_bits(x, n)
        m = bits[:, pos].all(axis=2).astype(float)
        out += (m * p[x, None]).T @ m
    return out


def _moment_entries(theta: LocalDistributionFamily, order: int, violations: list | None = None):
    """Index subsets (size <= order/2), moment matrix and usable-row mask.

    Joint-backed families take the batched kernel.  Otherwise each entry is a
    local query; when ``violations`` is given, an entry no stored local covers
    is recorded as 'missing-local' and its rows are marked unusable.
    """
    verts = theta.host.vertices
    half = min(max(order // 2, 1), len(verts))
    index: list[tuple[str, ...]] = [()]
    for k in range(1, half + 1):
        index.extend(tuple(c) for c in itertools.combinations(verts, k))
    usable = np.ones(len(index), dtype=bool)
    if _joint_backed(theta):
        return index, _joint_moments(theta, index), usable
    m = np.zeros((len(index), len(index)))
    for a, sa in enumerate(index):
        for b, sb in enumerate(index[a:], start=a):
            union = tuple(dict.fromkeys(sa + sb))
            try:
                m[a, b] = m[b, a] = theta.prob_all_ones(union)
            except (StructuralError, ValueError):
                if violations is None:
                    raise
                violations.append(("missing-local", union, None))
                usable[a] = usable[b] = False
    return index, m, usable


def moment_matrix(theta: LocalDistributionFamily, order: int | None = None):
    """Build the moment matrix of a family; returns (index list, matrix)."""
    index, m, _ = _moment_entries(theta, theta.level if order is None else order)
    return index, m


def verify_feasible(
    theta: LocalDistributionFamily,
    mu: float | None = None,
    tol: float = CONSISTENCY_TOL,
) -> FeasibilityReport:
    """Check local consistency, moment-matrix PSDness, bias, and objective.

    A joint-backed family is checked on the joint alone: its negative mass,
    a lower bound on every marginal entry, must be >= -tol and its total
    within tol of 1.  Marginals of one array agree with each other, so the
    pairwise scan other families get is not needed.
    """
    violations = []
    joint_path = _joint_backed(theta)
    if joint_path:
        joint = theta._joint
        key = tuple(theta.host.vertices)
        negative = float(joint.sum(where=joint < 0.0))
        if negative < -tol:
            violations.append(("negative", key, negative))
        if abs(joint.sum() - 1.0) > tol:
            violations.append(("normalization", key, float(joint.sum())))
    else:
        _scan_locals(theta, tol, violations)
    # missing edge locals are structural failures
    for vs, _ in theta.host.edges:
        try:
            theta.local(theta._key(vs))
        except StructuralError as exc:
            raise StructuralError(f"edge {vs} has no stored local") from exc
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
    return FeasibilityReport(
        violations,
        min_eig,
        bias,
        mu,
        objective,
        feasible,
        moment_size=len(index),
        support_rows=int(np.count_nonzero(theta._joint)) if joint_path else None,
        path="joint" if joint_path else "locals",
    )


def _scan_locals(theta: LocalDistributionFamily, tol: float, violations: list) -> None:
    """Sign, normalization and pairwise-marginal checks of the stored locals."""
    subsets = theta.stored_subsets()
    for key in subsets:
        table = np.asarray(theta.local(key))
        if table.min() < -tol:
            violations.append(("negative", key, float(table.min())))
        if abs(table.sum() - 1.0) > tol:
            violations.append(("normalization", key, float(table.sum())))
    for ka, kb in itertools.combinations(subsets, 2):
        common = tuple(v for v in ka if v in kb)
        if not common:
            continue
        ta = theta.local(ka)
        tb = theta.local(kb)
        da = tuple(i for i, v in enumerate(ka) if v not in common)
        db = tuple(i for i, v in enumerate(kb) if v not in common)
        ma = ta.sum(axis=da) if da else ta
        mb = tb.sum(axis=db) if db else tb
        order_a = [v for v in ka if v in common]
        order_b = [v for v in kb if v in common]
        mb = np.transpose(mb, [order_b.index(v) for v in order_a])
        gap = float(np.abs(ma - mb).max())
        if gap > tol:
            violations.append(("marginal", (ka, kb), gap))


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
    """Factor the degree-2 moment matrix into explicit vectors."""
    verts = theta.host.vertices
    index, m2 = moment_matrix(theta, order=2)
    lam, vecs = np.linalg.eigh(m2)
    if lam.min() < PSD_TOL:
        raise PSDFailureError(f"degree-2 moment matrix has eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, None)
    factors = vecs * np.sqrt(lam)  # rows are the Gram vectors
    u_empty = factors[0]
    u = factors[1 : 1 + len(verts)]
    mu = np.array([theta.vertex_mean(v) for v in verts])
    w = u - np.outer(mu, u_empty)
    return VectorSolution(
        vertices=list(verts),
        dimension=factors.shape[1],
        u_empty=u_empty,
        u=u,
        w=w,
        mu=mu,
    )


# ---- greedy conditioning ---------------------------------------------------


@dataclass
class ConditioningResult:
    success: bool
    subset: list[str]
    values: list[int]
    family: LocalDistributionFamily
    trace: list[dict] = field(default_factory=list)


def find_conditioning(
    theta: LocalDistributionFamily,
    target: float,
    budget: int,
    min_event_prob: float = 1e-12,
) -> ConditioningResult:
    """Greedy search for a small conditioning with low average |correlation|.

    One (vertex, value) pin per round, full scan, picking the candidate that
    minimizes the resulting off-diagonal average absolute correlation.  Ties
    break toward the lowest vertex index, then value 0.  Exhausting the budget
    yields a failure report carrying the best family found.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    current = theta
    chosen: list[str] = []
    values: list[int] = []
    trace: list[dict] = []
    avg = current.statistics().avg_abs_corr
    while avg > target and len(chosen) < budget:
        if current.level - 1 < 2:
            break
        best = None
        for v in current.host.vertices:
            if v in chosen:
                continue
            p1 = current.vertex_mean(v)
            for b in (0, 1):
                p_event = p1 if b == 1 else 1.0 - p1
                if p_event <= min_event_prob:
                    continue
                cand = current.condition((v,), (b,))
                cand_avg = cand.statistics().avg_abs_corr
                key = (cand_avg, current.host.vertices.index(v), b)
                if best is None or key < best[0]:
                    best = (key, v, b, cand)
        if best is None:
            break
        _, v, b, cand = best
        chosen.append(v)
        values.append(b)
        trace.append({"vertex": v, "value": b, "avg_abs_corr": best[0][0], "before": avg})
        current = cand
        avg = best[0][0]
    return ConditioningResult(avg <= target, chosen, values, current, trace)
