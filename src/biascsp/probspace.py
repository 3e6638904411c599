"""Biased product spaces over {0,1} / {bot,top} and their Fourier calculus.

Conventions
-----------
* A coordinate with bias ``p`` takes value 1 (or ``top``) with probability
  ``p``; symbols are always encoded as 0/1 integers.
* Explicit tables list values in lexicographic domain order: flat index ``k``
  encodes the point ``x`` with ``x(j) = (k >> (R-1-j)) & 1``, so reshaping to
  ``(2,)*R`` puts coordinate ``j`` on axis ``j``.
* Subset masks in the public API are little-endian: bit ``j`` of a mask means
  coordinate ``j`` is in the subset.
* A :class:`PairedSpace` is the lifted 4-point-per-coordinate setting: a bit
  space and a leak space of equal dimension ``R``.  Tables have ``4**R``
  entries, flat index ``x_index * 2**R + z_index``, and Fourier coefficients
  are indexed by subset pairs ``(S, T)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harness.mc import ORACLE_CAP
from .polynomial import MultilinearPolynomial, _apply_axis

MAX_BIT_R = 16
MAX_PAIR_R = 8
TOL = 1e-9


class DegenerateBiasError(ValueError):
    """Raised for coordinate biases at 0 or 1, where the character blows up."""


def _check_biases(biases) -> tuple[float, ...]:
    biases = tuple(float(p) for p in biases)
    if not biases:
        raise ValueError("need at least one coordinate")
    for p in biases:
        if not 0.0 < p < 1.0:
            raise DegenerateBiasError(f"bias {p} not strictly inside (0,1)")
    return biases


@dataclass(frozen=True)
class BiasedSpace:
    """Product of R independently biased two-point coordinates."""

    biases: tuple[float, ...]
    alphabet: str = "bit"  # "bit" for {0,1}, "leak" for {bot,top}

    def __post_init__(self):
        object.__setattr__(self, "biases", _check_biases(self.biases))
        if self.alphabet not in ("bit", "leak"):
            raise ValueError("alphabet must be 'bit' or 'leak'")
        if len(self.biases) > MAX_BIT_R:
            raise ValueError(f"explicit tables capped at R <= {MAX_BIT_R}")

    @property
    def r(self) -> int:
        return len(self.biases)

    @property
    def size(self) -> int:
        return 2 ** self.r


@dataclass(frozen=True)
class PairedSpace:
    """Bit space and leak space of equal R, one 4-point letter per coordinate."""

    bit: BiasedSpace
    leak: BiasedSpace

    def __post_init__(self):
        if self.bit.alphabet != "bit" or self.leak.alphabet != "leak":
            raise ValueError("expected (bit, leak) component spaces")
        if self.bit.r != self.leak.r:
            raise ValueError("component spaces must share R")
        if self.bit.r > MAX_PAIR_R:
            raise ValueError(f"explicit 4-point tables capped at R <= {MAX_PAIR_R}")

    @property
    def r(self) -> int:
        return self.bit.r

    @property
    def size(self) -> int:
        return 4 ** self.r


Space = BiasedSpace | PairedSpace


def _axis_biases(space: Space) -> tuple[float, ...]:
    if isinstance(space, PairedSpace):
        return space.bit.biases + space.leak.biases
    return space.biases


def _n_axes(space: Space) -> int:
    return len(_axis_biases(space))


def unpack_bits(index, width: int) -> np.ndarray:
    """The points that flat indices encode: bit ``j`` of the last axis is
    ``(index >> (width-1-j)) & 1``, most significant first.

    The result has shape ``np.shape(index) + (width,)``; it is int64 for
    Python-int and int64 indices.
    """
    return (np.asarray(index)[..., None] >> np.arange(width - 1, -1, -1)) & 1


def pack_bits(columns):
    """Flat index of the point whose coordinates are ``columns``, the first
    most significant; the inverse of :func:`unpack_bits`.

    Each column is an int or an array, and the arrays broadcast together, so
    ``pack_bits(x.T)`` packs the rows of an (m, R) bit matrix.  The index is
    int64 whatever the columns' dtype, so int8 columns cannot wrap.
    """
    idx = np.int64(0)
    for c in columns:
        idx = (idx << 1) | c
    return idx


def subset_masks(index, positions, width: int) -> np.ndarray:
    """Masks over ``width`` coordinates, the first most significant, of the
    subsets that flat indices over ``(2,)*len(positions)`` select: bit ``j``
    of an index (read as :func:`unpack_bits` does) puts coordinate
    ``positions[j]`` in the subset.

    ``subset_masks(2**k - 1, positions, width)`` is the mask of ``positions``
    itself, and with ``positions = range(width)`` every index is its own
    mask.  Masks are int64, so ``width`` is at most 63.
    """
    if width > 63:
        raise ValueError(f"subset masks hold at most 63 coordinates, not {width}")
    index = np.asarray(index, dtype=np.int64)
    k = len(positions)
    out = np.zeros(index.shape, dtype=np.int64)
    for j, p in enumerate(positions):
        out |= ((index >> (k - 1 - j)) & 1) << (width - 1 - p)
    return out


def product_measure(biases) -> np.ndarray:
    """The product of Bernoulli(p) coordinates, one per bias, as a flat
    vector in C order over ``(2,)*len(biases)``: the weight of the point
    ``x`` is the product of ``p_j`` or ``1 - p_j``, taken in coordinate order."""
    out = np.ones(1)
    for p in biases:
        out = np.multiply.outer(out, np.array([1.0 - p, p])).reshape(-1)
    return out


def domain_points(r: int) -> np.ndarray:
    """All points of {0,1}^r in lexicographic order, shape (2^r, r)."""
    return unpack_bits(np.arange(2 ** r), r)


def character(p: float, b) -> float | np.ndarray:
    """The non-trivial orthonormal character of a p-biased coordinate."""
    if not 0.0 < p < 1.0:
        raise DegenerateBiasError(f"bias {p} not strictly inside (0,1)")
    return (np.asarray(b, dtype=float) - p) / math.sqrt(p * (1.0 - p))


def _mask_degrees(n_axes: int) -> np.ndarray:
    """Popcount of each flat coefficient index (C-order over (2,)*n)."""
    deg = np.zeros(2 ** n_axes, dtype=int)
    for j in range(n_axes):
        deg += (np.arange(2 ** n_axes) >> (n_axes - 1 - j)) & 1
    return deg


class FunctionTable:
    """Real-valued function given explicitly on every point of its domain."""

    def __init__(self, space: Space, values, bounded: bool = False):
        self.space = space
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != space.size:
            raise ValueError(f"expected {space.size} values, got {values.size}")
        if bounded and (values.min() < -TOL or values.max() > 1.0 + TOL):
            raise ValueError("bounded table has values outside [0,1]")
        self.values = values
        self.bounded = bounded

    @property
    def tensor(self) -> np.ndarray:
        return self.values.reshape((2,) * _n_axes(self.space))

    def _axis_weights(self) -> list[np.ndarray]:
        return [np.array([1.0 - p, p]) for p in _axis_biases(self.space)]

    def expectation(self) -> float:
        t = self.tensor
        for w in self._axis_weights():
            t = np.tensordot(w, t, axes=(0, 0))
        return float(t)

    def second_moment(self) -> float:
        sq = FunctionTable(self.space, self.values ** 2)
        return sq.expectation()

    def value_at(self, *coords) -> float:
        """Look up f at a point given as one bit-vector (or x-vector, z-vector)."""
        if len(coords) != (2 if isinstance(self.space, PairedSpace) else 1):
            raise ValueError("a paired table takes (x, z); a single table takes one bit-vector")
        return float(self.values[pack_bits(np.concatenate(coords).astype(np.int64))])


class FourierTable:
    """Fourier coefficients of a function over a biased product space.

    Coefficients are stored as a flat array in the same axis layout as the
    value tables; use :meth:`coefficient` for subset-mask access.
    """

    def __init__(self, space: Space, coeffs):
        self.space = space
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        if coeffs.size != space.size:
            raise ValueError(f"expected {space.size} coefficients")
        self.coeffs = coeffs

    @property
    def tensor(self) -> np.ndarray:
        return self.coeffs.reshape((2,) * _n_axes(self.space))

    def coefficient(self, mask_s: int, mask_t: int | None = None) -> float:
        """f-hat at subset mask S (little-endian), or at the pair (S, T)."""
        if isinstance(self.space, PairedSpace):
            if mask_t is None:
                raise ValueError("paired space needs a (S, T) mask pair")
            masks = (mask_s, mask_t)
        else:
            if mask_t is not None:
                raise ValueError("single space takes one subset mask")
            masks = (mask_s,)
        # reversed, a little-endian mask lists its coordinates in point order
        bits = np.concatenate([unpack_bits(m, self.space.r)[::-1] for m in masks])
        return float(self.coeffs[pack_bits(bits)])

    def total_weight(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))

    def variance(self) -> float:
        return self.total_weight() - self.coefficient(0, 0 if isinstance(self.space, PairedSpace) else None) ** 2


def _basis_mats(biases, basis: str = "fourier", rho: float = 1.0) -> np.ndarray:
    """The per-axis 2 x 2 maps of the character calculus, one per bias:
    shape ``np.shape(biases) + (2, 2)``, row = output index.

    ``"fourier"`` takes the values at the points 0, 1 to the coefficients of
    1 and the character phi; ``"values"`` takes coefficients back to values
    and ``"monomials"`` to the coefficients of 1 and x.  Each scales the
    phi-coefficient by ``rho``, the noise operator's factor per axis, and
    ``"noise"`` is that scaling alone.
    """
    p = np.asarray(biases, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise DegenerateBiasError(f"biases {p} not strictly inside (0,1)")
    sigma = np.sqrt(p * (1.0 - p))
    phi0, phi1 = (0.0 - p) / sigma, (1.0 - p) / sigma  # phi at the points 0, 1
    one, zero = np.ones_like(p), np.zeros_like(p)
    if basis == "fourier":  # row s: E-weight against phi^s
        rows = ((1.0 - p, p), (rho * ((1.0 - p) * phi0), rho * (p * phi1)))
    elif basis == "values":  # row b: (1, phi(b))
        rows = ((one, rho * phi0), (one, rho * phi1))
    elif basis == "monomials":  # c0*1 + c1*phi -> c0 - c1*p/sigma + (c1/sigma)*x
        rows = ((one, rho * phi0), (zero, rho / sigma))
    elif basis == "noise":
        rows = ((one, zero), (zero, rho * one))
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def _character_transform(
    t: np.ndarray, biases, first_axis: int = 0, basis: str = "fourier", rho: float = 1.0
) -> np.ndarray:
    """``t`` mapped by :func:`_basis_mats` ``(biases, basis, rho)`` along
    the axes ``first_axis``, ``first_axis + 1``, ..., one axis pass per bias.

    Axes before ``first_axis`` index a stack of tables.  With one bias per
    axis every table gets the same maps; with ``biases`` of shape (k, axes),
    one row per table, axis 0 of ``t`` is the stack of k tables and each
    pass is one batched matmul of the k tables' own maps.
    """
    mats = _basis_mats(biases, basis, rho)
    if mats.ndim == 4:
        mats = mats.swapaxes(0, 1)  # per axis, the k tables' maps
    for axis, mat in enumerate(mats, start=first_axis):
        t = _apply_axis(t, mat, axis)
    return t


def fourier_expand(f: FunctionTable) -> FourierTable:
    """Exact expansion in the per-coordinate orthonormal character basis."""
    t = _character_transform(f.tensor.astype(float), _axis_biases(f.space))
    return FourierTable(f.space, t.reshape(-1))


def evaluate(fh: FourierTable) -> FunctionTable:
    """Inverse of :func:`fourier_expand`; exact on every domain point."""
    t = _character_transform(fh.tensor.astype(float), _axis_biases(fh.space), basis="values")
    return FunctionTable(fh.space, t.reshape(-1))


def _axis_weight_sum(sq: np.ndarray, axes: list[int], first_axis: int = 0) -> np.ndarray:
    """Sum of the squared coefficients ``sq`` whose index is nonzero on any
    given axis, counted from ``first_axis``; the axes before it index a
    stack of tables, one sum each."""
    keep = sq
    for a in sorted(axes, reverse=True):
        keep = np.take(keep, 0, axis=first_axis + a)
    # total minus the part supported entirely away from the axes
    total = sq.sum(axis=tuple(range(first_axis, sq.ndim)))
    return total - keep.sum(axis=tuple(range(first_axis, keep.ndim)))


def influences(coeffs: np.ndarray, r: int) -> np.ndarray:
    """The influence of each of the ``r`` coordinates of a stack of bit-space
    tables' Fourier coefficients (..., 2^r): shape (..., r)."""
    sq = np.square(coeffs).reshape(coeffs.shape[:-1] + (2,) * r)
    first = coeffs.ndim - 1
    return np.stack([_axis_weight_sum(sq, [j], first) for j in range(r)], axis=-1)


def influence(fh: FourierTable, j: int) -> float:
    """Influence of coordinate j (0-indexed): sum of f-hat^2 with j active.

    For a :class:`PairedSpace` table this is the 4-point-letter influence,
    counting coefficients with ``j in S union T``.
    """
    if isinstance(fh.space, PairedSpace):
        r = fh.space.r
        if not 0 <= j < r:
            raise IndexError(f"coordinate {j} out of range")
        return float(_axis_weight_sum(fh.tensor ** 2, [j, r + j]))
    if not 0 <= j < fh.space.r:
        raise IndexError(f"coordinate {j} out of range")
    return float(_axis_weight_sum(fh.tensor ** 2, [j]))


def split_influences(fh: FourierTable, j: int) -> tuple[float, float]:
    """(x-side, z-side) influences of coordinate j in the 2R-variate view."""
    if not isinstance(fh.space, PairedSpace):
        raise TypeError("split influences need a paired space")
    r = fh.space.r
    if not 0 <= j < r:
        raise IndexError(f"coordinate {j} out of range")
    sq = fh.tensor ** 2
    return float(_axis_weight_sum(sq, [j])), float(_axis_weight_sum(sq, [r + j]))


def max_influence(fh: FourierTable) -> float:
    r = fh.space.r
    return max(influence(fh, j) for j in range(r))


def noise_apply(fh: FourierTable, rho: float) -> FourierTable:
    """Attenuate level-d coefficients by rho^d.

    On a single biased space this is the usual noise operator; on a paired
    space it is the product operator acting on the x and z parts
    independently (degree = |S| + |T|).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0,1]")
    t = _character_transform(fh.tensor.astype(float), _axis_biases(fh.space), basis="noise", rho=rho)
    return FourierTable(fh.space, t.reshape(-1))


def high_degree_variance(fh: FourierTable, d: int) -> float:
    """Total squared Fourier weight strictly above degree d."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    deg = _mask_degrees(_n_axes(fh.space))
    sq = fh.coeffs ** 2
    return float(sq[deg > d].sum())


def iid_product_expectation(tables, block) -> float:
    """Exact E[prod_i t_i(x^i)] when coordinate j of (x^1, ..., x^k) is drawn
    i.i.d. from ``block``.

    ``block`` has shape ``(s,)*k``: axis i is the letter of x^i at one
    coordinate.  Each table holds ``s**R`` values in C order over ``(s,)*R``,
    coordinate j on axis j.  The expectation factors per coordinate: the last
    table absorbs the block one axis at a time, which leaves a tensor over the
    other tables' letters, and the other tables contract against it.  The
    largest intermediate holds ``s**((k-1)*R)`` entries; a larger request is
    refused before anything is allocated.
    """
    block = np.asarray(block, dtype=float)
    k, s = block.ndim, block.shape[0]
    if k != len(tables) or block.shape != (s,) * k:
        raise ValueError("block must have shape (s,)*k, one axis per table")
    R = round(math.log(np.size(tables[0])) / math.log(s))
    size = s ** ((k - 1) * R)
    if size > ORACLE_CAP:
        raise ValueError(
            f"contraction over s={s}, k={k}, R={R} needs {size} entries, "
            f"above the oracle cap {ORACLE_CAP}"
        )
    flat = [np.asarray(t, dtype=float).reshape(-1) for t in tables]
    if any(t.size != s ** R for t in flat):
        raise ValueError(f"every table must hold the same power s**R of s={s} values")
    kernel = block.reshape(s ** (k - 1), s)
    w = flat[-1].reshape((s,) * R)
    for _ in range(R):  # axis 0 is the next coordinate; its joint axis goes last
        w = np.tensordot(w, kernel, axes=(0, 1))
    # axes are (coordinate, table); reorder to (table, coordinate)
    w = w.reshape((s,) * ((k - 1) * R))
    w = w.transpose([j * (k - 1) + i for i in range(k - 1) for j in range(R)])
    w = w.reshape((s ** R,) * (k - 1))
    for t in flat[:-1]:
        w = np.tensordot(t, w, axes=(0, 0))
    return float(w)


def multilinear_extend(fh: FourierTable) -> MultilinearPolynomial:
    """Unique multilinear polynomial agreeing with the table on all corners.

    Defined for bit-alphabet spaces; evaluating at the per-coordinate means
    returns the expectation of the table.
    """
    if not isinstance(fh.space, BiasedSpace) or fh.space.alphabet != "bit":
        raise TypeError("multilinear extension is defined on bit spaces")
    t = _character_transform(fh.tensor.astype(float), fh.space.biases, basis="monomials")
    return MultilinearPolynomial(t)
