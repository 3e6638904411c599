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

    @classmethod
    def uniform(cls, r: int, p: float, alphabet: str = "bit") -> "BiasedSpace":
        return cls((p,) * r, alphabet)

    def to_json(self) -> dict:
        return {"r": self.r, "biases": list(self.biases), "alphabet": self.alphabet}

    @classmethod
    def from_json(cls, obj: dict) -> "BiasedSpace":
        return cls(tuple(obj["biases"]), obj.get("alphabet", "bit"))


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

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "bit_biases": list(self.bit.biases),
            "leak_biases": list(self.leak.biases),
            "alphabet": "pair",
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PairedSpace":
        return cls(
            BiasedSpace(tuple(obj["bit_biases"]), "bit"),
            BiasedSpace(tuple(obj["leak_biases"]), "leak"),
        )


Space = BiasedSpace | PairedSpace


def _axis_biases(space: Space) -> tuple[float, ...]:
    if isinstance(space, PairedSpace):
        return space.bit.biases + space.leak.biases
    return space.biases


def _n_axes(space: Space) -> int:
    return len(_axis_biases(space))


def domain_points(r: int) -> np.ndarray:
    """All points of {0,1}^r in lexicographic order, shape (2^r, r)."""
    k = np.arange(2 ** r)
    return (k[:, None] >> np.arange(r - 1, -1, -1)) & 1


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
        if isinstance(self.space, PairedSpace):
            x, z = coords
            bits = tuple(x) + tuple(z)
        else:
            (bits,) = coords
            bits = tuple(bits)
        idx = 0
        for b in bits:
            idx = (idx << 1) | int(b)
        return float(self.values[idx])

    def to_json(self) -> dict:
        return {"space": self.space.to_json(), "values": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict, bounded: bool = False) -> "FunctionTable":
        sp = obj["space"]
        space = PairedSpace.from_json(sp) if sp.get("alphabet") == "pair" else BiasedSpace.from_json(sp)
        return cls(space, obj["values"], bounded=bounded)


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

    def _flat_index(self, mask_s: int, mask_t: int | None = None) -> int:
        n = _n_axes(self.space)
        if isinstance(self.space, PairedSpace):
            if mask_t is None:
                raise ValueError("paired space needs a (S, T) mask pair")
            r = self.space.r
            bits = [(mask_s >> j) & 1 for j in range(r)] + [(mask_t >> j) & 1 for j in range(r)]
        else:
            if mask_t is not None:
                raise ValueError("single space takes one subset mask")
            bits = [(mask_s >> j) & 1 for j in range(n)]
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    def coefficient(self, mask_s: int, mask_t: int | None = None) -> float:
        """f-hat at subset mask S (little-endian), or at the pair (S, T)."""
        return float(self.coeffs[self._flat_index(mask_s, mask_t)])

    def degrees(self) -> np.ndarray:
        return _mask_degrees(_n_axes(self.space))

    def total_weight(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))

    def variance(self) -> float:
        return self.total_weight() - self.coefficient(0, 0 if isinstance(self.space, PairedSpace) else None) ** 2

    def to_json(self) -> dict:
        return {"space": self.space.to_json(), "kind": "fourier", "values": self.coeffs.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "FourierTable":
        sp = obj["space"]
        space = PairedSpace.from_json(sp) if sp.get("alphabet") == "pair" else BiasedSpace.from_json(sp)
        return cls(space, obj["values"])


def fourier_expand(f: FunctionTable) -> FourierTable:
    """Exact expansion in the per-coordinate orthonormal character basis."""
    t = f.tensor.astype(float)
    for axis, p in enumerate(_axis_biases(f.space)):
        w = np.array([1.0 - p, p])
        phi = character(p, np.array([0.0, 1.0]))
        mat = np.stack([w, w * phi])  # row s: E-weight against phi^s
        t = _apply_axis(t, mat, axis)
    return FourierTable(f.space, t.reshape(-1))


def evaluate(fh: FourierTable) -> FunctionTable:
    """Inverse of :func:`fourier_expand`; exact on every domain point."""
    t = fh.tensor.astype(float)
    for axis, p in enumerate(_axis_biases(fh.space)):
        phi = character(p, np.array([0.0, 1.0]))
        mat = np.stack([np.ones(2), phi]).T  # row b: (1, phi(b))
        t = _apply_axis(t, mat, axis)
    return FunctionTable(fh.space, t.reshape(-1))


def _axis_weight_sum(fh: FourierTable, axes: list[int]) -> float:
    """Sum of squared coefficients whose index is nonzero on any given axis."""
    t = fh.tensor ** 2
    n = _n_axes(fh.space)
    keep = t
    for a in sorted(axes, reverse=True):
        keep = np.take(keep, 0, axis=a)
    # total minus the part supported entirely away from the axes
    return float(t.sum() - keep.sum())


def influence(fh: FourierTable, j: int) -> float:
    """Influence of coordinate j (0-indexed): sum of f-hat^2 with j active.

    For a :class:`PairedSpace` table this is the 4-point-letter influence,
    counting coefficients with ``j in S union T``.
    """
    if isinstance(fh.space, PairedSpace):
        r = fh.space.r
        if not 0 <= j < r:
            raise IndexError(f"coordinate {j} out of range")
        return _axis_weight_sum(fh, [j, r + j])
    if not 0 <= j < fh.space.r:
        raise IndexError(f"coordinate {j} out of range")
    return _axis_weight_sum(fh, [j])


def split_influences(fh: FourierTable, j: int) -> tuple[float, float]:
    """(x-side, z-side) influences of coordinate j in the 2R-variate view."""
    if not isinstance(fh.space, PairedSpace):
        raise TypeError("split influences need a paired space")
    r = fh.space.r
    if not 0 <= j < r:
        raise IndexError(f"coordinate {j} out of range")
    return _axis_weight_sum(fh, [j]), _axis_weight_sum(fh, [r + j])


def max_influence(fh: FourierTable) -> float:
    r = fh.space.r
    return max(influence(fh, j) for j in range(r))


def noise_apply(fh: FourierTable, rho: float, mode: str = "auto") -> FourierTable:
    """Attenuate level-d coefficients by rho^d.

    ``per-space`` is the usual operator on a single biased space; ``composite``
    is the product operator on a paired space, acting on the x and z parts
    independently (degree = |S| + |T|).  ``auto`` picks by space type.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0,1]")
    paired = isinstance(fh.space, PairedSpace)
    if mode == "auto":
        mode = "composite" if paired else "per-space"
    if mode == "composite" and not paired:
        raise ValueError("composite mode needs a paired space")
    if mode == "per-space" and paired:
        raise ValueError("per-space mode needs a single space")
    deg = _mask_degrees(_n_axes(fh.space))
    return FourierTable(fh.space, fh.coeffs * rho ** deg)


def high_degree_variance(fh: FourierTable, d: int) -> float:
    """Total squared Fourier weight strictly above degree d."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    deg = _mask_degrees(_n_axes(fh.space))
    sq = fh.coeffs ** 2
    return float(sq[deg > d].sum())


def multilinear_extend(fh: FourierTable) -> MultilinearPolynomial:
    """Unique multilinear polynomial agreeing with the table on all corners.

    Defined for bit-alphabet spaces; evaluating at the per-coordinate means
    returns the expectation of the table.
    """
    if not isinstance(fh.space, BiasedSpace) or fh.space.alphabet != "bit":
        raise TypeError("multilinear extension is defined on bit spaces")
    t = fh.tensor.astype(float)
    for axis, p in enumerate(fh.space.biases):
        sigma = math.sqrt(p * (1.0 - p))
        # change of basis per coordinate: c0*1 + c1*phi -> monomials {1, x}
        mat = np.array([[1.0, -p / sigma], [0.0, 1.0 / sigma]])
        t = _apply_axis(t, mat, axis)
    return MultilinearPolynomial(t)
