"""Real-coefficient multilinear polynomials over n variables.

Coefficients live on the subset lattice: ``coeff[S]`` multiplies the monomial
``prod_{j in S} x_j``.  Public subset masks are little-endian (bit ``j`` of
the mask corresponds to variable ``j``, 0-indexed).  Internally coefficients
are held as a ``(2,)*n`` tensor whose axis ``j`` indexes the exponent of
variable ``j``.
"""
from __future__ import annotations

import numpy as np

from .harness.mc import scratch


def _apply_axis(tensor: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Contract ``mat`` (shape (new, old), old the length of ``axis``) into
    one tensor axis; the result has length new on that axis."""
    out = np.tensordot(mat, tensor, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


_EVAL_CHUNK = 2048


def _monomials(qt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """All monomials of the rows of ``qt`` (k, m), built in ``out`` (2^k, m):
    row S is prod_{j in S} q_j, multiplied in increasing j, with variable 0
    the most significant bit of S."""
    out[0] = 1.0
    for j, q in enumerate(qt):
        # the monomials of variables < j sit at stride 2h; times q_j, they
        # fill the rows halfway between
        h = len(out) >> (j + 1)
        np.multiply(out[:: 2 * h], q, out=out[h :: 2 * h])
    return out


class MultilinearPolynomial:
    """Multilinear polynomial given by its monomial coefficient tensor."""

    def __init__(self, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=float)
        if tensor.ndim == 0:
            tensor = tensor.reshape(())
        if any(d != 2 for d in tensor.shape):
            raise ValueError("coefficient tensor must have shape (2,)*n")
        self._tensor = tensor

    @property
    def nvars(self) -> int:
        return self._tensor.ndim

    @property
    def tensor(self) -> np.ndarray:
        return self._tensor

    @classmethod
    def zero(cls, nvars: int) -> "MultilinearPolynomial":
        return cls(np.zeros((2,) * nvars))

    def coefficient(self, mask: int) -> float:
        idx = tuple((mask >> j) & 1 for j in range(self.nvars))
        return float(self._tensor[idx])

    def evaluate(self, points, out=None) -> np.ndarray:
        """Evaluate at real points of shape (..., nvars), into ``out`` when
        given (a float array of the points' batch shape).

        With the variables split into a first half ``a`` and a second half
        ``b``, P(q) = colsum((C^T @ M_a(q)) * M_b(q)), where ``C`` is the
        coefficient tensor as a 2^|a| x 2^|b| matrix and ``M`` the
        (2^|half|, rows) monomial matrix of a half; rows go through in chunks
        of ``_EVAL_CHUNK``, and one buffer per half holds a chunk's monomials.
        The transposed points, the monomials and the product are scratch
        (``harness.mc.scratch``): reused by a chunk driver's thread.
        """
        q = np.asarray(points, dtype=float)
        if q.shape[-1:] != (self.nvars,) and self.nvars > 0:
            raise ValueError(f"expected trailing dimension {self.nvars}")
        batch = q.shape[:-1]
        if out is None:
            out = np.empty(batch)
        elif out.shape != batch or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous array of shape {batch}")
        if self.nvars == 0:
            out[...] = self._tensor
            return out
        flat = out.reshape(-1)  # a view of out
        qt = scratch("polynomial.points", (self.nvars, flat.size))
        qt[...] = q.reshape(-1, self.nvars).T
        rows = qt.shape[1]
        half = self.nvars // 2
        coeffs_t = self._tensor.reshape(2 ** half, -1).T
        width = min(rows, _EVAL_CHUNK)
        mono_a = scratch("polynomial.mono_a", (2 ** half, width))
        mono_b = scratch("polynomial.mono_b", (len(coeffs_t), width))
        for start in range(0, rows, _EVAL_CHUNK):
            cols = qt[:, start : start + _EVAL_CHUNK]
            m = cols.shape[1]
            lo = scratch("polynomial.product", (len(coeffs_t), m))
            np.matmul(coeffs_t, _monomials(cols[:half], mono_a[:, :m]), out=lo)
            lo *= _monomials(cols[half:], mono_b[:, :m])
            lo.sum(axis=0, out=flat[start : start + m])
        return out

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)

    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        return MultilinearPolynomial(self._tensor + other._tensor)

    def __rmul__(self, scalar: float) -> "MultilinearPolynomial":
        return MultilinearPolynomial(float(scalar) * self._tensor)
