"""Real-coefficient multilinear polynomials over n variables.

Coefficients live on the subset lattice: ``coeff[S]`` multiplies the monomial
``prod_{j in S} x_j``.  Public subset masks are little-endian (bit ``j`` of
the mask corresponds to variable ``j``, 0-indexed).  Internally coefficients
are held as a ``(2,)*n`` tensor whose axis ``j`` indexes the exponent of
variable ``j``.  A stack of k polynomials in the same variables
(:meth:`MultilinearPolynomial.stack`) holds a ``(k,) + (2,)*n`` tensor and
evaluates all k at once.
"""
from __future__ import annotations

import numpy as np

from .harness.mc import scratch


def _apply_axis(tensor: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Contract ``mat`` (shape (new, old), old the length of ``axis``) into
    one tensor axis; the result has length new on that axis.  A stack of
    matrices (k, new, old) acts on a stack of k tensors along axis 0, the
    i-th matrix on the i-th tensor, in one batched matmul."""
    if mat.ndim == 2:
        out = np.tensordot(mat, tensor, axes=(1, axis))
        return np.moveaxis(out, 0, axis)
    moved = np.moveaxis(tensor, axis, 1)
    out = np.matmul(mat, moved.reshape(moved.shape[0], moved.shape[1], -1))
    return np.moveaxis(out.reshape(moved.shape[:1] + out.shape[1:2] + moved.shape[2:]), 1, axis)


_EVAL_CHUNK = 2048


def _monomials(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """All monomials of the variables ``q`` (s, k, m), built in ``out``
    (2^s, k, m): row S is prod_{j in S} q_j, with variable 0 the most
    significant bit of S.  Each step doubles the rows built so far, times
    the variable of the next higher bit."""
    out[0] = 1.0
    s = len(q)
    for j in range(s):
        h = 1 << j
        np.multiply(out[:h], q[s - 1 - j], out=out[h : 2 * h])
    return out


def _horner(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Contract the variables ``q`` (s, k, m) out of the values ``t``
    (2^s, k, m) of a multilinear form in them, variable 0 the most
    significant bit of the row, in place: t|x_0=0 + q_0 t|x_0=1, then the
    same for variable 1 on the rows that are left.  Returns row 0."""
    size = len(t)
    for qj in q:
        h = size >> 1
        hi = t[h:size]
        np.multiply(hi, qj, out=hi)
        np.add(t[:h], hi, out=t[:h])
        size = h
    return t[0]


class MultilinearPolynomial:
    """Multilinear polynomial given by its monomial coefficient tensor, or a
    stack of such polynomials in the same variables."""

    def __init__(self, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=float)
        if any(d != 2 for d in tensor.shape):
            raise ValueError("coefficient tensor must have shape (2,)*n")
        self._tensor = tensor
        self._stack: tuple[int, ...] = ()  # (k,) for a stack of k polynomials

    @staticmethod
    def stack(polys) -> "MultilinearPolynomial":
        """The polynomials ``polys``, all in the same variables, as one
        stack: :meth:`evaluate` takes points (..., k, nvars) and gives the
        k values (..., k)."""
        polys = list(polys)
        if not polys or any(p._stack for p in polys) or len({p.nvars for p in polys}) != 1:
            raise ValueError("stack needs single polynomials in the same variables")
        return polys[0]._like(np.stack([p.tensor for p in polys]), (len(polys),))

    @property
    def nvars(self) -> int:
        return self._tensor.ndim - len(self._stack)

    @property
    def tensor(self) -> np.ndarray:
        return self._tensor

    @classmethod
    def zero(cls, nvars: int) -> "MultilinearPolynomial":
        return cls(np.zeros((2,) * nvars))

    def coefficient(self, mask: int):
        """The coefficient of the monomial ``mask``; an array of the k
        coefficients for a stack."""
        idx = tuple((mask >> j) & 1 for j in range(self.nvars))
        c = self._tensor[(...,) + idx]
        return c if self._stack else float(c)

    def evaluate(self, points, out=None) -> np.ndarray:
        """Evaluate at real points of shape (..., nvars), into ``out`` when
        given (a C-contiguous float array of the points' batch shape).  A
        stack of k takes points (..., k, nvars), row i at polynomial i, and
        gives (..., k).

        With the variables split into a first half ``a`` of floor(n/2) and
        a second half ``b``, P(q) is the form C @ M_b(q) in the variables
        ``a``, contracted by :func:`_horner`: ``C`` is the coefficient
        tensor as a 2^|a| x 2^|b| matrix and ``M_b`` the (2^|b|, rows)
        monomial matrix of ``b`` (:func:`_monomials`).  A stack runs the k
        products as one batched matmul over its (k, 2^|a|, 2^|b|)
        coefficients; a single polynomial is the stack of one.  The work
        is variable-major, (variables, k, rows), so every step is a
        contiguous block; points given as a transposed view of such an
        array are read in place, others are copied.  Rows go through in
        chunks of ``_EVAL_CHUNK``; the copied points, the monomials and the
        product are scratch (``harness.mc.scratch``): reused by a chunk
        driver's thread.
        """
        q = np.asarray(points, dtype=float)
        n = self.nvars
        tail = self._stack + (n,)
        if q.shape[q.ndim - len(tail) :] != tail:
            raise ValueError(f"expected trailing dimensions {tail}")
        batch = q.shape[: q.ndim - 1]
        if out is None:
            out = np.empty(batch)
        elif out.shape != batch or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous array of shape {batch}")
        if n == 0:
            out[...] = self._tensor
            return out
        k = self._stack[0] if self._stack else 1
        flat = out.reshape(-1, k)  # a view of out
        rows = len(flat)
        a = n // 2
        coeffs = self._tensor.reshape(k, 2 ** a, 2 ** (n - a))
        qv = q.reshape(rows, k, n).transpose(2, 1, 0)  # (n, k, rows)
        for start in range(0, rows, _EVAL_CHUNK):
            m = min(_EVAL_CHUNK, rows - start)
            cols = qv[:, :, start : start + m]
            if cols.strides[-1] != cols.itemsize:
                copy = scratch("polynomial.points", (n, k, m))
                copy[...] = cols
                cols = copy
            mono = _monomials(cols[a:], scratch("polynomial.monomials", (2 ** (n - a), k, m)))
            prod = scratch("polynomial.product", (2 ** a, k, m))
            np.matmul(coeffs, mono.transpose(1, 0, 2), out=prod.transpose(1, 0, 2))
            flat[start : start + m] = _horner(cols[:a], prod).T
        return out

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)

    def _like(self, tensor: np.ndarray, stack=None) -> "MultilinearPolynomial":
        """A polynomial of this class with coefficients ``tensor``, stacked
        as this one unless ``stack`` is given."""
        out = MultilinearPolynomial.__new__(MultilinearPolynomial)
        out._tensor = tensor
        out._stack = self._stack if stack is None else stack
        return out

    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        return self._like(self._tensor + other._tensor)

    def __rmul__(self, scalar: float) -> "MultilinearPolynomial":
        return self._like(float(scalar) * self._tensor)
