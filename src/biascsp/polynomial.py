"""Real-coefficient multilinear polynomials over n variables.

Coefficients live on the subset lattice: ``coeff[S]`` multiplies the monomial
``prod_{j in S} x_j``.  Public subset masks are little-endian (bit ``j`` of
the mask corresponds to variable ``j``, 0-indexed).  Internally coefficients
are held as a ``(2,)*n`` tensor whose axis ``j`` indexes the exponent of
variable ``j``.
"""
from __future__ import annotations

import numpy as np


def _apply_axis(tensor: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Contract ``mat`` (shape (2,2), new-by-old) into one tensor axis."""
    out = np.tensordot(mat, tensor, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


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

    def evaluate(self, points) -> np.ndarray:
        """Evaluate at real points of shape (..., nvars)."""
        q = np.asarray(points, dtype=float)
        if q.shape[-1:] != (self.nvars,) and self.nvars > 0:
            raise ValueError(f"expected trailing dimension {self.nvars}")
        if self.nvars == 0:
            return np.broadcast_to(self._tensor, q.shape[:-1]).copy()
        batch = q.shape[:-1]
        t = np.broadcast_to(self._tensor, batch + self._tensor.shape)
        for j in range(self.nvars):
            axis = len(batch)  # current variable axis after j contractions
            lo = np.take(t, 0, axis=axis)
            hi = np.take(t, 1, axis=axis)
            qj = q[..., j].reshape(batch + (1,) * (self.nvars - j - 1))
            t = lo + qj * hi
        return t

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)

    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        return MultilinearPolynomial(self._tensor + other._tensor)

    def __rmul__(self, scalar: float) -> "MultilinearPolynomial":
        return MultilinearPolynomial(float(scalar) * self._tensor)
