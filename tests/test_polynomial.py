"""Chunked matmul evaluation of multilinear polynomials against the
axis-by-axis contraction it replaced."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biascsp.polynomial import _EVAL_CHUNK, MultilinearPolynomial


def loop_evaluate(tensor: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Reference: contract one variable axis at a time, P = P|x_j=0 + q_j P|x_j=1."""
    n = tensor.ndim
    if n == 0:
        return np.broadcast_to(tensor, q.shape[:-1]).copy()
    batch = q.shape[:-1]
    t = np.broadcast_to(tensor, batch + tensor.shape)
    for j in range(n):
        axis = len(batch)
        lo = np.take(t, 0, axis=axis)
        hi = np.take(t, 1, axis=axis)
        t = lo + q[..., j].reshape(batch + (1,) * (n - j - 1)) * hi
    return np.asarray(t)


batch_shapes = st.one_of(
    st.just(()),
    st.tuples(st.sampled_from([1, 5, _EVAL_CHUNK - 1, _EVAL_CHUNK, _EVAL_CHUNK + 1])),
    st.tuples(st.integers(1, 4), st.integers(1, 6)),
)


@settings(max_examples=60, deadline=None)
@given(nvars=st.integers(0, 10), batch=batch_shapes, seed=st.integers(0, 2 ** 32 - 1))
def test_matches_axis_loop(nvars, batch, seed):
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal((2,) * nvars)
    q = 2.0 * rng.standard_normal(batch + (nvars,))
    got = MultilinearPolynomial(tensor).evaluate(q)
    want = loop_evaluate(tensor, q)
    assert isinstance(got, np.ndarray) and got.shape == batch
    # summation order differs: allow 64 eps times sum_S |c_S| prod_{j in S} |q_j|
    tol = 64 * np.finfo(float).eps * loop_evaluate(np.abs(tensor), np.abs(q))
    assert np.all(np.abs(got - want) <= tol)



def brute_force(poly: MultilinearPolynomial, q: np.ndarray, absolute: bool = False) -> np.ndarray:
    """sum_S c_S prod_{j in S} q_j over every subset mask S; with
    ``absolute``, the same sum of |c_S| prod |q_j|."""
    total = np.zeros(q.shape[:-1])
    for mask in range(2 ** poly.nvars):
        term = np.full(q.shape[:-1], poly.coefficient(mask))
        for j in range(poly.nvars):
            if mask >> j & 1:
                term = term * q[..., j]
        total += np.abs(term) if absolute else term
    return total


@settings(max_examples=40, deadline=None)
@given(
    nvars=st.integers(0, 7),
    batch=st.sampled_from([(_EVAL_CHUNK - 1,), (_EVAL_CHUNK,), (_EVAL_CHUNK + 1,), (3, _EVAL_CHUNK + 1)]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_matches_the_subset_sum(nvars, batch, seed):
    rng = np.random.default_rng(seed)
    poly = MultilinearPolynomial(rng.standard_normal((2,) * nvars))
    q = 2.0 * rng.standard_normal(batch + (nvars,))
    got = poly.evaluate(q)
    assert got.shape == batch
    # relative to the sum of the terms' magnitudes, which bounds the roundoff
    scale = brute_force(poly, q, absolute=True)
    assert np.all(np.abs(got - brute_force(poly, q)) <= 1e-12 * scale)
