import numpy as np
import pytest

from semimpute.linalg import INNER_CHUNK, nearest_pd, ordered_matmul


@pytest.mark.parametrize("inner", [1, INNER_CHUNK, INNER_CHUNK + 1, 600])
def test_ordered_matmul_agrees_with_plain_product(inner):
    rng = np.random.default_rng(inner)
    a = rng.normal(size=(7, inner))
    b = rng.normal(size=(inner, 3))
    got = ordered_matmul(a, b)
    assert got.shape == (7, 3)
    # Both sums carry at most inner * eps of rounding relative to sum |a_i b_i|.
    bound = 2 * inner * np.finfo(np.float64).eps * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(got - a @ b) <= bound)
    if inner <= INNER_CHUNK:
        assert np.array_equal(got, a @ b)


def test_ordered_matmul_adds_chunks_in_order():
    c = INNER_CHUNK
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 2 * c + 88))
    b = rng.normal(size=(2 * c + 88, 2))
    want = a[:, :c] @ b[:c]
    want += a[:, c : 2 * c] @ b[c : 2 * c]
    want += a[:, 2 * c :] @ b[2 * c :]
    assert np.array_equal(ordered_matmul(a, b), want)


def test_nearest_pd_keeps_pd_input_and_adds_ridge_otherwise():
    pd = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert nearest_pd(pd) is pd
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    np.testing.assert_array_equal(nearest_pd(indefinite), indefinite + 1e-10 * np.eye(2))
