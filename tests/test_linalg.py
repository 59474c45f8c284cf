import numpy as np
import pytest

from semimpute.linalg import INNER_CHUNK, ensure_pd, ordered_matmul


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


def test_ensure_pd_keeps_pd_input_ridges_singular_and_floors_indefinite():
    pd = np.array([[2.0, 0.5], [0.5, 1.0]])
    warnings = []
    assert ensure_pd(pd, 1e-10, warnings) is pd
    assert warnings == []

    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(ensure_pd(singular, 1e-10, warnings), singular + 1e-10 * np.eye(2))
    assert warnings == ["ridge 1e-10 added to covariance diagonal"]

    # Eigenvalues 3 and -1: no small ridge helps, so -1 is floored at the ridge.
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    warnings = []
    floored = ensure_pd(indefinite, 1e-10, warnings)
    np.linalg.cholesky(floored)
    np.testing.assert_allclose(np.linalg.eigvalsh(floored), [1e-10, 3.0], rtol=0, atol=1e-12)
    assert warnings == ["indefinite covariance; eigenvalues floored"]
