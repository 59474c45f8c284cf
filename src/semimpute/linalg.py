"""Linear-algebra helpers shared by the estimation and training modules.

``ordered_matmul`` gives matrix products whose bits do not depend on the
BLAS thread count.  A threaded BLAS may split a long inner sum differently
for each thread count, so a product summed over thousands of data rows can
change in its last bits between one and two threads.  Summing the inner
dimension in chunks no longer than the BLAS kernel's own inner block keeps
each chunk product a single pass, and the chunks are added here in a fixed
order.

``forward_substitute`` solves against a lower-triangular factor, or a stack
of them, by forward substitution.  Each step is one ``einsum`` without
``optimize``, which runs numpy's own loops and no BLAS call, so its bits do
not depend on the thread count either.

``ridged_cholesky`` is the one positive-definite decision: it factors a
matrix, or a stack of them, and retries once with a diagonal ridge.
``ensure_pd`` builds on it and floors the spectrum when the ridge is not
enough.  ``adam_update`` is the one Adam step, shared by attention training
and NOTEARS.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# OpenBLAS 0.3.31 (Haswell kernels) gave the same bytes at 1 and 2 threads
# for chunks of up to 384 and differed at 512; 256 leaves a margin.
INNER_CHUNK = 256


def ordered_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D operands, the inner dimension summed in fixed chunks.

    Inner dimensions of at most one chunk go to BLAS as one product.
    """
    out = a[:, :INNER_CHUNK] @ b[:INNER_CHUNK]
    for start in range(INNER_CHUNK, a.shape[1], INNER_CHUNK):
        stop = start + INNER_CHUNK
        out += a[:, start:stop] @ b[start:stop]
    return out


def forward_substitute(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``chol @ out = rhs`` for lower-triangular ``chol``.

    ``chol`` is (..., k, k) and ``rhs`` (..., k, r) with the same leading
    shape.  Row i of the solution is
    ``(rhs[i] - chol[i, :i] @ out[:i]) / chol[i, i]``, taken for the whole
    stack at once; the entries above the diagonal are never read.
    """
    out = np.empty_like(rhs)
    for i in range(chol.shape[-1]):
        known = np.einsum("...j,...jr->...r", chol[..., i, :i], out[..., :i, :])
        out[..., i, :] = (rhs[..., i, :] - known) / chol[..., i, i, None]
    return out


def ridged_cholesky(sigma: np.ndarray, ridge: float, warnings: list[str] | None, what: str):
    """Cholesky factor of sigma, or of a stack of them, retrying once with ``ridge * I``.

    Returns the matrix that was factored and its factor.  A ridged retry
    appends "ridge <ridge> added to <what>" to ``warnings``; when it fails
    too, raises ``NumericalError``.
    """
    try:
        return sigma, np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pass
    ridged = sigma + ridge * np.eye(sigma.shape[-1])
    note = f"ridge {ridge} added to {what}"
    try:
        chol = np.linalg.cholesky(ridged)
    except np.linalg.LinAlgError:
        raise NumericalError(f"not positive definite even after {note}") from None
    if warnings is not None:
        warnings.append(note)
    return ridged, chol


def ensure_pd(sigma: np.ndarray, ridge: float, warnings: list[str] | None = None) -> np.ndarray:
    """``sigma`` if Cholesky accepts it, else ``sigma + ridge * I``, else ``sigma`` with its
    eigenvalues floored at ``ridge``."""
    try:
        return ridged_cholesky(sigma, ridge, warnings, "covariance diagonal")[0]
    except NumericalError:
        pass
    # Pairwise-complete starts can be indefinite beyond any small ridge.
    if warnings is not None:
        warnings.append("indefinite covariance; eigenvalues floored")
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    out = (vecs * np.maximum(vals, ridge)) @ vecs.T
    out = 0.5 * (out + out.T)
    try:
        np.linalg.cholesky(out)
    except np.linalg.LinAlgError:
        raise NumericalError("covariance not positive definite after repair") from None
    return out


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(theta, g, m, v, lr: float, t: int):
    """One bias-corrected Adam step (counter t starts at 1); returns theta, m and v updated."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v
