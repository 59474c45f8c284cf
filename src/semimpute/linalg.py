"""Linear-algebra helpers shared by the estimation and training modules.

``ordered_matmul`` gives matrix products whose bits do not depend on the
BLAS thread count.  A threaded BLAS may split a long inner sum differently
for each thread count, so a product summed over thousands of data rows can
change in its last bits between one and two threads.  Summing the inner
dimension in chunks no longer than the BLAS kernel's own inner block keeps
each chunk product a single pass, and the chunks are added here in a fixed
order.
"""

from __future__ import annotations

import numpy as np

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


def nearest_pd(sigma: np.ndarray) -> np.ndarray:
    """``sigma`` itself if Cholesky accepts it, else ``sigma + 1e-10 * I``."""
    try:
        np.linalg.cholesky(sigma)
        return sigma
    except np.linalg.LinAlgError:
        return sigma + 1e-10 * np.eye(sigma.shape[0])
