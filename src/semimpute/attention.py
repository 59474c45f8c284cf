"""Single-layer self-attention over data rows.

Attention weights are n x n: each imputed row is rewritten as a convex
combination of (projected) rows of the current matrix, so similar records
inform each other's missing cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import ordered_matmul
from .rng import SplitMix64

# Score rows are processed in blocks of this many rows.  The blocks bound
# only the temporary score and softmax arrays: the returned weights are
# always a full n x n array, so memory still grows as n squared.  Results
# are identical to the one-shot computation.
DEFAULT_ROW_BLOCK = 4096


@dataclass(frozen=True)
class AttentionParams:
    """Query/key projections into a k-dim score space; value map back to d."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray

    def __post_init__(self):
        wq = np.asarray(self.wq, dtype=np.float64)
        wk = np.asarray(self.wk, dtype=np.float64)
        wv = np.asarray(self.wv, dtype=np.float64)
        if wq.ndim != 2 or wk.shape != wq.shape:
            raise InputError("wq and wk must share one d x k shape")
        if wq.shape[1] < 1:
            raise InputError("score dimension k must be at least 1")
        d = wq.shape[0]
        if wv.shape != (d, d):
            raise InputError("wv must be square d x d")
        object.__setattr__(self, "wq", wq.copy())
        object.__setattr__(self, "wk", wk.copy())
        object.__setattr__(self, "wv", wv.copy())
        for arr in (self.wq, self.wk, self.wv):
            arr.setflags(write=False)

    @property
    def d(self) -> int:
        return self.wq.shape[0]

    @property
    def dk(self) -> int:
        return self.wq.shape[1]


def init_params(d: int, seed: int, k: int | None = None) -> AttentionParams:
    """Symmetric uniform init in [-1/sqrt(d), 1/sqrt(d)], row-major draw order."""
    if d < 1:
        raise InputError("d must be at least 1")
    k = d if k is None else k
    bound = 1.0 / np.sqrt(d)
    rng = SplitMix64(seed)

    def draw(rows: int, cols: int) -> np.ndarray:
        out = np.empty(rows * cols)
        for t in range(rows * cols):
            out[t] = rng.uniform(-bound, bound)
        return out.reshape(rows, cols)

    return AttentionParams(wq=draw(d, k), wk=draw(d, k), wv=draw(d, d))


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Numerically stable per-row softmax; rows sum to 1 within 1e-12."""
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise InputError("softmax input must be finite")
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def attention_forward(
    x: np.ndarray, p: AttentionParams, block_rows: int = DEFAULT_ROW_BLOCK
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over rows.

    Returns (output, weights) with weights[i, j] the influence of row j on
    row i; output rows are convex combinations of the rows of x @ wv.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.d:
        raise InputError(f"input must be n x {p.d}")
    n = x.shape[0]
    q = x @ p.wq
    k = x @ p.wk
    v = x @ p.wv
    scale = 1.0 / np.sqrt(float(p.dk))

    weights = np.empty((n, n))
    output = np.empty_like(v)
    for start in range(0, n, max(block_rows, 1)):
        stop = min(start + max(block_rows, 1), n)
        a = softmax_rows(q[start:stop] @ k.T * scale)
        weights[start:stop] = a
        output[start:stop] = ordered_matmul(a, v)
    return output, weights

