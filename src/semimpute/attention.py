"""Single-layer self-attention over data rows.

Each imputed row is rewritten as a convex combination of (projected) rows of
the current matrix, so similar records inform each other's missing cells.
The n x n attention weights are never formed whole: forward and backward
work through blocks of ``INNER_CHUNK`` rows, and each block holds the full
softmax of its rows.  Memory grows as n * INNER_CHUNK; time still grows as
n squared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import INNER_CHUNK, ordered_matmul
from .rng import SplitMix64


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


def _softmax_inplace(s: np.ndarray) -> np.ndarray:
    """Per-row softmax of ``s``, written over ``s`` and returned."""
    if not np.all(np.isfinite(s)):
        raise InputError("softmax input must be finite")
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Numerically stable per-row softmax; rows sum to 1 within 1e-12."""
    return _softmax_inplace(np.array(m, dtype=np.float64))


def _project(x: np.ndarray, p: AttentionParams):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.d:
        raise InputError(f"input must be n x {p.d}")
    return x, x @ p.wq, x @ p.wk, x @ p.wv, 1.0 / np.sqrt(float(p.dk))


def _weights_block(
    q: np.ndarray, k: np.ndarray, start: int, scale: float, buf: np.ndarray
) -> np.ndarray:
    """Attention weights of rows ``start:start + INNER_CHUNK``, in ``buf``.

    ``buf`` is an (min(n, INNER_CHUNK), n) array reused across blocks; the
    returned block is a view of its leading rows.
    """
    q_rows = q[start : start + INNER_CHUNK]
    a = np.matmul(q_rows, k.T, out=buf[: q_rows.shape[0]])
    a *= scale
    return _softmax_inplace(a)


def attention_forward(x: np.ndarray, p: AttentionParams) -> np.ndarray:
    """Scaled dot-product attention over rows.

    Output rows are convex combinations of the rows of x @ wv, weighted by
    softmax(q k^T / sqrt(k)) with q = x @ wq and k = x @ wk.
    """
    x, q, k, v, scale = _project(x, p)
    n = x.shape[0]
    buf = np.empty((min(n, INNER_CHUNK), n))
    output = np.empty_like(v)
    for start in range(0, n, INNER_CHUNK):
        a = _weights_block(q, k, start, scale, buf)
        output[start : start + INNER_CHUNK] = ordered_matmul(a, v)
    return output


def attention_backward(
    x: np.ndarray, p: AttentionParams, g_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. (wq, wk, wv) of sum(g_y * attention_forward(x, p)).

    Each row block's weights are recomputed rather than stored.  The sums
    over rows for d_k and d_v add the blocks in order, which is the chunk
    order of ``ordered_matmul``.
    """
    x, q, k, v, scale = _project(x, p)
    n = x.shape[0]
    a_buf, d_a_buf, prod_buf = (np.empty((min(n, INNER_CHUNK), n)) for _ in range(3))
    d_q = np.empty_like(q)
    for start in range(0, n, INNER_CHUNK):
        rows = slice(start, start + INNER_CHUNK)
        a = _weights_block(q, k, start, scale, a_buf)
        m = a.shape[0]
        d_a = np.matmul(g_y[rows], v.T, out=d_a_buf[:m])
        # Softmax backward per row: dS = A * (dA - rowsum(dA * A)).
        d_a -= np.multiply(d_a, a, out=prod_buf[:m]).sum(axis=1, keepdims=True)
        d_s = np.multiply(a, d_a, out=d_a)
        d_q[rows] = ordered_matmul(d_s, k)
        d_k_part = d_s.T @ q[rows]
        d_v_part = a.T @ g_y[rows]
        if start == 0:
            d_k, d_v = d_k_part, d_v_part
        else:
            d_k += d_k_part
            d_v += d_v_part
    d_q *= scale
    d_k *= scale
    return (
        ordered_matmul(x.T, d_q),
        ordered_matmul(x.T, d_k),
        ordered_matmul(x.T, d_v),
    )
