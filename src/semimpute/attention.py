"""Single-layer self-attention over data rows.

Each imputed row is rewritten as a convex combination of (projected) rows of
the current matrix, so similar records inform each other's missing cells.
The n x n attention weights are never formed whole: forward and backward
work through blocks of ``INNER_CHUNK`` rows of scores, one reused
(INNER_CHUNK, n) buffer in the forward and two in the backward.  Memory
grows as n * INNER_CHUNK; time still grows as n squared.

The 1/sqrt(k) score scale is folded into q.  The forward returns the
output and one log-normalizer per row, ``lse = log sum_j exp(score_ij)``,
an n-vector.  Per block it takes one product for the scores, the
finiteness check, the row max, an in-place shift and exp, the row sum and
one product with the values; the row sums divide the (rows, d) product,
never the (rows, n) weights.  The backward rebuilds each block's weights
as ``exp([q, -lse] @ [k, 1]^T)``, one product and one exp, and the score
gradient as ``a * ([g_y, -D] @ [v, 1]^T)`` with ``D = rowsum(g_y * output)``,
one product and one multiply; this is the FlashAttention-2 form (Dao 2023).
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


def _shift_exp_inplace(s: np.ndarray) -> np.ndarray:
    """Write ``exp(s - rowmax(s))`` over ``s``; return the row maxima."""
    if not np.all(np.isfinite(s)):
        raise InputError("softmax input must be finite")
    row_max = s.max(axis=-1, keepdims=True)
    s -= row_max
    np.exp(s, out=s)
    return row_max


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Numerically stable per-row softmax; rows sum to 1 within 1e-12."""
    s = np.array(m, dtype=np.float64)
    _shift_exp_inplace(s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _project(x: np.ndarray, p: AttentionParams):
    """``x`` as float64 and its projections; q carries the 1/sqrt(k) scale."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.d:
        raise InputError(f"input must be n x {p.d}")
    scale = 1.0 / np.sqrt(float(p.dk))
    return x, (x @ p.wq) * scale, x @ p.wk, x @ p.wv, scale


def attention_forward(x: np.ndarray, p: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over rows, and each row's log-normalizer.

    Output rows are convex combinations of the rows of x @ wv, weighted by
    softmax(q k^T / sqrt(k)) with q = x @ wq and k = x @ wk.  The second
    value is ``lse``, the per-row log of the softmax denominator, which
    ``attention_backward`` uses to rebuild the weights.
    """
    x, q, k, v, _ = _project(x, p)
    n = x.shape[0]
    buf = np.empty((min(n, INNER_CHUNK), n))
    output = np.empty_like(v)
    lse = np.empty(n)
    for start in range(0, n, INNER_CHUNK):
        rows = slice(start, start + INNER_CHUNK)
        q_rows = q[rows]
        e = np.matmul(q_rows, k.T, out=buf[: q_rows.shape[0]])
        row_max = _shift_exp_inplace(e)
        total = e.sum(axis=1, keepdims=True)
        # Normalize the (rows, d) product, not the (rows, n) weights.
        output[rows] = ordered_matmul(e, v) / total
        lse[rows] = (row_max + np.log(total))[:, 0]
    return output, lse


def attention_backward(
    x: np.ndarray,
    p: AttentionParams,
    g_y: np.ndarray,
    output: np.ndarray,
    lse: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. (wq, wk, wv) of sum(g_y * attention_forward(x, p)[0]).

    ``output`` and ``lse`` are what ``attention_forward(x, p)`` returned.
    Each row block's weights are rebuilt from ``lse`` rather than stored.
    The sums over rows for d_k and d_v add the blocks in order, which is
    the chunk order of ``ordered_matmul``.
    """
    x, q, k, v, scale = _project(x, p)
    n = x.shape[0]
    ones = np.ones((n, 1))
    # Softmax backward per row: dS = A * (dA - rowsum(dA * A)), where
    # dA = g_y v^T and rowsum(dA * A) = rowsum(g_y * output).
    d_out = np.einsum("ij,ij->i", g_y, output)[:, None]
    q_aug, k_aug = np.hstack([q, -lse[:, None]]), np.hstack([k, ones])
    g_aug, v_aug = np.hstack([g_y, -d_out]), np.hstack([v, ones])
    a_buf, d_s_buf = (np.empty((min(n, INNER_CHUNK), n)) for _ in range(2))
    d_q = np.empty_like(q)
    for start in range(0, n, INNER_CHUNK):
        rows = slice(start, start + INNER_CHUNK)
        q_aug_rows = q_aug[rows]
        a = a_buf[: q_aug_rows.shape[0]]
        np.exp(np.matmul(q_aug_rows, k_aug.T, out=a), out=a)
        d_s = np.matmul(g_aug[rows], v_aug.T, out=d_s_buf[: a.shape[0]])
        d_s *= a
        d_q[rows] = ordered_matmul(d_s, k)
        d_k_part = q[rows].T @ d_s
        d_v_part = g_y[rows].T @ a
        if start == 0:
            d_k_t, d_v_t = d_k_part, d_v_part
        else:
            d_k_t += d_k_part
            d_v_t += d_v_part
    d_q *= scale
    return (
        ordered_matmul(x.T, d_q),
        ordered_matmul(x.T, d_k_t.T),
        ordered_matmul(x.T, d_v_t.T),
    )
