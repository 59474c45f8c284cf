"""Single-layer self-attention over data rows.

Each imputed row is rewritten as a convex combination of (projected) rows of
the current matrix, so similar records inform each other's missing cells.
The n x n attention weights are never formed whole: forward and backward
work through blocks of ``ROW_BLOCK`` rows of scores, one reused
(ROW_BLOCK, n) buffer in the forward and two in the backward.  Memory
grows as n * ROW_BLOCK; time still grows as n squared, and what costs is
the number of passes over each (ROW_BLOCK, n) block.

The 1/sqrt(k) score scale is folded into q, and the value map is applied
after the weights: the output is ``(a @ x) @ wv``.  The forward shifts row
i by the bound ``c_i = |q_i| max_j |k_j|`` instead of its row max, folded
into the score product as ``exp([q, -c] @ [k, 1]^T)``, so no score exceeds
the shift and no check or max is needed; one product with ``[x, 1]`` then
gives ``a @ x`` and the row sums.  That is three passes per block: product,
exp, product.  A block with a bound past ``SHIFT_LIMIT`` or not finite
takes the exact path instead (finiteness check, row max, shift).  The
forward returns the output, one log-normalizer per row, ``lse = log sum_j
exp(score_ij)``, and ``a @ x``.

The backward rebuilds each block's weights as ``exp([q, -lse] @ [k, 1]^T)``
(one product, one exp) and the score gradient as ``a * ([g_y wv^T, -D] @
[x, 1]^T)`` with ``D = rowsum((g_y wv^T) * (a @ x))`` (one product, one
multiply); this is the FlashAttention-2 form (Dao 2023).  A fifth pass
contracts the score gradient with x, ``d_s @ x``, and the parameter
gradients follow from that after the loop, so the blocks hold no sums over
rows and no k x n accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import ordered_matmul
from .rng import SplitMix64

# Rows of scores per block.  No sum over rows runs inside a block, so the
# size is free: 64 and 128 timed alike and beat 32 and 256, and with
# OpenBLAS 0.3.31 at 1 and 2 threads 64 kept the bytes at 300 and 600 rows
# by 6 and 22 columns, where 128 and 256 did not.
ROW_BLOCK = 64
# Rows whose bound c = |q_i| max_j |k_j| is at most this are shifted by it:
# by Cauchy-Schwarz every score lies in [-c, c], so exp(score - c) lies in
# [exp(-2c), 1] and stays a normal double.  Larger or non-finite bounds
# take the row max.
SHIFT_LIMIT = 300.0


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


def _project(x: np.ndarray, p: AttentionParams):
    """``x`` as float64 and its projections; q carries the 1/sqrt(k) scale."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.d:
        raise InputError(f"input must be n x {p.d}")
    scale = 1.0 / np.sqrt(float(p.dk))
    return x, (x @ p.wq) * scale, x @ p.wk, scale


def _row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", m, m))


def attention_forward(x: np.ndarray, p: AttentionParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled dot-product attention over rows: output, log-normalizers, ``a @ x``.

    Output rows are convex combinations of the rows of x @ wv, weighted by
    ``a = softmax(q k^T / sqrt(k))`` with q = x @ wq and k = x @ wk.  The
    second value is ``lse``, the per-row log of the softmax denominator,
    which ``attention_backward`` uses to rebuild the weights; the third is
    ``a @ x``, of which the output is ``(a @ x) @ wv``.
    """
    x, q, k, _ = _project(x, p)
    n, d = x.shape
    bound = _row_norms(q) * _row_norms(k).max(initial=0.0)
    ones = np.ones((n, 1))
    q_aug, k_aug = np.hstack([q, -bound[:, None]]), np.hstack([k, ones])
    x_aug = np.hstack([x, ones])
    buf = np.empty((min(n, ROW_BLOCK), n))
    ax = np.empty_like(x)
    lse = np.empty(n)
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        shift = bound[rows]
        e = buf[: shift.shape[0]]
        if np.all(shift <= SHIFT_LIMIT):
            np.exp(np.matmul(q_aug[rows], k_aug.T, out=e), out=e)
        else:
            np.matmul(q[rows], k.T, out=e)
            shift = _shift_exp_inplace(e)[:, 0]
        # One product gives the weighted rows and, in its last column, the
        # row sums; normalize the (rows, d) result, not the (rows, n) weights.
        sums = ordered_matmul(e, x_aug)
        ax[rows] = sums[:, :d] / sums[:, d:]
        lse[rows] = shift + np.log(sums[:, d])
    return ax @ p.wv, lse, ax


def attention_backward(
    x: np.ndarray,
    p: AttentionParams,
    g_y: np.ndarray,
    ax: np.ndarray,
    lse: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. (wq, wk, wv) of sum(g_y * attention_forward(x, p)[0]).

    ``lse`` and ``ax`` are what ``attention_forward(x, p)`` returned.  Each
    row block's weights are rebuilt from ``lse`` rather than stored, and its
    score gradient is contracted with x at once, ``d_s_x = d_s @ x``; the
    sums over rows then run in ``ordered_matmul`` after the loop.
    """
    x, q, k, scale = _project(x, p)
    n = x.shape[0]
    ones = np.ones((n, 1))
    # Softmax backward per row: dS = A * (dA - rowsum(dA * A)), where
    # dA = (g_y wv^T) x^T and rowsum(dA * A) = rowsum((g_y wv^T) * ax).
    g_ax = g_y @ p.wv.T
    d_out = np.einsum("ij,ij->i", g_ax, ax)[:, None]
    q_aug, k_aug = np.hstack([q, -lse[:, None]]), np.hstack([k, ones])
    g_aug, x_aug = np.hstack([g_ax, -d_out]), np.hstack([x, ones])
    a_buf, d_s_buf = (np.empty((min(n, ROW_BLOCK), n)) for _ in range(2))
    d_s_x = np.empty_like(x)
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        q_aug_rows = q_aug[rows]
        a = a_buf[: q_aug_rows.shape[0]]
        np.exp(np.matmul(q_aug_rows, k_aug.T, out=a), out=a)
        d_s = np.matmul(g_aug[rows], x_aug.T, out=d_s_buf[: a.shape[0]])
        d_s *= a
        d_s_x[rows] = ordered_matmul(d_s, x)
    # s = q k^T with q = scale * x wq and k = x wk, so d_wq = scale x^T dS k
    # = scale (x^T d_s_x) wk and d_wk = x^T dS^T q = d_s_x^T q.
    return (
        scale * (ordered_matmul(x.T, d_s_x) @ p.wk),
        ordered_matmul(d_s_x.T, q),
        ordered_matmul(ax.T, g_y),
    )
