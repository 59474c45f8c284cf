"""Single-layer self-attention over data rows.

Each imputed row is rewritten as a convex combination of (projected) rows of
the current matrix, so similar records inform each other's missing cells.
The n x n attention weights are never formed whole: forward and backward
work through blocks of ``ROW_BLOCK`` query rows.  Every block writes only
its own rows and every sum over rows runs after the loop, so the blocks are
independent.  From ``POOL_MIN_ROWS`` rows on they are shared by a pool of
``WORKERS`` threads, one per CPU share, each taking the next block left when
it is free; BLAS runs on ``SEMIMPUTE_THREADS`` threads inside each.  A
block's arithmetic does not depend on which worker runs it, so the bytes
are the same for any worker count.  Each worker holds one (ROW_BLOCK, n)
buffer, and in the backward also one (ROW_BLOCK, SCORE_CHUNK) buffer, so
memory grows as WORKERS * ROW_BLOCK * n; time still grows as n squared, and
what costs is the number of passes over each (ROW_BLOCK, n) block.

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

The backward rebuilds each block's weights whole as ``exp([q, -lse] @ [k,
1]^T)`` (one product, one exp).  The score gradient ``a * ([g_y wv^T, -D]
@ [x, 1]^T)``, with ``D = rowsum((g_y wv^T) * (a @ x))``, is formed
``SCORE_CHUNK`` key columns at a time (one product, one multiply); this is
the FlashAttention-2 form (Dao 2023).  Each chunk is contracted with its
rows of x at once, in ``ordered_matmul``'s chunk order, so the block's
``d_s @ x`` has the same bits as one product over all n columns.  The
parameter gradients follow from that after the loop, so the blocks hold no
sums over rows and no k x n accumulators.
"""

from __future__ import annotations

import collections
import itertools
import os
from dataclasses import dataclass

import numpy as np

from ._entry import blas_threads
from .errors import InputError
from .linalg import INNER_CHUNK, ordered_matmul
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
# Key columns of the backward's score gradient per chunk.  A fixed width
# keeps the bytes free of the worker count: a chunked product can differ
# from the whole one in its last bits.  A multiple of INNER_CHUNK, so the
# contraction with x adds the same pieces in the same order as one
# ordered_matmul over all columns; up to this many rows there is one chunk.
SCORE_CHUNK = 4 * INNER_CHUNK


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Threads that share the row blocks: each CPU this process may run on gets
# one worker of SEMIMPUTE_THREADS BLAS threads.
WORKERS = max(1, _cpus() // blas_threads())
# Fewer rows than this run their blocks on the calling thread: at 600 rows
# handing blocks to the pool cost more than it saved.
POOL_MIN_ROWS = 1024
_pools = {}
# A forked child has none of the parent's pool threads; it starts its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pools.clear)


def _pool():
    """WORKERS threads, started at first use; the i-th runs on every WORKERS-th CPU from the i-th.

    A thread left with no CPU (WORKERS set above the CPU count) runs
    anywhere.  Left to the scheduler, a 2-CPU Linux host often kept two
    busy threads on one CPU for a whole call while the other CPU idled.
    """
    if WORKERS not in _pools:
        from concurrent.futures import ThreadPoolExecutor

        index = itertools.count()

        def pin():
            # A new thread starts with the affinity of the thread that made it.
            if hasattr(os, "sched_setaffinity"):
                try:
                    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[next(index) :: WORKERS])
                except OSError:
                    pass  # an unpinned worker computes the same bytes

        _pools[WORKERS] = ThreadPoolExecutor(WORKERS, thread_name_prefix="semimpute-attention", initializer=pin)
    return _pools[WORKERS]


def _each_block(n: int, buffers, block) -> None:
    """Call ``block(bufs, start)`` for every ROW_BLOCK start of n rows.

    ``buffers()`` allocates one worker's buffers; the calling thread makes
    them all before any block runs.  From POOL_MIN_ROWS rows on,
    the pool's workers take the starts in order, each the next one left when
    it is free, while the calling thread waits; below, the calling thread
    takes them all.  Fixed shares were slower: one CPU of a 2-CPU host often
    ran its half at two thirds of the other's speed.  A worker stops at its
    first error, and the error of the earliest block is raised.
    """
    todo = collections.deque(range(0, n, ROW_BLOCK))
    workers = min(WORKERS, len(todo)) if n >= POOL_MIN_ROWS else 1

    def work(bufs):
        start = -1
        try:
            while True:
                try:
                    start = todo.popleft()
                except IndexError:
                    return None
                block(bufs, start)
        except Exception as exc:
            return start, exc

    # Made on the calling thread, as without the pool: a buffer that a pool
    # thread allocated stayed in that thread's malloc arena after the call,
    # and an 8000 x 21 impute peaked about 0.5 MiB higher.
    bufs = [buffers() for _ in range(workers)]
    if workers == 1:
        failures = [work(bufs[0])]
    else:
        tasks = [_pool().submit(work, b) for b in bufs]
        failures = [task.result() for task in tasks]
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


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
    # Checked before the products, which would warn on NaN and inf first.
    # Finite rows can still overflow a score; the blocks check those.
    if not np.isfinite(x).all():
        raise InputError("attention input must be finite")
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
    ax = np.empty_like(x)
    lse = np.empty(n)

    def block(buf, start):
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

    _each_block(n, lambda: np.empty((min(n, ROW_BLOCK), n)), block)
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
    score gradient is formed SCORE_CHUNK columns at a time and contracted
    with x at once, ``d_s_x = d_s @ x``; the sums over rows then run in
    ``ordered_matmul`` after the loop.
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
    d_s_x = np.empty_like(x)

    def buffers():
        m = min(n, ROW_BLOCK)
        return np.empty((m, n)), np.empty(m * min(n, SCORE_CHUNK))

    def block(bufs, start):
        a_buf, d_s_buf = bufs
        rows = slice(start, start + ROW_BLOCK)
        q_aug_rows = q_aug[rows]
        m = q_aug_rows.shape[0]
        a = a_buf[:m]
        np.exp(np.matmul(q_aug_rows, k_aug.T, out=a), out=a)
        acc = None
        for c0 in range(0, n, SCORE_CHUNK):
            cols = slice(c0, c0 + SCORE_CHUNK)
            key_rows = x_aug[cols]
            # A contiguous (m, width) view: matmul copies into a strided out.
            d_s = d_s_buf[: m * key_rows.shape[0]].reshape(m, -1)
            np.matmul(g_aug[rows], key_rows.T, out=d_s)
            d_s *= a[:, cols]
            acc = ordered_matmul(d_s, x[cols], acc)
        d_s_x[rows] = acc

    _each_block(n, buffers, block)
    # s = q k^T with q = scale * x wq and k = x wk, so d_wq = scale x^T dS k
    # = scale (x^T d_s_x) wk and d_wk = x^T dS^T q = d_s_x^T q.
    return (
        scale * (ordered_matmul(x.T, d_s_x) @ p.wk),
        ordered_matmul(d_s_x.T, q),
        ordered_matmul(ax.T, g_y),
    )
