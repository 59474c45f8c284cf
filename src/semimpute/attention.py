"""Single-layer self-attention over data rows.

Each imputed row is rewritten as a convex combination of (projected) rows of
the current matrix, so similar records inform each other's missing cells.
The n x n attention weights are never formed, nor one row's n of them:
forward and backward work through blocks of ``ROW_BLOCK`` query rows, and
within a block through chunks of ``SCORE_CHUNK`` key rows.  Every block
writes only its own rows and every sum over rows runs after the loop, so
the blocks are independent.  From ``POOL_MIN_ROWS`` rows on they are shared
by a pool of ``WORKERS`` threads, one per CPU share, each taking the next
block left when it is free; BLAS runs on ``SEMIMPUTE_THREADS`` threads
inside each.  A block's arithmetic does not depend on which worker runs it,
so the bytes are the same for any worker count.  Each worker holds one
(ROW_BLOCK, SCORE_CHUNK) tile in the forward and two in the backward,
whatever n is, so the n x d arrays set the memory (Rabe & Staats 2021);
time still grows as n squared, and what costs is the number of passes over
each tile.

The 1/sqrt(k) score scale is folded into q, and the value map is applied
after the weights: the output is ``(a @ x) @ wv``.  The forward shifts row
i by the bound ``c_i = |q_i| max_j |k_j|`` instead of its row max, folded
into the score product as ``exp([q, -c] @ [k, 1]^T)``, so no score exceeds
the shift and no check or max is needed; one product with ``[x, 1]`` then
gives ``a @ x`` and the row sums.  With the shift fixed before any score is
seen, the sums over key chunks need no rescaling: each chunk is three
passes, product, exp, product, and its sums are added in
``ordered_matmul``'s chunk order, so they have the bits of one product over
all n keys.  A block with a bound past ``SHIFT_LIMIT`` or not finite takes
the exact path instead: a first pass over the chunks checks that every
score is finite and takes the row max, and a second shifts by it.  The
forward returns the output, one log-normalizer per row, ``lse = log sum_j
exp(score_ij)``, and ``a @ x``.  ``[x, 1]``, ``[q, -c]`` and ``[k, 1]`` are
written once, and x, q and k are views of them.

The backward rebuilds each chunk of a block's weights as ``exp([q, -lse] @
[k, 1]^T)`` (one product, one exp) next to its score gradient ``a * ([g_y
wv^T, -D] @ [x, 1]^T)``, with ``D = rowsum((g_y wv^T) * (a @ x))`` (one
product, one multiply); this is the FlashAttention-2 form (Dao 2023).  Each
chunk is contracted with its rows of x at once, so the block's ``d_s @ x``
has the same bits as one product over all n columns.  The parameter
gradients follow from that after the loop, so the blocks hold no sums over
rows and no k x n accumulators.
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
# Key rows per chunk of a block, in the forward and the backward.  A fixed
# width keeps the bytes free of the worker count: a chunked product can
# differ from the whole one in its last bits.  A multiple of INNER_CHUNK, so
# the contraction with x adds the same pieces in the same order as one
# ordered_matmul over all keys; up to this many rows there is one chunk.
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


def _project(x: np.ndarray, p: AttentionParams):
    """``[x, 1]``, ``[q, ?]`` and ``[k, 1]``, each written once; q carries the 1/sqrt(k) scale.

    x, q and k are the views of their first columns.  The last column of q's
    array is left to the caller: the forward's ``-bound``, the backward's
    ``-lse``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.d:
        raise InputError(f"input must be n x {p.d}")
    # Checked before the products, which would warn on NaN and inf first.
    # Finite rows can still overflow a score; the blocks check those.
    if not np.isfinite(x).all():
        raise InputError("attention input must be finite")
    (n, d), dk = x.shape, p.dk
    scale = 1.0 / np.sqrt(float(dk))
    x_aug, q_aug, k_aug = np.empty((n, d + 1)), np.empty((n, dk + 1)), np.empty((n, dk + 1))
    x_aug[:, :d] = x
    x_aug[:, d] = k_aug[:, dk] = 1.0
    np.matmul(x_aug[:, :d], p.wq, out=q_aug[:, :dk])
    q_aug[:, :dk] *= scale
    np.matmul(x_aug[:, :d], p.wk, out=k_aug[:, :dk])
    return x_aug, q_aug, k_aug, scale


def _row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", m, m))


def _key_chunks(n: int) -> list[slice]:
    return [slice(c0, c0 + SCORE_CHUNK) for c0 in range(0, n, SCORE_CHUNK)]


def _chunk_product(buf: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right.T`` written into a contiguous (rows, cols) view of the flat ``buf``."""
    # A contiguous view: matmul copies into a strided out.
    out = buf[: left.shape[0] * right.shape[0]].reshape(left.shape[0], -1)
    return np.matmul(left, right.T, out=out)


def _buffer(n: int) -> np.ndarray:
    """One flat (ROW_BLOCK, SCORE_CHUNK) tile, whatever n is."""
    return np.empty(min(n, ROW_BLOCK) * min(n, SCORE_CHUNK))


def attention_forward(x: np.ndarray, p: AttentionParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled dot-product attention over rows: output, log-normalizers, ``a @ x``.

    Output rows are convex combinations of the rows of x @ wv, weighted by
    ``a = softmax(q k^T / sqrt(k))`` with q = x @ wq and k = x @ wk.  The
    second value is ``lse``, the per-row log of the softmax denominator,
    which ``attention_backward`` uses to rebuild the weights; the third is
    ``a @ x``, of which the output is ``(a @ x) @ wv``.
    """
    x_aug, q_aug, k_aug, _ = _project(x, p)
    n, d = x_aug.shape[0], x_aug.shape[1] - 1
    q, k = q_aug[:, :-1], k_aug[:, :-1]
    bound = _row_norms(q) * _row_norms(k).max(initial=0.0)
    q_aug[:, -1] = -bound
    chunks = _key_chunks(n)
    ax = np.empty((n, d))
    lse = np.empty(n)

    def block(buf, start):
        rows = slice(start, start + ROW_BLOCK)
        shift = bound[rows]
        exact = not np.all(shift <= SHIFT_LIMIT)
        if exact:
            # First pass: every score finite, and the row max to shift by.
            shift = np.full(shift.shape, -np.inf)
            for cols in chunks:
                with np.errstate(over="ignore", invalid="ignore"):
                    s = _chunk_product(buf, q[rows], k[cols])
                if not np.isfinite(s).all():
                    raise InputError("attention scores must be finite")
                np.maximum(shift, s.max(axis=1), out=shift)
        sums = None
        for cols in chunks:
            if exact:
                e = _chunk_product(buf, q[rows], k[cols])
                e -= shift[:, None]
            else:
                e = _chunk_product(buf, q_aug[rows], k_aug[cols])
            np.exp(e, out=e)
            # One product gives the weighted rows and, in its last column,
            # the row sums; the chunks add up in ordered_matmul's order.
            sums = ordered_matmul(e, x_aug[cols], sums)
        # Normalize the (rows, d) result, not the weights.
        ax[rows] = sums[:, :d] / sums[:, d:]
        lse[rows] = shift + np.log(sums[:, d])

    _each_block(n, lambda: _buffer(n), block)
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
    row block's weights are rebuilt from ``lse`` rather than stored, one
    SCORE_CHUNK of key columns at a time next to its score gradient, which
    is contracted with x at once, ``d_s_x = d_s @ x``; the sums over rows
    then run in ``ordered_matmul`` after the loop.
    """
    x_aug, q_aug, k_aug, scale = _project(x, p)
    n, d = x_aug.shape[0], x_aug.shape[1] - 1
    x, q = x_aug[:, :d], q_aug[:, :-1]
    q_aug[:, -1] = -lse
    # Softmax backward per row: dS = A * (dA - rowsum(dA * A)), where
    # dA = (g_y wv^T) x^T and rowsum(dA * A) = rowsum((g_y wv^T) * ax).
    g_aug = np.empty((n, d + 1))
    g_ax = np.matmul(g_y, p.wv.T, out=g_aug[:, :d])
    g_aug[:, d] = -np.einsum("ij,ij->i", g_ax, ax)
    chunks = _key_chunks(n)
    d_s_x = np.empty((n, d))

    def block(bufs, start):
        a_buf, d_s_buf = bufs
        rows = slice(start, start + ROW_BLOCK)
        acc = None
        for cols in chunks:
            a = _chunk_product(a_buf, q_aug[rows], k_aug[cols])
            np.exp(a, out=a)
            d_s = _chunk_product(d_s_buf, g_aug[rows], x_aug[cols])
            d_s *= a
            acc = ordered_matmul(d_s, x[cols], acc)
        d_s_x[rows] = acc

    _each_block(n, lambda: (_buffer(n), _buffer(n)), block)
    # s = q k^T with q = scale * x wq and k = x wk, so d_wq = scale x^T dS k
    # = scale (x^T d_s_x) wk and d_wk = x^T dS^T q = d_s_x^T q.
    return (
        scale * (ordered_matmul(x.T, d_s_x) @ p.wk),
        ordered_matmul(d_s_x.T, q),
        ordered_matmul(ax.T, g_y),
    )
