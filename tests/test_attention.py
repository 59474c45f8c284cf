import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semimpute import attention
from semimpute.attention import (
    ROW_BLOCK,
    SCORE_CHUNK,
    SHIFT_LIMIT,
    AttentionParams,
    _each_block,
    attention_backward,
    attention_forward,
    init_params,
)
from semimpute.errors import InputError

MASK64 = (1 << 64) - 1

# e / (1 + e) to full double precision, checked against mpmath once.
SIGMOID_1 = 0.7310585786300049


def _reference_uniform_stream(seed, count, lo, hi):
    """Transcription of the SplitMix64 + 53-bit-float uniform draw."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        u = z ^ (z >> 31)
        f = (u >> 11) * (1.0 / (1 << 53))
        out.append(lo + (hi - lo) * f)
    return np.array(out)


def softmax_rows(m):
    """Per-row softmax shifted by the row max, as the forward's exact path; the dense oracle."""
    s = np.array(m, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise InputError("softmax input must be finite")
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _dense_weights(x, p):
    """The full n x n attention weights, which the package never forms."""
    return softmax_rows((x @ p.wq) @ (x @ p.wk).T / np.sqrt(p.dk))


def _dense_lse(x, p):
    """log sum_j exp(score_ij) per row, from the full n x n scores."""
    s = (x @ p.wq) @ (x @ p.wk).T / np.sqrt(p.dk)
    row_max = s.max(axis=1)
    return row_max + np.log(np.exp(s - row_max[:, None]).sum(axis=1))


def _bound(x, p):
    """Each row's shift bound |q_i| max_j |k_j|, from the full projections."""
    q = (x @ p.wq) / np.sqrt(p.dk)
    return np.linalg.norm(q, axis=1) * np.linalg.norm(x @ p.wk, axis=1).max()


def _dense_backward(x, p, g_y):
    a = _dense_weights(x, p)
    q, k, v = x @ p.wq, x @ p.wk, x @ p.wv
    d_a = g_y @ v.T
    d_s = a * (d_a - np.sum(d_a * a, axis=1, keepdims=True)) / np.sqrt(p.dk)
    return x.T @ (d_s @ k), x.T @ (d_s.T @ q), x.T @ (a.T @ g_y)


def test_softmax_two_entry_oracle():
    got = softmax_rows(np.array([[0.0, 1.0]]))
    np.testing.assert_allclose(
        got, [[1.0 - SIGMOID_1, SIGMOID_1]], rtol=0, atol=1e-15
    )


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(6, 9)) * 30.0
    a = softmax_rows(z)
    np.testing.assert_allclose(a.sum(axis=1), np.ones(6), atol=1e-12)
    assert (a > 0).all()
    shifted = softmax_rows(z + 123.456)
    np.testing.assert_allclose(a, shifted, atol=1e-12)


def test_softmax_handles_large_magnitudes():
    a = softmax_rows(np.array([[1000.0, 1001.0], [-1000.0, -999.0]]))
    assert np.isfinite(a).all()
    np.testing.assert_allclose(a[0], a[1], atol=1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(InputError):
        softmax_rows(np.array([[0.0, np.inf]]))
    with pytest.raises(InputError):
        softmax_rows(np.array([[np.nan, 0.0]]))


def test_forward_two_row_worked_example():
    # x = [[0], [1]] with identity projections: scores are [[0,0],[0,1]],
    # so row 0 averages and row 1 weights by softmax([0, 1]).
    x = np.array([[0.0], [1.0]])
    p = AttentionParams(wq=np.eye(1), wk=np.eye(1), wv=np.eye(1))
    output = attention_forward(x, p)[0]
    np.testing.assert_allclose(
        _dense_weights(x, p),
        [[0.5, 0.5], [1.0 - SIGMOID_1, SIGMOID_1]],
        atol=1e-15,
    )
    np.testing.assert_allclose(output, [[0.5], [SIGMOID_1]], atol=1e-15)


def test_forward_weights_are_row_stochastic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 5))
    p = init_params(5, seed=11)
    output = attention_forward(x, p)[0]
    weights = _dense_weights(x, p)
    assert weights.shape == (40, 40)
    np.testing.assert_allclose(weights.sum(axis=1), np.ones(40), atol=1e-10)
    assert output.shape == x.shape


def test_forward_output_inside_value_hull():
    # Each output row is a convex combination of the value-projected rows.
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 4))
    p = init_params(4, seed=2)
    output = attention_forward(x, p)[0]
    v = x @ p.wv
    lo = v.min(axis=0) - 1e-12
    hi = v.max(axis=0) + 1e-12
    assert (output >= lo).all() and (output <= hi).all()


def test_forward_is_row_permutation_equivariant():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(17, 3))
    p = init_params(3, seed=8)
    perm = rng.permutation(17)
    base = attention_forward(x, p)[0]
    permuted = attention_forward(x[perm], p)[0]
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def _stretch_past_bound(x, p, r):
    """Scale row r of x so that its shift bound lands just past SHIFT_LIMIT."""
    q_norm = np.linalg.norm(x @ p.wq, axis=1) / np.sqrt(p.dk)
    k_norm = np.linalg.norm(x @ p.wk, axis=1)
    others = np.delete(k_norm, r).max(initial=0.0)
    # The bound of row r grows as f |q_r| max(others, f |k_r|).
    target = 1.05 * SHIFT_LIMIT
    f = target / (q_norm[r] * others) if others > 0 else np.inf
    if f * k_norm[r] > others:
        f = np.sqrt(target / (q_norm[r] * k_norm[r]))
    x[r] *= f
    return f


@given(st.integers(1, 700), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
@example(1, 2, 0, False)
@example(ROW_BLOCK - 1, 3, 1, False)
@example(ROW_BLOCK, 3, 2, True)
@example(ROW_BLOCK + 1, 3, 3, True)
@example(3 * ROW_BLOCK + 17, 5, 5, True)
@example(600, 6, 4, False)
@settings(max_examples=40, deadline=None)
def test_row_blocks_match_dense_attention(n, d, seed, past_bound):
    # Blocks cover ROW_BLOCK rows each; the sizes around one block and a
    # ragged last block are always among the examples.  With past_bound one
    # row is stretched until its shift bound passes SHIFT_LIMIT, so its
    # block takes the exact row-max path and the others the bound shift.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    g_y = rng.normal(size=(n, d))
    p = init_params(d, seed=seed)
    if past_bound:
        r = int(rng.integers(n))
        f = _stretch_past_bound(x, p, r)
        assert _bound(x, p)[r] > SHIFT_LIMIT
        # The gradients grow as f squared; keep them O(1) so that the
        # absolute tolerance below means the same in both cases.
        g_y /= f * f
    weights = _dense_weights(x, p)
    output, lse, ax = attention_forward(x, p)
    np.testing.assert_allclose(output, weights @ (x @ p.wv), rtol=0, atol=1e-12)
    np.testing.assert_allclose(ax, weights @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lse, _dense_lse(x, p), rtol=1e-12, atol=0)
    backward = attention_backward(x, p, g_y, ax, lse)
    for got, dense in zip(backward, _dense_backward(x, p, g_y)):
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[rng.integers(n), rng.integers(d)] = bad
        with pytest.raises(InputError, match="must be finite"):
            attention_forward(x_bad, p)


def test_exact_path_across_key_chunks_matches_dense_attention():
    # Three key chunks, the last one narrow.  One row is stretched past
    # SHIFT_LIMIT, so its block finds the row max over every chunk before
    # it exponentiates any; the other blocks take the bound shift.
    n, d = 2 * SCORE_CHUNK + 40, 3
    rng = np.random.default_rng(12)
    x = rng.normal(size=(n, d))
    p = init_params(d, seed=12)
    r = 5 * ROW_BLOCK + 7
    g_y = rng.normal(size=(n, d)) / _stretch_past_bound(x, p, r) ** 2
    bound = _bound(x, p)
    assert bound[r] > SHIFT_LIMIT and (bound[: 5 * ROW_BLOCK] <= SHIFT_LIMIT).all()
    weights = _dense_weights(x, p)
    output, lse, ax = attention_forward(x, p)
    np.testing.assert_allclose(output, weights @ (x @ p.wv), rtol=0, atol=1e-12)
    np.testing.assert_allclose(ax, weights @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lse, _dense_lse(x, p), rtol=1e-12, atol=0)
    backward = attention_backward(x, p, g_y, ax, lse)
    for got, dense in zip(backward, _dense_backward(x, p, g_y)):
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)


def test_scores_that_overflow_in_the_last_key_chunk_raise():
    # x is finite, but the last row's score with itself overflows: every
    # block takes the exact path, and the last one meets inf in its last
    # key chunk, with no warning from the score product.
    n, d = 2 * SCORE_CHUNK + 40, 3
    x = np.random.default_rng(13).normal(size=(n, d))
    x[-1] *= 1e160
    p = init_params(d, seed=13)
    with np.errstate(over="ignore"):
        assert np.isinf(_bound(x, p)).all()
    with pytest.raises(InputError, match="must be finite"):
        attention_forward(x, p)


def test_rows_far_below_their_bound_take_the_row_max():
    # With wk = -wq in one dimension, row 0 scores 30 * x_j against a bound
    # of 900: shifted by the bound, every weight of the row would underflow
    # to 0.  Its bound is past SHIFT_LIMIT, so the row max shifts it.
    x = np.array([[-30.0], [1.0], [2.0]])
    p = AttentionParams(wq=np.eye(1), wk=-np.eye(1), wv=np.eye(1))
    assert _bound(x, p)[0] > SHIFT_LIMIT
    weights = _dense_weights(x, p)
    output, lse, ax = attention_forward(x, p)
    np.testing.assert_allclose(output, weights @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ax, weights @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lse, _dense_lse(x, p), rtol=1e-12, atol=0)


# ROW_BLOCK +- 1, one and several key chunks with ragged ends (the last one
# narrow, and 21 columns over three chunks), and the widths at which a
# threaded BLAS splits the block score product.
_WORKER_SHAPES = [
    (ROW_BLOCK - 1, 6), (ROW_BLOCK + 1, 6), (600, 6), (1100, 6), (2 * SCORE_CHUNK + 40, 6), (3000, 6),
    (2 * SCORE_CHUNK + 52, 21), (300, 32), (300, 64),
]
_WORKER_PROBE = """
import sys
import numpy as np
from semimpute import attention
from semimpute.attention import attention_backward, attention_forward, init_params

# The pool runs at every size, not only from POOL_MIN_ROWS rows on, and the
# workers switch as often as the interpreter lets them, so they interleave.
attention.POOL_MIN_ROWS = 0
sys.setswitchinterval(1e-6)
arrays = {}
for workers in (1, 2, 3):
    attention.WORKERS = workers
    for n, d in %r:
        rng = np.random.default_rng(n + d)
        x = rng.normal(size=(n, d))
        p = init_params(d, seed=d)
        output, lse, ax = attention_forward(x, p)
        grads = attention_backward(x, p, rng.normal(size=(n, d)), ax, lse)
        for name, value in zip(("output", "lse", "ax", "d_wq", "d_wk", "d_wv"), (output, lse, ax, *grads)):
            arrays[f"{workers}:{n}x{d}:{name}"] = value
np.savez(sys.argv[1], **arrays)
""" % (_WORKER_SHAPES,)


def test_bytes_do_not_depend_on_the_worker_count(tmp_path, child_env):
    out = tmp_path / "workers.npz"
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_PROBE, str(out)],
        cwd=tmp_path,
        env=child_env(OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with np.load(out) as arrays:
        got = {name: arrays[name].tobytes() for name in arrays.files}
    assert len(got) == 3 * 6 * len(_WORKER_SHAPES)
    differ = [
        name for name in got if not name.startswith("1:") and got[name] != got["1:" + name.split(":", 1)[1]]
    ]
    assert not differ, f"differ from one worker: {differ}"


def _attention_peak(x, p, g_y):
    """Bytes that one forward and backward allocate above what is held when they start."""
    tracemalloc.start()
    try:
        _, lse, ax = attention_forward(x, p)
        attention_backward(x, p, g_y, ax, lse)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_an_extra_worker_costs_a_constant(monkeypatch):
    # Each worker holds one (ROW_BLOCK, SCORE_CHUNK) tile in the forward
    # and two in the backward, whatever n is, so two more workers may add
    # at most two backward tiles each; 64 KiB covers their small per-block
    # arrays.  An n-wide buffer per worker would add 3 MiB each at n = 6000.
    n, d = 6000, 4
    rng = np.random.default_rng(14)
    x, g_y = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    p = init_params(d, seed=14)
    peaks = {}
    for workers in (3, 1, 3):  # the first call starts the pool's threads
        monkeypatch.setattr(attention, "WORKERS", workers)
        peaks[workers] = _attention_peak(x, p, g_y)
    tile = ROW_BLOCK * SCORE_CHUNK * 8
    extra = peaks[3] - peaks[1]
    assert extra < 2 * 2 * tile + 64 * 1024, f"two more workers added {extra / 2**20:.2f} MiB"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_non_finite_input_raises_at_every_worker_count(monkeypatch, workers):
    monkeypatch.setattr(attention, "WORKERS", workers)
    monkeypatch.setattr(attention, "POOL_MIN_ROWS", 0)
    rng = np.random.default_rng(6)
    n, d = 5 * ROW_BLOCK + 3, 3
    p = init_params(d, seed=1)
    for bad in (np.nan, np.inf):
        x = rng.normal(size=(n, d))
        x[n - 2, 1] = bad
        with pytest.raises(InputError, match="must be finite"):
            attention_forward(x, p)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_earliest_failing_block_raises(monkeypatch, workers):
    monkeypatch.setattr(attention, "WORKERS", workers)
    monkeypatch.setattr(attention, "POOL_MIN_ROWS", 0)
    failing = {2 * ROW_BLOCK, 3 * ROW_BLOCK, 5 * ROW_BLOCK}

    def block(bufs, start):
        if start == 2 * ROW_BLOCK:
            time.sleep(0.05)  # with more workers, later blocks fail first
        if start in failing:
            raise InputError(f"block {start}")

    with pytest.raises(InputError, match=f"^block {2 * ROW_BLOCK}$"):
        _each_block(6 * ROW_BLOCK, lambda: None, block)


_FORK_PROBE = """
import os
import signal
import numpy as np
from semimpute import attention
from semimpute.attention import attention_forward, init_params

attention.WORKERS = 2
x = np.random.default_rng(0).normal(size=(attention.POOL_MIN_ROWS, 4))
p = init_params(4, seed=1)
before = attention_forward(x, p)[0]
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child left waiting on absent threads ends here
    os._exit(0 if np.array_equal(attention_forward(x, p)[0], before) else 1)
raise SystemExit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
def test_a_forked_child_runs_the_pool_again(tmp_path, child_env):
    # The child inherits the parent's pool object but none of its threads.
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE],
        cwd=tmp_path,
        env=child_env(OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _affinity_impute(workdir, child_env, cpus):
    workdir.mkdir()
    rng = np.random.default_rng(8)
    n, d = 3000, 6
    values = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
    lines = [",".join(f"v{j}" for j in range(d))]
    for row in values:
        lines.append(",".join("" if rng.random() < 0.1 else f"{v:.6f}" for v in row))
    (workdir / "input.csv").write_text("\n".join(lines) + "\n")
    specs = ",".join(f'{{"name": "v{j}", "kind": "continuous"}}' for j in range(d))
    (workdir / "variables.json").write_text(f"[{specs}]")
    argv = ["impute", "--variables", "variables.json", "--input", "input.csv", "--epochs", "2", "--tol", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "semimpute._entry", *argv, "--out-prefix", "out"],
        cwd=workdir,
        env=child_env(),
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in workdir.glob("out.*")}


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least two CPUs to run on",
)
def test_impute_artifacts_do_not_depend_on_the_cpus(tmp_path, child_env):
    # Pinned to one CPU the child runs one attention worker, on all of them
    # one worker per CPU; at 3000 rows the blocks go to the pool.
    cpus = os.sched_getaffinity(0)
    one = _affinity_impute(tmp_path / "one", child_env, {min(cpus)})
    every = _affinity_impute(tmp_path / "every", child_env, cpus)
    assert sorted(one) == ["out.imputed.csv", "out.provenance.csv", "out.report.json"]
    assert one == every


def test_forward_rejects_mismatched_width():
    p = init_params(3, seed=0)
    with pytest.raises(InputError):
        attention_forward(np.zeros((4, 2)), p)


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 8), st.integers(1, 4)),
        elements=st.floats(-50, 50),
    )
)
@settings(max_examples=40, deadline=None)
def test_forward_output_always_finite(x):
    p = init_params(x.shape[1], seed=13)
    output = attention_forward(x, p)[0]
    assert np.isfinite(output).all()
    assert np.isfinite(_dense_weights(x, p)).all()


def test_init_matches_reference_draw_order():
    d, k, seed = 3, 2, 42
    bound = 1.0 / np.sqrt(d)
    stream = _reference_uniform_stream(seed, d * k + d * k + d * d, -bound, bound)
    p = init_params(d, seed, k=k)
    np.testing.assert_array_equal(p.wq, stream[: d * k].reshape(d, k))
    np.testing.assert_array_equal(p.wk, stream[d * k : 2 * d * k].reshape(d, k))
    np.testing.assert_array_equal(p.wv, stream[2 * d * k :].reshape(d, d))


def test_init_defaults_k_to_d_and_respects_bound():
    p = init_params(4, seed=0)
    assert p.wq.shape == (4, 4) and p.wk.shape == (4, 4) and p.wv.shape == (4, 4)
    bound = 0.5
    for m in (p.wq, p.wk, p.wv):
        assert (np.abs(m) <= bound).all()
    assert p.d == 4 and p.dk == 4


def test_init_is_deterministic_per_seed():
    a = init_params(5, seed=77)
    b = init_params(5, seed=77)
    c = init_params(5, seed=78)
    np.testing.assert_array_equal(a.wq, b.wq)
    np.testing.assert_array_equal(a.wv, b.wv)
    assert not np.array_equal(a.wq, c.wq)


def test_init_rejects_bad_d():
    with pytest.raises(InputError):
        init_params(0, seed=0)


def test_params_validate_shapes():
    with pytest.raises(InputError):
        AttentionParams(wq=np.zeros((3, 2)), wk=np.zeros((3, 3)), wv=np.zeros((3, 3)))
    with pytest.raises(InputError):
        AttentionParams(wq=np.zeros((3, 2)), wk=np.zeros((3, 2)), wv=np.zeros((3, 2)))
    with pytest.raises(InputError):
        AttentionParams(wq=np.zeros((3, 0)), wk=np.zeros((3, 0)), wv=np.zeros((3, 3)))
