import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from semimpute import attention, fiml, sem, training
from semimpute.attention import AttentionParams, attention_forward, init_params
from semimpute.dataset import Dataset, VariableSpec
from semimpute.errors import InputError
from semimpute.fiml import MvnParams, conditional_impute
from semimpute.linalg import ensure_pd
from semimpute.missingness import apply_mcar
from semimpute.sem import implied_moments, parse_spec
from semimpute.training import (
    AdamState,
    GradientSet,
    LossState,
    LossWeights,
    TrainConfig,
    _ml_cov,
    adam_step,
    composite_loss,
    grad_composite,
    impute,
    train,
)


def _zero_params(d=2, k=2):
    return AttentionParams(wq=np.zeros((d, k)), wk=np.zeros((d, k)), wv=np.zeros((d, d)))


def _loss(imputed, reference, eval_mask, params, w, ref_cov=None):
    """composite_loss with ``imputed`` as the merged matrix: no cell is replaced."""
    state = LossState(
        x=imputed,
        params=params,
        reference=reference,
        eval_mask=eval_mask,
        replace_mask=np.zeros(np.shape(imputed), dtype=bool),
        weights=w,
        ref_cov=ref_cov,
    )
    return composite_loss(state, imputed)[0]


def test_loss_zero_when_imputed_matches_reference():
    ref = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[True, False], [False, True]])
    parts = _loss(ref.copy(), ref, mask, _zero_params(), LossWeights())
    assert parts.total == 0.0
    assert parts.mse == 0.0 and parts.cov == 0.0 and parts.l1 == 0.0


def test_loss_single_cell_squared_error():
    ref = np.zeros((2, 2))
    imp = np.zeros((2, 2))
    imp[0, 1] = 2.0
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 1] = True
    w = LossWeights(alpha=1.0, beta=0.0, gamma=0.0)
    parts = _loss(imp, ref, mask, _zero_params(), w)
    assert parts.mse == 4.0
    assert parts.total == 4.0


def test_loss_l1_counts_all_parameter_matrices():
    p = AttentionParams(wq=np.array([[1.0]]), wk=np.array([[-1.0]]), wv=np.array([[0.0]]))
    ref = np.zeros((3, 1))
    mask = np.ones((3, 1), dtype=bool)
    w = LossWeights(alpha=0.0, beta=0.0, gamma=0.001)
    parts = _loss(ref.copy(), ref, mask, p, w)
    assert parts.l1 == 2.0
    assert abs(parts.total - 0.002) < 1e-15


def test_loss_accepts_covariance_override():
    rng = np.random.default_rng(0)
    imp = rng.normal(size=(50, 2))
    ref = rng.normal(size=(50, 2))
    mask = np.ones((50, 2), dtype=bool)
    w = LossWeights(alpha=0.0, beta=1.0, gamma=0.0)
    centered = imp - imp.mean(axis=0)
    own_cov = centered.T @ centered / 50
    parts = _loss(imp, ref, mask, _zero_params(), w, ref_cov=own_cov)
    assert parts.cov < 1e-12


def test_loss_warns_on_empty_eval_mask():
    ref = np.ones((2, 2))
    with pytest.warns(UserWarning, match="empty evaluation mask"):
        parts = _loss(ref.copy(), ref, np.zeros((2, 2), dtype=bool), _zero_params(), LossWeights())
    assert parts.mse == 0.0


def test_loss_rejects_shape_mismatch():
    with pytest.raises(InputError):
        _loss(
            np.zeros((2, 2)),
            np.zeros((3, 2)),
            np.zeros((2, 2), dtype=bool),
            _zero_params(),
            LossWeights(),
        )


def _small_state(seed=0, n=12, d=3, gamma=1e-3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    reference = rng.normal(size=(n, d))
    replace = rng.random((n, d)) < 0.3
    evalm = replace.copy()
    return LossState(
        x=x,
        params=init_params(d, seed=seed + 1),
        reference=reference,
        eval_mask=evalm,
        replace_mask=replace,
        weights=LossWeights(alpha=1.0, beta=0.1, gamma=gamma),
    )


def _analytic_grad(state):
    output, lse, ax = attention_forward(state.x, state.params)
    return grad_composite(state, composite_loss(state, output)[1], lse, ax)


def test_gradient_matches_finite_differences(finite_diff_grad):
    state = _small_state()
    analytic = _analytic_grad(state)
    numeric = finite_diff_grad(state, h=1e-5)
    for a, nmr in zip(analytic, numeric):
        scale = np.maximum(np.abs(nmr), 1e-8)
        assert (np.abs(a - nmr) / scale).max() < 1e-4


def test_gradient_matches_finite_differences_without_l1(finite_diff_grad):
    # The L1 term is only subdifferentiable at 0; gamma=0 removes it so the
    # check is clean even when a parameter sits exactly at zero.
    state = _small_state(seed=3, gamma=0.0)
    analytic = _analytic_grad(state)
    numeric = finite_diff_grad(state, h=1e-5)
    for a, nmr in zip(analytic, numeric):
        assert np.abs(a - nmr).max() < 1e-6


def test_covariance_target_given_once_equals_the_default():
    # Benchmark-mode training passes the reference's ML covariance as
    # ref_cov once, instead of letting every loss and gradient recompute it.
    state = _small_state(seed=5)
    fixed = dataclasses.replace(state, ref_cov=_ml_cov(state.reference))
    output = attention_forward(state.x, state.params)[0]
    parts, g_y = composite_loss(state, output)
    fixed_parts, fixed_g_y = composite_loss(fixed, output)
    assert parts == fixed_parts
    np.testing.assert_array_equal(g_y, fixed_g_y)
    assert g_y[state.replace_mask].any() and not g_y[~state.replace_mask].any()


# Seeded states at 300 and 600 rows, 6 and 22 (the CDC table's) columns:
# sizes at which a threaded BLAS splits products differently for one and
# two threads, several attention row blocks with a ragged last one.
_THREAD_SHAPES = [(n, d) for n in (300, 600) for d in (6, 22)]
_THREAD_PROBE = """
import sys
import numpy as np
from semimpute.attention import attention_forward, init_params
from semimpute.training import LossState, LossWeights, composite_loss, grad_composite

arrays = {}
for n, d in %r:
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, d))
    replace = rng.random((n, d)) < 0.3
    state = LossState(
        x=x,
        params=init_params(d, seed=4),
        reference=rng.normal(size=(n, d)),
        eval_mask=replace,
        replace_mask=replace,
        weights=LossWeights(),
    )
    output, lse, ax = attention_forward(x, state.params)
    grads = grad_composite(state, composite_loss(state, output)[1], lse, ax)
    for name, value in dict(output=output, lse=lse, ax=ax, **grads._asdict()).items():
        arrays[f"{n}x{d}:{name}"] = value
np.savez(sys.argv[1], **arrays)
""" % (_THREAD_SHAPES,)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core cannot run two BLAS threads")
def test_forward_and_gradient_bits_do_not_depend_on_blas_threads(tmp_path, child_env):
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, str(out)],
            cwd=tmp_path,
            env=child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        with np.load(out) as arrays:
            results.append({name: arrays[name].tobytes() for name in arrays.files})
    one, two = results
    names = ["ax", "d_wk", "d_wq", "d_wv", "lse", "output"]
    assert sorted(one) == sorted(two) == sorted(f"{n}x{d}:{m}" for n, d in _THREAD_SHAPES for m in names)
    differ = [name for name in one if one[name] != two[name]]
    assert not differ, f"differ between 1 and 2 BLAS threads: {differ}"


def test_finite_diff_rejects_bad_step(finite_diff_grad):
    with pytest.raises(InputError):
        finite_diff_grad(_small_state(), h=0.0)


def test_state_validates_shapes():
    rng = np.random.default_rng(1)
    with pytest.raises(InputError, match="reference"):
        LossState(
            x=rng.normal(size=(4, 2)),
            params=init_params(2, seed=0),
            reference=rng.normal(size=(5, 2)),
            eval_mask=np.ones((4, 2), dtype=bool),
            replace_mask=np.ones((4, 2), dtype=bool),
            weights=LossWeights(),
        )


def test_adam_single_step_closed_form():
    p = _zero_params(d=1, k=1)
    grads = GradientSet(
        d_wq=np.ones((1, 1)), d_wk=np.ones((1, 1)), d_wv=np.ones((1, 1))
    )
    new_p, new_state = adam_step(p, grads, AdamState.zeros(p), lr=0.1, t=1)
    # Bias correction makes the first step lr * g/(|g| + eps) regardless of g scale.
    expected = -0.1 / (1.0 + 1e-8)
    for m in (new_p.wq, new_p.wk, new_p.wv):
        np.testing.assert_allclose(m, [[expected]], rtol=0, atol=1e-18)
    np.testing.assert_allclose(new_state.m.d_wq, [[0.1]], atol=1e-18)
    np.testing.assert_allclose(new_state.v.d_wq, [[0.001]], atol=1e-18)


def test_adam_rejects_zero_step_counter():
    p = _zero_params(d=1, k=1)
    grads = GradientSet(
        d_wq=np.ones((1, 1)), d_wk=np.ones((1, 1)), d_wv=np.ones((1, 1))
    )
    with pytest.raises(InputError):
        adam_step(p, grads, AdamState.zeros(p), lr=0.1, t=0)


def _missing_dataset(seed=0, n=40, d=2, rate=0.25):
    rng = np.random.default_rng(seed)
    cov = np.array([[1.0, 0.6], [0.6, 1.0]]) if d == 2 else np.eye(d)
    values = rng.multivariate_normal(np.zeros(d), cov, size=n)
    specs = tuple(VariableSpec(f"v{j}", "continuous") for j in range(d))
    truth = Dataset(values=values, mask=np.ones((n, d), dtype=bool), specs=specs)
    masked, _ = apply_mcar(truth, rate, seed + 100)
    return masked, truth


def _mean_filled(ds):
    vals = np.array(ds.values)
    mask = np.asarray(ds.mask)
    for j in range(ds.d):
        col = vals[:, j]
        col[~mask[:, j]] = col[mask[:, j]].mean()
    return Dataset(values=vals, mask=np.ones_like(mask), specs=ds.specs)


def test_train_benchmark_requires_truth():
    masked, _ = _missing_dataset()
    init = _mean_filled(masked)
    cfg = TrainConfig(mode="benchmark", max_epochs=2)
    with pytest.raises(InputError, match="truth"):
        train(masked, init, None, cfg)


def test_train_self_supervised_rejects_truth():
    masked, truth = _missing_dataset()
    init = _mean_filled(masked)
    cfg = TrainConfig(mode="self_supervised", max_epochs=2)
    with pytest.raises(InputError):
        train(masked, init, truth, cfg)


def test_train_benchmark_rejects_incomplete_truth():
    masked, _ = _missing_dataset()
    init = _mean_filled(masked)
    cfg = TrainConfig(mode="benchmark", max_epochs=2)
    with pytest.raises(InputError):
        train(masked, init, masked, cfg)


def test_train_rejects_init_shape_mismatch():
    masked, truth = _missing_dataset()
    small, _ = _missing_dataset(n=10)
    cfg = TrainConfig(mode="benchmark", max_epochs=2)
    with pytest.raises(InputError):
        train(masked, _mean_filled(small), truth, cfg)


def test_train_records_history_and_preserves_observed():
    masked, truth = _missing_dataset(seed=2)
    init = _mean_filled(masked)
    cfg = TrainConfig(mode="benchmark", max_epochs=5, rel_tol=0.0, seed=1)
    result = train(masked, init, truth, cfg)
    assert [rec.epoch for rec in result.history] == list(range(1, 6))
    assert all(np.isfinite(rec.total) for rec in result.history)
    observed = np.asarray(masked.mask)
    same = result.refined.values[observed] == np.asarray(masked.values)[observed]
    assert same.all()


def test_train_self_supervised_runs_without_truth():
    masked, _ = _missing_dataset(seed=5)
    init = _mean_filled(masked)
    cfg = TrainConfig(mode="self_supervised", max_epochs=4, rel_tol=0.0, seed=3)
    result = train(masked, init, None, cfg)
    assert len(result.history) == 4
    observed = np.asarray(masked.mask)
    same = result.refined.values[observed] == np.asarray(masked.values)[observed]
    assert same.all()


def test_train_peak_memory_is_linear_in_rows(monkeypatch):
    # Attention works through tiles of ROW_BLOCK rows by SCORE_CHUNK key
    # columns and never forms the n x n weights, nor n of them for a row.
    # In units of one float64 (256, n) block, each worker's backward holds
    # two tiles whatever n is, a sixth of a unit at 3000 rows; the rest is a
    # few dozen n x d arrays, about half a unit.  One and two workers
    # peaked at 0.46 and 0.66 units, and are checked whatever the host's
    # CPU count.
    n = 3000
    masked, _ = _missing_dataset(seed=19, n=n, d=6, rate=0.3)
    init = _mean_filled(masked)
    cfg = TrainConfig(max_epochs=3, rel_tol=0.0, seed=2)
    unit = 8 * n * 256
    for workers in (1, 2):
        monkeypatch.setattr(attention, "WORKERS", workers)
        tracemalloc.start()
        try:
            train(masked, init, None, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * unit, f"{workers} workers: peak {peak / unit:.2f} x 8 n 256 bytes"


def test_train_stops_early_on_plateau():
    masked, truth = _missing_dataset(seed=7)
    init = _mean_filled(masked)
    cfg = TrainConfig(mode="benchmark", max_epochs=200, rel_tol=1e30, seed=1)
    result = train(masked, init, truth, cfg)
    assert len(result.history) < 200


def test_train_rejects_unknown_mode():
    with pytest.raises(InputError):
        TrainConfig(mode="banana")


def test_self_supervised_training_needs_a_self_mask():
    # A zero rate hides no cell, so no epoch would score any.
    with pytest.raises(InputError, match="self_mask_rate"):
        TrainConfig(mode="self_supervised", self_mask_rate=0.0)
    assert TrainConfig(mode="benchmark", self_mask_rate=0.0).self_mask_rate == 0.0


def test_impute_complete_dataset_is_a_warned_no_op():
    _, truth = _missing_dataset(seed=9)
    out, report = impute(truth, cfg=TrainConfig(max_epochs=2))
    np.testing.assert_array_equal(out.values, truth.values)
    assert report.n_imputed == 0
    assert report.epochs == 0
    assert report.em_stop is None and report.em_loglik_history == ()
    assert any("nothing to impute" in w for w in report.warnings)


def test_impute_round_trip_preserves_observed_bits():
    masked, _ = _missing_dataset(seed=11, n=60)
    cfg = TrainConfig(max_epochs=3, rel_tol=0.0, seed=0)
    out, report = impute(masked, cfg=cfg)
    observed = np.asarray(masked.mask)
    same = out.values[observed] == np.asarray(masked.values)[observed]
    assert same.all()
    assert out.n_missing() == 0
    assert report.n_imputed == int((~observed).sum())
    np.testing.assert_array_equal(report.provenance, ~observed)
    assert report.em_iterations >= 1
    assert np.isfinite(report.em_loglik)
    assert report.em_stop in ("tolerance", "max_iter")
    assert len(report.em_loglik_history) == report.em_iterations + 1
    assert report.em_loglik_history[-1] == report.em_loglik


def test_impute_snaps_ordinal_cells_to_valid_levels():
    # Ordinal cells travel as 0-based level indices; imputation must land
    # on exact indices even though training is continuous.
    rng = np.random.default_rng(13)
    n = 80
    cont = rng.normal(size=n)
    ordv = np.clip(np.round(cont * 1.5 + 2.0), 0, 4)
    values = np.column_stack([cont, ordv])
    specs = (
        VariableSpec("score", "continuous"),
        VariableSpec("grade", "ordinal", levels=("a", "b", "c", "d", "e")),
    )
    truth = Dataset(values=values, mask=np.ones((n, 2), dtype=bool), specs=specs)
    masked, _ = apply_mcar(truth, 0.3, 17)
    out, _ = impute(masked, cfg=TrainConfig(max_epochs=3, rel_tol=0.0))
    grade = out.values[:, 1]
    assert set(np.unique(grade)).issubset({0.0, 1.0, 2.0, 3.0, 4.0})


def test_impute_rejects_bad_moments_choice():
    masked, _ = _missing_dataset()
    with pytest.raises(InputError):
        impute(masked, moments="other")


@pytest.mark.parametrize("moments", ["implied", "saturated", None])
def test_impute_fills_under_the_moments_of_the_path_fit(monkeypatch, moments):
    # moments=None runs without a path model: the saturated EM fit alone.
    masked, _ = _missing_dataset(seed=5, n=60, d=3)
    fits, inits = [], []

    def recorded(fn):
        def wrapper(*args):
            fits.append(fn(*args))
            return fits[-1]

        return wrapper

    training_train = training.train

    def train(ds, init, *args):
        inits.append((ds, init))
        return training_train(ds, init, *args)

    monkeypatch.setattr(training, "fit_paths_fiml", recorded(training.fit_paths_fiml))
    monkeypatch.setattr(training, "em_fit", recorded(training.em_fit))
    monkeypatch.setattr(training, "train", train)
    # Not saturated: the model fixes the v0-v2 covariance.
    spec = None if moments is None else parse_spec("v1 ~ v0\nv2 ~ v1\n")
    impute(masked, spec, TrainConfig(max_epochs=1), moments=moments or "implied")
    [fit], [(norm, init)] = fits, inits
    if moments is None:
        expected = fit.params
    else:
        mu, sigma = implied_moments(fit.model)
        repaired = MvnParams(mu, ensure_pd(sigma, 1e-10))
        np.testing.assert_array_equal(fit.implied.mu, repaired.mu)
        np.testing.assert_array_equal(fit.implied.sigma, repaired.sigma)
        assert not np.array_equal(fit.implied.sigma, fit.em.params.sigma)
        expected = fit.implied if moments == "implied" else fit.em.params
    filled, _ = conditional_impute(expected, norm)
    assert init.values.tobytes() == filled.values.tobytes()


@pytest.mark.parametrize("with_spec", [False, True])
def test_impute_runs_no_estep_beyond_the_fit(monkeypatch, with_spec):
    masked, _ = _missing_dataset(seed=5, n=60, d=3)
    calls, fiml_estep = [], fiml._estep

    def estep(*args):
        calls.append(1)
        return fiml_estep(*args)

    monkeypatch.setattr(fiml, "_estep", estep)
    monkeypatch.setattr(sem, "_estep", estep)
    spec = parse_spec("v1 ~ v0\nv2 ~ v1\n") if with_spec else None
    _, report = impute(masked, spec, TrainConfig(max_epochs=1))
    # One E-step at EM's start and one per iteration; a path model adds the
    # one under its implied moments.
    assert len(calls) == report.em_iterations + 1 + with_spec


def _count_calls(monkeypatch, name, modules):
    """Count calls of the function bound as ``name`` in every one of ``modules``."""
    calls, fn = [], getattr(modules[0], name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("with_spec", [False, True])
def test_impute_builds_one_missingness_plan(monkeypatch, with_spec):
    masked, _ = _missing_dataset(seed=5, n=60, d=3)
    calls = _count_calls(monkeypatch, "missingness_plan", [fiml, sem])
    spec = parse_spec("v1 ~ v0\nv2 ~ v1\n") if with_spec else None
    impute(masked, spec, TrainConfig(max_epochs=1))
    # EM's E-steps and the one under the implied moments share it.
    assert len(calls) == 1


@pytest.mark.parametrize("with_spec", [False, True])
def test_self_supervised_impute_takes_pairwise_stats_once(monkeypatch, with_spec):
    masked, _ = _missing_dataset(seed=5, n=60, d=3)
    calls = _count_calls(monkeypatch, "pairwise_stats", [training, fiml])
    spec = parse_spec("v1 ~ v0\nv2 ~ v1\n") if with_spec else None
    impute(masked, spec, TrainConfig(max_epochs=2))
    # EM's start and train's covariance target are the same moments.
    assert len(calls) == 1
