"""Composite loss, analytic gradients, Adam, and the imputation pipeline.

Each training epoch is four calls.  ``attention_forward`` returns the
output, one log-normalizer per row and ``a @ x``.  ``composite_loss``
merges the output into the input once and returns the loss parts together
with their gradient w.r.t. the output.  ``grad_composite`` carries that
gradient through ``attention_backward`` to the parameters, and ``adam_step``
updates them.  Refined imputations are carried into the next epoch.  How the
attention works through blocks of rows is described in ``attention``.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .attention import AttentionParams, attention_backward, attention_forward, init_params
from .dataset import (
    Dataset,
    PairwiseStats,
    apply_normalization,
    denormalize,
    encode_ordinal,
    normalize,
    pairwise_stats,
    snap_ordinals,
)
from .errors import InputError, NumericalError
from .fiml import EmConfig, em_fit
from .fiml import conditional_impute  # noqa: F401  (bench/trace.py wraps this name)
from .linalg import adam_update, ordered_matmul
from .missingness import plan_mcar
from .rng import derive_seed
from .sem import SemSpec, fit_paths_fiml
from .sem import nearest_pd as _nearest_pd  # noqa: F401  (bench/reference.py imports this name)

MODE_BENCHMARK = "benchmark"
MODE_SELF_SUPERVISED = "self_supervised"

# Convergence is judged on the total loss across a window this many epochs
# wide; shorter histories never terminate early.
CONVERGENCE_WINDOW = 10


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 1e-3

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise InputError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    max_epochs: int = 500
    rel_tol: float = 1e-5
    self_mask_rate: float = 0.1
    seed: int = 0
    mode: str = MODE_SELF_SUPERVISED

    def __post_init__(self):
        if self.lr <= 0:
            raise InputError("lr must be positive")
        if self.max_epochs < 1:
            raise InputError("max_epochs must be at least 1")
        if not 0.0 <= self.self_mask_rate < 1.0:
            raise InputError("self_mask_rate must lie in [0, 1)")
        if self.mode not in (MODE_BENCHMARK, MODE_SELF_SUPERVISED):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_SELF_SUPERVISED and self.self_mask_rate == 0.0:
            # No cell would be hidden, so no epoch would score any.
            raise InputError("self-supervised training needs self_mask_rate above 0")


class GradientSet(NamedTuple):
    d_wq: np.ndarray
    d_wk: np.ndarray
    d_wv: np.ndarray


class LossParts(NamedTuple):
    total: float
    mse: float
    cov: float
    l1: float


class EpochRecord(NamedTuple):
    epoch: int
    total: float
    mse: float
    cov: float
    l1: float


@dataclass(frozen=True)
class LossState:
    """Everything one loss/gradient evaluation reads.

    ``x`` is the attention input (complete matrix); ``replace_mask`` marks
    the cells where the attention output overwrites ``x`` before the loss is
    taken; ``eval_mask`` selects the MSE cells; ``ref_cov`` overrides the
    covariance target (defaults to the ML covariance of ``reference``).
    """

    x: np.ndarray
    params: AttentionParams
    reference: np.ndarray
    eval_mask: np.ndarray
    replace_mask: np.ndarray
    weights: LossWeights
    ref_cov: np.ndarray | None = None

    def __post_init__(self):
        shape = np.asarray(self.x).shape
        for name in ("reference", "eval_mask", "replace_mask"):
            if np.asarray(getattr(self, name)).shape != shape:
                raise InputError(f"{name} must match the input shape {shape}")


def _ml_cov(m: np.ndarray) -> np.ndarray:
    centered = m - m.mean(axis=0)
    return ordered_matmul(centered.T, centered) / m.shape[0]


def composite_loss(state: LossState, output: np.ndarray) -> tuple[LossParts, np.ndarray]:
    """The loss of one epoch and its gradient w.r.t. the attention output.

    ``output`` is ``attention_forward(state.x, state.params)[0]``.  It
    replaces ``x`` at the ``replace_mask`` cells, and on that merged matrix
    total = alpha * MSE(eval cells) + beta * ||Cov diff||_F + gamma * L1.
    The merge, its covariance and the Frobenius norm are taken once and
    serve both the loss and ``g_y``, which is masked to the replaced cells.
    """
    w = state.weights
    reference = np.asarray(state.reference, dtype=np.float64)
    eval_mask = np.asarray(state.eval_mask, dtype=bool)
    merged = np.where(state.replace_mask, output, np.asarray(state.x, dtype=np.float64))
    n = merged.shape[0]
    g_merged = np.zeros_like(merged)

    n_eval = int(eval_mask.sum())
    if n_eval == 0:
        _warnings.warn("empty evaluation mask; MSE term is 0", stacklevel=2)
        mse = 0.0
    else:
        resid = merged - reference
        diff = resid[eval_mask]
        mse = float(np.mean(diff * diff))
        if w.alpha != 0:
            g_merged += w.alpha * 2.0 * np.where(eval_mask, resid, 0.0) / n_eval

    target = _ml_cov(reference) if state.ref_cov is None else np.asarray(state.ref_cov)
    centered = merged - merged.mean(axis=0)
    d_cov = ordered_matmul(centered.T, centered) / n - target
    cov = float(np.linalg.norm(d_cov, "fro"))
    if w.beta != 0 and cov > 0:
        g_merged += w.beta * (2.0 / (n * cov)) * (centered @ d_cov)

    p = state.params
    l1 = float(sum(np.abs(m).sum() for m in (p.wq, p.wk, p.wv)))
    total = w.alpha * mse + w.beta * cov + w.gamma * l1
    parts = LossParts(total=total, mse=mse, cov=cov, l1=l1)
    return parts, np.where(state.replace_mask, g_merged, 0.0)


def grad_composite(
    state: LossState, g_y: np.ndarray, lse: np.ndarray, ax: np.ndarray
) -> GradientSet:
    """Gradient of the composite loss w.r.t. wq, wk and wv.

    ``g_y`` is the output gradient from ``composite_loss``; ``lse`` and
    ``ax`` are what ``attention_forward`` returned for ``state.x`` and
    ``state.params``.  ``attention_backward`` carries ``g_y`` to the
    parameters, and the L1 term adds gamma * sign(theta) (0 at 0).
    """
    p, gamma = state.params, state.weights.gamma
    backward = attention_backward(state.x, p, g_y, ax, lse)
    grads = GradientSet(*(g + gamma * np.sign(m) for g, m in zip(backward, (p.wq, p.wk, p.wv))))
    for name, g in zip(("wq", "wk", "wv"), grads):
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {name}")
    return grads


class AdamState(NamedTuple):
    """First and second moments, one array per parameter."""

    m: GradientSet
    v: GradientSet

    @classmethod
    def zeros(cls, params: AttentionParams) -> "AdamState":
        zeros = GradientSet(*(np.zeros_like(w) for w in (params.wq, params.wk, params.wv)))
        return cls(m=zeros, v=zeros)


def adam_step(
    params: AttentionParams,
    grads: GradientSet,
    state: AdamState,
    lr: float,
    t: int,
) -> tuple[AttentionParams, AdamState]:
    """One bias-corrected Adam update (step counter t starts at 1)."""
    if t < 1:
        raise InputError("Adam step counter t must be at least 1")
    theta = (params.wq, params.wk, params.wv)
    steps = [adam_update(*args, lr, t) for args in zip(theta, grads, state.m, state.v)]
    new, m, v = zip(*steps)
    return AttentionParams(*new), AdamState(m=GradientSet(*m), v=GradientSet(*v))


class TrainResult(NamedTuple):
    params: AttentionParams
    history: tuple[EpochRecord, ...]
    refined: Dataset


def _self_mask_matrix(ds: Dataset, rate: float, seed: int) -> np.ndarray:
    return plan_mcar((ds.n, ds.d), rate, seed, eligible=ds.mask)


def train(
    ds: Dataset,
    init: Dataset,
    truth: Dataset | None,
    cfg: TrainConfig = TrainConfig(),
    w: LossWeights = LossWeights(),
    stats: PairwiseStats | None = None,
) -> TrainResult:
    """Optimize attention parameters over refinement epochs (full batch).

    Benchmark mode scores imputations against supplied truth at the missing
    cells; self-supervised mode re-hides a seeded fraction of observed cells
    each epoch and scores recovery of their known values, with the pairwise
    moments of ``ds`` (``stats``, computed here when not given) as the
    covariance target and self-mask fill.  Each epoch's refined matrix feeds
    the next epoch.
    """
    if init.values.shape != ds.values.shape:
        raise InputError("init must match the dataset shape")
    provenance = ~np.asarray(ds.mask)
    if cfg.mode == MODE_BENCHMARK:
        if truth is None:
            raise InputError("benchmark mode requires truth")
        if truth.values.shape != ds.values.shape:
            raise InputError("truth must match the dataset shape")
        if truth.n_missing() != 0:
            raise InputError("benchmark truth must be complete")
        truth_values = np.asarray(truth.values, dtype=np.float64)
        # The covariance target is fixed; take it once, not twice per epoch.
        ref_cov = _ml_cov(truth_values)
    else:
        if truth is not None:
            raise InputError("self-supervised mode takes no truth")
        truth_values = None
        stats = pairwise_stats(ds) if stats is None else stats
        ref_cov, col_means = stats.cov, stats.mean

    params = init_params(ds.d, cfg.seed)
    adam = AdamState.zeros(params)
    x = init.values
    history: list[EpochRecord] = []

    for epoch in range(1, cfg.max_epochs + 1):
        if cfg.mode == MODE_SELF_SUPERVISED:
            epoch_seed = derive_seed(cfg.seed, epoch)
            self_mask = _self_mask_matrix(ds, cfg.self_mask_rate, epoch_seed)
            x_in = np.where(self_mask, col_means[None, :], x)
            eval_mask = self_mask
            reference = ds.values
            replace_mask = provenance | self_mask
        else:
            x_in = x
            eval_mask = provenance
            reference = truth_values
            replace_mask = provenance

        state = LossState(
            x=x_in,
            params=params,
            reference=reference,
            eval_mask=eval_mask,
            replace_mask=replace_mask,
            weights=w,
            ref_cov=ref_cov,
        )
        output, lse, ax = attention_forward(x_in, params)
        parts, g_y = composite_loss(state, output)
        for name, value in parts._asdict().items():
            if not np.isfinite(value):
                raise NumericalError(f"non-finite {name} loss at epoch {epoch}")
        history.append(EpochRecord(epoch, *parts))

        grads = grad_composite(state, g_y, lse, ax)
        params, adam = adam_step(params, grads, adam, cfg.lr, epoch)

        # Refined imputations (pre-update parameters) carry into next epoch.
        x = np.where(provenance, output, ds.values)

        if len(history) > CONVERGENCE_WINDOW:
            then = history[-1 - CONVERGENCE_WINDOW].total
            now = history[-1].total
            if abs(now - then) / max(abs(then), 1e-12) < cfg.rel_tol:
                break

    return TrainResult(params=params, history=tuple(history), refined=ds.with_values(x))


@dataclass(frozen=True)
class ImputeReport:
    provenance: np.ndarray
    n_imputed: int
    em_iterations: int
    em_loglik: float
    # Why EM stopped ("tolerance" or "max_iter"; None when nothing was fit)
    # and its observed-data log-likelihood at the start and per iteration.
    em_stop: str | None
    em_loglik_history: tuple[float, ...]
    history: tuple[EpochRecord, ...]
    warnings: tuple[str, ...]

    @property
    def epochs(self) -> int:
        return len(self.history)


def impute(
    ds: Dataset,
    spec: SemSpec | None = None,
    cfg: TrainConfig = TrainConfig(),
    w: LossWeights = LossWeights(),
    truth: Dataset | None = None,
    em: EmConfig = EmConfig(),
    moments: str = "implied",
) -> tuple[Dataset, ImputeReport]:
    """Full pipeline: encode, normalize, estimate, train, refine, restore.

    ``moments`` picks the conditional-imputation moments when a path model
    is supplied: its implied moments ("implied") or the saturated EM
    moments ("saturated").  The initial fill is the one the fit's E-step
    under those moments already made.  Observed cells come back
    bit-identical; imputed ordinal cells are snapped to valid levels.
    """
    if moments not in ("implied", "saturated"):
        raise InputError(f"moments must be 'implied' or 'saturated', got {moments!r}")
    provenance = ~np.asarray(ds.mask)
    if ds.n_missing() == 0:
        report = ImputeReport(
            provenance=provenance,
            n_imputed=0,
            em_iterations=0,
            em_loglik=float("nan"),
            em_stop=None,
            em_loglik_history=(),
            history=(),
            warnings=("dataset complete; nothing to impute",),
        )
        return ds, report

    encoded = encode_ordinal(ds)
    norm = normalize(encoded)

    # EM's start and the self-supervised covariance target.
    stats = pairwise_stats(norm)
    if spec is not None:
        fit = fit_paths_fiml(spec, norm, em, stats)
        res, em_ll, notes = fit.em, fit.loglik, fit.warnings
        filled = fit.filled if moments == "implied" else res.filled
    else:
        res = em_fit(norm, em, stats)
        em_ll, notes, filled = res.loglik, [], res.filled
    warnings = [*res.warnings, *notes]

    truth_norm = None
    if truth is not None:
        if truth.values.shape != ds.values.shape:
            raise InputError("truth must match the dataset shape")
        truth_enc = encode_ordinal(truth)
        truth_norm = apply_normalization(truth_enc, norm.normalization)

    result = train(norm, norm.with_values(filled), truth_norm, cfg, w, stats)

    final_output = attention_forward(result.refined.values, result.params)[0]
    final_norm = np.where(provenance, final_output, norm.values)
    final_ds = norm.with_values(final_norm)
    restored = denormalize(final_ds)

    # Round-trip sanity: observed cells must come back within 1e-9 before
    # they are overwritten with the exact inputs.
    obs = np.asarray(ds.mask)
    drift = np.abs(restored.values[obs] - encoded.values[obs])
    if drift.size and float(drift.max()) > 1e-9:
        raise NumericalError("normalization round-trip exceeded 1e-9 on observed cells")

    final_values = np.where(obs, ds.values, restored.values)
    out = Dataset(
        values=final_values,
        mask=np.ones_like(obs, dtype=bool),
        specs=ds.specs,
    )
    out = snap_ordinals(out, provenance)

    report = ImputeReport(
        provenance=provenance,
        n_imputed=int(provenance.sum()),
        em_iterations=res.iterations,
        em_loglik=em_ll,
        em_stop=res.stopped,
        em_loglik_history=res.history,
        history=result.history,
        warnings=tuple(warnings),
    )
    return out, report
