"""Multivariate-normal estimation under missing data.

EM maximizes the observed-data (marginalized) log-likelihood; conditional
expectation under the fitted parameters provides the initial imputation that
attention training later refines.  EM's last E-step runs under the returned
parameters, so its fill (``EmResult.filled``) is that imputation.

One E-step (``_estep``) serves EM, the log-likelihood and the conditional
fill.  Its index work depends on the mask alone, so it is done once per fit
(``missingness_plan``): the rows grouped by their number k of observed cells,
at most d + 1 groups however many missingness patterns the table has, in
blocks of ``linalg.INNER_CHUNK`` rows, each with its columns ordered observed
first.  Each E-step works through the plan's blocks in one of two forms
(Little & Rubin, *Statistical Analysis with Missing Data*, 3rd ed., ch. 11;
Schafer, *Analysis of Incomplete Multivariate Data*, 1997, ch. 5):

- precision form, for groups with fewer missing cells than observed ones:
  sigma is factored once per E-step into Lambda = sigma^-1 and log det
  sigma; per block, t = (x - mu) Lambda (x - mu taken as 0 at the missing
  cells), and each row factors only the m x m missing block of Lambda;
- covariance form, for the other groups, and for every group once sigma's
  condition estimate passes ``PRECISION_COND_LIMIT`` (or a block whose
  missing block of Lambda Cholesky rejects): each row factors its k x k
  observed block of sigma.

Both give the log-likelihood, the conditional means of the missing cells and
their conditional covariance.  The batched solves are forward substitutions
(``linalg.forward_substitute``) and the products with Lambda go through
``linalg.ordered_matmul``, so the bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, PairwiseStats, pairwise_stats
from .errors import InputError, NumericalError
from .linalg import INNER_CHUNK, ensure_pd, forward_substitute, ordered_matmul, ridged_cholesky

LOG_2PI = float(np.log(2.0 * np.pi))

# Log-likelihood is asserted monotone up to this slack (floating-point noise
# in the batched per-count solves).
MONOTONE_SLACK = 1e-8

# Diagonal ridge for a covariance, or an observed block of one, that
# Cholesky rejects.
RIDGE = 1e-6

# The precision form is taken only while (max L_ii / min L_ii)^2, with L the
# Cholesky factor of sigma, is at most this.  That ratio is a lower bound on
# cond(sigma).
PRECISION_COND_LIMIT = 1e8


@dataclass(frozen=True)
class MvnParams:
    """Mean vector and symmetric positive-definite covariance."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if mu.ndim != 1 or sigma.shape != (mu.size, mu.size):
            raise InputError("mu must be a d-vector and sigma d x d")
        if not np.allclose(sigma, sigma.T, atol=1e-10):
            raise InputError("sigma must be symmetric within 1e-10")
        object.__setattr__(self, "mu", mu.copy())
        object.__setattr__(self, "sigma", 0.5 * (sigma + sigma.T))
        self.mu.setflags(write=False)
        self.sigma.setflags(write=False)

    @property
    def d(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class EmConfig:
    max_iter: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 1:
            raise InputError("max_iter must be at least 1")
        if self.tol <= 0:
            raise InputError("tol must be positive")


class EmResult(NamedTuple):
    params: MvnParams
    iterations: int
    loglik: float
    warnings: list[str]
    # "tolerance" or "max_iter": why the iterations stopped.
    stopped: str
    # Observed-data log-likelihood at the start and after each iteration.
    history: tuple[float, ...]
    # The last E-step's fill, run under ``params``: missing cells are E[x_m | x_o].
    filled: np.ndarray


class EStep(NamedTuple):
    """One E-step under (mu, sigma)."""

    loglik: float
    # The data with every missing cell set to E[x_m | x_o].
    filled: np.ndarray
    # Sum over rows of Cov(x_m | x_o), each scattered into its d x d place.
    correction: np.ndarray
    warnings: list[str]


def loglik_observed(params: MvnParams, ds: Dataset) -> float:
    value, _ = _loglik_observed(params, ds)
    return value


def _loglik_observed(params: MvnParams, ds: Dataset):
    """Sum of log N(x_obs; mu_obs, sigma_obs,obs) over rows, with its warnings."""
    step = _estep(params.mu, params.sigma, ds)
    return step.loglik, step.warnings


class _Block(NamedTuple):
    """Up to ``INNER_CHUNK`` rows that each have the same number k of observed cells."""

    rows: np.ndarray
    # (rows, d): each row's observed columns first, then its missing ones,
    # each in column order.
    cols: np.ndarray

    def cells(self, d: int) -> np.ndarray:
        """Flat indices of ``cols`` in the n x d table: the first k gather
        the observed values and the rest scatter the fill."""
        return self.rows[:, None] * d + self.cols


class MissingnessPlan(NamedTuple):
    """The E-step's index work, which depends on the mask alone."""

    # (k, blocks) for each observed-cell count k that some row has, ascending.
    groups: tuple[tuple[int, tuple[_Block, ...]], ...]


def missingness_plan(mask: np.ndarray) -> MissingnessPlan:
    """Group the rows by their number k of observed cells, in blocks of ``INNER_CHUNK`` rows.

    There are at most d + 1 groups however many missingness patterns the
    table has.  One plan serves every E-step on tables with this mask.
    """
    mask = np.asarray(mask, dtype=bool)
    d = mask.shape[1]
    counts = mask.sum(axis=1)
    by_count = np.argsort(counts, kind="stable")
    bounds = np.searchsorted(counts[by_count], np.arange(d + 2))
    groups = []
    for k in range(d + 1):
        rows = by_count[bounds[k] : bounds[k + 1]]
        if rows.size == 0:
            continue
        cols = np.argsort(~mask[rows], axis=1, kind="stable")
        spans = range(0, rows.size, INNER_CHUNK)
        groups.append((k, tuple(_Block(rows[s : s + INNER_CHUNK], cols[s : s + INNER_CHUNK]) for s in spans)))
    return MissingnessPlan(tuple(groups))


def _precision(sigma: np.ndarray):
    """(log det sigma, Lambda = sigma^-1), or None when Cholesky rejects sigma
    or its condition estimate passes ``PRECISION_COND_LIMIT``."""
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(chol)
    if (diag.max() / diag.min()) ** 2 > PRECISION_COND_LIMIT:
        return None
    inv_chol = forward_substitute(chol, np.eye(sigma.shape[0]))
    return 2.0 * float(np.sum(np.log(diag))), ordered_matmul(inv_chol.T, inv_chol)


def _estep(mu: np.ndarray, sigma: np.ndarray, ds: Dataset, plan: MissingnessPlan | None = None) -> EStep:
    """Log-likelihood, conditional-mean fill and covariance correction.

    Works through ``plan`` (made from ``ds.mask`` when not given) one block
    at a time.  Fully-missing rows take mu and contribute sigma to the
    correction and 0 to the log-likelihood.  A group whose m missing cells
    are fewer than its k observed ones goes through ``_precision_block``,
    which factors the m x m missing block of Lambda = sigma^-1; every other
    group, every group when ``_precision`` declines sigma, and every block
    whose missing block of Lambda Cholesky rejects, goes through
    ``_estep_block``, which factors the k x k observed block of sigma.
    Lambda is formed only when some group has m < k.
    """
    d = ds.d
    plan = missingness_plan(ds.mask) if plan is None else plan
    precision = _precision(sigma) if any(2 * k > d for k, _ in plan.groups) else None
    filled = ds.values.copy()
    correction = np.zeros(d * d)
    warnings: list[str] = []
    total = 0.0
    for k, blocks in plan.groups:
        if k == 0:
            rows = np.concatenate([block.rows for block in blocks])
            warnings.append(f"{rows.size} fully-missing row(s) contribute 0")
            filled[rows] = mu
            correction += rows.size * sigma.ravel()
            continue
        for block in blocks:
            ll = None
            if precision is not None and 2 * k > d:
                ll = _precision_block(block, k, mu, precision, ds, filled, correction)
            if ll is None:
                ll = _estep_block(block, k, mu, sigma, ds, filled, correction, warnings)
            total += ll
    return EStep(total, filled, correction.reshape(d, d), warnings)


def _precision_block(block: _Block, k: int, mu, precision, ds, filled, correction) -> float | None:
    """E-step of rows that each have k observed cells; returns their
    log-likelihood, or None, having written nothing, when Cholesky rejects a
    missing block of Lambda.

    With r = x - mu (0 at the missing cells), t = r Lambda and L the
    Cholesky factor of Lambda_mm, one batched forward substitution against
    L of [t_m | I] gives z = L^-1 t_m and W = L^-1: E[x_m | x_o] = mu_m -
    W'z, Cov(x_m | x_o) = W'W = Lambda_mm^-1, the quadratic form is r.t -
    |z|^2 and log det sigma_oo = log det sigma + log det Lambda_mm.
    """
    logdet, lam = precision
    d = mu.size
    m = block.cols[:, k:]
    flat = m[:, :, None] * d + m[:, None, :]
    try:
        chol = np.linalg.cholesky(lam.ravel()[flat])
    except np.linalg.LinAlgError:
        return None
    r = np.where(ds.mask[block.rows], ds.values[block.rows] - mu, 0.0)
    t = ordered_matmul(r, lam)
    t_m = np.take_along_axis(t, m, axis=1)
    eye = np.broadcast_to(np.eye(d - k), chol.shape)
    solved = forward_substitute(chol, np.concatenate((t_m[:, :, None], eye), axis=2))
    z, w = solved[:, :, 0], solved[:, :, 1:]
    w_t = w.transpose(0, 2, 1)
    filled.reshape(-1)[block.cells(d)[:, k:]] = mu[m] - (w_t @ z[:, :, None])[:, :, 0]
    correction += np.bincount(flat.ravel(), weights=(w_t @ w).ravel(), minlength=d * d)
    logdet_mm = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    quad = np.einsum("ij,ij->i", r, t) - np.sum(z * z, axis=1)
    return float(np.sum(-0.5 * (k * LOG_2PI + logdet + logdet_mm + quad)))


def _estep_block(block: _Block, k: int, mu, sigma, ds, filled, correction, warnings) -> float:
    """E-step of rows that each have k observed cells; returns their log-likelihood.

    With L the Cholesky factor of sigma_oo, one batched forward substitution
    against L of [x_o - mu_o | sigma_om] gives z and W: the quadratic form is
    |z|^2, E[x_m | x_o] = mu_m + W'z and Cov(x_m | x_o) = sigma_mm - W'W.
    """
    d = mu.size
    o, m = block.cols[:, :k], block.cols[:, k:]
    cells = block.cells(d)
    resid = ds.values.ravel()[cells[:, :k]] - mu[o]
    rhs = np.concatenate((resid[:, :, None], sigma[o[:, :, None], m[:, None, :]]), axis=2)
    sigma_oo = sigma[o[:, :, None], o[:, None, :]]
    _, chol = ridged_cholesky(sigma_oo, RIDGE, warnings, "pattern submatrix for factorization")
    solved = forward_substitute(chol, rhs)
    z, w = solved[:, :, 0], solved[:, :, 1:]
    w_t = w.transpose(0, 2, 1)
    filled.reshape(-1)[cells[:, k:]] = mu[m] + (w_t @ z[:, :, None])[:, :, 0]
    cond_cov = sigma[m[:, :, None], m[:, None, :]] - w_t @ w
    flat = m[:, :, None] * d + m[:, None, :]
    correction += np.bincount(flat.ravel(), weights=cond_cov.ravel(), minlength=d * d)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    quad = np.sum(z * z, axis=1)
    return float(np.sum(-0.5 * (k * LOG_2PI + logdet + quad)))


def em_fit(
    ds: Dataset,
    cfg: EmConfig = EmConfig(),
    init: MvnParams | PairwiseStats | None = None,
    plan: MissingnessPlan | None = None,
) -> EmResult:
    """EM for (mu, sigma) of a multivariate normal with ignorable missingness.

    Each E-step (``_estep``) gives the observed-data log-likelihood of the
    current parameters together with the conditional-mean fill and the
    summed conditional covariance of the missing cells; the M-step is the
    ML update with denominator n.  So one E-step per iteration serves both
    the stopping test and the next M-step.  Initialization comes from
    pairwise-complete moments (``init`` when it is a ``PairwiseStats``,
    computed here when ``init`` is None) unless ``init`` gives the
    parameters.  Every E-step reuses ``plan``, built from the mask when not
    given.  The log-likelihood
    is checked to be non-decreasing across iterations; ``history`` records
    it at the start and after each iteration, and ``stopped`` says whether
    the relative change fell below ``cfg.tol`` or ``cfg.max_iter`` ran out.
    """
    n = ds.n
    for j, spec in enumerate(ds.specs):
        if int(ds.mask[:, j].sum()) < 2:
            raise InputError(f"column {spec.name!r} needs at least 2 observed cells")

    warnings: list[str] = []
    if init is None:
        init = pairwise_stats(ds)
    if isinstance(init, PairwiseStats):
        warnings.extend(init.warnings)
        mu = init.mean.copy()
        sigma = ensure_pd(0.5 * (init.cov + init.cov.T), RIDGE, warnings)
    else:
        mu = init.mu.copy()
        sigma = ensure_pd(init.sigma.copy(), RIDGE, warnings)

    plan = missingness_plan(ds.mask) if plan is None else plan
    step = _estep(mu, sigma, ds, plan)
    warnings.extend(step.warnings)
    history = [step.loglik]
    stopped = "max_iter"
    iterations = 0
    for iteration in range(1, cfg.max_iter + 1):
        iterations = iteration
        mu, sigma = _mstep(step, n, warnings)
        prev_ll = step.loglik
        # Free the last fill before the next E-step allocates its own.
        del step
        step = _estep(mu, sigma, ds, plan)
        # Later E-steps repeat the first one's messages; keep only new ones.
        warnings.extend(w for w in dict.fromkeys(step.warnings) if w not in warnings)
        ll = step.loglik
        history.append(ll)
        if ll < prev_ll - MONOTONE_SLACK:
            raise NumericalError(f"log-likelihood decreased ({prev_ll!r} -> {ll!r})")
        if abs(ll - prev_ll) / max(abs(prev_ll), 1.0) < cfg.tol:
            stopped = "tolerance"
            break

    return EmResult(
        params=MvnParams(mu, sigma),
        iterations=iterations,
        loglik=float(history[-1]),
        warnings=warnings,
        stopped=stopped,
        history=tuple(history),
        filled=step.filled,
    )


def _mstep(step: EStep, n: int, warnings: list[str]):
    """ML mean and covariance (denominator n) of the filled data plus the correction."""
    mu = step.filled.mean(axis=0)
    centered = step.filled - mu
    sigma = (ordered_matmul(centered.T, centered) + step.correction) / n
    return mu, ensure_pd(0.5 * (sigma + sigma.T), RIDGE, warnings)


def conditional_impute(params: MvnParams, ds: Dataset) -> tuple[Dataset, np.ndarray]:
    """Fill missing cells with conditional means under ``params``.

    Returns the imputed dataset (mask unchanged) and a boolean provenance
    matrix flagging exactly the filled cells.  Observed cells pass through
    bit-identical; fully-missing rows get the unconditional mean.
    """
    step = _estep(params.mu, params.sigma, ds)
    return ds.with_values(step.filled), ~np.asarray(ds.mask)
