"""Multivariate-normal estimation under missing data.

EM maximizes the observed-data (marginalized) log-likelihood; conditional
expectation under the fitted parameters provides the initial imputation that
attention training later refines.  EM's last E-step runs under the returned
parameters, so its fill (``EmResult.filled``) is that imputation.

One E-step (``_estep``) serves EM, the log-likelihood and the conditional
fill.  It groups the rows by their number of observed cells, so there are at
most d + 1 groups however many missingness patterns the table has, and works
through each group in blocks of ``linalg.INNER_CHUNK`` rows.  Per block, one
batched Cholesky factor of the rows' observed covariance blocks, and forward
substitution against it (``linalg.forward_substitute``), give the
log-likelihood, the conditional means of the missing cells and their
conditional covariance (Little & Rubin, *Statistical Analysis with Missing
Data*, 3rd ed., ch. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, pairwise_stats
from .errors import InputError, NumericalError
from .linalg import INNER_CHUNK, ensure_pd, forward_substitute, ordered_matmul, ridged_cholesky

LOG_2PI = float(np.log(2.0 * np.pi))

# Log-likelihood is asserted monotone up to this slack (floating-point noise
# in the batched per-count solves).
MONOTONE_SLACK = 1e-8

# Diagonal ridge for a covariance, or an observed block of one, that
# Cholesky rejects.
RIDGE = 1e-6


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


def _estep(mu: np.ndarray, sigma: np.ndarray, ds: Dataset) -> EStep:
    """Log-likelihood, conditional-mean fill and covariance correction.

    Rows are grouped by their number k of observed cells.  Complete rows
    share one factor of sigma; fully-missing rows take mu and contribute
    sigma to the correction and 0 to the log-likelihood.  The other groups go
    through ``_estep_block`` in blocks of ``INNER_CHUNK`` rows.
    """
    d = ds.d
    counts = np.asarray(ds.mask).sum(axis=1)
    by_count = np.argsort(counts, kind="stable")
    bounds = np.searchsorted(counts[by_count], np.arange(d + 2))
    filled = ds.values.copy()
    correction = np.zeros(d * d)
    warnings: list[str] = []
    total = 0.0
    for k in range(d + 1):
        rows = by_count[bounds[k] : bounds[k + 1]]
        if rows.size == 0:
            continue
        if k == 0:
            warnings.append(f"{rows.size} fully-missing row(s) contribute 0")
            filled[rows] = mu
            correction += rows.size * sigma.ravel()
        elif k == d:
            _, chol = ridged_cholesky(sigma, RIDGE, warnings, "pattern submatrix for factorization")
            logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
            z = forward_substitute(chol, (ds.values[rows] - mu).T)
            quad = np.sum(z * z, axis=0)
            total += float(np.sum(-0.5 * (d * LOG_2PI + logdet + quad)))
        else:
            for start in range(0, rows.size, INNER_CHUNK):
                block = rows[start : start + INNER_CHUNK]
                total += _estep_block(block, k, mu, sigma, ds, filled, correction, warnings)
    return EStep(total, filled, correction.reshape(d, d), warnings)


def _estep_block(rows, k, mu, sigma, ds, filled, correction, warnings) -> float:
    """E-step of rows that each have k observed cells; returns their log-likelihood.

    With L the Cholesky factor of sigma_oo, one batched forward substitution
    against L of [x_o - mu_o | sigma_om] gives z and W: the quadratic form is
    |z|^2, E[x_m | x_o] = mu_m + W'z and Cov(x_m | x_o) = sigma_mm - W'W.
    """
    d = mu.size
    # Observed columns first, then missing ones, each in column order.
    cols = np.argsort(~np.asarray(ds.mask)[rows], axis=1, kind="stable")
    o, m = cols[:, :k], cols[:, k:]
    resid = ds.values[rows[:, None], o] - mu[o]
    rhs = np.concatenate((resid[:, :, None], sigma[o[:, :, None], m[:, None, :]]), axis=2)
    sigma_oo = sigma[o[:, :, None], o[:, None, :]]
    _, chol = ridged_cholesky(sigma_oo, RIDGE, warnings, "pattern submatrix for factorization")
    solved = forward_substitute(chol, rhs)
    z, w = solved[:, :, 0], solved[:, :, 1:]
    w_t = w.transpose(0, 2, 1)
    filled[rows[:, None], m] = mu[m] + (w_t @ z[:, :, None])[:, :, 0]
    cond_cov = sigma[m[:, :, None], m[:, None, :]] - w_t @ w
    flat = m[:, :, None] * d + m[:, None, :]
    correction += np.bincount(flat.ravel(), weights=cond_cov.ravel(), minlength=d * d)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    quad = np.sum(z * z, axis=1)
    return float(np.sum(-0.5 * (k * LOG_2PI + logdet + quad)))


def em_fit(ds: Dataset, cfg: EmConfig = EmConfig(), init: MvnParams | None = None) -> EmResult:
    """EM for (mu, sigma) of a multivariate normal with ignorable missingness.

    Each E-step (``_estep``) gives the observed-data log-likelihood of the
    current parameters together with the conditional-mean fill and the
    summed conditional covariance of the missing cells; the M-step is the
    ML update with denominator n.  So one E-step per iteration serves both
    the stopping test and the next M-step.  Initialization comes from
    pairwise-complete moments unless ``init`` is given.  The log-likelihood
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
        start = pairwise_stats(ds)
        warnings.extend(start.warnings)
        mu = start.mean.copy()
        sigma = ensure_pd(0.5 * (start.cov + start.cov.T), RIDGE, warnings)
    else:
        mu = init.mu.copy()
        sigma = ensure_pd(init.sigma.copy(), RIDGE, warnings)

    step = _estep(mu, sigma, ds)
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
        step = _estep(mu, sigma, ds)
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
