"""Path-model specification, implied moments and two-stage fitting.

Models are observed-variable regressions written one equation per line
("Y ~ X1 + X2"); fitting is two-stage: saturated moments by EM, then
per-equation generalized least squares on those moments.  The fit carries
the model's implied moments, made Cholesky-valid once, and the one E-step
under them: its log-likelihood and its conditional-mean fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, PairwiseStats
from .errors import NumericalError, ParseError, SpecError
from .fiml import EmConfig, EmResult, MvnParams, _estep, em_fit, missingness_plan
from .linalg import ensure_pd

PSI_FLOOR = 1e-12


class Equation(NamedTuple):
    outcome: str
    predictors: tuple[str, ...]


@dataclass(frozen=True)
class SemSpec:
    """A set of regression equations over named variables."""

    equations: tuple[Equation, ...]
    variables: tuple[str, ...]

    def __post_init__(self):
        seen_outcomes = set()
        known = set(self.variables)
        if len(known) != len(self.variables):
            raise SpecError("duplicate variable names")
        for eq in self.equations:
            if eq.outcome in seen_outcomes:
                raise SpecError(f"outcome {eq.outcome!r} declared twice")
            seen_outcomes.add(eq.outcome)
            if eq.outcome in eq.predictors:
                raise SpecError(f"self-loop on {eq.outcome!r}")
            if eq.outcome not in known:
                raise SpecError(f"outcome {eq.outcome!r} not among variables")
            for p in eq.predictors:
                if p not in known:
                    raise SpecError(f"predictor {p!r} not among variables")
            if len(set(eq.predictors)) != len(eq.predictors):
                raise SpecError(f"duplicate predictor in equation for {eq.outcome!r}")


def parse_spec(text: str) -> SemSpec:
    """Parse "Y ~ X1 + X2" lines; '#' starts a comment; blank lines skipped."""
    equations: list[Equation] = []
    variables: list[str] = []

    def note(name: str):
        if name not in variables:
            variables.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.count("~") != 1:
            raise ParseError("expected exactly one '~' per equation", line=lineno)
        lhs, rhs = (side.strip() for side in line.split("~", 1))
        if not lhs or " " in lhs:
            raise ParseError(f"bad outcome {lhs!r}", line=lineno)
        predictors = tuple(p.strip() for p in rhs.split("+"))
        if not rhs or any(not p or " " in p for p in predictors):
            raise ParseError(f"bad predictor list {rhs!r}", line=lineno)
        note(lhs)
        for p in predictors:
            note(p)
        equations.append(Equation(lhs, predictors))
    return SemSpec(equations=tuple(equations), variables=tuple(variables))


def load_spec(path) -> SemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


@dataclass(frozen=True)
class PathModel:
    """Linear path model over observed variables.

    B[i, j] is the coefficient of variable j in the equation for variable i;
    endogenous rows carry residual variances in psi; exogenous variables
    covary freely through phi.  Intercepts double as exogenous means.
    """

    variables: tuple[str, ...]
    B: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    intercepts: np.ndarray
    endogenous: tuple[str, ...]

    def __post_init__(self):
        B = np.asarray(self.B, dtype=np.float64)
        if abs(np.linalg.det(np.eye(B.shape[0]) - B)) < 1e-12:
            raise SpecError("(I - B) is singular; paths form a dependent cycle")
        for name in ("B", "psi", "phi", "intercepts"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return len(self.variables)


def implied_moments(pm: PathModel) -> tuple[np.ndarray, np.ndarray]:
    """Model-implied (mu, sigma): sigma = A S A^T, mu = A c, A = (I - B)^{-1}."""
    d = pm.d
    endo = set(pm.endogenous)
    exo_idx = np.array([i for i, v in enumerate(pm.variables) if v not in endo], dtype=int)
    endo_idx = np.array([i for i, v in enumerate(pm.variables) if v in endo], dtype=int)

    s = np.zeros((d, d))
    if exo_idx.size:
        s[np.ix_(exo_idx, exo_idx)] = pm.phi
    if endo_idx.size:
        s[endo_idx, endo_idx] = pm.psi[endo_idx]

    eye_minus_b = np.eye(d) - pm.B
    try:
        a = np.linalg.inv(eye_minus_b)
    except np.linalg.LinAlgError:
        raise NumericalError("(I - B) is singular") from None
    sigma = a @ s @ a.T
    sigma = 0.5 * (sigma + sigma.T)
    mu = a @ pm.intercepts
    return mu, sigma


def nearest_pd(sigma: np.ndarray) -> np.ndarray:
    """An implied covariance made Cholesky-valid."""
    return ensure_pd(sigma, 1e-10)


class SemFit(NamedTuple):
    model: PathModel
    # The saturated EM fit the equations were solved on.
    em: EmResult
    # The model-implied moments, repaired by ``nearest_pd``.
    implied: MvnParams
    # Observed-data log-likelihood under ``implied``.
    loglik: float
    # The data with every missing cell set to E[x_m | x_o] under ``implied``.
    filled: np.ndarray
    # Notes from the equations; EM's own are in ``em.warnings``.
    warnings: list[str]


def fit_paths_fiml(
    spec: SemSpec, ds: Dataset, cfg: EmConfig = EmConfig(), start: PairwiseStats | None = None
) -> SemFit:
    """Two-stage fit: saturated EM moments, then per-equation GLS on them.

    EM starts from ``start`` when given, else from the pairwise-complete
    moments of ``ds``.  Coefficients solve Sigma_pp b = sigma_po for each
    equation; residual variance is the Schur complement.  One E-step under
    the model-implied moments, on EM's missingness plan, gives the
    observed-data log-likelihood and the fill.
    """
    names = ds.names
    known = set(names)
    for v in spec.variables:
        if v not in known:
            raise SpecError(f"model variable {v!r} not present in the data")

    plan = missingness_plan(ds.mask)
    res = em_fit(ds, cfg, start, plan)
    warnings: list[str] = []
    mu, sigma = res.params.mu, res.params.sigma
    d = ds.d
    index = {name: j for j, name in enumerate(names)}

    b = np.zeros((d, d))
    psi = np.diag(sigma).copy()
    intercepts = mu.copy()
    for eq in spec.equations:
        o = index[eq.outcome]
        if not eq.predictors:
            continue
        p = np.array([index[x] for x in eq.predictors], dtype=int)
        spp = sigma[np.ix_(p, p)]
        spo = sigma[p, o]
        try:
            coef = np.linalg.solve(spp, spo)
        except np.linalg.LinAlgError:
            warnings.append(f"ridge solve for equation {eq.outcome!r}")
            coef = np.linalg.solve(spp + 1e-8 * np.eye(p.size), spo)
        b[o, p] = coef
        resid = float(sigma[o, o] - spo @ coef)
        if resid < PSI_FLOOR:
            warnings.append(f"residual variance floored for {eq.outcome!r}")
            resid = PSI_FLOOR
        psi[o] = resid
        intercepts[o] = mu[o] - float(coef @ mu[p])

    endo = tuple(eq.outcome for eq in spec.equations)
    exo_idx = np.array([j for j, v in enumerate(names) if v not in set(endo)], dtype=int)
    phi = sigma[np.ix_(exo_idx, exo_idx)] if exo_idx.size else np.zeros((0, 0))
    model = PathModel(
        variables=names,
        B=b,
        psi=psi,
        phi=phi,
        intercepts=intercepts,
        endogenous=endo,
    )
    mu_i, sigma_i = implied_moments(model)
    implied = MvnParams(mu_i, nearest_pd(sigma_i))
    step = _estep(implied.mu, implied.sigma, ds, plan)
    return SemFit(model, res, implied, step.loglik, step.filled, warnings)

