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

from .dataset import Dataset
from .errors import NumericalError, ParseError, SpecError
from .fiml import EmConfig, EmResult, MvnParams, _estep, em_fit
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
        d = len(self.variables)
        B = np.asarray(self.B, dtype=np.float64)
        psi = np.asarray(self.psi, dtype=np.float64)
        phi = np.asarray(self.phi, dtype=np.float64)
        intercepts = np.asarray(self.intercepts, dtype=np.float64)
        if B.shape != (d, d) or psi.shape != (d,) or intercepts.shape != (d,):
            raise SpecError("B must be d x d; psi and intercepts d-vectors")
        if np.any(np.diag(B) != 0.0):
            raise SpecError("B must have a zero diagonal")
        if np.any(psi <= 0.0):
            raise SpecError("residual variances must be strictly positive")
        n_exo = d - len(self.endogenous)
        if phi.shape != (n_exo, n_exo):
            raise SpecError("phi must cover exactly the exogenous variables")
        if n_exo and not np.allclose(phi, phi.T, atol=1e-10):
            raise SpecError("phi must be symmetric")
        if n_exo and np.linalg.eigvalsh(0.5 * (phi + phi.T)).min() < -1e-8:
            raise SpecError("phi must be positive semi-definite")
        eye_minus_b = np.eye(d) - B
        if abs(np.linalg.det(eye_minus_b)) < 1e-12:
            raise SpecError("(I - B) is singular; paths form a dependent cycle")
        for name in self.endogenous:
            if name not in self.variables:
                raise SpecError(f"endogenous name {name!r} not among variables")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", 0.5 * (phi + phi.T) if n_exo else phi)
        object.__setattr__(self, "intercepts", intercepts)
        for arr in (self.B, self.psi, self.phi, self.intercepts):
            arr.setflags(write=False)

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


def fit_paths_fiml(spec: SemSpec, ds: Dataset, cfg: EmConfig = EmConfig()) -> SemFit:
    """Two-stage fit: saturated EM moments, then per-equation GLS on them.

    Coefficients solve Sigma_pp b = sigma_po for each equation; residual
    variance is the Schur complement.  One E-step under the model-implied
    moments gives the observed-data log-likelihood and the fill.
    """
    names = ds.names
    known = set(names)
    for v in spec.variables:
        if v not in known:
            raise SpecError(f"model variable {v!r} not present in the data")

    res = em_fit(ds, cfg)
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
    step = _estep(implied.mu, implied.sigma, ds)
    return SemFit(model, res, implied, step.loglik, step.filled, warnings)

