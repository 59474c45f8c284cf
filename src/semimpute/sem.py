"""Path-model specification, implied moments, two-stage fitting, fit indices.

Models are observed-variable regressions written one equation per line
("Y ~ X1 + X2"); fitting is two-stage: saturated moments by EM, then
per-equation generalized least squares on those moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import Dataset
from .errors import NumericalError, ParseError, SpecError
from .fiml import EmConfig, MvnParams, em_fit, loglik_observed
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

    @property
    def outcomes(self) -> tuple[str, ...]:
        return tuple(eq.outcome for eq in self.equations)


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

    @property
    def exogenous(self) -> tuple[str, ...]:
        endo = set(self.endogenous)
        return tuple(v for v in self.variables if v not in endo)


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


class SemFit(NamedTuple):
    model: PathModel
    params: MvnParams
    loglik: float
    warnings: list[str]
    em_iterations: int
    em_stop: str
    em_loglik_history: tuple[float, ...]


def fit_paths_fiml(spec: SemSpec, ds: Dataset, cfg: EmConfig = EmConfig()) -> SemFit:
    """Two-stage fit: saturated EM moments, then per-equation GLS on them.

    Coefficients solve Sigma_pp b = sigma_po for each equation; residual
    variance is the Schur complement.  The returned log-likelihood is the
    observed-data log-likelihood of the model-implied moments.
    """
    names = ds.names
    known = set(names)
    for v in spec.variables:
        if v not in known:
            raise SpecError(f"model variable {v!r} not present in the data")

    res = em_fit(ds, cfg)
    warnings = list(res.warnings)
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
    ll = loglik_observed(MvnParams(mu_i, ensure_pd(sigma_i, 1e-10)), ds)
    return SemFit(
        model=model,
        params=res.params,
        loglik=float(ll),
        warnings=warnings,
        em_iterations=res.iterations,
        em_stop=res.stopped,
        em_loglik_history=res.history,
    )


def fit_baseline(ds: Dataset) -> tuple[MvnParams, float]:
    """Independence model: per-column observed-cell ML mean and variance.

    With a diagonal covariance the observed-data likelihood factorizes per
    column, so the column-wise MLE is exact; no iteration needed.
    """
    d = ds.d
    mu = np.zeros(d)
    var = np.zeros(d)
    for j, spec in enumerate(ds.specs):
        colmask = ds.mask[:, j]
        if int(colmask.sum()) < 2:
            raise SpecError(f"column {spec.name!r} needs at least 2 observed cells")
        col = ds.values[colmask, j]
        mu[j] = col.mean()
        var[j] = max(float(np.mean((col - mu[j]) ** 2)), PSI_FLOOR)
    params = MvnParams(mu, np.diag(var))
    return params, loglik_observed(params, ds)


class FitIndices(NamedTuple):
    cfi: float
    rmsea: float


def model_df(spec: SemSpec, variables: Sequence[str]) -> int:
    """Degrees of freedom: saturated moment count minus free parameters."""
    d = len(variables)
    n_endo = len(spec.equations)
    n_exo = d - n_endo
    n_coef = sum(len(eq.predictors) for eq in spec.equations)
    free = d + n_coef + n_endo + n_exo * (n_exo + 1) // 2
    return d + d * (d + 1) // 2 - free


def baseline_df(d: int) -> int:
    return d * (d + 1) // 2 - d


def fit_indices(
    loglik_model: float,
    loglik_saturated: float,
    loglik_baseline: float,
    df_model: int,
    df_baseline: int,
    n: int,
) -> FitIndices:
    """CFI and RMSEA from likelihood-ratio chi-squares.

    CFI keeps its numerator unclamped so a model beating its degrees of
    freedom reports CFI > 1; the denominator is floored at the numerator and
    0 so the ratio stays defined.
    """
    if n <= 0:
        raise SpecError("n must be positive")
    if df_model < 0 or df_baseline < 0:
        raise SpecError("degrees of freedom must be non-negative")
    chi_m = max(2.0 * (loglik_saturated - loglik_model), 0.0)
    chi_b = max(2.0 * (loglik_saturated - loglik_baseline), 0.0)

    if df_model == 0:
        return FitIndices(cfi=1.0, rmsea=0.0)

    num = chi_m - df_model
    denom = max(chi_b - df_baseline, num, 0.0)
    cfi = 1.0 if denom == 0.0 else 1.0 - num / denom
    rmsea = float(np.sqrt(max(num, 0.0) / (df_model * n)))
    return FitIndices(cfi=float(cfi), rmsea=rmsea)
