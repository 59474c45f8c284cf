"""Continuous DAG learning to guide path-model selection.

Minimizes a least-squares score with an L1 penalty subject to the smooth
acyclicity constraint h(W) = tr(e^{W o W}) - d = 0, via an augmented
Lagrangian whose inner problems are solved by Adam plus soft-thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InputError, NumericalError, SpecError
from .linalg import adam_update, ordered_matmul
from .sem import Equation, SemSpec

# Acyclicity tolerance used when verifying an already-thresholded graph.
DAG_TOL = 1e-12

# Largest quadratic penalty weight the augmented Lagrangian escalates to.
RHO_MAX = 1e16


@dataclass(frozen=True)
class WeightedGraph:
    """Weighted directed graph; w[i, j] is the strength of edge i -> j."""

    w: np.ndarray
    names: tuple[str, ...]
    converged: bool = True

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        d = len(self.names)
        if w.shape != (d, d):
            raise InputError("weight matrix must be d x d for d names")
        if np.any(np.diag(w) != 0.0):
            raise InputError("weight matrix must have a zero diagonal")
        object.__setattr__(self, "w", w.copy())
        self.w.setflags(write=False)
        object.__setattr__(self, "names", tuple(self.names))

    def edges(self) -> list[tuple[str, str, float]]:
        out = []
        for i in range(len(self.names)):
            for j in range(len(self.names)):
                if self.w[i, j] != 0.0:
                    out.append((self.names[i], self.names[j], float(self.w[i, j])))
        return out


@dataclass(frozen=True)
class NotearsConfig:
    lambda1: float = 0.1
    h_tol: float = 1e-8
    inner_lr: float = 1e-2
    inner_steps: int = 500

    def __post_init__(self):
        if self.lambda1 < 0:
            raise InputError("lambda1 must be non-negative")
        for name in ("h_tol", "inner_lr"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        if self.inner_steps < 1:
            raise InputError("inner_steps must be at least 1")


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series.

    The scaled series is summed until terms vanish at machine precision.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("matrix_exp needs a square matrix")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix_exp needs finite entries")
    d = m.shape[0]
    norm = float(np.abs(m).sum(axis=0).max())
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
    a = m / (2.0**s)

    result = np.eye(d)
    term = np.eye(d)
    for k in range(1, 200):
        term = term @ a / k
        result = result + term
        if float(np.abs(term).max()) <= 1e-18 * max(1.0, float(np.abs(result).max())):
            break
    for _ in range(s):
        result = result @ result
    return result


def acyclicity_h(w: np.ndarray) -> tuple[float, np.ndarray]:
    """NOTEARS constraint h(W) = tr(e^{W o W}) - d and its gradient."""
    w = np.asarray(w, dtype=np.float64)
    d = w.shape[0]
    e = matrix_exp(w * w)
    h = float(np.trace(e)) - d
    grad = 2.0 * e.T * w
    return h, grad


def _inner_minimize(
    g_gram: np.ndarray,
    w_start: np.ndarray,
    rho: float,
    alpha: float,
    cfg: NotearsConfig,
) -> np.ndarray:
    """Adam on the smooth augmented objective with an L1 proximal step."""
    d = g_gram.shape[0]
    eye = np.eye(d)
    w = w_start.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    shrink = cfg.lambda1 * cfg.inner_lr
    for t in range(1, cfg.inner_steps + 1):
        h_val, h_grad = acyclicity_h(w)
        grad = g_gram @ (w - eye) + (rho * h_val + alpha) * h_grad
        w, m, v = adam_update(w, grad, m, v, cfg.inner_lr, t)
        w = np.sign(w) * np.maximum(np.abs(w) - shrink, 0.0)
        np.fill_diagonal(w, 0.0)
    return w


def _fit_term(g_gram: np.ndarray, w: np.ndarray) -> float:
    # 0.5/n * ||X - XW||_F^2 equals 0.5 * tr((W-I)^T G (W-I)) for G = X^T X / n.
    delta = w - np.eye(w.shape[0])
    return 0.5 * float(np.sum(delta * (g_gram @ delta)))


def _augmented_objective(
    g_gram: np.ndarray, w: np.ndarray, rho: float, alpha: float, lambda1: float
) -> float:
    h_val, _ = acyclicity_h(w)
    fit = _fit_term(g_gram, w)
    return fit + lambda1 * float(np.abs(w).sum()) + 0.5 * rho * h_val * h_val + alpha * h_val


def notears_fit(ds: Dataset, cfg: NotearsConfig = NotearsConfig()) -> WeightedGraph:
    """Learn a weighted DAG over the dataset's columns.

    Data is column-standardized internally and the returned weights live in
    that standardized space, making the edge threshold scale-free.  Missing
    cells are not allowed; impute first.
    """
    if ds.d < 2:
        raise InputError("DAG learning needs at least 2 variables")
    if ds.n_missing() != 0:
        raise InputError("DAG learning needs a complete matrix; impute first")
    x = np.asarray(ds.values, dtype=np.float64)
    n, d = x.shape
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    xs = (x - mean) / std
    g_gram = ordered_matmul(xs.T, xs) / n

    # Standardized least squares ties exactly across Markov-equivalent
    # orientations, so a symmetric start at zero lets the maturing dual
    # crush tied direction pairs to nothing instead of committing to one.
    # Break the degeneracy deterministically: order columns by total squared
    # correlation (strongly connected first), seed each pair with a small
    # weight in that direction, and tilt the gram matrix antisymmetrically
    # toward it. Objective values are unchanged (antisymmetric parts cancel
    # in the quadratic form); only the inner gradient field carries the
    # orientation prior, and it must be strong enough to survive the late
    # dual phase, where a reversed edge into a well-explained column gets a
    # pull boost as its collinear competitors are squeezed out.
    corr = g_gram - np.diag(np.diag(g_gram))
    rank = np.argsort(np.argsort(-(corr * corr).sum(axis=0), kind="stable"))
    forward = rank[:, None] < rank[None, :]
    w = np.where(forward, 0.1 * corr, 0.0)
    g_gram = g_gram * np.where(forward, 1.05, np.where(forward.T, 0.95, 1.0))
    rho, alpha, h = 1.0, 0.0, np.inf
    fit_zero = _fit_term(g_gram, np.zeros((d, d)))
    # A fixed-step Adam sweep perturbs h by roughly d * lr^2, so once the
    # quadratic penalty of that perturbation dwarfs the whole data fit the
    # inner solver can only flatten the weights to stay feasible. Stop
    # escalating there and return the intact iterate as the best effort.
    rho_stable = 2.0 * fit_zero / (d * cfg.inner_lr**2) ** 2
    rho_cap = min(RHO_MAX, rho_stable)
    converged = False
    for _ in range(100):
        accepted = False
        while rho <= rho_cap:
            w_new = _solve_subproblem(g_gram, w, rho, alpha, cfg)
            h_new, _ = acyclicity_h(w_new)
            # A budgeted solve under a huge penalty can wreck the iterate.
            # Reject candidates that fail to improve the augmented objective,
            # and candidates that give back a large share of the explained
            # variance: feasibility bought by flattening the weights is solver
            # breakdown, not progress, even when the objective prefers it.
            improves = _augmented_objective(
                g_gram, w_new, rho, alpha, cfg.lambda1
            ) <= _augmented_objective(g_gram, w, rho, alpha, cfg.lambda1)
            collapses = _fit_term(g_gram, w_new) > _fit_term(g_gram, w) + 0.25 * fit_zero
            if h_new > 0.25 * h or not improves or collapses:
                rho *= 10.0
            else:
                accepted = True
                break
        if not accepted:
            break
        w, h = w_new, h_new
        alpha += rho * h
        if h < cfg.h_tol:
            converged = True
            break
    return WeightedGraph(w=w, names=ds.names, converged=converged)


def _solve_subproblem(
    g_gram: np.ndarray,
    w_start: np.ndarray,
    rho: float,
    alpha: float,
    cfg: NotearsConfig,
) -> np.ndarray:
    """Restart the Adam run until the subproblem objective stops improving.

    One Adam budget rarely reaches the subproblem optimum; stopping short
    leaves near-zero junk edges that keep h above tolerance and force the
    penalty weight into a destructive range.
    """
    w = w_start
    obj = _augmented_objective(g_gram, w, rho, alpha, cfg.lambda1)
    for _ in range(20):
        w_next = _inner_minimize(g_gram, w, rho, alpha, cfg)
        obj_next = _augmented_objective(g_gram, w_next, rho, alpha, cfg.lambda1)
        if not np.isfinite(obj_next) or obj_next > obj - 1e-10 * max(abs(obj), 1.0):
            break
        w, obj = w_next, obj_next
    return w


def threshold_dag(g: WeightedGraph, threshold: float) -> WeightedGraph:
    """Zero out edges below |threshold| and verify the result is acyclic."""
    if threshold < 0:
        raise InputError("threshold must be non-negative")
    w = np.where(np.abs(g.w) < threshold, 0.0, g.w)
    h, _ = acyclicity_h(w)
    if h >= DAG_TOL:
        raise NumericalError(
            f"graph still cyclic after thresholding at {threshold}; "
            f"raise the threshold (h = {h!r})"
        )
    return WeightedGraph(w=w, names=g.names, converged=g.converged)


def _topological_order(w: np.ndarray) -> list[int]:
    """Kahn's algorithm; ties broken by column index for determinism."""
    d = w.shape[0]
    adj = w != 0.0
    indeg = adj.sum(axis=0)
    order: list[int] = []
    ready = [j for j in range(d) if indeg[j] == 0]
    while ready:
        u = ready.pop(0)
        order.append(u)
        for t in range(d):
            if adj[u, t]:
                adj[u, t] = False
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        ready.sort()
    if len(order) != d:
        raise SpecError("graph contains a cycle")
    return order


def suggest_spec(g: WeightedGraph, outcome: str) -> SemSpec:
    """Read regression equations off an acyclic graph, topologically ordered.

    Every variable with incoming edges gets one equation (parents in column
    order).  ``outcome`` must be one of them; the point of the suggestion is
    a model for that variable.
    """
    if outcome not in g.names:
        raise SpecError(f"outcome {outcome!r} not among graph variables")
    h, _ = acyclicity_h(g.w)
    if h >= DAG_TOL:
        raise SpecError("cannot suggest equations from a cyclic graph")

    order = _topological_order(g.w)
    equations = []
    for j in order:
        parents = [i for i in range(len(g.names)) if g.w[i, j] != 0.0]
        if parents:
            equations.append(
                Equation(g.names[j], tuple(g.names[i] for i in parents))
            )
    if outcome not in {eq.outcome for eq in equations}:
        raise SpecError(
            f"graph has no edges into {outcome!r}; no equation to suggest"
        )
    return SemSpec(equations=tuple(equations), variables=tuple(g.names))
