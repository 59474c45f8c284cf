"""Evaluation suite: RMSE, MAPE, R2, 1-D Wasserstein, Wilcoxon signed-rank.

The Wilcoxon test reports an exact two-sided p-value by enumerating sign
assignments for up to 25 pairs and a tie-corrected normal approximation with
continuity correction beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import Dataset
from .errors import InputError

# Pairs at or below this count get the exact enumeration p-value.
EXACT_WILCOXON_MAX_N = 25

# Truth cells smaller than this in magnitude are excluded from MAPE.
MAPE_ZERO_TOL = 1e-12


def _pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    if p.size != t.size:
        raise InputError("pred and truth must have equal length")
    if p.size == 0:
        raise InputError("empty input")
    return p, t


def rmse(pred: Sequence[float], truth: Sequence[float]) -> float:
    p, t = _pair(pred, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


class MapeResult(NamedTuple):
    percent: float
    skipped: int


def mape(pred: Sequence[float], truth: Sequence[float]) -> MapeResult:
    """Mean absolute percentage error over cells with non-negligible truth.

    Truth cells with |value| < 1e-12 are skipped and counted rather than
    dividing by zero.
    """
    p, t = _pair(pred, truth)
    keep = np.abs(t) >= MAPE_ZERO_TOL
    skipped = int((~keep).sum())
    if not keep.any():
        raise InputError("every truth cell is (near) zero; MAPE undefined")
    value = float(100.0 * np.mean(np.abs(p[keep] - t[keep]) / np.abs(t[keep])))
    return MapeResult(percent=value, skipped=skipped)


def r2(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot; may be negative."""
    p, t = _pair(pred, truth)
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot <= 0.0:
        raise InputError("truth has zero variance; R2 undefined")
    ss_res = float(np.sum((p - t) ** 2))
    return 1.0 - ss_res / ss_tot


def wasserstein_1d(a: Sequence[float], b: Sequence[float]) -> float:
    """Exact order-1 distance between two empirical distributions.

    Integrates |F_a - F_b| over the merged support; no binning involved.
    """
    x = np.sort(np.asarray(a, dtype=np.float64).ravel())
    y = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if x.size == 0 or y.size == 0:
        raise InputError("empty input")
    grid = np.concatenate([x, y])
    grid.sort(kind="mergesort")
    deltas = np.diff(grid)
    cdf_x = np.searchsorted(x, grid[:-1], side="right") / x.size
    cdf_y = np.searchsorted(y, grid[:-1], side="right") / y.size
    return float(np.sum(np.abs(cdf_x - cdf_y) * deltas))


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float
    effect_size: float
    ci_lower: float
    ci_upper: float
    n_pairs: int
    zeros_dropped: int


def effect_size(statistic: float, sample_size: int) -> float:
    """The paper's effect-size column: W / sqrt(dataset sample size)."""
    if sample_size <= 0:
        raise InputError("sample_size must be positive")
    return float(statistic / math.sqrt(sample_size))


def _midranks(magnitudes: np.ndarray) -> np.ndarray:
    order = np.argsort(magnitudes, kind="mergesort")
    ranks = np.empty(magnitudes.size, dtype=np.float64)
    i = 0
    while i < magnitudes.size:
        j = i
        while j + 1 < magnitudes.size and magnitudes[order[j + 1]] == magnitudes[order[i]]:
            j += 1
        # Tied block occupies positions i..j (0-based): midrank mean.
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_two_sided_p(ranks: np.ndarray, w: float) -> float:
    """Enumerate all sign assignments via a subset-sum count over 2*ranks."""
    doubled = [int(round(2.0 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    w2 = int(round(2.0 * w))
    n = len(doubled)
    denom = 2**n
    p_le = sum(counts[: w2 + 1]) / denom
    p_ge = sum(counts[w2:]) / denom
    return min(1.0, 2.0 * min(p_le, p_ge))


def _normal_two_sided_p(ranks: np.ndarray, w: float) -> float:
    """Normal approximation with exact (tie-aware) variance sum(r^2)/4
    and a 0.5 continuity correction."""
    mean = float(ranks.sum()) / 2.0
    var = float(np.sum(ranks * ranks)) / 4.0
    if var <= 0.0:
        return 1.0
    diff = w - mean
    if diff > 0:
        diff -= 0.5
    elif diff < 0:
        diff += 0.5
    z = diff / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return min(1.0, p)


# The standard normal 97.5% quantile: the Newton start of _t975 and the
# base of its large-df series.
_Z975 = 1.959963984540054
# From this many degrees of freedom on, _t975 takes the Cornish-Fisher
# series through g4; its first omitted term is below 1e-16 relative there.
T975_SERIES_DF = 2000


def _abs_t_cdf(t: float, df: int, coef: np.ndarray) -> float:
    """P(|T| <= t) for T ~ Student t with integer df >= 2 (A&S 26.7.3-4).

    With theta = atan(t / sqrt(df)), the sum runs over ``coef[j] *
    cos(theta)^(2j)``.  The powers are taken as ``exp(j * log1p(-y))``, y =
    sin(theta)^2: a running product would scale the rounding error of
    cos(theta)^2 by j.
    """
    y = t * t / (df + t * t)
    s = float(coef @ np.exp(np.arange(coef.size) * math.log1p(-y)))
    if df % 2 == 0:
        return math.sqrt(y) * s
    return (math.atan2(t, math.sqrt(df)) + math.sqrt(y * (1.0 - y)) * s) * (2.0 / math.pi)


def _t975(df: int) -> float:
    """97.5% quantile of Student's t with integer df >= 1, without scipy.

    df = 1 is tan(0.475 pi).  Below T975_SERIES_DF, Newton steps on the
    finite sum of ``_abs_t_cdf`` start from the normal quantile; the CDF is
    concave there, so they rise to the root, and they stop once a step no
    longer shrinks.  From T975_SERIES_DF on, the Cornish-Fisher expansion
    (A&S 26.7.5) through g4.  Within 2e-14 relative of a 40-digit root.
    """
    if df == 1:
        return math.tan(0.475 * math.pi)
    if df >= T975_SERIES_DF:
        x, x2 = _Z975, _Z975 * _Z975
        g1 = x * (x2 + 1.0) / 4.0
        g2 = x * ((5.0 * x2 + 16.0) * x2 + 3.0) / 96.0
        g3 = x * (((3.0 * x2 + 19.0) * x2 + 17.0) * x2 - 15.0) / 384.0
        g4 = x * ((((79.0 * x2 + 776.0) * x2 + 1482.0) * x2 - 1920.0) * x2 - 945.0) / 92160.0
        return x + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df
    # coef[j] = prod_{i<=j} (2i-1)/(2i) for even df, (2i)/(2i+1) for odd.
    i = np.arange(1, (df - 2) // 2 + 1, dtype=np.float64)
    odd = df % 2
    coef = np.concatenate(([1.0], np.cumprod((2.0 * i - 1.0 + odd) / (2.0 * i + odd))))
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    t, last = _Z975, math.inf
    while True:
        density = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = (_abs_t_cdf(t, df, coef) - 0.95) / (2.0 * density)
        if not abs(step) < abs(last):
            return t
        t -= step
        last = step


def _mean_ci_t(pred: np.ndarray) -> tuple[float, float]:
    """95% t-approximation interval for the mean of pred.

    The t quantile is ``_t975(n - 1)``: A&S 26.7.3-4 sums by Newton below
    T975_SERIES_DF degrees of freedom and Cornish-Fisher from there, within
    2e-14 relative of the exact root, in math and numpy alone (no scipy).
    """
    n = pred.size
    m = float(pred.mean())
    if n < 2:
        return m, m
    s = float(pred.std(ddof=1))
    if s == 0.0:
        return m, m
    half = _t975(n - 1) * s / math.sqrt(n)
    return m - half, m + half


def wilcoxon_signed_rank(
    pred: Sequence[float],
    truth: Sequence[float],
    sample_size: int | None = None,
) -> WilcoxonResult:
    """Signed-rank test of pred against truth.

    Zero differences are dropped (and counted); ties get midranks; the
    statistic is the positive-rank sum.  ``sample_size`` feeds the effect
    size denominator and defaults to the pair count.
    """
    p, t = _pair(pred, truth)
    n_eval = p.size if sample_size is None else int(sample_size)
    diffs = p - t
    nonzero = diffs != 0.0
    zeros_dropped = int((~nonzero).sum())
    diffs = diffs[nonzero]
    ci_lower, ci_upper = _mean_ci_t(p)

    if diffs.size == 0:
        return WilcoxonResult(
            statistic=0.0,
            p_value=1.0,
            effect_size=effect_size(0.0, n_eval),
            ci_lower=ci_lower,
            ci_upper=ci_upper,
            n_pairs=0,
            zeros_dropped=zeros_dropped,
        )

    ranks = _midranks(np.abs(diffs))
    w = float(ranks[diffs > 0].sum())
    if diffs.size <= EXACT_WILCOXON_MAX_N:
        p_value = _exact_two_sided_p(ranks, w)
    else:
        p_value = _normal_two_sided_p(ranks, w)
    return WilcoxonResult(
        statistic=w,
        p_value=p_value,
        effect_size=effect_size(w, n_eval),
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        n_pairs=int(diffs.size),
        zeros_dropped=zeros_dropped,
    )


@dataclass(frozen=True)
class VariableMetrics:
    name: str
    rmse: float
    mape_pct: float
    r2: float
    wasserstein: float
    wilcoxon: WilcoxonResult
    n_cells: int
    mape_skipped: int


class AggregateMetrics(NamedTuple):
    rmse: float
    mape_pct: float
    r2: float
    wasserstein: float


@dataclass(frozen=True)
class EvaluationReport:
    per_variable: tuple[VariableMetrics, ...]
    aggregate: AggregateMetrics
    metadata: dict


def evaluate(
    imputed: Dataset,
    truth: Dataset,
    mask: np.ndarray,
    sample_size: int,
    metadata: dict | None = None,
) -> EvaluationReport:
    """Score imputation quality at the masked cells, variable by variable.

    ``mask`` is True at evaluated (imputed) cells.  Variables with no
    evaluated cells are excluded and listed in the metadata; a variable
    whose metric is undefined on this draw (all-zero truth for MAPE,
    constant truth for R2) carries NaN there, with a note.
    """
    mask = np.asarray(mask, dtype=bool)
    if imputed.values.shape != truth.values.shape or mask.shape != truth.values.shape:
        raise InputError("imputed, truth, and mask must share a shape")
    meta = dict(metadata or {})
    excluded: list[str] = []
    notes: list[str] = []

    rows: list[VariableMetrics] = []
    for j, spec in enumerate(imputed.specs):
        cells = mask[:, j]
        n_cells = int(cells.sum())
        if n_cells == 0:
            excluded.append(spec.name)
            continue
        pred = imputed.values[cells, j]
        tru = truth.values[cells, j]
        try:
            mape_value, mape_skipped = mape(pred, tru)
        except InputError:
            mape_value, mape_skipped = float("nan"), n_cells
            notes.append(f"MAPE undefined for {spec.name!r} (all-zero truth)")
        try:
            r2_value = r2(pred, tru)
        except InputError:
            r2_value = float("nan")
            notes.append(f"R2 undefined for {spec.name!r} (constant truth)")
        rows.append(
            VariableMetrics(
                name=spec.name,
                rmse=rmse(pred, tru),
                mape_pct=mape_value,
                r2=r2_value,
                wasserstein=wasserstein_1d(pred, tru),
                wilcoxon=wilcoxon_signed_rank(pred, tru, sample_size),
                n_cells=n_cells,
                mape_skipped=mape_skipped,
            )
        )
    if not rows:
        raise InputError("no variable has evaluated cells")

    aggregate = AggregateMetrics(
        rmse=float(np.mean([v.rmse for v in rows])),
        mape_pct=float(np.mean([v.mape_pct for v in rows])),
        r2=float(np.mean([v.r2 for v in rows])),
        wasserstein=float(np.mean([v.wasserstein for v in rows])),
    )
    meta["sample_size"] = int(sample_size)
    if excluded:
        meta["excluded_variables"] = excluded
    if notes:
        meta["notes"] = notes
    return EvaluationReport(per_variable=tuple(rows), aggregate=aggregate, metadata=meta)


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "per_variable": [
            {
                "name": v.name,
                "rmse": v.rmse,
                "mape_pct": v.mape_pct,
                "r2": v.r2,
                "wasserstein": v.wasserstein,
                "wilcoxon": dict(v.wilcoxon._asdict()),
                "n_cells": v.n_cells,
                "mape_skipped": v.mape_skipped,
            }
            for v in report.per_variable
        ],
        "aggregate": dict(report.aggregate._asdict()),
        "metadata": report.metadata,
    }


def report_to_csv(report: EvaluationReport) -> str:
    """One row per variable plus an aggregate row."""
    header = [
        "variable",
        "rmse",
        "mape_pct",
        "r2",
        "wasserstein",
        "wilcoxon_statistic",
        "wilcoxon_p",
        "effect_size",
        "ci_lower",
        "ci_upper",
        "n_cells",
    ]
    rows = [
        [
            v.name,
            v.rmse,
            v.mape_pct,
            v.r2,
            v.wasserstein,
            v.wilcoxon.statistic,
            v.wilcoxon.p_value,
            v.wilcoxon.effect_size,
            v.wilcoxon.ci_lower,
            v.wilcoxon.ci_upper,
            v.n_cells,
        ]
        for v in report.per_variable
    ]
    agg = report.aggregate
    n_cells = sum(v.n_cells for v in report.per_variable)
    rows.append(["AGGREGATE", agg.rmse, agg.mape_pct, agg.r2, agg.wasserstein, *[None] * 5, n_cells])
    return csv_text(header, rows)


def csv_text(header: list[str], rows: list[list]) -> str:
    """CSV lines of a header and rows: text as is, None empty, numbers by ``repr``."""

    def cell(x) -> str:
        return "" if x is None else x if isinstance(x, str) else repr(x)

    return "".join(",".join(map(cell, line)) + "\n" for line in [header, *rows])
