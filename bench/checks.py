"""Output checks made apart from the program.

    python3 bench/checks.py --workload W --seed N --work DIR --ok OP,OP,...

Each check reads the artifacts a round left in the work directory and
returns a list of problems (empty when the outputs are right).  Run as a
script, it prints the problems and the round's imputed nRMSE as one JSON
object; bench/run.py calls it in a separate process, so that the
benchmark's own memory never adds to a child's peak RSS.  Reference
values come from this file's own code, numpy and scipy.stats, or from
properties the method must have; none is a stored copy of earlier output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

import gen

RATE = 0.3
LOG_2PI = math.log(2.0 * math.pi)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def encode(rows: list[list[str]], specs: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """Cells as floats (ordinals as level indices) and the observed mask.

    Raises ValueError on a cell that is neither empty, a declared label nor
    a number.
    """
    values = np.zeros((len(rows), len(specs)))
    observed = np.zeros(values.shape, dtype=bool)
    for i, row in enumerate(rows):
        for j, (token, spec) in enumerate(zip(row, specs)):
            if token == "":
                continue
            if spec["kind"] == "ordinal":
                if token not in spec["levels"]:
                    raise ValueError(f"row {i}: {token!r} is not a level of {spec['name']}")
                values[i, j] = spec["levels"].index(token)
            else:
                values[i, j] = float(token)
            observed[i, j] = True
    return values, observed


def nrmse(pred: np.ndarray, truth: np.ndarray, cells: np.ndarray) -> float:
    """RMSE over ``cells``, each column scaled by its range in ``truth``."""
    span = truth.max(axis=0) - truth.min(axis=0)
    scaled = (pred - truth) / np.where(span > 0, span, 1.0)
    return float(np.sqrt(np.mean(scaled[cells] ** 2)))


def check_imputed(work: Path, prefix: str, info: dict) -> tuple[list[str], float]:
    """Checks shared by every ``impute`` call; returns problems and nRMSE."""
    specs = info["specs"]
    problems: list[str] = []
    names = [s["name"] for s in specs]
    header_in, rows_in = read_csv(work / "masked.csv")
    header_out, rows_out = read_csv(work / f"{prefix}.imputed.csv")
    if header_out != names or len(rows_out) != len(rows_in):
        return [f"{prefix}.imputed.csv: header or row count differs from the input"], math.nan
    if any(len(r) != len(names) for r in rows_out):
        return [f"{prefix}.imputed.csv: ragged rows"], math.nan
    try:
        values, complete = encode(rows_out, specs)
    except ValueError as exc:
        return [f"{prefix}.imputed.csv: {exc}"], math.nan
    observed = info["observed"]
    if not complete.all():
        problems.append(f"{prefix}.imputed.csv: {int((~complete).sum())} cells still empty")
    changed = sum(
        1
        for i, j in zip(*np.nonzero(observed))
        if (rows_in[i][j] != rows_out[i][j])
        and (specs[j]["kind"] == "ordinal" or float(rows_in[i][j]) != float(rows_out[i][j]))
    )
    if changed:
        problems.append(f"{prefix}.imputed.csv: {changed} observed cells changed")

    header_p, rows_p = read_csv(work / f"{prefix}.provenance.csv")
    flags = np.array([[tok == "1" for tok in r] for r in rows_p], dtype=bool)
    if header_p != names or flags.shape != observed.shape or not np.array_equal(flags, ~observed):
        problems.append(f"{prefix}.provenance.csv does not equal the input's missing mask")

    report = json.loads((work / f"{prefix}.report.json").read_text(encoding="utf-8"))
    hidden = int((~observed).sum())
    if report.get("n_imputed") != hidden:
        problems.append(f"n_imputed {report.get('n_imputed')} != {hidden} hidden cells")
    return problems, nrmse(values, info["truth"], ~observed)


def gaussian_loglik(mu: np.ndarray, sigma: np.ndarray, x: np.ndarray, observed: np.ndarray) -> float:
    """Observed-data log-likelihood of N(mu, sigma), one pattern at a time."""
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(observed):
        groups.setdefault(row.tobytes(), []).append(i)
    total = 0.0
    for rows in groups.values():
        o = observed[rows[0]]
        k = int(o.sum())
        if k == 0:
            continue
        s = sigma[np.ix_(o, o)]
        diff = x[np.ix_(rows, o)] - mu[o]
        _, logdet = np.linalg.slogdet(s)
        quad = np.einsum("ij,ij->i", diff, np.linalg.solve(s, diff.T).T)
        total += float(np.sum(-0.5 * (k * LOG_2PI + logdet + quad)))
    return total


def check_em_loglik(work: Path, prefix: str, info: dict) -> list[str]:
    """The reported EM log-likelihood must reach that of the true model.

    The program fits on min-max scaled columns (observed cells), so the
    generating mean and covariance are mapped to that scale first.  The MLE
    maximises this function, so EM cannot end below its value at the truth.
    """
    _, rows = read_csv(work / "masked.csv")
    x, observed = encode(rows, info["specs"])
    lo = np.array([x[observed[:, j], j].min() for j in range(x.shape[1])])
    hi = np.array([x[observed[:, j], j].max() for j in range(x.shape[1])])
    span = hi - lo
    scaled = np.where(observed, (x - lo) / span, 0.0)
    mu = (info["mu"] - lo) / span
    sigma = info["sigma"] / np.outer(span, span)
    at_truth = gaussian_loglik(mu, sigma, scaled, observed)
    report = json.loads((work / f"{prefix}.report.json").read_text(encoding="utf-8"))
    if not report["em_loglik"] >= at_truth:
        return [f"em_loglik {report['em_loglik']!r} is below the log-likelihood at the truth {at_truth!r}"]
    return []


# SplitMix64, as documented in the package README; used to redraw the masks
# the evaluate command hides, from the seed its report records.
_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def draw_cells(n_cells: int, count: int, seed: int) -> list[int]:
    """Partial Fisher-Yates over row-major cell indices, rejection-sampled."""
    state = seed & _M64
    pool = list(range(n_cells))
    for i in range(count):
        bound = n_cells - i
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            state = (state + 0x9E3779B97F4A7C15) & _M64
            u = _mix64(state)
            if u < limit:
                break
        j = i + u % bound
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:count])


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _trial_reports(payload: dict) -> list[dict]:
    return payload["trials"] if "trials" in payload else [payload["report"]]


def check_evaluate_structure(work: Path, prefix: str, info: dict) -> list[str]:
    """Mask size, per-variable cell counts and p-value range of a report."""
    n, d = info["truth"].shape
    expected = math.floor(RATE * n * d + 0.5)
    payload = json.loads((work / f"{prefix}.report.json").read_text(encoding="utf-8"))
    problems = []
    for rep in _trial_reports(payload):
        meta = rep["metadata"]
        if meta["masked_cells"] != expected:
            problems.append(f"{prefix}: masked_cells {meta['masked_cells']} != {expected}")
        if sum(v["n_cells"] for v in rep["per_variable"]) != meta["masked_cells"]:
            problems.append(f"{prefix}: per-variable cell counts do not sum to masked_cells")
        for v in rep["per_variable"]:
            if not 0.0 <= v["wilcoxon"]["p_value"] <= 1.0:
                problems.append(f"{prefix}: p-value of {v['name']} outside [0, 1]")
    return problems


def check_mean_fill(work: Path, prefix: str, info: dict) -> list[str]:
    """Recompute the mean-fill scores from an own mean fill on the same mask."""
    truth = info["truth"]
    n, d = truth.shape
    payload = json.loads((work / f"{prefix}.report.json").read_text(encoding="utf-8"))
    rep = payload["report"]
    hidden = np.zeros(n * d, dtype=bool)
    hidden[draw_cells(n * d, math.floor(RATE * n * d + 0.5), rep["metadata"]["seed"])] = True
    hidden = hidden.reshape(n, d)
    header, csv_rows = read_csv(work / f"{prefix}.report.csv")
    csv_by_name = {r[0]: dict(zip(header, r)) for r in csv_rows}
    problems = []
    for j, spec in enumerate(info["specs"]):
        tru = truth[hidden[:, j], j]
        pred = np.full(tru.size, truth[~hidden[:, j], j].mean())
        want = {
            "rmse": float(np.sqrt(np.mean((pred - tru) ** 2))),
            "r2": 1.0 - float(np.sum((pred - tru) ** 2)) / float(np.sum((tru - tru.mean()) ** 2)),
            "wasserstein": float(stats.wasserstein_distance(pred, tru)),
        }
        if tru.size > 25:  # the program's exact test covers 25 pairs or fewer
            want["wilcoxon_p"] = float(
                stats.wilcoxon(pred - tru, zero_method="wilcox", correction=True, method="approx").pvalue
            )
        got_json = next((v for v in rep["per_variable"] if v["name"] == spec["name"]), None)
        got_csv = csv_by_name.get(spec["name"])
        if got_json is None or got_csv is None:
            problems.append(f"{prefix}: no row for {spec['name']}")
            continue
        if got_json["n_cells"] != tru.size:
            problems.append(f"{prefix}: {spec['name']} scored {got_json['n_cells']} cells, mask has {tru.size}")
            continue
        got_json = dict(got_json, wilcoxon_p=got_json["wilcoxon"]["p_value"])
        for key, value in want.items():
            rel = 1e-6 if key == "wilcoxon_p" else 1e-9
            if not _close(got_json[key], value, rel) or not _close(float(got_csv[key]), value, rel):
                problems.append(
                    f"{prefix}: {spec['name']} {key} json={got_json[key]!r} csv={got_csv[key]} reference={value!r}"
                )
    return problems


def evaluate_nrmse(work: Path, prefix: str, info: dict) -> float:
    """Pooled range-scaled RMSE over every trial's masked cells.

    Rebuilt from the per-variable RMSE and cell counts of the report: each
    variable contributes n_cells * (rmse / range)^2.
    """
    truth = info["truth"]
    span = {s["name"]: float(np.ptp(truth[:, j])) or 1.0 for j, s in enumerate(info["specs"])}
    payload = json.loads((work / f"{prefix}.report.json").read_text(encoding="utf-8"))
    total = cells = 0.0
    for rep in _trial_reports(payload):
        for v in rep["per_variable"]:
            total += v["n_cells"] * (v["rmse"] / span[v["name"]]) ** 2
            cells += v["n_cells"]
    return math.sqrt(total / cells)


def topological_order(names: list[str], edges: list[tuple[str, str]]) -> list[str] | None:
    """Kahn's algorithm; None when the edges hold a cycle."""
    indeg = {v: 0 for v in names}
    for _, b in edges:
        indeg[b] += 1
    ready = [v for v in names if indeg[v] == 0]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for a, b in edges:
            if a == u:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    return order if len(order) == len(names) else None


def check_discover(work: Path, prefix: str, outcome: str) -> list[str]:
    graph = json.loads((work / f"{prefix}.graph.json").read_text(encoding="utf-8"))
    edges = [(e["from"], e["to"]) for e in graph["edges"]]
    problems = []
    if topological_order(graph["names"], edges) is None:
        problems.append(f"{prefix}: thresholded edge list has a cycle")
    parents = {a for a, b in edges if b == outcome}
    lines = (work / f"{prefix}.suggested.sem").read_text(encoding="utf-8").splitlines()
    equations = {lhs.strip(): rhs for lhs, _, rhs in (line.partition("~") for line in lines)}
    if outcome not in equations:
        problems.append(f"{prefix}: suggested model has no equation for {outcome}")
    else:
        extra = {p.strip() for p in equations[outcome].split("+")} - parents
        if extra:
            problems.append(f"{prefix}: suggested predictors {sorted(extra)} are not parents of {outcome}")
    return problems


def check_workload(workload: str, work: Path, info: dict, ok: set[str]) -> tuple[list[str], float]:
    """Problems found in one round's artifacts, and its imputed nRMSE.

    ``ok`` names the operations that exited 0; only their outputs are read.
    """
    if workload == "cdc-rows":
        return check_imputed(work, "out/cdc", info)
    if workload == "wide-patterns":
        problems, score = check_imputed(work, "out/wide", info)
        return problems + check_em_loglik(work, "out/wide", info), score
    problems = []
    for prefix in ("out/sesa", "out/knn", "out/mean"):
        problems += check_evaluate_structure(work, prefix, info)
    problems += check_mean_fill(work, "out/mean", info)
    if "discover" in ok:
        problems += check_discover(work, "out/dag", "GeneralHealth")
    return problems, evaluate_nrmse(work, "out/sesa", info)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--ok", default="", help="operations that exited 0, comma-separated")
    args = parser.parse_args()
    info = gen.generate(args.workload, args.seed)
    try:
        problems, score = check_workload(args.workload, args.work, info, set(args.ok.split(",")))
    except (OSError, KeyError, ValueError) as exc:
        problems, score = [f"outputs unreadable: {exc!r}"], None
    print(json.dumps({"problems": problems, "nrmse": score}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
