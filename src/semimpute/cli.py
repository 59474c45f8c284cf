"""Command-line surface: impute, evaluate, discover, simulate.

Every artifact is accompanied by (or is) a JSON report embedding the tool
version, the fully resolved configuration, and the seed, so a run can be
reproduced from its own outputs.  Exit codes: 0 success, 2 input error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .baselines import knn_impute, mean_impute, median_impute
from .dataset import (
    Dataset,
    encode_ordinal,
    load_csv,
    load_variable_specs,
    save_csv,
)
from .errors import InputError, NumericalError, SemimputeError
from .fiml import EmConfig
from .metrics import EvaluationReport, csv_text, evaluate, report_to_csv, report_to_dict
from .missingness import apply_mcar
from .notears import NotearsConfig, notears_fit, suggest_spec, threshold_dag
from .rng import derive_seed
from .sem import SemSpec, load_spec
from .training import (
    MODE_BENCHMARK,
    MODE_SELF_SUPERVISED,
    ImputeReport,
    LossWeights,
    TrainConfig,
    impute,
)

# Defaults of the flags that ``_train_flags`` gives impute and evaluate.
TRAIN_DEFAULTS: dict = {
    "alpha": LossWeights.alpha,
    "beta": LossWeights.beta,
    "gamma": LossWeights.gamma,
    "lr": TrainConfig.lr,
    "epochs": TrainConfig.max_epochs,
    "tol": TrainConfig.rel_tol,
    "self_mask_rate": TrainConfig.self_mask_rate,
    "seed": TrainConfig.seed,
    "em_max_iter": EmConfig.max_iter,
    "em_tol": EmConfig.tol,
    "init_moments": "implied",
}

DEFAULTS: dict[str, dict] = {
    "impute": {
        "sem": None,
        "truth": None,
        "mode": TrainConfig.mode,
        **TRAIN_DEFAULTS,
        "lenient": False,
    },
    "evaluate": {
        "sem": None,
        "method": "sesa",
        "rate": 0.3,
        "trials": 1,
        "knn_k": 5,
        "mode": MODE_BENCHMARK,
        **TRAIN_DEFAULTS,
        "report_format": "json",
        "lenient": False,
    },
    "discover": {
        "threshold": 0.3,
        "lambda1": NotearsConfig.lambda1,
        "h_tol": NotearsConfig.h_tol,
        "inner_lr": NotearsConfig.inner_lr,
        "inner_steps": NotearsConfig.inner_steps,
        "suggest_outcome": None,
        "lenient": False,
    },
    "simulate": {
        "rate": 0.3,
        "seed": 0,
        "columns": None,
        "lenient": False,
    },
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    options: dict

    def __getitem__(self, key: str):
        return self.options[key]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimpute",
        description="Missing-data imputation for mixed tabular data: "
        "likelihood-based initialization refined by trained self-attention, "
        "plus baselines, DAG discovery, and an evaluation harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--variables", help="JSON file of column specs")
        p.add_argument("--out-prefix", help="prefix for output files")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument(
            "--lenient",
            action="store_const",
            const=True,
            default=None,
            help="treat unparseable cells as missing instead of erroring",
        )

    p = sub.add_parser("impute", help="fill missing cells in a CSV")
    common(p)
    p.add_argument("--input", help="CSV with missing cells")
    p.add_argument("--sem", help="path-model file for structured initialization")
    p.add_argument("--truth", help="complete CSV (benchmark mode only)")
    p.add_argument("--mode", choices=[MODE_SELF_SUPERVISED, MODE_BENCHMARK])
    _train_flags(p)

    p = sub.add_parser("evaluate", help="mask a complete CSV, impute, score")
    common(p)
    p.add_argument("--truth", help="complete ground-truth CSV")
    p.add_argument(
        "--method",
        help="sesa, mean, median, knn, or external:<imputed.csv>",
    )
    p.add_argument("--rate", type=float, help="missingness rate to apply")
    p.add_argument("--trials", type=int, help="number of masked replicates")
    p.add_argument("--knn-k", type=int, help="neighbor count for method knn")
    p.add_argument("--sem", help="path-model file (sesa initialization)")
    p.add_argument("--mode", choices=[MODE_BENCHMARK, MODE_SELF_SUPERVISED])
    p.add_argument("--report-format", choices=["json", "csv"])
    _train_flags(p)

    p = sub.add_parser("discover", help="learn a weighted DAG over the columns")
    common(p)
    p.add_argument("--input", help="complete or imputed CSV")
    p.add_argument("--threshold", type=float, help="edge display threshold")
    p.add_argument("--lambda1", type=float, help="L1 penalty on edge weights")
    p.add_argument("--h-tol", type=float)
    p.add_argument("--inner-lr", type=float)
    p.add_argument("--inner-steps", type=int)
    p.add_argument("--suggest-outcome", help="emit a model file for this variable")

    p = sub.add_parser("simulate", help="hide an exact fraction of observed cells")
    common(p)
    p.add_argument("--input", help="CSV to mask")
    p.add_argument("--rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--columns", help="comma-separated column names to mask")
    return parser


def _train_flags(p) -> None:
    p.add_argument("--alpha", type=float, help="MSE weight")
    p.add_argument("--beta", type=float, help="covariance-match weight")
    p.add_argument("--gamma", type=float, help="L1 weight")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--epochs", type=int, help="training epoch cap")
    p.add_argument("--tol", type=float, help="relative loss tolerance")
    p.add_argument("--self-mask-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--em-max-iter", type=int)
    p.add_argument("--em-tol", type=float)
    p.add_argument("--init-moments", choices=["implied", "saturated"])


def _check_file_value(key: str, value, default) -> None:
    """Reject a config-file value whose type differs from the default's.

    A float option takes an int or a float, an int option an int, a flag a
    bool, and any other option a string (or null where its default is None).
    Values are never converted.
    """
    if isinstance(default, bool):
        kinds, wanted = (bool,), "true or false"
    elif isinstance(default, float):
        kinds, wanted = (int, float), "a number"
    elif isinstance(default, int):
        kinds, wanted = (int,), "an integer"
    elif default is None:
        kinds, wanted = (str, type(None)), "a string or null"
    else:
        kinds, wanted = (str,), "a string"
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise InputError(f"config key {key!r} must be {wanted}, got {json.dumps(value)}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command-line flag, then config file, then default."""
    command = args.command
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except FileNotFoundError:
            raise InputError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON config: {exc}") from None
        if not isinstance(file_values, dict):
            raise InputError("config file must hold a JSON object")

    options: dict = {}
    flag_values = vars(args)
    keys = set(DEFAULTS[command])
    keys.update(k for k in flag_values if k not in ("command", "config"))
    unknown = set(file_values) - keys
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    for key, value in file_values.items():
        _check_file_value(key, value, DEFAULTS[command].get(key))
    for key in sorted(keys):
        flag = flag_values.get(key)
        if flag is not None:
            options[key] = flag
        elif key in file_values:
            options[key] = file_values[key]
        else:
            options[key] = DEFAULTS[command].get(key)
    return RunConfig(command=command, options=options)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if cfg.options.get(name) in (None, ""):
            raise InputError(f"--{name.replace('_', '-')} is required")


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_jsonify)
        fh.write("\n")


def _envelope(cfg: RunConfig) -> dict:
    return {
        "tool": "semimpute",
        "version": __version__,
        "command": cfg.command,
        "config": dict(cfg.options),
        "seed": cfg.options.get("seed"),
    }


def _write_cell_flags(path, ds_names, flags: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(ds_names)
        fh.writelines(",".join(row) + "\n" for row in np.where(flags, "1", "0").tolist())


def _load_inputs(cfg: RunConfig, path_key: str) -> Dataset:
    _require(cfg, "variables", path_key)
    specs = load_variable_specs(cfg["variables"])
    return load_csv(cfg[path_key], specs, strict=not cfg["lenient"])


def _impute_sesa(
    cfg: RunConfig, ds: Dataset, truth: Dataset | None, seed: int
) -> tuple[Dataset, ImputeReport]:
    """``impute`` with the path model, training, loss and EM settings of ``cfg``."""
    return impute(
        ds,
        load_spec(cfg["sem"]) if cfg["sem"] else None,
        TrainConfig(
            lr=cfg["lr"],
            max_epochs=cfg["epochs"],
            rel_tol=cfg["tol"],
            self_mask_rate=cfg["self_mask_rate"],
            seed=seed,
            mode=cfg["mode"],
        ),
        LossWeights(alpha=cfg["alpha"], beta=cfg["beta"], gamma=cfg["gamma"]),
        truth=truth,
        em=EmConfig(max_iter=cfg["em_max_iter"], tol=cfg["em_tol"]),
        moments=cfg["init_moments"],
    )


def cmd_impute(cfg: RunConfig) -> int:
    _require(cfg, "out_prefix")
    ds = _load_inputs(cfg, "input")
    truth = None
    if cfg["mode"] == MODE_BENCHMARK:
        _require(cfg, "truth")
        truth = load_csv(
            cfg["truth"], ds.specs, strict=not cfg["lenient"]
        )
    elif cfg["truth"]:
        raise InputError("--truth is only meaningful with --mode benchmark")

    imputed, report = _impute_sesa(cfg, ds, truth, cfg["seed"])

    prefix = cfg["out_prefix"]
    save_csv(imputed, f"{prefix}.imputed.csv")
    _write_cell_flags(f"{prefix}.provenance.csv", imputed.names, report.provenance)
    payload = _envelope(cfg)
    payload.update(
        {
            "n_rows": ds.n,
            "n_columns": ds.d,
            "n_imputed": report.n_imputed,
            "em_iterations": report.em_iterations,
            "em_loglik": report.em_loglik,
            "em_stop": report.em_stop,
            "em_loglik_history": list(report.em_loglik_history),
            "epochs": report.epochs,
            "history": [r._asdict() for r in report.history],
            "warnings": list(report.warnings),
            "outputs": {
                "imputed": f"{prefix}.imputed.csv",
                "provenance": f"{prefix}.provenance.csv",
            },
        }
    )
    write_json(f"{prefix}.report.json", payload)
    return 0


def _run_method(
    cfg: RunConfig,
    method: str,
    masked: Dataset,
    truth: Dataset,
    seed: int,
) -> tuple[Dataset, dict]:
    if method == "mean":
        return mean_impute(masked), {}
    if method == "median":
        return median_impute(masked), {}
    if method == "knn":
        return knn_impute(masked, k=cfg["knn_k"]), {}
    if method == "sesa":
        benchmark_truth = truth if cfg["mode"] == MODE_BENCHMARK else None
        imputed, report = _impute_sesa(cfg, masked, benchmark_truth, seed)
        return imputed, {
            "epochs": report.epochs,
            "em_iterations": report.em_iterations,
        }
    if method.startswith("external:"):
        path = method.split(":", 1)[1]
        external = load_csv(path, truth.specs, strict=not cfg["lenient"])
        if external.n_missing() != 0:
            raise InputError("external imputed CSV must be complete")
        if external.values.shape != truth.values.shape:
            raise InputError("external imputed CSV shape differs from truth")
        return external, {}
    raise InputError(f"unknown method {method!r}")


def cmd_evaluate(cfg: RunConfig) -> int:
    _require(cfg, "out_prefix", "method")
    truth = _load_inputs(cfg, "truth")
    if truth.n_missing() != 0:
        raise InputError("ground-truth CSV must be complete")
    truth_enc = encode_ordinal(truth)

    trials = int(cfg["trials"])
    if trials < 1:
        raise InputError("--trials must be at least 1")
    method = cfg["method"]
    if method.startswith("external:") and trials != 1:
        raise InputError("external method supports a single trial only")

    prefix = cfg["out_prefix"]
    reports: list[EvaluationReport] = []
    seeds: list[int] = []
    for trial in range(1, trials + 1):
        seed = cfg["seed"] if trials == 1 else derive_seed(cfg["seed"], trial)
        seeds.append(seed)
        masked, plan = apply_mcar(truth_enc, cfg["rate"], seed)
        eval_mask = np.zeros(truth_enc.values.shape, dtype=bool)
        eval_mask[plan.index()] = True
        imputed, extra = _run_method(cfg, method, masked, truth_enc, seed)
        meta = {
            "method": method,
            "rate": cfg["rate"],
            "seed": seed,
            "trial": trial,
            "masked_cells": plan.count,
        }
        meta.update(extra)
        report = evaluate(
            encode_ordinal(imputed) if method == "sesa" else imputed,
            truth_enc,
            eval_mask,
            sample_size=truth_enc.n,
            metadata=meta,
        )
        reports.append(report)
        if trials > 1:
            payload = _envelope(cfg)
            payload["report"] = report_to_dict(report)
            write_json(f"{prefix}.trial{trial}.report.json", payload)
            if cfg["report_format"] == "csv":
                with open(
                    f"{prefix}.trial{trial}.report.csv", "w", encoding="utf-8"
                ) as fh:
                    fh.write(report_to_csv(report))

    payload = _envelope(cfg)
    if trials == 1:
        payload["report"] = report_to_dict(reports[0])
    else:
        payload["trial_seeds"] = seeds
        payload["trials"] = [report_to_dict(r) for r in reports]
        payload["mean_of_trials"] = _mean_of_trials(reports)
    write_json(f"{prefix}.report.json", payload)
    if cfg["report_format"] == "csv":
        with open(f"{prefix}.report.csv", "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(reports[0]) if trials == 1 else _mean_csv(reports))
    return 0


def _mean_of_trials(reports: list[EvaluationReport]) -> dict:
    """Arithmetic mean of every numeric field across trials, by variable."""
    agg = {
        key: float(np.mean([getattr(r.aggregate, key) for r in reports]))
        for key in ("rmse", "mape_pct", "r2", "wasserstein")
    }
    names = [v.name for v in reports[0].per_variable]
    shared = [
        n
        for n in names
        if all(any(v.name == n for v in r.per_variable) for r in reports)
    ]
    per_variable = []
    for name in shared:
        rows = [next(v for v in r.per_variable if v.name == name) for r in reports]
        per_variable.append(
            {
                "name": name,
                "rmse": float(np.mean([v.rmse for v in rows])),
                "mape_pct": float(np.mean([v.mape_pct for v in rows])),
                "r2": float(np.mean([v.r2 for v in rows])),
                "wasserstein": float(np.mean([v.wasserstein for v in rows])),
                "wilcoxon_statistic": float(
                    np.mean([v.wilcoxon.statistic for v in rows])
                ),
                "wilcoxon_p": float(np.mean([v.wilcoxon.p_value for v in rows])),
                "effect_size": float(np.mean([v.wilcoxon.effect_size for v in rows])),
            }
        )
    return {"aggregate": agg, "per_variable": per_variable}


def _mean_csv(reports: list[EvaluationReport]) -> str:
    mean = _mean_of_trials(reports)
    header = "variable rmse mape_pct r2 wasserstein wilcoxon_statistic wilcoxon_p effect_size".split()
    rows = [[v[key] for key in ("name", *header[1:])] for v in mean["per_variable"]]
    agg = mean["aggregate"]
    rows.append(["AGGREGATE", *(agg[key] for key in header[1:5]), None, None, None])
    return csv_text(header, rows)


def _spec_to_text(spec: SemSpec) -> str:
    lines = [f"{eq.outcome} ~ {' + '.join(eq.predictors)}" for eq in spec.equations]
    return "\n".join(lines) + ("\n" if lines else "")


def _graph_dot(names, w: np.ndarray) -> str:
    lines = ["digraph dependencies {"]
    for name in names:
        lines.append(f'  "{name}";')
    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            if w[i, j] != 0.0:
                lines.append(f'  "{src}" -> "{dst}" [label="{w[i, j]:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_discover(cfg: RunConfig) -> int:
    _require(cfg, "out_prefix")
    # threshold_dag checks this too, but only after the whole fit.
    if cfg["threshold"] < 0:
        raise InputError("threshold must be non-negative")
    ds = _load_inputs(cfg, "input")
    ds = encode_ordinal(ds)
    source = "complete"
    if ds.n_missing() != 0:
        keep = np.asarray(ds.mask).all(axis=1)
        if int(keep.sum()) < 2:
            raise InputError(
                "fewer than 2 complete rows; impute before running discovery"
            )
        ds = Dataset(
            values=ds.values[keep],
            mask=ds.mask[keep],
            specs=ds.specs,
        )
        source = "complete_cases"

    ncfg = NotearsConfig(
        lambda1=cfg["lambda1"],
        h_tol=cfg["h_tol"],
        inner_lr=cfg["inner_lr"],
        inner_steps=cfg["inner_steps"],
    )
    graph = notears_fit(ds, ncfg)
    display = threshold_dag(graph, cfg["threshold"])

    prefix = cfg["out_prefix"]
    payload = _envelope(cfg)
    payload.update(
        {
            "names": list(graph.names),
            "weights": graph.w.tolist(),
            "threshold": cfg["threshold"],
            "converged": graph.converged,
            "rows_used": ds.n,
            "source": source,
            "edges": [
                {"from": a, "to": b, "weight": wgt} for a, b, wgt in display.edges()
            ],
        }
    )
    write_json(f"{prefix}.graph.json", payload)
    with open(f"{prefix}.graph.dot", "w", encoding="utf-8") as fh:
        fh.write(_graph_dot(display.names, display.w))

    if cfg["suggest_outcome"]:
        spec = suggest_spec(display, cfg["suggest_outcome"])
        with open(f"{prefix}.suggested.sem", "w", encoding="utf-8") as fh:
            fh.write(_spec_to_text(spec))
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    _require(cfg, "out_prefix")
    ds = _load_inputs(cfg, "input")
    columns = None
    if cfg["columns"]:
        names = [c.strip() for c in str(cfg["columns"]).split(",") if c.strip()]
        columns = [ds.column_index(name) for name in names]
    masked, plan = apply_mcar(ds, cfg["rate"], cfg["seed"], columns=columns)

    prefix = cfg["out_prefix"]
    save_csv(masked, f"{prefix}.masked.csv")
    _write_cell_flags(f"{prefix}.mask.csv", masked.names, masked.mask)
    payload = _envelope(cfg)
    payload.update(
        {
            "n_rows": ds.n,
            "n_columns": ds.d,
            "masked_cells": plan.count,
            "outputs": {
                "masked": f"{prefix}.masked.csv",
                "mask": f"{prefix}.mask.csv",
            },
        }
    )
    write_json(f"{prefix}.report.json", payload)
    return 0


COMMANDS = {
    "impute": cmd_impute,
    "evaluate": cmd_evaluate,
    "discover": cmd_discover,
    "simulate": cmd_simulate,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        cfg = resolve_config(args)
        return COMMANDS[cfg.command](cfg)
    except NumericalError as exc:
        print(f"semimpute: numerical error: {exc}", file=sys.stderr)
        return 3
    except SemimputeError as exc:
        print(f"semimpute: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"semimpute: {exc}", file=sys.stderr)
        return 2
