"""Command-line surface: impute, evaluate, discover, simulate.

Every artifact is accompanied by (or is) a JSON report embedding the tool
version, the fully resolved configuration, and the seed, so a run can be
reproduced from its own outputs.  Exit codes: 0 success, 2 input error,
3 numerical error.

``OPTIONS`` declares every option of every command once: its kind, default
and help.  ``build_parser`` makes the flags from it, and ``resolve_config``
merges flag, config file and default (in that order of precedence), checking
each config-file value against the declared kind.
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
from .metrics import CSV_COLUMNS, AggregateMetrics, EvaluationReport, csv_row, csv_text
from .metrics import evaluate, report_to_csv, report_to_dict
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

# Options that every command takes.
_COMMON: dict = {
    "variables": (str, None, "JSON file of column specs"),
    "out_prefix": (str, None, "prefix for output files"),
    "lenient": (bool, False, "treat unparseable cells as missing instead of erroring"),
}

# Path-model, training, loss and EM options of impute and evaluate (sesa).
_TRAINING: dict = {
    "sem": (str, None, "path-model file for structured initialization"),
    "alpha": (float, LossWeights.alpha, "MSE weight"),
    "beta": (float, LossWeights.beta, "covariance-match weight"),
    "gamma": (float, LossWeights.gamma, "L1 weight"),
    "lr": (float, TrainConfig.lr, "Adam learning rate"),
    "epochs": (int, TrainConfig.max_epochs, "training epoch cap"),
    "tol": (float, TrainConfig.rel_tol, "relative loss tolerance"),
    "self_mask_rate": (float, TrainConfig.self_mask_rate, "observed share hidden per epoch"),
    "seed": (int, TrainConfig.seed, "seed of every random draw"),
    "em_max_iter": (int, EmConfig.max_iter, "EM iteration cap"),
    "em_tol": (float, EmConfig.tol, "EM log-likelihood tolerance"),
    "init_moments": (("implied", "saturated"), "implied", "moments of the initial fill"),
}

# command -> (summary, {option: (kind, default, help)}).  ``kind`` is str,
# int, float, bool (a flag that takes no value) or a tuple of choices.  The
# flag is ``--`` plus the name with ``-`` for ``_``.
OPTIONS: dict[str, tuple[str, dict]] = {
    "impute": ("fill missing cells in a CSV", {
        **_COMMON,
        "input": (str, None, "CSV with missing cells"),
        "truth": (str, None, "complete CSV (benchmark mode only)"),
        "mode": ((MODE_SELF_SUPERVISED, MODE_BENCHMARK), TrainConfig.mode, "training target"),
        **_TRAINING,
    }),
    "evaluate": ("mask a complete CSV, impute, score", {
        **_COMMON,
        "truth": (str, None, "complete ground-truth CSV"),
        "method": (str, "sesa", "sesa, mean, median, knn, or external:<imputed.csv>"),
        "rate": (float, 0.3, "missingness rate to apply"),
        "trials": (int, 1, "number of masked replicates"),
        "knn_k": (int, 5, "neighbor count for method knn"),
        "mode": ((MODE_BENCHMARK, MODE_SELF_SUPERVISED), MODE_BENCHMARK, "training target"),
        "report_format": (("json", "csv"), "json", "also write a CSV report"),
        **_TRAINING,
    }),
    "discover": ("learn a weighted DAG over the columns", {
        **_COMMON,
        "input": (str, None, "complete or imputed CSV"),
        "threshold": (float, 0.3, "edge display threshold"),
        "lambda1": (float, NotearsConfig.lambda1, "L1 penalty on edge weights"),
        "h_tol": (float, NotearsConfig.h_tol, "acyclicity tolerance"),
        "inner_lr": (float, NotearsConfig.inner_lr, "Adam learning rate of the inner solve"),
        "inner_steps": (int, NotearsConfig.inner_steps, "Adam steps per inner solve"),
        "suggest_outcome": (str, None, "emit a model file for this variable"),
    }),
    "simulate": ("hide an exact fraction of observed cells", {
        **_COMMON,
        "input": (str, None, "CSV to mask"),
        "rate": (float, 0.3, "share of observed cells to hide"),
        "seed": (int, 0, "seed of the mask draw"),
        "columns": (str, None, "comma-separated column names to mask"),
    }),
}

# The report columns a mean across trials keeps: variable to effect_size.
MEAN_COLUMNS = CSV_COLUMNS[: CSV_COLUMNS.index("effect_size") + 1]

# Config-file value types of each non-choice kind, and how a message names them.
_FILE_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
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
    for command, (summary, options) in OPTIONS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override it")
        # Every default stays None, so resolve_config can tell a given flag.
        for name, (kind, _, text) in options.items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True, help=text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=text)
            else:
                p.add_argument(flag, type=kind, help=text)
    return parser


def _check_file_value(key: str, value, kind, default) -> None:
    """Reject a config-file value that is not of its option's declared kind.

    A float option takes an int or a float, an int option an int, a flag a
    bool, a choice option one of its choices, and a string option a string
    (or null where its default is None).  Values are never converted.
    """
    if isinstance(kind, tuple):
        if value not in kind:
            raise InputError(f"config key {key!r} must be one of {list(kind)}, got {json.dumps(value)}")
        return
    types, wanted = _FILE_TYPES[kind]
    if default is None:
        types, wanted = (*types, type(None)), f"{wanted} or null"
    if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
        raise InputError(f"config key {key!r} must be {wanted}, got {json.dumps(value)}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command-line flag, then config file, then default."""
    command = args.command
    file_values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except FileNotFoundError:
            raise InputError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON config: {exc}") from None
        if not isinstance(file_values, dict):
            raise InputError("config file must hold a JSON object")

    table = OPTIONS[command][1]
    unknown = set(file_values) - set(table)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    for key, value in file_values.items():
        kind, default, _ = table[key]
        _check_file_value(key, value, kind, default)
    options: dict = {}
    for key in sorted(table):
        flag = getattr(args, key)
        if flag is not None:
            options[key] = flag
        elif key in file_values:
            options[key] = file_values[key]
        else:
            options[key] = table[key][1]
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
        masked, eval_mask = apply_mcar(truth_enc, cfg["rate"], seed)
        imputed, extra = _run_method(cfg, method, masked, truth_enc, seed)
        meta = {
            "method": method,
            "rate": cfg["rate"],
            "seed": seed,
            "trial": trial,
            "masked_cells": int(eval_mask.sum()),
        }
        meta.update(extra)
        report = evaluate(
            imputed,
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
        for key in AggregateMetrics._fields
    }
    by_name = [{v.name: csv_row(v) for v in r.per_variable} for r in reports]
    per_variable = []
    for v in reports[0].per_variable:
        if all(v.name in rows for rows in by_name):
            columns = zip(*(rows[v.name][1 : len(MEAN_COLUMNS)] for rows in by_name))
            means = [float(np.mean(c)) for c in columns]
            per_variable.append({"name": v.name, **dict(zip(MEAN_COLUMNS[1:], means))})
    return {"aggregate": agg, "per_variable": per_variable}


def _mean_csv(reports: list[EvaluationReport]) -> str:
    mean = _mean_of_trials(reports)
    rows = [[v["name"], *(v[key] for key in MEAN_COLUMNS[1:])] for v in mean["per_variable"]]
    rows.append(["AGGREGATE", *mean["aggregate"].values(), None, None, None])
    return csv_text(list(MEAN_COLUMNS), rows)


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
    if cfg["columns"] is not None:
        names = [c.strip() for c in cfg["columns"].split(",") if c.strip()]
        if not names:
            raise InputError(f"--columns names no column: {cfg['columns']!r}")
        columns = [ds.column_index(name) for name in names]
    masked, hidden = apply_mcar(ds, cfg["rate"], cfg["seed"], columns=columns)

    prefix = cfg["out_prefix"]
    save_csv(masked, f"{prefix}.masked.csv")
    _write_cell_flags(f"{prefix}.mask.csv", masked.names, masked.mask)
    payload = _envelope(cfg)
    payload.update(
        {
            "n_rows": ds.n,
            "n_columns": ds.d,
            "masked_cells": int(hidden.sum()),
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
