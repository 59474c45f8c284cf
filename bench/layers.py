"""Per-layer metrics from the spans bench/trace.py records.

A layer's time is the summed duration of its spans, not counting a span
nested in another of the same name; self time subtracts the direct child
spans.  Counts come from call counts, from the returned reports or from the
inputs (recorded by the tracer).  attention.forward_gflop and
attention.score_matrix_mib are computed from n, d, k and the call count.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict


class Spans:
    """Spans of one traced round, indexed by name."""

    def __init__(self, files: list[dict]):
        self.spans: list[dict] = []
        self.missing = set()
        for data in files:
            base = len(self.spans)
            for span in data["spans"]:
                parent = span["parent"]
                self.spans.append(dict(span, parent=None if parent is None else base + parent))
            self.missing.update(data["missing"])
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for index, span in enumerate(self.spans):
            span["dur"] = span["end"] - span["start"]
            self.by_name[span["name"]].append(index)
            if span["parent"] is not None:
                self.children[span["parent"]].append(index)

    def ancestors(self, index: int):
        parent = self.spans[index]["parent"]
        while parent is not None:
            yield self.spans[parent]["name"]
            parent = self.spans[parent]["parent"]

    def outermost(self, name: str) -> list[int]:
        return [i for i in self.by_name[name] if name not in self.ancestors(i)]

    def total(self, *names: str) -> float:
        return sum(self.spans[i]["dur"] for name in names for i in self.outermost(name))

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def self_time(self, index: int, only: str | None = None) -> float:
        kids = [k for k in self.children[index] if only is None or self.spans[k]["name"] == only]
        return self.spans[index]["dur"] - sum(self.spans[k]["dur"] for k in kids)

    def field(self, name: str, key: str) -> list:
        return [self.spans[i].get(key, 0) for i in self.by_name[name]]


def _forward_gflop(s: Spans) -> float:
    # q, k projections 2*n*d*k each, v projection 2*n*d*d, scores 2*n*n*k,
    # weighted sum 2*n*n*d; the softmax's elementwise work is left out.
    return sum(
        (4 * n * d * k + 2 * n * d * d + 2 * n * n * k + 2 * n * n * d) / 1e9
        for n, d, k in zip(s.field("attention.forward", "n"), s.field("attention.forward", "d"),
                           s.field("attention.forward", "k"))
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, span names the value needs, function of Spans)
METRICS = {
    "dataset.load_csv_s": ("s", ["dataset.load_csv"], lambda s: s.total("dataset.load_csv")),
    "dataset.save_csv_s": ("s", ["dataset.save_csv"], lambda s: s.total("dataset.save_csv")),
    "cli.write_s": ("s", ["dataset.save_csv", "cli.write_flags", "cli.write_json", "cli.format_csv"],
                    lambda s: s.total("dataset.save_csv", "cli.write_flags", "cli.write_json", "cli.format_csv")),
    "dataset.prepare_s": ("s", ["dataset.prepare"], lambda s: s.total("dataset.prepare")),
    "dataset.restore_s": ("s", ["dataset.restore"], lambda s: s.total("dataset.restore")),
    "missingness.plan_mcar_s": ("s", ["missingness.plan_mcar"], lambda s: s.total("missingness.plan_mcar")),
    "missingness.plan_mcar_calls": ("count", ["missingness.plan_mcar"], lambda s: s.calls("missingness.plan_mcar")),
    "missingness.apply_mcar_s": ("s", ["missingness.apply_mcar"], lambda s: s.total("missingness.apply_mcar")),
    "fiml.em_fit_s": ("s", ["fiml.em_fit"], lambda s: s.total("fiml.em_fit")),
    "fiml.em_iterations": ("count", ["fiml.em_fit"], lambda s: sum(s.field("fiml.em_fit", "iterations"))),
    "fiml.em_loglik_s": ("s", ["fiml.em_fit", "fiml.loglik"], lambda s: sum(
        s.self_time(i) for i in s.by_name["fiml.loglik"] if "fiml.em_fit" in s.ancestors(i))),
    "fiml.em_step_s": ("s", ["fiml.em_fit", "fiml.loglik", "dataset.prepare"],
                       lambda s: sum(s.self_time(i) for i in s.outermost("fiml.em_fit"))),
    "fiml.patterns": ("count", ["fiml.em_fit"], lambda s: sum(s.field("fiml.em_fit", "patterns"))),
    "fiml.conditional_impute_s": ("s", ["fiml.conditional_impute"], lambda s: s.total("fiml.conditional_impute")),
    "sem.fit_paths_s": ("s", ["sem.fit_paths", "fiml.em_fit"], lambda s: sum(
        s.self_time(i, only="fiml.em_fit") for i in s.outermost("sem.fit_paths"))),
    "attention.forward_s": ("s", ["attention.forward"], lambda s: s.total("attention.forward")),
    "attention.forward_calls": ("count", ["attention.forward"], lambda s: s.calls("attention.forward")),
    "attention.forward_gflop": ("GFLOP", ["attention.forward"], _forward_gflop),
    "attention.forward_gflop_per_s": ("GFLOP/s", ["attention.forward"],
                                      lambda s: _ratio(_forward_gflop(s), s.total("attention.forward"))),
    "attention.score_matrix_mib": ("MiB", ["attention.forward"],
                                   lambda s: max([n * n * 8 / 2**20 for n in s.field("attention.forward", "n")],
                                                 default=0.0)),
    "training.train_s": ("s", ["training.train"], lambda s: s.total("training.train")),
    "training.epochs": ("count", ["training.train"], lambda s: sum(s.field("training.train", "epochs"))),
    "training.epoch_ms": ("ms", ["training.train"], lambda s: 1e3 * _ratio(
        s.total("training.train"), sum(s.field("training.train", "epochs")))),
    "training.backward_s": ("s", ["training.backward"], lambda s: s.total("training.backward")),
    "training.loss_s": ("s", ["training.loss"], lambda s: s.total("training.loss")),
    "training.adam_s": ("s", ["training.adam"], lambda s: s.total("training.adam")),
    "training.self_mask_s": ("s", ["training.self_mask"], lambda s: s.total("training.self_mask")),
    "training.final_refine_s": ("s", ["attention.forward", "training.impute"], lambda s: sum(
        s.spans[i]["dur"] for i in s.by_name["attention.forward"]
        if s.spans[i]["parent"] is not None and s.spans[s.spans[i]["parent"]]["name"] == "training.impute")),
    "baselines.knn_s": ("s", ["baselines.knn"], lambda s: s.total("baselines.knn")),
    "baselines.mean_median_s": ("s", ["baselines.mean_median"], lambda s: s.total("baselines.mean_median")),
    "metrics.evaluate_s": ("s", ["metrics.evaluate"], lambda s: s.total("metrics.evaluate")),
    "metrics.wilcoxon_s": ("s", ["metrics.wilcoxon"], lambda s: s.total("metrics.wilcoxon")),
    "notears.fit_s": ("s", ["notears.fit"], lambda s: s.total("notears.fit")),
    "notears.threshold_s": ("s", ["notears.threshold"], lambda s: s.total("notears.threshold")),
}


def per_layer_metrics(traced: list, plain: list) -> dict:
    """Median over the traced rounds of every layer metric.

    tracing.overhead_s is the traced round's wall time minus that of the
    untraced round run just before it, both summed over child processes.
    """
    rounds = [Spans(r.spans) for r in traced]
    out = {}
    for name, (unit, needs, fn) in METRICS.items():
        absent = sorted(set(needs) & rounds[0].missing)
        if absent:
            print(f"trace: {name} left out, wrapped call(s) {absent} not found", file=sys.stderr)
            continue
        out[name] = {"value": statistics.median(fn(s) for s in rounds), "unit": unit}
    out["tracing.overhead_s"] = {
        "value": statistics.median(t.wall - p.wall for t, p in zip(traced, plain)),
        "unit": "s",
    }
    return out
