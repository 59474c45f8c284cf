"""Run one semimpute command in this process with spans around its layers.

    python3 bench/trace.py SPANS.json -- impute --variables ... --out-prefix ...

The spans wrap the package's functions as they are bound in the calling
module (``semimpute.training.attention_forward`` and so on), so nothing under
``src/`` changes.  Each span records its name, start, end, parent and a few
counts; the list is written to SPANS.json when the command returns, and the
process exits with the command's own exit code.  A wrapped name that no
longer exists is listed under "missing" and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name).  Several bindings of one function share a
# span name, e.g. plan_mcar as called by apply_mcar and by the self-mask draw.
WRAPS = (
    ("cli", "load_csv", "dataset.load_csv"),
    ("cli", "save_csv", "dataset.save_csv"),
    ("cli", "_write_cell_flags", "cli.write_flags"),
    ("cli", "write_json", "cli.write_json"),
    ("cli", "report_to_csv", "cli.format_csv"),
    ("cli", "_mean_csv", "cli.format_csv"),
    ("cli", "encode_ordinal", "dataset.prepare"),
    ("cli", "apply_mcar", "missingness.apply_mcar"),
    ("cli", "impute", "training.impute"),
    ("cli", "mean_impute", "baselines.mean_median"),
    ("cli", "median_impute", "baselines.mean_median"),
    ("cli", "knn_impute", "baselines.knn"),
    ("cli", "evaluate", "metrics.evaluate"),
    ("cli", "notears_fit", "notears.fit"),
    ("cli", "threshold_dag", "notears.threshold"),
    ("missingness", "plan_mcar", "missingness.plan_mcar"),
    ("training", "plan_mcar", "missingness.plan_mcar"),
    ("training", "encode_ordinal", "dataset.prepare"),
    ("training", "normalize", "dataset.prepare"),
    ("training", "apply_normalization", "dataset.prepare"),
    ("training", "pairwise_stats", "dataset.prepare"),
    ("fiml", "pairwise_stats", "dataset.prepare"),
    ("baselines", "normalize", "dataset.prepare"),
    ("training", "denormalize", "dataset.restore"),
    ("training", "snap_ordinals", "dataset.restore"),
    ("training", "fit_paths_fiml", "sem.fit_paths"),
    ("training", "em_fit", "fiml.em_fit"),
    ("sem", "em_fit", "fiml.em_fit"),
    ("fiml", "_loglik_observed", "fiml.loglik"),
    ("training", "conditional_impute", "fiml.conditional_impute"),
    ("training", "train", "training.train"),
    ("training", "_self_mask_matrix", "training.self_mask"),
    ("training", "attention_forward", "attention.forward"),
    ("training", "composite_loss", "training.loss"),
    ("training", "grad_composite", "training.backward"),
    ("training", "adam_step", "training.adam"),
    ("metrics", "wilcoxon_signed_rank", "metrics.wilcoxon"),
)


def _count_patterns(ds) -> int:
    import numpy as np

    return int(np.unique(np.packbits(np.asarray(ds.mask), axis=1), axis=0).shape[0])


def _counts(name: str, args, result) -> dict:
    """Work counts read off a call's inputs or its returned report."""
    if name == "attention.forward":
        n, d = args[0].shape
        return {"n": n, "d": d, "k": args[1].dk}
    if name == "fiml.em_fit":
        return {"iterations": result.iterations, "patterns": _count_patterns(args[0])}
    if name == "training.train":
        return {"epochs": len(result.history)}
    return {}


class Tracer:
    """Keeps spans in memory; ``install`` swaps the wrapped bindings in."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_counts(name, args, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = importlib.import_module("semimpute." + module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: semimpute.{module_name}.{attr} not found; {name} left out", file=sys.stderr)
                self.missing.append(name)
                continue
            setattr(module, attr, self.wrap(name, fn))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    from semimpute._entry import pin_threads

    pin_threads()
    from semimpute import cli

    tracer = Tracer()
    tracer.install()
    code = cli.run(command)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
