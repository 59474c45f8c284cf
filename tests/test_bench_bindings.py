"""Every package name the benchmark reaches into still resolves.

``bench/trace.py`` wraps functions by (module, attribute) and leaves a
per-layer metric out when one is gone; ``bench/reference.py`` imports
helpers from the package.  Both are read as source, not imported or run.
The training spans fire only while ``train`` reaches its per-epoch calls
through the module's globals, which the last test checks.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from semimpute import training
from semimpute.dataset import Dataset, VariableSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _trace_wraps() -> list[tuple[str, str]]:
    tree = ast.parse((BENCH / "trace.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets
        ):
            return [("semimpute." + module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/trace.py defines no WRAPS")


def _reference_imports() -> list[tuple[str, str]]:
    tree = ast.parse((BENCH / "reference.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semimpute")
        for alias in node.names
    ]


def test_bench_bindings_resolve():
    bindings = sorted(set(_trace_wraps()) | set(_reference_imports()))
    assert ("semimpute.training", "adam_step") in bindings
    assert ("semimpute.training", "_nearest_pd") in bindings
    missing = [f"{m}.{a}" for m, a in bindings if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_train_calls_each_traced_epoch_function_once_per_epoch(monkeypatch):
    names = ("attention_forward", "composite_loss", "grad_composite", "adam_step")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(training, name, counted(name, getattr(training, name)))
    rng = np.random.default_rng(0)
    mask = rng.random((30, 3)) > 0.2
    ds = Dataset(
        values=np.where(mask, rng.random((30, 3)), 0.0),
        mask=mask,
        specs=tuple(VariableSpec(f"v{j}", "continuous") for j in range(3)),
    )
    init = ds.with_values(np.where(mask, ds.values, 0.5))
    training.train(ds, init, None, training.TrainConfig(max_epochs=3, rel_tol=0.0))
    assert calls == dict.fromkeys(names, 3)
