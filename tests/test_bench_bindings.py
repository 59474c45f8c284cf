"""Every package name the benchmark reaches into still resolves.

``bench/trace.py`` wraps functions by (module, attribute) and leaves a
per-layer metric out when one is gone; ``bench/reference.py`` imports
helpers from the package.  Both are read as source, not imported or run.
"""

import ast
import importlib
from pathlib import Path

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
