"""Deterministic MCAR masking.

The selection of cells to hide is a pure function of (shape, scope, rate,
seed): cells in scope are enumerated row-major and an exact count of them is
drawn without replacement via the package PRNG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import MISSING_SENTINEL, Dataset
from .errors import InputError
from .rng import choose_without_replacement


@dataclass(frozen=True)
class MaskPlan:
    """The cells an MCAR pass will hide, before any data is touched."""

    shape: tuple[int, int]
    cells: tuple[tuple[int, int], ...]
    rate: float
    seed: int

    @property
    def count(self) -> int:
        return len(self.cells)

    def index(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column index arrays of ``cells``, for fancy indexing."""
        rows_cols = np.array(self.cells, dtype=np.intp).reshape(-1, 2)
        return rows_cols[:, 0], rows_cols[:, 1]


def plan_mcar(
    shape: tuple[int, int],
    rate: float,
    seed: int,
    *,
    columns: list[int] | None = None,
    eligible: np.ndarray | None = None,
) -> MaskPlan:
    """Choose exactly ``floor(rate * m + 0.5)`` of the m in-scope cells.

    Scope is the whole matrix by default, restricted by ``columns`` and/or an
    ``eligible`` boolean matrix (e.g. currently-observed cells).  Cells are
    enumerated row-major so the draw is reproducible across runs and
    platforms.
    """
    n, d = shape
    if not 0.0 <= rate < 1.0:
        raise InputError(f"missingness rate must lie in [0, 1), got {rate}")
    scope = np.zeros((n, d), dtype=bool)
    for c in range(d) if columns is None else columns:
        if not 0 <= c < d:
            raise InputError(f"mask column {c} out of range for {d} columns")
        scope[:, c] = True
    if eligible is not None:
        eligible = np.asarray(eligible, dtype=bool)
        if eligible.shape != (n, d):
            raise InputError(f"eligible must be {n} x {d}, got {eligible.shape}")
        scope &= eligible
    pool = np.flatnonzero(scope)
    count = int(np.floor(rate * pool.size + 0.5))
    picked = pool[choose_without_replacement(pool.size, count, seed)]
    cells = tuple(zip((picked // d).tolist(), (picked % d).tolist()))
    return MaskPlan(shape=shape, cells=cells, rate=rate, seed=seed)


def apply_mcar(
    ds: Dataset,
    rate: float,
    seed: int,
    *,
    columns: list[int] | None = None,
) -> tuple[Dataset, MaskPlan]:
    """Hide an exact MCAR fraction of the currently-observed cells.

    Hidden cells get mask=False and the 0.0 sentinel value.  Returns the
    masked dataset and the plan that produced it.
    """
    plan = plan_mcar(
        (ds.n, ds.d), rate, seed, columns=columns, eligible=np.asarray(ds.mask)
    )
    cells = plan.index()
    values = ds.values.copy()
    mask = ds.mask.copy()
    values[cells] = MISSING_SENTINEL
    mask[cells] = False
    return ds.with_values(values).with_mask(mask), plan
