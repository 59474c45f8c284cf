"""Deterministic MCAR masking.

The selection of cells to hide is a pure function of (shape, scope, rate,
seed): cells in scope are enumerated row-major and an exact count of them is
drawn without replacement via the package PRNG.  A draw comes back as an
(n, d) boolean matrix of the hidden cells, the form of ``Dataset.mask``.
"""

from __future__ import annotations

import numpy as np

from .dataset import MISSING_SENTINEL, Dataset
from .errors import InputError
from .rng import choose_without_replacement


def plan_mcar(
    shape: tuple[int, int],
    rate: float,
    seed: int,
    *,
    columns: list[int] | None = None,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """Choose exactly ``floor(rate * m + 0.5)`` of the m in-scope cells.

    Scope is the whole matrix by default, restricted by ``columns`` and/or an
    ``eligible`` boolean matrix (e.g. currently-observed cells).  Cells are
    enumerated row-major so the draw is reproducible across runs and
    platforms.  Returns the (n, d) boolean matrix of the chosen cells.
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
    hidden = np.zeros((n, d), dtype=bool)
    hidden.flat[pool[choose_without_replacement(pool.size, count, seed)]] = True
    return hidden


def apply_mcar(
    ds: Dataset,
    rate: float,
    seed: int,
    *,
    columns: list[int] | None = None,
) -> tuple[Dataset, np.ndarray]:
    """Hide an exact MCAR fraction of the currently-observed cells.

    Hidden cells get mask=False and the 0.0 sentinel value.  Returns the
    masked dataset and the boolean matrix of the cells it hid.
    """
    hidden = plan_mcar((ds.n, ds.d), rate, seed, columns=columns, eligible=ds.mask)
    masked = Dataset(
        values=np.where(hidden, MISSING_SENTINEL, ds.values),
        mask=ds.mask & ~hidden,
        specs=ds.specs,
        normalization=ds.normalization,
    )
    return masked, hidden
