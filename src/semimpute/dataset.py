"""Tabular data with explicit missingness: loading, encoding, normalization.

A :class:`Dataset` is an immutable (values, mask, specs) triple.  Missing
cells carry the sentinel 0.0 and are never read by numerical code; every
consumer branches on the mask.  Operations return new datasets.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError, ParseError, SpecError

MISSING_SENTINEL = 0.0
DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN"})

CONTINUOUS = "continuous"
ORDINAL = "ordinal"

# Variance substituted when a column offers fewer than two observed cells.
VARIANCE_FLOOR = 1e-6

# Rows that save_csv formats at a time.
CSV_BLOCK = 1024


@dataclass(frozen=True)
class VariableSpec:
    """Per-column metadata: name, kind, and (for ordinals) the level order."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, ORDINAL):
            raise SpecError(f"unknown variable kind {self.kind!r} for {self.name!r}")
        if self.kind == ORDINAL:
            if not self.levels:
                raise SpecError(f"ordinal variable {self.name!r} needs levels")
            if len(set(self.levels)) != len(self.levels):
                raise SpecError(f"duplicate levels in variable {self.name!r}")

    @property
    def n_levels(self) -> int:
        return len(self.levels)


class ColumnRange(NamedTuple):
    lo: float
    hi: float


class PairwiseStats(NamedTuple):
    mean: np.ndarray
    cov: np.ndarray
    warnings: list[str]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """n x d value matrix, boolean observation mask, and column specs."""

    values: np.ndarray
    mask: np.ndarray
    specs: tuple[VariableSpec, ...]
    normalization: tuple[ColumnRange, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 2 or mask.shape != values.shape:
            raise InputError("values and mask must be 2-D arrays of equal shape")
        if values.shape[1] != len(self.specs):
            raise InputError(
                f"{values.shape[1]} columns but {len(self.specs)} variable specs"
            )
        if self.normalization is not None and len(self.normalization) != len(self.specs):
            raise InputError("normalization records must match column count")
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "mask", _frozen(mask))
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def column_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown column {name!r}") from None

    def with_values(self, values: np.ndarray) -> "Dataset":
        return replace(self, values=values)

    def with_mask(self, mask: np.ndarray) -> "Dataset":
        return replace(self, mask=mask)

    def n_missing(self) -> int:
        return int((~self.mask).sum())


def load_variable_specs(path) -> tuple[VariableSpec, ...]:
    """Read a JSON array of {name, kind, levels?} records."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"variable spec file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, list):
        raise InputError("variable spec file must hold a JSON array")
    specs = []
    for entry in raw:
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise InputError(f"variable spec entries need name and kind: {entry!r}")
        specs.append(
            VariableSpec(
                name=entry["name"],
                kind=entry["kind"],
                levels=tuple(entry.get("levels", ())),
            )
        )
        if any(s.name == specs[-1].name for s in specs[:-1]):
            raise InputError(f"duplicate variable name {specs[-1].name!r} in {path}")
    return tuple(specs)


def resolve_token(token: str, spec: VariableSpec, *, row: int, strict: bool):
    """Parse one CSV cell per its spec.

    Returns (value, observed).  Ordinal cells resolve exact level labels
    first, then fall back to a numeric code; continuous cells parse as
    floats.  A number must be finite: ``float`` also reads ``nan`` and
    ``inf``, which are neither values nor missing tokens.  In lenient mode
    an unparseable or non-finite cell becomes missing instead of raising.
    """
    if spec.kind == ORDINAL and token in spec.levels:
        return float(spec.levels.index(token)), True
    try:
        value = float(token)
    except ValueError:
        value = None
    else:
        if math.isfinite(value):
            return value, True
    if not strict:
        return MISSING_SENTINEL, False
    if value is not None:
        message = f"{token!r} is not a finite number"
    elif spec.kind == ORDINAL:
        message = f"label {token!r} not in levels of {spec.name!r}"
    else:
        message = f"cannot parse {token!r} as a number"
    raise ParseError(message, row=row, column=spec.name)


def load_csv(
    path,
    specs: Sequence[VariableSpec],
    missing_tokens: frozenset[str] | set[str] | None = None,
    *,
    strict: bool = True,
) -> Dataset:
    """Load a header-row CSV into a Dataset, columns ordered as in ``specs``.

    Header names must match spec names as a set (order-insensitive).  Cells
    equal to a missing token (after stripping surrounding whitespace) become
    mask=False.
    """
    tokens = DEFAULT_MISSING_TOKENS if missing_tokens is None else frozenset(missing_tokens)
    specs = tuple(specs)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            repeated = next(h for i, h in enumerate(header) if h in header[:i])
            raise InputError(f"{path}: column {repeated!r} appears more than once in the header")
        want = [s.name for s in specs]
        if sorted(header) != sorted(want):
            raise InputError(
                f"{path}: header {header} does not match variable specs {want}"
            )
        order = [header.index(name) for name in want]

        rows: list[list[float]] = []
        obs: list[list[bool]] = []
        for rownum, record in enumerate(reader):
            if len(record) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(record)}", row=rownum
                )
            vals, seen = [], []
            for j, spec in zip(order, specs):
                token = record[j].strip()
                if token in tokens:
                    vals.append(MISSING_SENTINEL)
                    seen.append(False)
                    continue
                value, observed = resolve_token(token, spec, row=rownum, strict=strict)
                vals.append(value)
                seen.append(observed)
            rows.append(vals)
            obs.append(seen)

    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(specs))
    mask = np.array(obs, dtype=bool).reshape(len(rows), len(specs))
    return Dataset(values=values, mask=mask, specs=tuple(specs))


def encode_ordinal(ds: Dataset) -> Dataset:
    """Canonicalize every observed ordinal cell to an exact 0-based level index.

    Cells must already hold numeric level codes (CSV labels are resolved at
    load time); a code that is not an integer within its level range is an
    encoding error.
    """
    if not any(s.kind == ORDINAL for s in ds.specs):
        return ds
    values = ds.values.copy()
    for j, spec in enumerate(ds.specs):
        if spec.kind != ORDINAL:
            continue
        rows = np.flatnonzero(ds.mask[:, j])
        x = values[rows, j]
        # Ties go to the even level, as round() does; + 0.0 clears a -0.0.
        idx = np.rint(x) + 0.0
        bad = ~((np.abs(x - idx) <= 1e-9) & (idx >= 0) & (idx < spec.n_levels))
        if bad.any():
            first = int(np.argmax(bad))
            msg = f"value {float(x[first])!r} is not a level index of {spec.name!r}"
            raise ParseError(f"{msg} (0..{spec.n_levels - 1})", row=int(rows[first]), column=spec.name)
        values[rows, j] = idx
    return ds.with_values(values)


def normalize(ds: Dataset) -> Dataset:
    """Min-max map each column to [0, 1] using observed cells only.

    A constant column maps to 0.5 everywhere (observed).  The (lo, hi)
    ranges are stored so :func:`denormalize` can invert exactly.
    """
    if ds.normalization is not None:
        raise InputError("dataset is already normalized")
    ranges = []
    for j, spec in enumerate(ds.specs):
        colmask = ds.mask[:, j]
        if not colmask.any():
            raise InputError(f"cannot normalize fully-missing column {spec.name!r}")
        col = ds.values[colmask, j]
        ranges.append(ColumnRange(float(col.min()), float(col.max())))
    return apply_normalization(ds, tuple(ranges))


def apply_normalization(ds: Dataset, ranges: tuple[ColumnRange, ...]) -> Dataset:
    """Normalize with externally supplied ranges (e.g. from a masked twin)."""
    if ds.normalization is not None:
        raise InputError("dataset is already normalized")
    if len(ranges) != ds.d:
        raise InputError("one (lo, hi) range per column required")
    values = ds.values.copy()
    for j, (lo, hi) in enumerate(ranges):
        colmask = ds.mask[:, j]
        if hi == lo:
            values[colmask, j] = 0.5
        else:
            values[colmask, j] = (values[colmask, j] - lo) / (hi - lo)
    return replace(ds, values=values, normalization=tuple(ranges))


def denormalize(ds: Dataset) -> Dataset:
    """Exact inverse of :func:`normalize` applied to every cell."""
    if ds.normalization is None:
        raise InputError("dataset carries no normalization state")
    values = ds.values.copy()
    for j, (lo, hi) in enumerate(ds.normalization):
        if hi == lo:
            values[:, j] = lo
        else:
            values[:, j] = values[:, j] * (hi - lo) + lo
    return replace(ds, values=values, normalization=None)


def pairwise_stats(ds: Dataset) -> PairwiseStats:
    """Observed means plus pairwise-complete covariances (denominator n_pair).

    Column pairs with fewer than two jointly observed rows fall back to a
    zero covariance; columns with fewer than two observed cells fall back to
    the variance floor.  Fallbacks are listed in the returned warnings.
    """
    n, d = ds.values.shape
    warnings: list[str] = []
    mean = np.empty(d)
    for j, spec in enumerate(ds.specs):
        colmask = ds.mask[:, j]
        if not colmask.any():
            raise InputError(f"column {spec.name!r} has no observed cells")
        mean[j] = ds.values[colmask, j].mean()

    cov = np.zeros((d, d))
    for j in range(d):
        for k in range(j, d):
            both = ds.mask[:, j] & ds.mask[:, k]
            n_pair = int(both.sum())
            if n_pair < 2:
                if j == k:
                    cov[j, j] = VARIANCE_FLOOR
                    warnings.append(
                        f"variance fallback {VARIANCE_FLOOR} for {ds.specs[j].name!r} "
                        f"({n_pair} observed)"
                    )
                else:
                    warnings.append(
                        f"covariance fallback 0 for "
                        f"({ds.specs[j].name!r}, {ds.specs[k].name!r})"
                    )
                continue
            xj = ds.values[both, j]
            xk = ds.values[both, k]
            c = float(np.mean((xj - xj.mean()) * (xk - xk.mean())))
            if j == k:
                cov[j, j] = max(c, VARIANCE_FLOOR) if c <= 0 else c
                if c <= 0:
                    warnings.append(
                        f"variance floor applied to constant column {ds.specs[j].name!r}"
                    )
            else:
                cov[j, k] = cov[k, j] = c
    cov = 0.5 * (cov + cov.T)
    return PairwiseStats(mean=mean, cov=cov, warnings=warnings)


def snap_ordinals(ds: Dataset, cells: np.ndarray) -> Dataset:
    """Round ordinal values at the flagged cells to the nearest valid level.

    Ties go to the lower level; results are clipped to [0, n_levels - 1].
    Cells outside ``cells`` (in particular every observed cell) are returned
    bit-identical.
    """
    cells = np.asarray(cells, dtype=bool)
    if cells.shape != ds.values.shape:
        raise InputError("cell flag matrix must match dataset shape")
    values = ds.values.copy()
    for j, spec in enumerate(ds.specs):
        if spec.kind != ORDINAL:
            continue
        target = cells[:, j]
        if not target.any():
            continue
        snapped = np.ceil(values[target, j] - 0.5)
        # ceil gives -0.0 on (-0.5, 0.5); + 0.0 makes level 0 a plain 0.0.
        values[target, j] = np.clip(snapped, 0.0, float(spec.n_levels - 1)) + 0.0
    return ds.with_values(values)


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV; missing cells become empty fields.

    Observed ordinal cells are emitted as level labels when the stored value
    is within 1e-9 of a valid index; other integral floats below 1e15 in
    magnitude as integers, and the rest with ``repr`` so the round-trip is
    exact.  Cells are formatted a column at a time, ``CSV_BLOCK`` rows at a
    time, so the strings held at once do not grow with the row count.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.names)
        for start in range(0, ds.n, CSV_BLOCK):
            rows = slice(start, start + CSV_BLOCK)
            columns = [
                _format_column(ds.values[rows, j], ds.mask[rows, j], spec)
                for j, spec in enumerate(ds.specs)
            ]
            writer.writerows(zip(*columns))


def _format_column(x: np.ndarray, observed: np.ndarray, spec: VariableSpec) -> list[str]:
    """The CSV fields of one column's block of rows, formatted as ``save_csv`` says."""
    out = np.full(x.size, "", dtype=object)
    todo = observed.copy()
    with np.errstate(invalid="ignore"):
        if spec.kind == ORDINAL:
            idx = np.rint(x)
            label = todo & (np.abs(x - idx) <= 1e-9) & (idx >= 0) & (idx < spec.n_levels)
            out[label] = np.array(spec.levels, dtype=object)[idx[label].astype(np.intp)]
            todo &= ~label
        integral = todo & (np.trunc(x) == x) & (np.abs(x) < 1e15)
    out[integral] = list(map(str, x[integral].astype(np.int64).tolist()))
    todo &= ~integral
    out[todo] = list(map(repr, x[todo].tolist()))
    return out.tolist()
