import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semimpute.dataset import (
    CSV_BLOCK,
    Dataset,
    VariableSpec,
    apply_normalization,
    denormalize,
    encode_ordinal,
    load_csv,
    load_variable_specs,
    normalize,
    pairwise_stats,
    resolve_token,
    save_csv,
    snap_ordinals,
)
from semimpute.errors import InputError, ParseError

SEVERITY = VariableSpec("severity", "ordinal", levels=("low", "mid", "high"))
WEIGHT = VariableSpec("weight", "continuous")


def test_variable_spec_rejects_duplicate_levels():
    with pytest.raises(InputError):
        VariableSpec("x", "ordinal", levels=("a", "a"))


def test_variable_spec_rejects_unknown_kind():
    with pytest.raises(InputError):
        VariableSpec("x", "categorical")


def test_resolve_token_ordinal_label_and_code():
    assert resolve_token("mid", SEVERITY, row=0, strict=True) == (1.0, True)
    assert resolve_token("2", SEVERITY, row=0, strict=True) == (2.0, True)


def test_resolve_token_strict_rejects_unknown_label():
    with pytest.raises(ParseError):
        resolve_token("extreme", SEVERITY, row=3, strict=True)


def test_resolve_token_lenient_turns_junk_into_missing():
    assert resolve_token("extreme", SEVERITY, row=3, strict=False) == (0.0, False)
    assert resolve_token("not-a-number", WEIGHT, row=3, strict=False) == (0.0, False)


def test_resolve_token_strict_rejects_junk_continuous():
    with pytest.raises(ParseError):
        resolve_token("not-a-number", WEIGHT, row=3, strict=True)


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
@pytest.mark.parametrize("spec", [SEVERITY, WEIGHT], ids=["ordinal", "continuous"])
def test_resolve_token_rejects_non_finite_numbers(token, spec):
    with pytest.raises(ParseError, match=r"not a finite number \(row 3, column"):
        resolve_token(token, spec, row=3, strict=True)
    assert resolve_token(token, spec, row=3, strict=False) == (0.0, False)


def _write_inputs(tmp_path, csv_text, specs_json):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(csv_text)
    spec_path = tmp_path / "vars.json"
    spec_path.write_text(json.dumps(specs_json))
    return csv_path, spec_path


def test_load_csv_reorders_columns_to_spec_order(tmp_path):
    csv_path, spec_path = _write_inputs(
        tmp_path,
        "weight,severity\n70.5,mid\n,high\n61.0,\n",
        [
            {"name": "severity", "kind": "ordinal", "levels": ["low", "mid", "high"]},
            {"name": "weight", "kind": "continuous"},
        ],
    )
    specs = load_variable_specs(spec_path)
    ds = load_csv(csv_path, specs)
    assert ds.names == ("severity", "weight")
    assert ds.mask.tolist() == [[True, True], [True, False], [False, True]]
    assert ds.values[0, 0] == 1.0
    assert ds.values[0, 1] == 70.5


def test_load_csv_rejects_header_mismatch(tmp_path):
    csv_path, spec_path = _write_inputs(
        tmp_path,
        "weight,other\n1.0,2.0\n",
        [{"name": "weight", "kind": "continuous"}, {"name": "severity", "kind": "ordinal", "levels": ["a", "b"]}],
    )
    with pytest.raises(InputError):
        load_csv(csv_path, load_variable_specs(spec_path))


def test_load_variable_specs_rejects_a_repeated_name(tmp_path):
    spec_path = tmp_path / "variables.json"
    specs = [{"name": n, "kind": "continuous"} for n in ("x", "y", "x")]
    spec_path.write_text(json.dumps(specs))
    with pytest.raises(InputError, match="duplicate variable name 'x'"):
        load_variable_specs(spec_path)


def _write_specs(tmp_path, specs):
    spec_path = tmp_path / "variables.json"
    spec_path.write_text(json.dumps(specs))
    return spec_path


def test_load_variable_specs_rejects_a_non_string_name(tmp_path):
    spec_path = _write_specs(tmp_path, [{"name": 3, "kind": "continuous"}, {"name": "x", "kind": "continuous"}])
    with pytest.raises(InputError, match=r"name must be a string: \{'name': 3"):
        load_variable_specs(spec_path)


def test_load_variable_specs_rejects_levels_given_as_one_string(tmp_path):
    spec_path = _write_specs(tmp_path, [{"name": "health", "kind": "ordinal", "levels": "Fair"}])
    with pytest.raises(InputError, match="levels must be an array of strings: .*'health'"):
        load_variable_specs(spec_path)


def test_load_variable_specs_rejects_non_string_levels(tmp_path):
    spec_path = _write_specs(tmp_path, [{"name": "grade", "kind": "ordinal", "levels": [1, 2]}])
    with pytest.raises(InputError, match="levels must be an array of strings: .*'grade'"):
        load_variable_specs(spec_path)


def test_load_csv_rejects_a_repeated_header_name(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x,y,x\n1,2,3\n")
    specs = [VariableSpec(n, "continuous") for n in ("x", "y", "x")]
    with pytest.raises(InputError, match="column 'x' appears more than once in the header"):
        load_csv(csv_path, specs)


def test_load_csv_missing_tokens(tmp_path):
    csv_path, spec_path = _write_inputs(
        tmp_path,
        "weight,extra\nNA,1\nNaN,2\n,3\n1.5,4\n",
        [{"name": "weight", "kind": "continuous"}, {"name": "extra", "kind": "continuous"}],
    )
    ds = load_csv(csv_path, load_variable_specs(spec_path))
    assert ds.mask[:, 0].tolist() == [False, False, False, True]
    assert ds.mask[:, 1].all()


def test_encode_ordinal_rejects_fractional_codes():
    ds = Dataset(
        values=np.array([[1.5]]),
        mask=np.array([[True]]),
        specs=(SEVERITY,),
    )
    message = r"^value 1\.5 is not a level index of 'severity' \(0\.\.2\) \(row 0, column 'severity'\)$"
    with pytest.raises(InputError, match=message):
        encode_ordinal(ds)


def test_encode_ordinal_rejects_out_of_range_codes():
    ds = Dataset(
        values=np.array([[3.0]]),
        mask=np.array([[True]]),
        specs=(SEVERITY,),
    )
    with pytest.raises(InputError):
        encode_ordinal(ds)


def _encode_ordinal_loop(ds):
    """encode_ordinal cell by cell: round() each observed ordinal code."""
    values = ds.values.copy()
    for j, spec in enumerate(ds.specs):
        if spec.kind != "ordinal":
            continue
        for i in np.nonzero(ds.mask[:, j])[0]:
            x = float(values[i, j])
            idx = round(x)
            if abs(x - idx) > 1e-9 or not 0 <= idx < spec.n_levels:
                raise ParseError(
                    f"value {x!r} is not a level index of {spec.name!r} (0..{spec.n_levels - 1})",
                    row=int(i),
                    column=spec.name,
                )
            values[i, j] = float(idx)
    return ds.with_values(values)


@st.composite
def _ordinal_codes(draw):
    n = draw(st.integers(min_value=0, max_value=20))
    specs = (WEIGHT, SEVERITY, VariableSpec("grade", "ordinal", levels=("a", "b")))
    near = [-5e-10, 1 + 5e-10, 2 - 5e-10, 2 - 2e-9, 0.5, -0.5, 1.5, 2.5]
    codes = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0, *near])
    values = draw(hnp.arrays(np.float64, (n, 3), elements=codes))
    return Dataset(values=values, mask=draw(hnp.arrays(bool, (n, 3))), specs=specs)


@given(_ordinal_codes())
@settings(max_examples=200, deadline=None)
def test_encode_ordinal_matches_per_cell_loop(ds):
    try:
        want = _encode_ordinal_loop(ds)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            encode_ordinal(ds)
        assert (str(got.value), got.value.row, got.value.column) == (str(err), err.row, err.column)
    else:
        assert encode_ordinal(ds).values.tobytes() == want.values.tobytes()


def test_normalize_maps_observed_range_to_unit_interval(make_dataset):
    ds = make_dataset([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
    norm = normalize(ds)
    assert np.allclose(norm.values[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(norm.values[:, 1], [0.0, 0.5, 1.0])
    back = denormalize(norm)
    assert np.allclose(back.values, ds.values)


def test_normalize_constant_column_maps_to_half(make_dataset):
    ds = make_dataset([[3.0], [3.0], [3.0]])
    norm = normalize(ds)
    assert np.all(norm.values == 0.5)
    assert np.allclose(denormalize(norm).values, 3.0)


def test_apply_normalization_reuses_ranges(make_dataset):
    ds = make_dataset([[0.0], [10.0]])
    norm = normalize(ds)
    other = make_dataset([[5.0], [20.0]])
    mapped = apply_normalization(other, norm.normalization)
    assert np.allclose(mapped.values[:, 0], [0.5, 2.0])


@given(
    hnp.arrays(
        np.float64,
        (7, 3),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_normalize_round_trip_property(values):
    ds = Dataset(
        values=values,
        mask=np.ones_like(values, dtype=bool),
        specs=tuple(VariableSpec(f"v{j}", "continuous") for j in range(3)),
    )
    back = denormalize(normalize(ds))
    assert np.allclose(back.values, values, atol=1e-6)


def test_pairwise_stats_uses_pairwise_complete_counts():
    values = np.array([[1.0, 2.0], [2.0, 0.0], [3.0, 4.0]])
    mask = np.array([[True, True], [True, False], [True, True]])
    ds = Dataset(values=values, mask=mask, specs=(WEIGHT, VariableSpec("w2", "continuous")))
    stats = pairwise_stats(ds)
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.mean[1] == pytest.approx(3.0)
    # Covariance of column pair uses only rows 0 and 2.
    assert stats.cov[0, 1] == pytest.approx(1.0)


def test_pairwise_stats_floors_degenerate_columns():
    values = np.array([[1.0, 0.0], [0.0, 5.0]])
    mask = np.array([[True, False], [False, True]])
    ds = Dataset(values=values, mask=mask, specs=(WEIGHT, VariableSpec("w2", "continuous")))
    stats = pairwise_stats(ds)
    # One observation per column: variance floored, no shared rows -> 0.
    assert stats.cov[0, 0] == pytest.approx(1e-6)
    assert stats.cov[1, 1] == pytest.approx(1e-6)
    assert stats.cov[0, 1] == 0.0
    assert stats.warnings


def test_snap_ordinals_rounds_flagged_cells_only():
    values = np.array([[0.4, 1.6], [2.9, -0.7]])
    mask = np.ones((2, 2), dtype=bool)
    second = VariableSpec("s2", "ordinal", levels=("low", "mid", "high"))
    ds = Dataset(values=values, mask=mask, specs=(SEVERITY, second))
    cells = np.array([[True, False], [True, True]])
    snapped = snap_ordinals(ds, cells)
    assert snapped.values[0, 0] == 0.0
    assert snapped.values[0, 1] == 1.6  # unflagged cell left alone
    assert snapped.values[1, 0] == 2.0  # clipped to the top level
    assert snapped.values[1, 1] == 0.0  # clipped to the bottom level


def test_snap_ordinals_halfway_values():
    spec = VariableSpec("s", "ordinal", levels=("a", "b", "c"))
    ds = Dataset(values=np.array([[0.5], [1.5]]), mask=np.ones((2, 1), bool), specs=(spec,))
    snapped = snap_ordinals(ds, np.ones((2, 1), bool))
    assert snapped.values[:, 0].tolist() == [0.0, 1.0]


def test_snap_ordinals_level_zero_is_positive_zero():
    ds = Dataset(values=np.array([[-0.3], [0.2], [0.49]]), mask=np.ones((3, 1), bool), specs=(SEVERITY,))
    snapped = snap_ordinals(ds, np.ones((3, 1), bool))
    assert snapped.values[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(snapped.values).any()


def test_save_and_load_round_trip(tmp_path, make_dataset):
    specs = (SEVERITY, WEIGHT)
    values = np.array([[0.0, 1.25], [2.0, 0.0]])
    mask = np.array([[True, True], [True, False]])
    ds = Dataset(values=values, mask=mask, specs=specs)
    out = tmp_path / "out.csv"
    save_csv(ds, out)
    text = out.read_text()
    assert "low" in text and "high" in text  # labels written for ordinals
    again = load_csv(out, specs)
    assert np.array_equal(again.mask, ds.mask)
    assert np.array_equal(again.values[again.mask], ds.values[ds.mask])


def test_save_csv_float_formatting_is_exact(tmp_path, make_dataset):
    x = 0.1 + 0.2  # not representable as a short decimal
    ds = make_dataset([[x]])
    out = tmp_path / "f.csv"
    save_csv(ds, out)
    reloaded = load_csv(out, ds.specs)
    assert reloaded.values[0, 0] == x


def _save_csv_oracle(ds, path):
    """save_csv cell by cell: the writer the column-wise one replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.names)
        for i in range(ds.n):
            row = []
            for j, spec in enumerate(ds.specs):
                if not ds.mask[i, j]:
                    row.append("")
                    continue
                x = float(ds.values[i, j])
                if spec.kind == "ordinal":
                    idx = int(round(x))
                    if abs(x - idx) <= 1e-9 and 0 <= idx < spec.n_levels:
                        row.append(spec.levels[idx])
                        continue
                if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
                    row.append(str(int(x)))
                else:
                    row.append(repr(x))
            writer.writerow(row)


# Labels that csv must quote, and level counts of 1 to 4.
LABEL_SETS = (("only",), ("a,b", 'say "hi"'), ("low", "mid", "high"), ("0", "1", "2", "3"))
EDGE_CONTINUOUS = (
    -0.0, 0.0, 1.0, -3.0, 0.5, 0.1 + 0.2, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
    1e300, 5e-324, np.nan, np.inf, -np.inf,
)


def _ordinal_values(n_levels):
    on_grid = [float(i) for i in range(n_levels)] + [-0.0]
    return st.sampled_from(on_grid + [1.5, -1.0, float(n_levels), 2 + 5e-10, 2 - 5e-10, 0.5])


def _continuous_values():
    integral = st.integers(-(10**16), 10**16).map(float)
    return st.sampled_from(EDGE_CONTINUOUS) | st.floats(width=64) | integral


@st.composite
def _mixed_datasets(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    kinds = draw(st.lists(st.sampled_from([None, *LABEL_SETS]), min_size=1, max_size=5))
    specs, columns = [], []
    for j, levels in enumerate(kinds):
        if levels is None:
            specs.append(VariableSpec(f"c{j}", "continuous"))
            values = _continuous_values()
        else:
            specs.append(VariableSpec(f"o{j}", "ordinal", levels=levels))
            values = _ordinal_values(len(levels))
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    mask = draw(hnp.arrays(bool, (n, len(specs))))
    values = np.array(columns, dtype=np.float64).T.reshape(n, len(specs))
    return Dataset(values=values, mask=mask, specs=tuple(specs))


@given(_mixed_datasets())
@settings(max_examples=150, deadline=None)
def test_save_csv_matches_per_cell_oracle(tmp_path_factory, ds):
    out = tmp_path_factory.mktemp("save")
    save_csv(ds, out / "got.csv")
    _save_csv_oracle(ds, out / "want.csv")
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def test_save_csv_matches_oracle_across_blocks(tmp_path):
    rng = np.random.default_rng(4)
    n = 2 * CSV_BLOCK + 5
    specs = (SEVERITY, WEIGHT, VariableSpec("code", "ordinal", levels=("a,b", "c")))
    values = np.column_stack(
        [
            rng.choice([0.0, 1.0, 2.0, 1.5, -1.0, 3.0, 2 + 5e-10], n),
            rng.choice([*EDGE_CONTINUOUS, *rng.standard_normal(8)], n),
            rng.choice([0.0, -0.0, 1.0, 2.0], n),
        ]
    )
    ds = Dataset(values=values, mask=rng.random((n, 3)) < 0.8, specs=specs)
    save_csv(ds, tmp_path / "got.csv")
    _save_csv_oracle(ds, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_save_csv_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(6)
    peaks = []
    for n in (2_000, 20_000):
        specs = tuple(VariableSpec(f"v{j}", "continuous") for j in range(8))
        mask = rng.random((n, 8)) < 0.9
        ds = Dataset(values=rng.standard_normal((n, 8)), mask=mask, specs=specs)
        tracemalloc.start()
        try:
            save_csv(ds, tmp_path / f"{n}.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # Formatting the whole table at once would hold ten times the strings.
    assert peaks[1] < 1.5 * peaks[0]
