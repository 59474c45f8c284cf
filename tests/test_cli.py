import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semimpute import cli
from semimpute._entry import main
from semimpute.cli import _write_cell_flags, run
from semimpute.dataset import VariableSpec, load_csv, load_variable_specs


def _write_variables(tmp_path, specs):
    path = tmp_path / "variables.json"
    path.write_text(json.dumps(specs))
    return str(path)


def _write_csv(tmp_path, name, header, rows):
    path = tmp_path / name
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def bivariate(tmp_path):
    """A complete two-column CSV plus its variables file."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    y = 0.8 * x + 0.6 * rng.normal(size=50)
    variables = _write_variables(
        tmp_path,
        [
            {"name": "x", "kind": "continuous"},
            {"name": "y", "kind": "continuous"},
        ],
    )
    rows = [(f"{a:.6f}", f"{b:.6f}") for a, b in zip(x, y)]
    csv = _write_csv(tmp_path, "truth.csv", ["x", "y"], rows)
    return variables, csv


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_version_flag_exits_cleanly(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_simulate_writes_mask_artifacts(tmp_path, bivariate):
    variables, csv = bivariate
    prefix = str(tmp_path / "sim")
    code = run(
        [
            "simulate",
            "--variables", variables,
            "--input", csv,
            "--rate", "0.2",
            "--seed", "7",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    report = json.loads(_read(f"{prefix}.report.json"))
    assert report["command"] == "simulate"
    assert report["masked_cells"] == 20  # 0.2 of 100 cells
    mask_lines = _read(f"{prefix}.mask.csv").decode().strip().split("\n")
    assert mask_lines[0] == "x,y"
    flags = [tuple(int(v) for v in line.split(",")) for line in mask_lines[1:]]
    assert sum(1 for row in flags for v in row if v == 0) == 20

    specs = load_variable_specs(variables)
    masked = load_csv(f"{prefix}.masked.csv", specs)
    assert masked.n_missing() == 20


def test_simulate_respects_column_restriction(tmp_path, bivariate):
    variables, csv = bivariate
    prefix = str(tmp_path / "simcol")
    code = run(
        [
            "simulate",
            "--variables", variables,
            "--input", csv,
            "--rate", "0.3",
            "--seed", "1",
            "--columns", "y",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    specs = load_variable_specs(variables)
    masked = load_csv(f"{prefix}.masked.csv", specs)
    mask = np.asarray(masked.mask)
    assert mask[:, 0].all()
    assert (~mask[:, 1]).sum() == 15


def test_simulate_columns_naming_no_column_fails(tmp_path, bivariate, capsys):
    variables, csv = bivariate
    args = ["simulate", "--variables", variables, "--input", csv, "--columns", " , "]
    assert run([*args, "--out-prefix", str(tmp_path / "sim")]) == 2
    assert "--columns names no column" in capsys.readouterr().err
    assert not list(tmp_path.glob("sim.*"))


def test_simulate_rejects_a_repeated_column_name(tmp_path, capsys):
    variables = _write_variables(tmp_path, [{"name": "x", "kind": "continuous"}] * 2)
    csv = _write_csv(tmp_path, "dup.csv", ["x", "x"], [(1.0, 2.0), (3.0, 4.0)])
    args = ["simulate", "--variables", variables, "--input", csv, "--rate", "0"]
    assert run([*args, "--out-prefix", str(tmp_path / "sim")]) == 2
    assert "duplicate variable name 'x'" in capsys.readouterr().err
    assert not list(tmp_path.glob("sim.*"))


def test_impute_writes_complete_output_and_is_deterministic(tmp_path, bivariate):
    variables, csv = bivariate
    sim_prefix = str(tmp_path / "sim")
    run(
        [
            "simulate",
            "--variables", variables,
            "--input", csv,
            "--rate", "0.2",
            "--seed", "3",
            "--out-prefix", sim_prefix,
        ]
    )
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    argv = [
        "impute",
        "--variables", variables,
        "--input", f"{sim_prefix}.masked.csv",
        "--epochs", "3",
        "--tol", "0",
        "--out-prefix", None,
    ]
    for prefix in (out_a, out_b):
        argv[-1] = prefix
        assert run(list(argv)) == 0

    specs = load_variable_specs(variables)
    imputed = load_csv(f"{out_a}.imputed.csv", specs)
    assert imputed.n_missing() == 0

    report = json.loads(_read(f"{out_a}.report.json"))
    assert report["n_imputed"] == 20
    assert report["epochs"] == 3
    assert len(report["history"]) == 3
    assert report["em_stop"] == "tolerance"
    assert len(report["em_loglik_history"]) == report["em_iterations"] + 1
    assert report["em_loglik_history"][-1] == report["em_loglik"]
    assert report["outputs"]["imputed"].endswith("a.imputed.csv")

    prov = _read(f"{out_a}.provenance.csv").decode().strip().split("\n")
    flagged = sum(int(v) for line in prov[1:] for v in line.split(","))
    assert flagged == 20

    assert _read(f"{out_a}.imputed.csv") == _read(f"{out_b}.imputed.csv")


def test_impute_observed_cells_survive_byte_for_byte(tmp_path, bivariate):
    variables, csv = bivariate
    sim_prefix = str(tmp_path / "sim")
    run(
        [
            "simulate",
            "--variables", variables,
            "--input", csv,
            "--rate", "0.25",
            "--seed", "9",
            "--out-prefix", sim_prefix,
        ]
    )
    out = str(tmp_path / "imp")
    assert run(
        [
            "impute",
            "--variables", variables,
            "--input", f"{sim_prefix}.masked.csv",
            "--epochs", "2",
            "--out-prefix", out,
        ]
    ) == 0
    specs = load_variable_specs(variables)
    masked = load_csv(f"{sim_prefix}.masked.csv", specs)
    imputed = load_csv(f"{out}.imputed.csv", specs)
    observed = np.asarray(masked.mask)
    same = imputed.values[observed] == masked.values[observed]
    assert same.all()


def test_impute_benchmark_needs_truth(tmp_path, bivariate, capsys):
    variables, csv = bivariate
    code = run(
        [
            "impute",
            "--variables", variables,
            "--input", csv,
            "--mode", "benchmark",
            "--out-prefix", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "--truth" in capsys.readouterr().err


def test_impute_rejects_truth_outside_benchmark(tmp_path, bivariate, capsys):
    variables, csv = bivariate
    code = run(
        [
            "impute",
            "--variables", variables,
            "--input", csv,
            "--truth", csv,
            "--out-prefix", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_self_supervised_impute_rejects_a_zero_self_mask_rate(tmp_path, bivariate, capsys):
    variables, csv = bivariate
    code = run(
        [
            "impute",
            "--variables", variables,
            "--input", csv,
            "--self-mask-rate", "0",
            "--out-prefix", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "self_mask_rate" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", ""])
def test_bad_thread_count_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("SEMIMPUTE_THREADS", value)
    assert main(["--version"]) == 2
    assert "SEMIMPUTE_THREADS" in capsys.readouterr().err


def test_evaluate_baseline_methods_produce_reports(tmp_path, bivariate):
    variables, csv = bivariate
    for method in ("mean", "median", "knn"):
        prefix = str(tmp_path / f"ev_{method}")
        code = run(
            [
                "evaluate",
                "--variables", variables,
                "--truth", csv,
                "--method", method,
                "--rate", "0.3",
                "--seed", "11",
                "--out-prefix", prefix,
            ]
        )
        assert code == 0
        payload = json.loads(_read(f"{prefix}.report.json"))
        report = payload["report"]
        assert {v["name"] for v in report["per_variable"]} <= {"x", "y"}
        assert report["aggregate"]["rmse"] > 0
        assert report["metadata"]["method"] == method
        assert report["metadata"]["masked_cells"] == 30


def test_evaluate_csv_report_format(tmp_path, bivariate):
    variables, csv = bivariate
    prefix = str(tmp_path / "evcsv")
    assert run(
        [
            "evaluate",
            "--variables", variables,
            "--truth", csv,
            "--method", "mean",
            "--rate", "0.3",
            "--report-format", "csv",
            "--out-prefix", prefix,
        ]
    ) == 0
    text = _read(f"{prefix}.report.csv").decode()
    assert text.startswith("variable,rmse,")
    assert "AGGREGATE," in text


def test_evaluate_multiple_trials_aggregates(tmp_path, bivariate):
    variables, csv = bivariate
    prefix = str(tmp_path / "evt")
    assert run(
        [
            "evaluate",
            "--variables", variables,
            "--truth", csv,
            "--method", "mean",
            "--rate", "0.3",
            "--trials", "3",
            "--seed", "5",
            "--out-prefix", prefix,
        ]
    ) == 0
    payload = json.loads(_read(f"{prefix}.report.json"))
    assert len(payload["trials"]) == 3
    assert len(set(payload["trial_seeds"])) == 3
    assert "mean_of_trials" in payload
    for t in (1, 2, 3):
        trial = json.loads(_read(f"{prefix}.trial{t}.report.json"))
        assert trial["report"]["metadata"]["trial"] == t


def test_evaluate_multiple_trials_csv_bytes(tmp_path, bivariate):
    variables, csv = bivariate
    prefix = str(tmp_path / "evm")
    assert run(
        [
            "evaluate",
            "--variables", variables,
            "--truth", csv,
            "--method", "mean",
            "--rate", "0.3",
            "--trials", "2",
            "--seed", "5",
            "--report-format", "csv",
            "--out-prefix", prefix,
        ]
    ) == 0
    assert _read(f"{prefix}.report.csv").decode() == (
        "variable,rmse,mape_pct,r2,wasserstein,wilcoxon_statistic,wilcoxon_p,effect_size\n"
        "x,0.8915580686577409,119.46001315517402,-0.1460986801107883,0.6559194156639929,"
        "101.0,0.166656494140625,14.28355697996826\n"
        "y,0.8576438226613305,119.83900956582644,-0.25758382118677914,0.7420054325809327,"
        "72.5,0.142333984375,10.253048327204938\n"
        "AGGREGATE,0.8746009456595357,119.64951136050024,-0.20184125064878372,0.6989624241224628,,,\n"
    )
    assert _read(f"{prefix}.trial1.report.csv").decode() == (
        "variable,rmse,mape_pct,r2,wasserstein,wilcoxon_statistic,wilcoxon_p,effect_size,"
        "ci_lower,ci_upper,n_cells\n"
        "x,0.7669933694862525,120.9048808940876,-0.16695510158269933,0.5618343750000001,"
        "96.0,0.1590576171875,13.576450198781712,0.221832,0.221832,16\n"
        "y,1.1036452158074042,118.97103041269523,-0.09900308273247882,0.9655364285714285,"
        "73.0,0.216552734375,10.323759005323593,0.215865,0.215865,14\n"
        "AGGREGATE,0.9353192926468283,119.93795565339141,-0.13297909215758907,0.7636854017857143,"
        ",,,,,30\n"
    )


def test_evaluate_sesa_small_run(tmp_path, bivariate):
    variables, csv = bivariate
    prefix = str(tmp_path / "evs")
    code = run(
        [
            "evaluate",
            "--variables", variables,
            "--truth", csv,
            "--method", "sesa",
            "--rate", "0.2",
            "--epochs", "2",
            "--mode", "benchmark",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    payload = json.loads(_read(f"{prefix}.report.json"))
    assert payload["report"]["metadata"]["epochs"] == 2


def test_evaluate_rejects_incomplete_truth(tmp_path, bivariate, capsys):
    variables, _ = bivariate
    holey = _write_csv(
        tmp_path, "holey.csv", ["x", "y"], [("1.0", ""), ("2.0", "3.0")]
    )
    code = run(
        [
            "evaluate",
            "--variables", variables,
            "--truth", holey,
            "--method", "mean",
            "--out-prefix", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "complete" in capsys.readouterr().err


def test_evaluate_external_method(tmp_path, bivariate, capsys):
    variables, csv = bivariate
    prefix = str(tmp_path / "ext")
    code = run(
        [
            "evaluate",
            "--variables", variables,
            "--truth", csv,
            "--method", f"external:{csv}",
            "--rate", "0.3",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    payload = json.loads(_read(f"{prefix}.report.json"))
    # The external file IS the truth, so the error is exactly zero.
    assert payload["report"]["aggregate"]["rmse"] == 0.0

    code = run(
        [
            "evaluate",
            "--variables", variables,
            "--truth", csv,
            "--method", f"external:{csv}",
            "--trials", "2",
            "--out-prefix", prefix,
        ]
    )
    assert code == 2
    assert "single trial" in capsys.readouterr().err


def test_evaluate_unknown_method_fails(tmp_path, bivariate, capsys):
    variables, csv = bivariate
    code = run(
        [
            "evaluate",
            "--variables", variables,
            "--truth", csv,
            "--method", "magic",
            "--out-prefix", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "unknown method" in capsys.readouterr().err


def test_discover_finds_strong_edge_and_suggests_model(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(300)
    y = 1.6 * x + rng.standard_normal(300)
    variables = _write_variables(
        tmp_path,
        [
            {"name": "x", "kind": "continuous"},
            {"name": "y", "kind": "continuous"},
        ],
    )
    csv = _write_csv(
        tmp_path,
        "xy.csv",
        ["x", "y"],
        [(f"{a:.6f}", f"{b:.6f}") for a, b in zip(x, y)],
    )
    prefix = str(tmp_path / "dag")
    code = run(
        [
            "discover",
            "--variables", variables,
            "--input", csv,
            "--suggest-outcome", "y",
            "--out-prefix", prefix,
        ]
    )
    assert code == 0
    graph = json.loads(_read(f"{prefix}.graph.json"))
    assert graph["source"] == "complete"
    assert [(e["from"], e["to"]) for e in graph["edges"]] == [("x", "y")]
    dot = _read(f"{prefix}.graph.dot").decode()
    assert '"x" -> "y"' in dot
    sem = _read(f"{prefix}.suggested.sem").decode()
    assert sem.strip() == "y ~ x"


def test_discover_uses_complete_cases_when_input_has_holes(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(200)
    y = 1.6 * x + rng.standard_normal(200)
    rows = []
    for i, (a, b) in enumerate(zip(x, y)):
        rows.append(("" if i % 10 == 0 else f"{a:.6f}", f"{b:.6f}"))
    variables = _write_variables(
        tmp_path,
        [
            {"name": "x", "kind": "continuous"},
            {"name": "y", "kind": "continuous"},
        ],
    )
    csv = _write_csv(tmp_path, "xy.csv", ["x", "y"], rows)
    prefix = str(tmp_path / "dagcc")
    assert run(
        [
            "discover",
            "--variables", variables,
            "--input", csv,
            "--out-prefix", prefix,
        ]
    ) == 0
    graph = json.loads(_read(f"{prefix}.graph.json"))
    assert graph["source"] == "complete_cases"
    assert graph["rows_used"] == 180


def test_discover_requires_two_complete_rows(tmp_path, capsys):
    variables = _write_variables(
        tmp_path,
        [
            {"name": "x", "kind": "continuous"},
            {"name": "y", "kind": "continuous"},
        ],
    )
    csv = _write_csv(
        tmp_path,
        "sparse.csv",
        ["x", "y"],
        [("1.0", ""), ("", "2.0"), ("3.0", "4.0")],
    )
    code = run(
        [
            "discover",
            "--variables", variables,
            "--input", csv,
            "--out-prefix", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "complete rows" in capsys.readouterr().err


_BLOCKED_SCIPY_PROBE = """
import json
import sys

if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # every scipy import now raises ImportError
from semimpute._entry import main

print(json.dumps([main(argv) for argv in json.loads(sys.argv[2])]))
"""


def test_commands_need_no_scipy(tmp_path, bivariate, child_env):
    variables, csv_path = bivariate
    truth = _read(csv_path).decode().splitlines()
    # Every fifth x left blank, for impute.
    holes = [truth[0]] + ["," + line.split(",")[1] if i % 5 == 0 else line for i, line in enumerate(truth[1:])]
    common = ["--variables", "variables.json", "--seed", "5"]
    commands = [
        ["impute", *common, "--input", "holes.csv", "--epochs", "3", "--tol", "0", "--out-prefix", "imp"],
        *(
            ["evaluate", *common, "--truth", "truth.csv", "--method", m, "--rate", "0.2", "--epochs", "3", "--out-prefix", m]
            for m in ("sesa", "knn", "mean")
        ),
        ["discover", "--variables", "variables.json", "--input", "truth.csv", "--suggest-outcome", "y", "--out-prefix", "dag"],
    ]
    runs = {}
    for mode in ("plain", "blocked"):
        work = tmp_path / mode
        work.mkdir()
        (work / "variables.json").write_bytes(_read(variables))
        (work / "truth.csv").write_text("\n".join(truth) + "\n")
        (work / "holes.csv").write_text("\n".join(holes) + "\n")
        proc = subprocess.run(
            [sys.executable, "-c", _BLOCKED_SCIPY_PROBE, mode, json.dumps(commands)],
            cwd=work,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs[mode] = (json.loads(proc.stdout), {f.name: f.read_bytes() for f in sorted(work.iterdir())})
    assert runs["plain"][0] == [0] * len(commands)
    assert len(runs["plain"][1]) > 3 + len(commands)
    assert runs["blocked"] == runs["plain"]


def test_config_file_fills_defaults_but_flags_win(tmp_path, bivariate):
    variables, csv = bivariate
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rate": 0.5, "seed": 42}))
    prefix = str(tmp_path / "cfg")
    assert run(
        [
            "simulate",
            "--variables", variables,
            "--input", csv,
            "--config", str(config),
            "--rate", "0.2",
            "--out-prefix", prefix,
        ]
    ) == 0
    report = json.loads(_read(f"{prefix}.report.json"))
    assert report["config"]["rate"] == 0.2  # flag beats config file
    assert report["config"]["seed"] == 42  # config beats default
    assert report["masked_cells"] == 20


def test_config_file_with_unknown_key_fails(tmp_path, bivariate, capsys):
    variables, csv = bivariate
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"no_such_option": 1}))
    code = run(
        [
            "simulate",
            "--variables", variables,
            "--input", csv,
            "--config", str(config),
            "--out-prefix", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, code",
    [
        ({"epochs": "5"}, 2),
        ({"seed": 1.5}, 2),
        ({"lr": None}, 2),
        ({"alpha": True}, 2),
        ({"seed": True}, 2),
        ({"lenient": 1}, 2),
        ({"sem": 3}, 2),
        ({"mode": None}, 2),
        ({"lr": 1, "sem": None, "lenient": True, "init_moments": "saturated"}, 0),
        ({"mode": "bogus"}, 2),
        ({"init_moments": "bogus"}, 2),
    ],
)
def test_config_file_value_must_have_the_type_of_its_default(
    tmp_path, bivariate, capsys, values, code
):
    variables, csv = bivariate
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    prefix = str(tmp_path / "x")
    args = ["impute", "--variables", variables, "--input", csv, "--config", str(config)]
    assert run([*args, "--out-prefix", prefix]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert all(f"config key {key!r} must be" in err for key in values)
        assert not list(tmp_path.glob("x.*"))


def test_evaluate_config_report_format_must_be_a_choice(tmp_path, bivariate, capsys):
    variables, csv = bivariate
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"report_format": "xml"}))
    args = ["evaluate", "--variables", variables, "--truth", csv, "--method", "mean"]
    assert run([*args, "--config", str(config), "--out-prefix", str(tmp_path / "ev")]) == 2
    assert "config key 'report_format' must be one of ['json', 'csv']" in capsys.readouterr().err
    assert not list(tmp_path.glob("ev.*"))


def test_discover_rejects_a_negative_threshold(tmp_path, bivariate, capsys, monkeypatch):
    def fit_must_not_start(*args, **kwargs):
        raise AssertionError("notears_fit ran before the threshold was checked")

    monkeypatch.setattr(cli, "notears_fit", fit_must_not_start)
    variables, csv = bivariate
    args = ["discover", "--variables", variables, "--input", csv, "--threshold", "-0.5"]
    assert run([*args, "--out-prefix", str(tmp_path / "dag")]) == 2
    assert "threshold must be non-negative" in capsys.readouterr().err
    assert not list(tmp_path.glob("dag.*"))


def test_missing_input_file_is_reported(tmp_path, bivariate, capsys):
    variables, _ = bivariate
    code = run(
        [
            "impute",
            "--variables", variables,
            "--input", str(tmp_path / "nope.csv"),
            "--out-prefix", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("column, token", [("health", "nan"), ("score", "inf")])
def test_impute_rejects_non_finite_number_with_exit_2(tmp_path, capsys, column, token):
    variables = _write_variables(
        tmp_path,
        [
            {"name": "score", "kind": "continuous"},
            {"name": "health", "kind": "ordinal", "levels": ["Poor", "Fair", "Good"]},
        ],
    )
    rng = np.random.default_rng(3)
    levels = ["Poor", "Fair", "Good"]
    rows = [(f"{rng.normal():.4f}", levels[i % 3] if i % 4 else None) for i in range(30)]
    rows[2] = (rows[2][0], token) if column == "health" else (token, rows[2][1])
    csv_path = _write_csv(tmp_path, "bad.csv", ["score", "health"], rows)
    args = ["impute", "--variables", variables, "--input", csv_path, "--epochs", "2"]
    code = run([*args, "--out-prefix", str(tmp_path / "x")])
    assert code == 2
    assert f"not a finite number (row 2, column '{column}')" in capsys.readouterr().err
    assert run([*args, "--lenient", "--out-prefix", str(tmp_path / "y")]) == 0
    capsys.readouterr()


def test_ordinal_labels_round_trip_through_impute(tmp_path):
    variables = _write_variables(
        tmp_path,
        [
            {"name": "score", "kind": "continuous"},
            {
                "name": "health",
                "kind": "ordinal",
                "levels": ["Poor", "Fair", "Good"],
            },
        ],
    )
    rng = np.random.default_rng(8)
    rows = []
    labels = ["Poor", "Fair", "Good"]
    for i in range(40):
        score = f"{rng.normal():.4f}"
        level = labels[int(rng.integers(3))] if i % 5 else None
        rows.append((score, level))
    csv = _write_csv(tmp_path, "ord.csv", ["score", "health"], rows)
    prefix = str(tmp_path / "ord")
    assert run(
        [
            "impute",
            "--variables", variables,
            "--input", csv,
            "--epochs", "2",
            "--out-prefix", prefix,
        ]
    ) == 0
    text = _read(f"{prefix}.imputed.csv").decode().splitlines()
    header, body = text[0], text[1:]
    assert header == "score,health"
    filled_levels = {line.split(",")[1] for line in body}
    assert filled_levels <= set(labels)


def _cell_flags_oracle(path, ds_names, flags):
    """_write_cell_flags cell by cell: the writer the row-wise one replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(ds_names) + "\n")
        for row in np.asarray(flags, dtype=int):
            fh.write(",".join(str(int(v)) for v in row) + "\n")


@given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=40)))
@settings(max_examples=100, deadline=None)
def test_write_cell_flags_matches_per_cell_oracle(tmp_path_factory, flags):
    out = tmp_path_factory.mktemp("flags")
    names = [f"v{j}" for j in range(flags.shape[1])]
    _write_cell_flags(out / "got.csv", names, flags)
    _cell_flags_oracle(out / "want.csv", names, flags)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def test_write_cell_flags_quotes_a_name_with_a_comma(tmp_path):
    path = tmp_path / "flags.csv"
    _write_cell_flags(path, ["a,b", "c"], np.array([[True, False], [False, True]]))
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    assert lines == [["a,b", "c"], ["1", "0"], ["0", "1"]]


_TRAINING_DEFAULTS = {
    "alpha": 1.0,
    "beta": 0.1,
    "em_max_iter": 500,
    "em_tol": 1e-06,
    "epochs": 500,
    "gamma": 0.001,
    "init_moments": "implied",
    "lr": 0.001,
    "seed": 0,
    "self_mask_rate": 0.1,
    "sem": None,
    "tol": 1e-05,
}
_PATHS = {"variables": "v.json", "out_prefix": "o", "lenient": False}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["impute", "--input", "in.csv"],
            {**_PATHS, **_TRAINING_DEFAULTS, "input": "in.csv", "mode": "self_supervised", "truth": None},
        ),
        (
            ["evaluate", "--truth", "t.csv"],
            {
                **_PATHS,
                **_TRAINING_DEFAULTS,
                "truth": "t.csv",
                "knn_k": 5,
                "method": "sesa",
                "mode": "benchmark",
                "rate": 0.3,
                "report_format": "json",
                "trials": 1,
            },
        ),
        (
            ["discover", "--input", "in.csv"],
            {
                **_PATHS,
                "input": "in.csv",
                "h_tol": 1e-08,
                "inner_lr": 0.01,
                "inner_steps": 500,
                "lambda1": 0.1,
                "suggest_outcome": None,
                "threshold": 0.3,
            },
        ),
        (
            ["simulate", "--input", "in.csv"],
            {**_PATHS, "input": "in.csv", "columns": None, "rate": 0.3, "seed": 0},
        ),
    ],
    ids=["impute", "evaluate", "discover", "simulate"],
)
def test_resolved_defaults_of_each_command(argv, expected):
    args = cli.build_parser().parse_args([*argv, "--variables", "v.json", "--out-prefix", "o"])
    options = cli.resolve_config(args).options
    assert options == expected
    assert {k: type(v) for k, v in options.items()} == {k: type(v) for k, v in expected.items()}
