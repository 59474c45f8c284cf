"""End-to-end acceptance checks for the full imputation stack.

Each test prints one [PASS]/[FAIL] line through the capture barrier so the
verdicts read off the terminal even without -v.  Every check carries its own
wall-clock budget; a slow pass is a fail.
"""

import itertools
import json
import shutil
import subprocess
import sys
import time

import numpy as np
from scipy.stats import rankdata

from semimpute.baselines import mean_impute
from semimpute.cli import run
from semimpute.dataset import Dataset, VariableSpec, load_csv, load_variable_specs
from semimpute.fiml import EmConfig, conditional_impute, em_fit
from semimpute.metrics import effect_size, rmse, wilcoxon_signed_rank
from semimpute.missingness import apply_mcar
from semimpute.notears import acyclicity_h, notears_fit, threshold_dag
from semimpute.training import LossWeights, TrainConfig, finite_diff_grad, grad_composite, impute

TWO_CYCLE_H = 1.0861612696304874


def _verdict(capsys, ok: bool, label: str, detail: str = ""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {label}{suffix}")
    assert ok, f"{label}{': ' + detail if detail else ''}"


def _complete(values, specs=None):
    values = np.asarray(values, dtype=np.float64)
    if specs is None:
        specs = tuple(
            VariableSpec(f"v{j}", "continuous") for j in range(values.shape[1])
        )
    return Dataset(values=values, mask=np.ones_like(values, dtype=bool), specs=specs)


def _bivariate(seed, n=500, rho=0.8):
    rng = np.random.default_rng(seed)
    cov = np.array([[1.0, rho], [rho, 1.0]])
    return _complete(rng.multivariate_normal(np.zeros(2), cov, size=n))


def test_criterion_01_effect_size_reference_values(capsys):
    t0 = time.perf_counter()
    first = round(effect_size(20992.5, 1000), 4)
    second = round(effect_size(4631.5, 1000), 4)
    elapsed = time.perf_counter() - t0
    ok = first == 663.8411 and second == 146.4609 and elapsed < 1.0
    _verdict(
        capsys,
        ok,
        "criterion 1: effect sizes match reference to 4 decimals",
        f"{first}, {second}, {elapsed:.3f}s",
    )


def _enumerated_two_sided_p(diffs):
    """Brute force over every sign assignment of the midranked magnitudes."""
    diffs = np.asarray(diffs, dtype=np.float64)
    ranks2 = np.rint(2.0 * rankdata(np.abs(diffs))).astype(np.int64)
    w2_obs = int(ranks2[diffs > 0].sum())
    n = diffs.size
    stats = np.zeros(1, dtype=np.int64)
    for r in ranks2:
        stats = np.concatenate([stats, stats + r])
    denom = 2**n
    p_le = int(np.count_nonzero(stats <= w2_obs)) / denom
    p_ge = int(np.count_nonzero(stats >= w2_obs)) / denom
    return min(1.0, 2.0 * min(p_le, p_ge))


def test_criterion_02_exact_wilcoxon_matches_enumeration(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    checked = 0
    worst = 0.0
    ok = True
    cases = []
    for n in range(1, 11):
        for _ in range(8):
            diffs = rng.integers(-5, 6, size=n).astype(np.float64)
            diffs[diffs == 0] = 1.0
            cases.append(diffs)
        cases.append(np.ones(n))  # fully tied magnitudes
        cases.append(np.array([(-1.0) ** i * (i + 1) for i in range(n)]))
    for diffs in cases:
        truth = np.arange(diffs.size, dtype=np.float64)
        got = wilcoxon_signed_rank(truth + diffs, truth).p_value
        want = _enumerated_two_sided_p(diffs)
        worst = max(worst, abs(got - want))
        if got != want:
            ok = False
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(
        capsys,
        ok,
        "criterion 2: exact Wilcoxon p equals sign enumeration for n <= 10",
        f"{checked} cases, max |diff| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_analytic_gradient_matches_finite_differences(capsys):
    from semimpute.attention import AttentionParams, attention_forward, init_params
    from semimpute.training import LossState, composite_loss

    def away_from_kink(m, margin=0.05):
        # The L1 term is non-differentiable at 0; central differences are
        # only a valid oracle when no coordinate sits within h of the kink.
        return m + np.where(m >= 0, margin, -margin)

    t0 = time.perf_counter()
    max_rel = 0.0
    coords = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, d = 12, 3
        x = rng.normal(size=(n, d))
        reference = rng.normal(size=(n, d))
        replace = rng.random((n, d)) < 0.3
        raw = init_params(d, seed=seed + 50)
        state = LossState(
            x=x,
            params=AttentionParams(
                wq=away_from_kink(raw.wq),
                wk=away_from_kink(raw.wk),
                wv=away_from_kink(raw.wv),
            ),
            reference=reference,
            eval_mask=replace,
            replace_mask=replace,
            weights=LossWeights(alpha=1.0, beta=0.1, gamma=1e-3),
        )
        output, lse, ax = attention_forward(x, state.params)
        analytic = grad_composite(state, composite_loss(state, output)[1], lse, ax)
        numeric = finite_diff_grad(state, h=1e-5)
        for a, f in zip(analytic, numeric):
            rel = np.abs(a - f) / np.maximum(np.abs(f), 1e-8)
            max_rel = max(max_rel, float(rel.max()))
            coords += a.size
    elapsed = time.perf_counter() - t0
    ok = coords >= 100 and max_rel < 1e-4 and elapsed < 60.0
    _verdict(
        capsys,
        ok,
        "criterion 3: composite-loss gradient matches central differences",
        f"{coords} coords, max rel err {max_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_bivariate_recovery_under_mcar(capsys):
    t0 = time.perf_counter()
    rho = 0.8
    rho_errors = []
    fill_rmses = []
    for seed in range(20):
        truth = _bivariate(seed, n=2000, rho=rho)
        masked, _ = apply_mcar(truth, 0.3, seed, columns=[1])
        res = em_fit(masked)
        s = res.params.sigma
        rho_hat = s[0, 1] / np.sqrt(s[0, 0] * s[1, 1])
        rho_errors.append(abs(rho_hat - rho))
        filled, provenance = conditional_impute(res.params, masked)
        cells = provenance[:, 1]
        fill_rmses.append(
            rmse(filled.values[cells, 1], truth.values[cells, 1])
        )
    mae = float(np.mean(rho_errors))
    mean_rmse = float(np.mean(fill_rmses))
    target = float(np.sqrt(1.0 - rho * rho))
    elapsed = time.perf_counter() - t0
    ok = mae <= 0.05 and abs(mean_rmse - target) <= 0.1 * target and elapsed < 60.0
    _verdict(
        capsys,
        ok,
        "criterion 4: correlation and conditional fill recovered under MCAR",
        f"rho MAE {mae:.4f}, RMSE {mean_rmse:.4f} vs {target:.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_em_monotone_and_fixed_point(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    a = rng.standard_normal((4, 4))
    cov = a @ a.T + 0.5 * np.eye(4)
    values = rng.multivariate_normal(rng.standard_normal(4), cov, size=400)
    masked, _ = apply_mcar(_complete(values), 0.3, seed=7)

    # External monotonicity trace: chain single EM sweeps and watch the
    # observed-data log-likelihood.
    logliks = []
    params = None
    for _ in range(40):
        res = em_fit(masked, EmConfig(max_iter=1, tol=1e-12), init=params)
        params = res.params
        logliks.append(res.loglik)
    steps = np.diff(np.asarray(logliks))
    monotone = bool((steps >= -1e-8).all())

    # Fixed point: re-running EM from the solution must not move it.
    bimasked, _ = apply_mcar(_bivariate(4, n=500, rho=0.8), 0.3, seed=12)
    cfg = EmConfig(max_iter=2000, tol=1e-12)
    solved = em_fit(bimasked, cfg)
    again = em_fit(bimasked, cfg, init=solved.params)
    drift = max(
        float(np.max(np.abs(again.params.mu - solved.params.mu))),
        float(np.max(np.abs(again.params.sigma - solved.params.sigma))),
    )
    elapsed = time.perf_counter() - t0
    ok = monotone and drift < 1e-6 and elapsed < 60.0
    _verdict(
        capsys,
        ok,
        "criterion 5: EM log-likelihood monotone and solution is a fixed point",
        f"min step {steps.min():.2e}, fixed-point drift {drift:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_trained_refinement_beats_mean_baseline(capsys):
    t0 = time.perf_counter()
    wins = 0
    margins = []
    for seed in range(10):
        truth = _bivariate(seed, n=500, rho=0.8)
        masked, _ = apply_mcar(truth, 0.3, seed + 1000)
        cfg = TrainConfig(
            lr=2e-2,
            max_epochs=2500,
            rel_tol=1e-9,
            seed=seed + 5,
            mode="benchmark",
        )
        weights = LossWeights(alpha=1.0, beta=0.1, gamma=0.0)
        out, _ = impute(masked, None, cfg, weights, truth=truth)
        cells = ~np.asarray(masked.mask)
        ours = rmse(out.values[cells], truth.values[cells])
        base = rmse(mean_impute(masked).values[cells], truth.values[cells])
        margins.append(0.9 * base - ours)
        if ours <= 0.9 * base:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 8 and elapsed < 600.0
    _verdict(
        capsys,
        ok,
        "criterion 6: trained refinement beats 0.9x mean-imputation RMSE",
        f"{wins}/10 seeds, worst margin {min(margins):+.4f}, {elapsed:.0f}s",
    )


def _structural_hamming(est_adj, true_adj):
    d = est_adj.shape[0]
    s = 0
    for i in range(d):
        for j in range(i + 1, d):
            e = (bool(est_adj[i, j]), bool(est_adj[j, i]))
            t = (bool(true_adj[i, j]), bool(true_adj[j, i]))
            if e != t:
                s += 1
    return s


def test_criterion_07_dag_recovery_on_simulated_networks(capsys, make_dag_data):
    t0 = time.perf_counter()
    hits = 0
    shds = []
    h_ok = True
    for seed in range(10):
        x, w_true = make_dag_data(seed)
        g = notears_fit(_complete(x))
        display = threshold_dag(g, 0.3)
        h_value, _ = acyclicity_h(display.w)
        if not h_value < 1e-12:
            h_ok = False
        shd = _structural_hamming(display.w != 0, w_true != 0)
        shds.append(shd)
        if shd <= 2:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and h_ok and elapsed < 300.0
    _verdict(
        capsys,
        ok,
        "criterion 7: five-node DAG recovery within SHD 2 on 8+ of 10 seeds",
        f"{hits}/10, SHDs {shds}, {elapsed:.0f}s",
    )


def test_criterion_08_acyclicity_closed_forms(capsys):
    t0 = time.perf_counter()
    h_zero, _ = acyclicity_h(np.zeros((5, 5)))
    rng = np.random.default_rng(3)
    h_tri, _ = acyclicity_h(np.triu(rng.normal(size=(6, 6)), k=1))
    h_cycle, _ = acyclicity_h(np.array([[0.0, 1.0], [1.0, 0.0]]))
    elapsed = time.perf_counter() - t0
    ok = (
        h_zero == 0.0
        and abs(h_tri) < 1e-12
        and abs(h_cycle - TWO_CYCLE_H) < 1e-9
        and elapsed < 10.0
    )
    _verdict(
        capsys,
        ok,
        "criterion 8: acyclicity penalty matches closed forms",
        f"h(0)={h_zero!r}, |h_tri|={abs(h_tri):.1e}, "
        f"2-cycle err {abs(h_cycle - TWO_CYCLE_H):.1e}",
    )


def _write_eval_workspace(root):
    rng = np.random.default_rng(17)
    n = 200
    x = rng.normal(size=n)
    y = 0.7 * x + 0.5 * rng.normal(size=n)
    z = rng.normal(size=n) + 1.0
    (root / "variables.json").write_text(
        json.dumps(
            [
                {"name": "x", "kind": "continuous"},
                {"name": "y", "kind": "continuous"},
                {"name": "z", "kind": "continuous"},
            ]
        )
    )
    lines = ["x,y,z"]
    for row in zip(x, y, z):
        lines.append(",".join(f"{v:.6f}" for v in row))
    (root / "truth.csv").write_text("\n".join(lines) + "\n")


def _run_evaluate_process(cwd, env):
    argv = [
        "evaluate",
        "--variables", "variables.json",
        "--truth", "truth.csv",
        "--method", "sesa",
        "--rate", "0.3",
        "--epochs", "40",
        "--seed", "3",
        "--report-format", "csv",
        "--out-prefix", "out",
    ]
    exe = shutil.which("semimpute")
    if exe:
        cmd = [exe, *argv]
    else:
        cmd = [
            sys.executable,
            "-c",
            "import sys; from semimpute._entry import main; sys.exit(main(sys.argv[1:]))",
            *argv,
        ]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return (cwd / "out.report.json").read_bytes(), (cwd / "out.report.csv").read_bytes()


def test_criterion_09_evaluation_reports_are_reproducible(capsys, tmp_path, child_env):
    t0 = time.perf_counter()
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        workdir = tmp_path / name
        workdir.mkdir()
        _write_eval_workspace(workdir)
        outputs.append(_run_evaluate_process(workdir, child_env(SEMIMPUTE_THREADS=threads)))
    same_rerun = outputs[0] == outputs[1]
    same_threads = outputs[0] == outputs[2]
    elapsed = time.perf_counter() - t0
    ok = same_rerun and same_threads and elapsed < 300.0
    _verdict(
        capsys,
        ok,
        "criterion 9: evaluation artifacts byte-identical across runs and thread counts",
        f"rerun={same_rerun}, threads={same_threads}, {elapsed:.0f}s",
    )


def test_criterion_10_cli_impute_mixed_table(capsys, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    n = 1000
    base = rng.multivariate_normal(
        np.zeros(4),
        np.array(
            [
                [1.0, 0.5, 0.3, 0.0],
                [0.5, 1.0, 0.4, 0.2],
                [0.3, 0.4, 1.0, 0.1],
                [0.0, 0.2, 0.1, 1.0],
            ]
        ),
        size=n,
    )
    severity = np.clip(np.round(base[:, 0] * 1.2 + 2.0), 0, 4).astype(int)
    stage = np.clip(np.round(base[:, 1] + 1.0), 0, 2).astype(int)
    sev_labels = ["none", "mild", "moderate", "severe", "critical"]
    stage_labels = ["early", "mid", "late"]

    (tmp_path / "variables.json").write_text(
        json.dumps(
            [
                {"name": "m1", "kind": "continuous"},
                {"name": "m2", "kind": "continuous"},
                {"name": "m3", "kind": "continuous"},
                {"name": "m4", "kind": "continuous"},
                {"name": "severity", "kind": "ordinal", "levels": sev_labels},
                {"name": "stage", "kind": "ordinal", "levels": stage_labels},
            ]
        )
    )
    lines = ["m1,m2,m3,m4,severity,stage"]
    for i in range(n):
        metrics = ",".join(f"{v:.6f}" for v in base[i])
        lines.append(f"{metrics},{sev_labels[severity[i]]},{stage_labels[stage[i]]}")
    (tmp_path / "full.csv").write_text("\n".join(lines) + "\n")

    variables = str(tmp_path / "variables.json")
    assert run(
        [
            "simulate",
            "--variables", variables,
            "--input", str(tmp_path / "full.csv"),
            "--rate", "0.3",
            "--seed", "5",
            "--out-prefix", str(tmp_path / "sim"),
        ]
    ) == 0
    code = run(
        [
            "impute",
            "--variables", variables,
            "--input", str(tmp_path / "sim.masked.csv"),
            "--out-prefix", str(tmp_path / "imp"),
        ]
    )
    elapsed = time.perf_counter() - t0

    specs = load_variable_specs(variables)
    masked = load_csv(str(tmp_path / "sim.masked.csv"), specs)
    imputed = load_csv(str(tmp_path / "imp.imputed.csv"), specs)
    observed = np.asarray(masked.mask)
    observed_identical = bool(
        (imputed.values[observed] == masked.values[observed]).all()
    )

    text = (tmp_path / "imp.imputed.csv").read_text().splitlines()
    sev_seen = {line.split(",")[4] for line in text[1:]}
    stage_seen = {line.split(",")[5] for line in text[1:]}
    ordinals_valid = sev_seen <= set(sev_labels) and stage_seen <= set(stage_labels)

    complete = imputed.n_missing() == 0
    ok = (
        code == 0
        and complete
        and observed_identical
        and ordinals_valid
        and elapsed < 300.0
    )
    _verdict(
        capsys,
        ok,
        "criterion 10: CLI imputes a 1000x6 mixed table intact",
        f"complete={complete}, observed_identical={observed_identical}, "
        f"ordinals_valid={ordinals_valid}, {elapsed:.0f}s",
    )
