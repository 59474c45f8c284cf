import numpy as np
import pytest

from semimpute.dataset import Dataset, VariableSpec
from semimpute.errors import InputError, ParseError, SpecError
from semimpute.fiml import EmConfig
from semimpute.missingness import apply_mcar
from semimpute.sem import (
    PathModel,
    fit_paths_fiml,
    implied_moments,
    parse_spec,
)


def test_parse_spec_basic():
    spec = parse_spec("# outcome first\ny ~ x1 + x2\nz ~ y\n")
    assert spec.variables == ("y", "x1", "x2", "z")
    assert spec.equations[0].outcome == "y"
    assert spec.equations[0].predictors == ("x1", "x2")
    assert spec.equations[1] == ("z", ("y",))


def test_parse_spec_inline_comment_and_blank_lines():
    spec = parse_spec("\n\ny ~ x  # regression\n")
    assert spec.equations == (("y", ("x",)),)


def test_parse_spec_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse_spec("y x1 + x2\n")
    with pytest.raises(ParseError):
        parse_spec("y ~ x ~ z\n")
    with pytest.raises(ParseError):
        parse_spec("y ~\n")


def test_spec_rejects_duplicate_outcome():
    with pytest.raises(SpecError):
        parse_spec("y ~ x\ny ~ z\n")


def test_spec_rejects_self_loop():
    with pytest.raises(SpecError):
        parse_spec("y ~ y\n")


def test_spec_rejects_duplicate_predictor():
    with pytest.raises(SpecError):
        parse_spec("y ~ x + x\n")


def _single_path_model():
    # x -> y with coefficient 0.5, Var(x) = 1, residual Var(y) = 1.
    variables = ("x", "y")
    # Row = outcome, column = predictor: y gets 0.5 * x.
    b = np.array([[0.0, 0.0], [0.5, 0.0]])
    return PathModel(
        variables=variables,
        B=b,
        psi=np.array([1.0, 1.0]),
        phi=np.array([[1.0]]),
        intercepts=np.zeros(2),
        endogenous=("y",),
    )


def test_implied_moments_single_path():
    mu, sigma = implied_moments(_single_path_model())
    # Var(y) = 0.5^2 * 1 + 1 = 1.25; Cov(x, y) = 0.5.
    assert sigma[0, 0] == pytest.approx(1.0)
    assert sigma[1, 1] == pytest.approx(1.25)
    assert sigma[0, 1] == pytest.approx(0.5)
    assert np.allclose(mu, 0.0)


def test_path_model_rejects_cyclic_b():
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SpecError):
        PathModel(
            variables=("x", "y"),
            B=b,
            psi=np.array([1.0, 1.0]),
            phi=np.zeros((0, 0)),
            intercepts=np.zeros(2),
            endogenous=("x", "y"),
        )


def test_fit_paths_on_complete_data_matches_least_squares():
    rng = np.random.default_rng(7)
    n = 4000
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = 1.5 + 2.0 * x1 - 0.7 * x2 + 0.5 * rng.standard_normal(n)
    ds = Dataset(
        values=np.column_stack([y, x1, x2]),
        mask=np.ones((n, 3), dtype=bool),
        specs=(
            VariableSpec("y", "continuous"),
            VariableSpec("x1", "continuous"),
            VariableSpec("x2", "continuous"),
        ),
    )
    spec = parse_spec("y ~ x1 + x2\n")
    fit = fit_paths_fiml(spec, ds)
    j = fit.model.variables.index("y")
    coefs = {
        p: fit.model.B[j, fit.model.variables.index(p)] for p in ("x1", "x2")
    }
    a = np.column_stack([np.ones(n), x1, x2])
    beta, *_ = np.linalg.lstsq(a, y, rcond=None)
    assert coefs["x1"] == pytest.approx(beta[1], abs=1e-6)
    assert coefs["x2"] == pytest.approx(beta[2], abs=1e-6)
    assert fit.model.intercepts[j] == pytest.approx(beta[0], abs=1e-6)


def test_fit_paths_recovers_under_mcar(make_mvn):
    truth = make_mvn(11, n=3000, rho=0.6)
    masked, _ = apply_mcar(truth, 0.3, seed=4)
    spec = parse_spec("v1 ~ v0\n")
    fit = fit_paths_fiml(spec, masked)
    j = fit.model.variables.index("v1")
    i = fit.model.variables.index("v0")
    assert fit.model.B[j, i] == pytest.approx(0.6, abs=0.06)


def test_fit_paths_requires_known_variables(make_mvn):
    ds = make_mvn(0, n=50)
    with pytest.raises(SpecError):
        fit_paths_fiml(parse_spec("z ~ v0\n"), ds)


def test_negative_general_health_sign_recovered():
    # CDC-like synthetic draw: worse reported health tracks higher BMI.
    rng = np.random.default_rng(42)
    n = 5000
    gh = rng.integers(0, 5, size=n).astype(float)
    age = rng.integers(0, 13, size=n).astype(float)
    sleep = rng.normal(7.0, 1.2, size=n)
    bmi = 31.0 - 1.3 * gh - 0.1 * age + 0.2 * sleep + rng.normal(0, 5.5, size=n)
    ds = Dataset(
        values=np.column_stack([bmi, gh, age, sleep]),
        mask=np.ones((n, 4), dtype=bool),
        specs=(
            VariableSpec("BMI", "continuous"),
            VariableSpec("GeneralHealth", "continuous"),
            VariableSpec("AgeCategory", "continuous"),
            VariableSpec("SleepHours", "continuous"),
        ),
    )
    spec = parse_spec("BMI ~ GeneralHealth + AgeCategory + SleepHours\n")
    fit = fit_paths_fiml(spec, ds, EmConfig(tol=1e-8))
    j = fit.model.variables.index("BMI")
    i = fit.model.variables.index("GeneralHealth")
    assert fit.model.B[j, i] < 0
