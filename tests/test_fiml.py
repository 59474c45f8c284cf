import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimpute import fiml
from semimpute.dataset import Dataset, VariableSpec, normalize
from semimpute.errors import InputError, NumericalError
from semimpute.fiml import (
    LOG_2PI,
    MONOTONE_SLACK,
    RIDGE,
    EmConfig,
    MvnParams,
    _estep,
    conditional_impute,
    em_fit,
    loglik_observed,
)
from semimpute.linalg import INNER_CHUNK, forward_substitute
from semimpute.missingness import apply_mcar

STD_NORMAL_LL_AT_MEAN = -0.9189385332046727  # -log(2*pi)/2


def _dataset(values, mask=None):
    values = np.asarray(values, dtype=np.float64)
    mask = np.ones_like(values, dtype=bool) if mask is None else np.asarray(mask, bool)
    specs = tuple(VariableSpec(f"v{j}", "continuous") for j in range(values.shape[1]))
    return Dataset(values=values, mask=mask, specs=specs)


def test_mvn_params_requires_symmetry():
    with pytest.raises(InputError):
        MvnParams(mu=np.zeros(2), sigma=np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_loglik_standard_normal_at_mean():
    params = MvnParams(mu=np.zeros(1), sigma=np.eye(1))
    ds = _dataset([[0.0]])
    assert loglik_observed(params, ds) == pytest.approx(STD_NORMAL_LL_AT_MEAN, abs=1e-12)


def test_loglik_sums_over_observed_patterns():
    params = MvnParams(mu=np.zeros(2), sigma=np.eye(2))
    ds = _dataset([[0.0, 0.0], [0.0, 0.0]], mask=[[True, True], [True, False]])
    # Three observed standard-normal cells at the mean.
    assert loglik_observed(params, ds) == pytest.approx(3 * STD_NORMAL_LL_AT_MEAN, abs=1e-10)


def test_complete_data_converges_in_one_iteration():
    rng = np.random.default_rng(0)
    ds = _dataset(rng.standard_normal((200, 3)))
    res = em_fit(ds)
    assert res.iterations == 1
    # The fit equals the closed-form ML estimate.
    assert np.allclose(res.params.mu, ds.values.mean(axis=0))
    assert np.allclose(res.params.sigma, np.cov(ds.values, rowvar=False, bias=True))


def test_em_recovers_correlation_under_mcar(make_mvn):
    truth = make_mvn(3, n=2000, rho=0.8)
    masked, _ = apply_mcar(truth, 0.3, seed=11)
    res = em_fit(masked)
    rho = res.params.sigma[0, 1] / np.sqrt(res.params.sigma[0, 0] * res.params.sigma[1, 1])
    assert abs(rho - 0.8) < 0.05


def test_em_fixed_point(make_mvn):
    truth = make_mvn(4, n=500)
    masked, _ = apply_mcar(truth, 0.3, seed=12)
    cfg = EmConfig(tol=1e-12, max_iter=2000)
    res = em_fit(masked, cfg)
    again = em_fit(masked, cfg, init=res.params)
    assert np.max(np.abs(again.params.mu - res.params.mu)) < 1e-6
    assert np.max(np.abs(again.params.sigma - res.params.sigma)) < 1e-6


def test_em_warns_on_fully_missing_rows():
    values = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0], [2.0, 2.0]])
    mask = np.array([[True, True], [False, False], [True, True], [True, True]])
    res = em_fit(_dataset(values, mask))
    assert any("missing" in w for w in res.warnings)


def test_em_rejects_insufficient_rows():
    with pytest.raises(InputError):
        em_fit(_dataset([[1.0, 2.0]]))


def test_conditional_impute_reproduces_observed_cells(make_mvn):
    truth = make_mvn(5, n=300)
    masked, _ = apply_mcar(truth, 0.25, seed=21)
    res = em_fit(masked)
    filled, provenance = conditional_impute(res.params, masked)
    assert np.array_equal(provenance, ~masked.mask)
    assert np.array_equal(filled.values[masked.mask], masked.values[masked.mask])
    assert np.array_equal(filled.mask, masked.mask)  # mask itself unchanged


def test_conditional_impute_bivariate_regression():
    # With unit variances, imputing x2 from x1 is mu2 + rho*(x1 - mu1).
    rho = 0.8
    params = MvnParams(mu=np.zeros(2), sigma=np.array([[1.0, rho], [rho, 1.0]]))
    ds = _dataset([[1.5, 0.0]], mask=[[True, False]])
    filled, _ = conditional_impute(params, ds)
    assert filled.values[0, 1] == pytest.approx(rho * 1.5, abs=1e-12)


def test_conditional_impute_fully_missing_row_gets_mean():
    params = MvnParams(mu=np.array([2.0, -1.0]), sigma=np.eye(2))
    ds = _dataset([[0.0, 0.0]], mask=[[False, False]])
    filled, _ = conditional_impute(params, ds)
    assert np.allclose(filled.values[0], [2.0, -1.0])


def test_singular_sigma_raises_after_ridge_retry():
    params = MvnParams(mu=np.zeros(2), sigma=np.array([[1.0, 1.0], [1.0, 1.0]]))
    ds = _dataset([[1.0, 0.0]], mask=[[True, False]])
    # Perfectly singular 1x1 observed block is fine; force a bad 2x2 via loglik.
    bad = MvnParams(mu=np.zeros(2), sigma=np.array([[-1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NumericalError):
        loglik_observed(bad, _dataset([[1.0, 1.0]]))
    # The merely-singular case is rescued by the ridge.
    filled, _ = conditional_impute(params, ds)
    assert np.isfinite(filled.values).all()


def test_em_floors_an_indefinite_pairwise_start():
    # Three row groups each observe one pair of columns, correlated +0.9,
    # +0.9 and -0.9: no covariance matrix has those correlations, so the
    # pairwise-complete start is indefinite.
    rng = np.random.default_rng(3)
    n = 60
    values = np.zeros((3 * n, 3))
    mask = np.zeros((3 * n, 3), dtype=bool)
    for g, ((a, b), r) in enumerate((((0, 1), 0.9), ((1, 2), 0.9), ((0, 2), -0.9))):
        rows = slice(g * n, (g + 1) * n)
        values[rows, [a, b]] = rng.multivariate_normal([0.0, 0.0], [[1.0, r], [r, 1.0]], size=n)
        mask[rows, [a, b]] = True
    res = em_fit(_dataset(values, mask))
    assert res.warnings == ["indefinite covariance; eigenvalues floored"]
    np.linalg.cholesky(res.params.sigma)
    assert np.all(np.diff(res.history) >= -MONOTONE_SLACK)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_em_monotonicity_holds_on_random_problems(seed):
    # em_fit asserts per-iteration loglik increase internally; this runs the
    # assertion across many random missingness draws.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(30, 80))
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.5 * np.eye(d)
    values = rng.multivariate_normal(rng.standard_normal(d), cov, size=n)
    ds = _dataset(values)
    masked, _ = apply_mcar(ds, float(rng.uniform(0.05, 0.4)), seed=seed)
    res = em_fit(masked)
    assert np.isfinite(res.loglik)


def test_em_reports_stop_reason_and_monotone_history(make_mvn):
    truth = make_mvn(4, n=400)
    masked, _ = apply_mcar(truth, 0.3, seed=5)
    capped = em_fit(masked, EmConfig(max_iter=1))
    assert capped.stopped == "max_iter"
    assert len(capped.history) == 2
    res = em_fit(masked)
    assert res.stopped == "tolerance"
    assert len(res.history) == res.iterations + 1
    assert np.all(np.diff(res.history) >= -MONOTONE_SLACK)
    assert res.history[-1] == res.loglik


def test_em_fits_near_duplicate_columns():
    # cond(sigma) is about 1e12: column 1 is column 0 plus 1e-6 noise.
    n = 2000
    rng = np.random.default_rng(5)
    z = rng.standard_normal((n, 3))
    e = rng.standard_normal(n)
    e2 = rng.standard_normal(n)
    values = np.column_stack([z[:, 0], z[:, 0] + 1e-6 * e, z[:, 1], z[:, 1] + z[:, 2] + 0.1 * e2, z[:, 2]])
    masked, _ = apply_mcar(_dataset(values), 0.3, seed=3)
    res = em_fit(normalize(masked))
    assert res.stopped == "tolerance"
    assert np.isfinite(res.loglik)


def _oracle_estep(mu, sigma, values, mask):
    """E-step pattern by pattern, with the arithmetic of one pattern at a time."""
    d = mu.size
    filled = values.copy()
    correction = np.zeros((d, d))
    total = 0.0
    patterns: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(mask):
        patterns.setdefault(tuple(np.flatnonzero(row).tolist()), []).append(i)
    for obs, rows in patterns.items():
        if not obs:
            filled[rows, :] = mu
            correction += len(rows) * sigma
            continue
        o = np.array(obs)
        m = np.array([j for j in range(d) if j not in set(obs)], dtype=int)
        chol = np.linalg.cholesky(sigma[np.ix_(o, o)])
        resid = values[np.ix_(rows, o)] - mu[o]
        z = np.linalg.solve(chol, resid.T)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        total += float(np.sum(-0.5 * (len(obs) * LOG_2PI + logdet + np.sum(z * z, axis=0))))
        if m.size:
            sig_mo = sigma[np.ix_(m, o)]
            beta = np.linalg.solve(chol.T, np.linalg.solve(chol, sig_mo.T)).T
            filled[np.ix_(rows, m)] = mu[m] + resid @ beta.T
            correction[np.ix_(m, m)] += len(rows) * (sigma[np.ix_(m, m)] - beta @ sig_mo.T)
    return total, filled, correction


def _check_estep_against_oracle(seed, n, d, rate):
    """Random (mu, sigma) and n rows, plus a complete, a fully-missing and a
    single-observed row; returns the sizes of the observed-count groups."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    sigma = a @ a.T / d + 0.5 * np.eye(d)
    mu = rng.standard_normal(d)
    values = rng.standard_normal((n + 3, d))
    mask = rng.random((n + 3, d)) >= rate
    mask[0] = True
    mask[1] = False
    mask[2] = np.arange(d) == rng.integers(d)
    ds = _dataset(values, mask)
    step = _estep(mu, sigma, ds)
    ll, filled, correction = _oracle_estep(mu, sigma, values, mask)
    assert np.isfinite(step.loglik)
    assert np.isfinite(step.filled).all() and np.isfinite(step.correction).all()
    assert step.loglik == pytest.approx(ll, rel=1e-12, abs=0)
    np.testing.assert_allclose(step.filled, filled, rtol=0, atol=1e-12)
    # The correction sums one matrix per row and enters sigma divided by the
    # row count; compared at that scale, as the fill's cells are.
    rows = n + 3
    np.testing.assert_allclose(step.correction / rows, correction / rows, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(step.filled[mask], values[mask])
    return np.bincount(mask.sum(axis=1), minlength=d + 1)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=600),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=40, deadline=None)
def test_batched_estep_matches_per_pattern_oracle(seed, n, d, rate):
    _check_estep_against_oracle(seed, n, d, rate)


def test_batched_estep_matches_oracle_across_blocks():
    groups = _check_estep_against_oracle(seed=1, n=600, d=2, rate=0.5)
    # The one-observed-cell group fills more than one block.
    assert groups[1] > INNER_CHUNK


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=8))
@settings(max_examples=30, deadline=None)
def test_estep_mixes_precision_and_covariance_groups(seed, d):
    # Every observed-cell count 0..d, so groups with fewer missing than
    # observed cells (the precision form) and the others (the covariance
    # form) meet in one E-step.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    sigma = a @ a.T / d + 0.5 * np.eye(d)
    mu = rng.standard_normal(d)
    n = 40 * (d + 1)
    counts = np.arange(n) % (d + 1)
    mask = rng.random((n, d)).argsort(axis=1) < counts[:, None]
    values = rng.standard_normal((n, d))
    step = _estep(mu, sigma, _dataset(values, mask))
    ll, filled, correction = _oracle_estep(mu, sigma, values, mask)
    assert step.loglik == pytest.approx(ll, rel=1e-12, abs=0)
    np.testing.assert_allclose(step.filled, filled, rtol=0, atol=1e-12)
    np.testing.assert_allclose(step.correction / n, correction / n, rtol=0, atol=1e-12)


def _exact_fill(mu, sigma, values, mask):
    """Conditional means by Gauss-Jordan elimination in exact rationals, each
    rounded once to the nearest float."""
    d = mu.size
    mu_q = [Fraction(v) for v in mu]
    sigma_q = [[Fraction(v) for v in row] for row in sigma]
    filled = values.copy()
    patterns: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(mask):
        patterns.setdefault(tuple(np.flatnonzero(row).tolist()), []).append(i)
    for obs, rows in patterns.items():
        miss = [j for j in range(d) if j not in obs]
        if not obs:
            filled[rows] = mu
        if not obs or not miss:
            continue
        # [sigma_oo | sigma_om] reduced to [I | sigma_oo^-1 sigma_om].
        k = len(obs)
        aug = [[sigma_q[p][q] for q in (*obs, *miss)] for p in obs]
        for c in range(k):
            lead = aug[c][c]
            aug[c] = [v / lead for v in aug[c]]
            for r in range(k):
                if r != c and aug[r][c] != 0:
                    f = aug[r][c]
                    aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
        for i in rows:
            resid = [Fraction(values[i, p]) - mu_q[p] for p in obs]
            for a, j in enumerate(miss):
                filled[i, j] = float(mu_q[j] + sum(r * aug[b][k + a] for b, r in enumerate(resid)))
    return filled


def _near_duplicate_table(eps):
    """2000 x 6 with column 1 = column 0 + eps * noise, 30% MCAR, normalized."""
    n = 2000
    rng = np.random.default_rng(5)
    z = rng.standard_normal((n, 5))
    values = np.column_stack([z[:, 0], z[:, 0] + eps * rng.standard_normal(n), z[:, 1:]])
    masked, _ = apply_mcar(_dataset(values), 0.3, seed=3)
    return normalize(masked)


def test_precision_fill_stays_near_the_covariance_fill_error(monkeypatch):
    # cond(sigma) is about 4e6, inside the precision form's guard.
    ds = _near_duplicate_table(1e-3)
    params = em_fit(ds).params
    exact = _exact_fill(params.mu, params.sigma, ds.values, np.asarray(ds.mask))
    rows = 2 * np.asarray(ds.mask).sum(axis=1) > ds.d
    precise = _estep(params.mu, params.sigma, ds).filled
    # A bound of 0 sends every group to the covariance form.
    monkeypatch.setattr(fiml, "PRECISION_COND_LIMIT", 0.0)
    covariance = _estep(params.mu, params.sigma, ds).filled
    assert not np.array_equal(precise[rows], covariance[rows])
    err_precise = np.max(np.abs(precise - exact)[rows])
    err_covariance = np.max(np.abs(covariance - exact)[rows])
    assert 0 < err_precise <= 10 * err_covariance


def test_guard_keeps_an_ill_conditioned_fit_on_the_covariance_form(monkeypatch):
    # At the fit, cond(sigma) is about 4e12: column 1 is column 0 plus 1e-6
    # noise.  (The pairwise-complete start is far better conditioned.)
    ds = _near_duplicate_table(1e-6)
    res = em_fit(ds)

    def refuse(*args):
        raise AssertionError("precision form taken")

    monkeypatch.setattr(fiml, "_precision_block", refuse)
    filled, _ = conditional_impute(res.params, ds)
    assert filled.values.tobytes() == res.filled.tobytes()


def test_estep_forms_no_precision_matrix_without_a_precision_group(monkeypatch):
    # Every row has at most half its cells observed: no group has fewer
    # missing than observed cells, so sigma^-1 is never needed.
    rng = np.random.default_rng(6)
    d, n = 6, 200
    mask = rng.random((n, d)).argsort(axis=1) < (np.arange(n) % 4)[:, None]

    def refuse(*args):
        raise AssertionError("precision matrix formed")

    monkeypatch.setattr(fiml, "_precision", refuse)
    step = _estep(np.zeros(d), np.eye(d) + 0.5, _dataset(rng.standard_normal((n, d)), mask))
    assert np.isfinite(step.loglik)


def test_rejected_missing_block_of_lambda_falls_back_to_the_covariance_form(monkeypatch):
    # Rows with 3 of 4 cells observed take the precision form and factor a
    # 1 x 1 block of Lambda; rows with 2 observed take the covariance form
    # and factor 2 x 2 blocks of sigma.  Cholesky is made to reject the 1 x 1
    # stacks, so those blocks must go through the covariance form instead.
    rng = np.random.default_rng(4)
    d, n = 4, 3 * INNER_CHUNK
    a = rng.standard_normal((d, d))
    sigma = a @ a.T / d + 0.5 * np.eye(d)
    mu = rng.standard_normal(d)
    counts = np.where(np.arange(n) % 3 == 0, 2, 3)
    mask = rng.random((n, d)).argsort(axis=1) < counts[:, None]
    ds = _dataset(rng.standard_normal((n, d)), mask)
    monkeypatch.setattr(fiml, "PRECISION_COND_LIMIT", 0.0)
    covariance = _estep(mu, sigma, ds)
    monkeypatch.undo()

    cholesky, rejected = np.linalg.cholesky, []

    def reject_1x1_stacks(a):
        if a.ndim == 3 and a.shape[-1] == 1:
            rejected.append(a.shape[0])
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", reject_1x1_stacks)
    step = _estep(mu, sigma, ds)
    assert sum(rejected) == int((counts == 3).sum())
    assert step.loglik == covariance.loglik
    assert step.filled.tobytes() == covariance.filled.tobytes()
    assert step.correction.tobytes() == covariance.correction.tobytes()
    assert step.warnings == covariance.warnings


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=40, max_value=300),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=0.6),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_em_fill_is_the_conditional_fill_under_its_params(seed, n, d, rate, max_iter):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
    mask = rng.random((n, d)) >= rate
    # Two complete rows give every column its two observed cells.
    mask[:2] = True
    mask[2] = False
    ds = _dataset(values, mask)
    res = em_fit(ds, EmConfig(max_iter=max_iter))
    filled, _ = conditional_impute(res.params, ds)
    assert res.filled.tobytes() == filled.values.tobytes()


def test_em_memory_stays_linear_in_rows():
    n, d = 20000, 21
    rng = np.random.default_rng(8)
    a = rng.standard_normal((d, d))
    truth = _dataset(rng.standard_normal((n, d)) @ a)
    masked, _ = apply_mcar(truth, 0.3, seed=8)
    tracemalloc.start()
    try:
        em_fit(masked, EmConfig(max_iter=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Gathering the observed blocks of all rows at once, about k^2 = 225
    # floats per row, would pass this bound by itself.
    assert peak < 10 * 8 * n * d


def _lower_factors(rng, batch, k, family):
    """Lower-triangular factors whose rows span six decades of scale.

    "scaled" factors are D M with D log-uniform on [RIDGE, 1] and M unit
    lower triangular, so a later row with a larger scale makes LU pivot;
    "ridge" factors also set about a third of the diagonal to 1-2 x RIDGE;
    "cholesky" factors are those of S C S with C well conditioned and S
    log-uniform, the shape the E-step's observed blocks take.
    """
    scale = np.exp(rng.uniform(np.log(RIDGE), 0.0, (batch, k)))
    if family == "cholesky":
        b = rng.standard_normal((batch, k, k))
        c = b @ b.transpose(0, 2, 1) / k + 0.1 * np.eye(k)
        return np.linalg.cholesky(scale[:, :, None] * c * scale[:, None, :])
    if family == "ridge":
        tiny = rng.random((batch, k)) < 0.3
        scale = np.where(tiny, RIDGE * rng.uniform(1.0, 2.0, (batch, k)), scale)
    unit = np.tril(rng.uniform(-0.5, 0.5, (batch, k, k)), -1) + np.eye(k)
    return scale[:, :, None] * unit


def _check_against_lu(chol, rhs):
    """forward_substitute agrees with LU to 1e-12 of each system's largest entry."""
    # One step of iterative refinement in working precision (Skeel 1980)
    # makes the LU solution componentwise backward stable, as forward
    # substitution is.  Plain LU with partial pivoting mixes rows whose
    # scales differ by 1e6 and was off by up to 2.5e-12 on "ridge" factors.
    lu = np.linalg.solve(chol, rhs)
    lu += np.linalg.solve(chol, rhs - chol @ lu)
    # Entries above the diagonal are never read.
    k = chol.shape[-1]
    got = forward_substitute(chol + np.triu(np.full((k, k), np.nan), 1), rhs)
    err = np.max(np.abs(got - lu), axis=(-2, -1)) / np.max(np.abs(lu), axis=(-2, -1))
    assert np.all(err <= 1e-12)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=22),
    st.integers(min_value=1, max_value=22),
    st.sampled_from(["scaled", "ridge", "cholesky"]),
)
@settings(max_examples=60, deadline=None)
def test_forward_substitute_matches_lu_solve(seed, batch, k, width, family):
    rng = np.random.default_rng(seed)
    chol = _lower_factors(rng, batch, k, family)
    _check_against_lu(chol, rng.standard_normal((batch, k, width)))


@pytest.mark.parametrize("family", ["scaled", "ridge", "cholesky"])
def test_forward_substitute_draws_factors_where_lu_pivots(family):
    chol = _lower_factors(np.random.default_rng(0), 200, 10, family)
    # Partial pivoting swaps rows when an entry below the diagonal is
    # larger than the diagonal entry of its column.
    below = np.abs(np.tril(chol, -1)).max(axis=1)
    pivots = below > np.abs(np.diagonal(chol, axis1=1, axis2=2))
    assert pivots.any(axis=1).mean() > 0.5
    if family == "ridge":
        assert np.any(np.diagonal(chol, axis1=1, axis2=2) < 2 * RIDGE)


def test_forward_substitute_solves_one_factor_against_many_columns():
    # The E-step's complete rows: one d x d factor and one column per row.
    rng = np.random.default_rng(2)
    _check_against_lu(_lower_factors(rng, 1, 6, "ridge")[0], rng.standard_normal((6, 1000)))
