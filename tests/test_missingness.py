import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimpute.dataset import MISSING_SENTINEL
from semimpute.errors import InputError
from semimpute.missingness import apply_mcar, plan_mcar
from semimpute.rng import choose_without_replacement


def test_count_rounds_half_up():
    # 10 cells at 25%: floor(2.5 + 0.5) = 3.
    hidden = plan_mcar((2, 5), 0.25, seed=0)
    assert hidden.shape == (2, 5) and hidden.dtype == bool
    assert hidden.sum() == 3


def test_plan_is_deterministic():
    a = plan_mcar((20, 4), 0.3, seed=99)
    b = plan_mcar((20, 4), 0.3, seed=99)
    assert np.array_equal(a, b)
    assert not np.array_equal(plan_mcar((20, 4), 0.3, seed=100), a)


def test_column_restriction():
    hidden = plan_mcar((50, 3), 0.4, seed=1, columns=[2])
    assert hidden[:, 2].sum() == 20
    assert not hidden[:, :2].any()


def test_eligible_pool_excludes_given_cells():
    eligible = np.ones((10, 2), dtype=bool)
    eligible[:, 0] = False
    hidden = plan_mcar((10, 2), 0.5, seed=3, eligible=eligible)
    assert not hidden[:, 0].any()
    assert hidden.sum() == 5  # 50% of the 10 eligible cells


def test_rate_bounds():
    with pytest.raises(InputError):
        plan_mcar((5, 5), 1.0, seed=0)
    with pytest.raises(InputError):
        plan_mcar((5, 5), -0.1, seed=0)


def test_apply_mcar_sets_sentinel_and_mask(make_mvn):
    truth = make_mvn(0, n=100)
    masked, hidden = apply_mcar(truth, 0.3, seed=5)
    assert masked.n_missing() == hidden.sum() == 60
    assert np.array_equal(hidden, ~masked.mask)
    holes = ~masked.mask
    assert np.all(masked.values[holes] == MISSING_SENTINEL)
    assert np.array_equal(masked.values[masked.mask], truth.values[masked.mask])


def test_apply_mcar_skips_already_missing(make_mvn):
    truth = make_mvn(1, n=50)
    once, _ = apply_mcar(truth, 0.2, seed=7)
    twice, hidden = apply_mcar(once, 0.5, seed=8)
    # Second pass draws only from the cells the first pass left observed.
    assert not (hidden & ~once.mask).any()
    assert twice.n_missing() == once.n_missing() + hidden.sum()


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_per_column_fraction_is_hypergeometric(seed):
    n, d, rate = 10000, 4, 0.3
    hidden = plan_mcar((n, d), rate, seed=seed)
    counts = hidden.sum(axis=0)
    # Sampling without replacement: per-column count is hypergeometric.
    total = n * d
    k = hidden.sum()
    mean = k * n / total
    var = k * (n / total) * (1 - n / total) * (total - k) / (total - 1)
    bound = 4.0 * math.sqrt(var)
    assert np.all(np.abs(counts - mean) <= bound + 1e-9), counts


def _plan_cells_oracle(shape, rate, seed, columns, eligible):
    """Row-major scope enumeration by loops, then the same seeded draw."""
    n, d = shape
    colset = set(range(d)) if columns is None else set(columns)
    pool = [
        (i, j)
        for i in range(n)
        for j in range(d)
        if j in colset and (eligible is None or eligible[i, j])
    ]
    count = int(np.floor(rate * len(pool) + 0.5))
    return tuple(pool[t] for t in choose_without_replacement(len(pool), count, seed))


@st.composite
def _plan_inputs(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 7))
    rate = draw(st.floats(0.0, 0.999))
    seed = draw(st.integers(0, 2**64 - 1))
    columns = draw(st.none() | st.lists(st.integers(0, d - 1), max_size=d + 2))
    eligible = draw(st.none() | st.integers(0, 2**32 - 1).map(
        lambda s: np.random.default_rng(s).random((n, d)) < 0.7
    ))
    return (n, d), rate, seed, columns, eligible


@given(_plan_inputs())
@settings(max_examples=60, deadline=None)
def test_plan_matches_loop_oracle(inputs):
    shape, rate, seed, columns, eligible = inputs
    hidden = plan_mcar(shape, rate, seed, columns=columns, eligible=eligible)
    want = _plan_cells_oracle(shape, rate, seed, columns, eligible)
    assert hidden.shape == shape and hidden.dtype == bool
    assert tuple(map(tuple, np.argwhere(hidden).tolist())) == want


def test_eligible_must_match_shape():
    with pytest.raises(InputError, match="eligible"):
        plan_mcar((4, 3), 0.5, seed=0, eligible=np.ones(3, dtype=bool))
