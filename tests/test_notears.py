import numpy as np
import pytest

from semimpute.dataset import Dataset, VariableSpec
from semimpute.errors import InputError, NumericalError, SpecError
from semimpute.notears import (
    NotearsConfig,
    WeightedGraph,
    acyclicity_h,
    matrix_exp,
    notears_fit,
    suggest_spec,
    threshold_dag,
)

# trace(exp([[0,1],[1,0]])) - 2 = 2 cosh(1) - 2.
TWO_CYCLE_H = 1.0861612696304874


def _graph(w, names=None):
    w = np.asarray(w, dtype=np.float64)
    if names is None:
        names = tuple(f"v{j}" for j in range(w.shape[0]))
    return WeightedGraph(w=w, names=tuple(names), converged=True)


def _complete(values):
    values = np.asarray(values, dtype=np.float64)
    return Dataset(
        values=values,
        mask=np.ones_like(values, dtype=bool),
        specs=tuple(
            VariableSpec(f"v{j}", "continuous") for j in range(values.shape[1])
        ),
    )


def test_matrix_exp_symmetric_two_by_two():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array(
        [[np.cosh(1.0), np.sinh(1.0)], [np.sinh(1.0), np.cosh(1.0)]]
    )
    np.testing.assert_allclose(matrix_exp(m), expected, atol=1e-12)


def test_matrix_exp_of_zero_is_identity():
    np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_input_validation():
    with pytest.raises(InputError):
        matrix_exp(np.zeros((2, 3)))
    with pytest.raises(InputError):
        matrix_exp(np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_matrix_exp_matches_scipy_style_series():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4))
    # Brute-force Taylor reference with many terms at float64.
    acc = np.eye(4)
    term = np.eye(4)
    for k in range(1, 40):
        term = term @ m / k
        acc = acc + term
    np.testing.assert_allclose(matrix_exp(m), acc, rtol=1e-10, atol=1e-10)


def test_h_zero_matrix_is_exactly_zero():
    h, grad = acyclicity_h(np.zeros((4, 4)))
    assert h == 0.0
    np.testing.assert_array_equal(grad, np.zeros((4, 4)))


def test_h_vanishes_on_strictly_triangular_weights():
    rng = np.random.default_rng(1)
    w = np.triu(rng.normal(size=(5, 5)), k=1)
    h, _ = acyclicity_h(w)
    assert abs(h) < 1e-12


def test_h_two_cycle_closed_form():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    h, _ = acyclicity_h(w)
    assert abs(h - TWO_CYCLE_H) < 1e-9


def test_h_is_positive_on_cycles():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 0.5
    h, _ = acyclicity_h(w)
    assert h > 0.0


def test_h_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(4, 4)) * 0.5
    np.fill_diagonal(w, 0.0)
    _, grad = acyclicity_h(w)
    step = 1e-6
    for i in range(4):
        for j in range(4):
            wp = w.copy()
            wm = w.copy()
            wp[i, j] += step
            wm[i, j] -= step
            fd = (acyclicity_h(wp)[0] - acyclicity_h(wm)[0]) / (2 * step)
            assert abs(grad[i, j] - fd) < 1e-6


def test_graph_requires_zero_diagonal_and_matching_names():
    with pytest.raises(InputError):
        WeightedGraph(w=np.eye(2), names=("a", "b"), converged=True)
    with pytest.raises(InputError):
        WeightedGraph(w=np.zeros((2, 2)), names=("a",), converged=True)


def test_graph_edges_enumerate_nonzeros_in_row_major_order():
    w = np.zeros((3, 3))
    w[0, 2] = 1.5
    w[1, 0] = -0.5
    g = _graph(w, names=("a", "b", "c"))
    assert g.edges() == [("a", "c", 1.5), ("b", "a", -0.5)]


def test_threshold_drops_weak_edges_and_verifies_acyclicity():
    w = np.zeros((3, 3))
    w[0, 1] = 0.8
    w[1, 2] = 0.25
    g = _graph(w)
    out = threshold_dag(g, 0.3)
    assert out.w[0, 1] == 0.8
    assert out.w[1, 2] == 0.0
    h, _ = acyclicity_h(out.w)
    assert h < 1e-12


def test_threshold_refuses_to_return_a_cyclic_graph():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = _graph(w)
    with pytest.raises(NumericalError, match="raise the threshold"):
        threshold_dag(g, 0.3)


def test_threshold_rejects_negative_threshold():
    with pytest.raises(InputError):
        threshold_dag(_graph(np.zeros((2, 2))), -0.1)


def test_config_validation():
    with pytest.raises(InputError):
        NotearsConfig(lambda1=-1.0)
    with pytest.raises(InputError):
        NotearsConfig(h_tol=0.0)
    with pytest.raises(InputError):
        NotearsConfig(inner_steps=0)


def test_fit_rejects_incomplete_or_tiny_input():
    values = np.zeros((10, 2))
    mask = np.ones((10, 2), dtype=bool)
    mask[0, 0] = False
    ds = Dataset(
        values=values,
        mask=mask,
        specs=(VariableSpec("a", "continuous"), VariableSpec("b", "continuous")),
    )
    with pytest.raises(InputError, match="complete"):
        notears_fit(ds)
    with pytest.raises(InputError):
        notears_fit(_complete(np.zeros((10, 1))))


def test_fit_recovers_direction_of_a_strong_linear_edge():
    rng = np.random.default_rng(7)
    n = 500
    x = rng.standard_normal(n)
    y = 2.0 * x + rng.standard_normal(n)
    g = notears_fit(_complete(np.column_stack([x, y])))
    # Weights live on the standardized scale: 2x / sd(y) with sd(y) = sqrt(5)
    # puts the true coefficient at ~0.894; the estimate lands nearby.
    assert abs(g.w[0, 1] - 0.935) < 0.05
    assert abs(g.w[1, 0]) < 0.1
    display = threshold_dag(g, 0.3)
    assert display.edges() == [("v0", "v1", pytest.approx(g.w[0, 1]))]


def test_fit_finds_no_edges_between_independent_columns():
    rng = np.random.default_rng(15)
    g = notears_fit(_complete(rng.standard_normal((400, 4))))
    assert np.abs(g.w).max() < 0.3
    assert threshold_dag(g, 0.3).edges() == []


def test_fit_edge_set_is_scale_invariant():
    rng = np.random.default_rng(21)
    n = 400
    x = rng.standard_normal(n)
    y = 1.5 * x + rng.standard_normal(n)
    base = np.column_stack([x, y])
    scaled = base * np.array([1000.0, 0.001])
    edges_a = {(a, b) for a, b, _ in threshold_dag(notears_fit(_complete(base)), 0.3).edges()}
    edges_b = {(a, b) for a, b, _ in threshold_dag(notears_fit(_complete(scaled)), 0.3).edges()}
    assert edges_a == edges_b == {("v0", "v1")}


def test_fit_result_is_deterministic():
    rng = np.random.default_rng(30)
    x = rng.standard_normal(200)
    y = x + 0.5 * rng.standard_normal(200)
    ds = _complete(np.column_stack([x, y]))
    a = notears_fit(ds)
    b = notears_fit(ds)
    np.testing.assert_array_equal(a.w, b.w)
    assert a.converged == b.converged


def test_suggest_spec_orders_equations_topologically():
    w = np.zeros((3, 3))
    w[0, 1] = 0.9  # a -> b
    w[1, 2] = 0.7  # b -> c
    g = _graph(w, names=("a", "b", "c"))
    spec = suggest_spec(g, "c")
    assert [eq.outcome for eq in spec.equations] == ["b", "c"]
    assert spec.equations[0].predictors == ("a",)
    assert spec.equations[1].predictors == ("b",)
    assert spec.variables == ("a", "b", "c")


def test_suggest_spec_lists_parents_in_column_order():
    w = np.zeros((3, 3))
    w[0, 2] = 0.5
    w[1, 2] = -0.5
    g = _graph(w, names=("a", "b", "c"))
    spec = suggest_spec(g, "c")
    assert spec.equations[0].predictors == ("a", "b")


def test_suggest_spec_validates_outcome():
    w = np.zeros((2, 2))
    w[0, 1] = 1.0
    g = _graph(w, names=("a", "b"))
    with pytest.raises(SpecError, match="not among"):
        suggest_spec(g, "zzz")
    with pytest.raises(SpecError, match="no edges into"):
        suggest_spec(g, "a")


def test_suggest_spec_rejects_cyclic_graph():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = _graph(w)
    with pytest.raises(SpecError, match="cyclic"):
        suggest_spec(g, "v1")
