import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

import semimpute
from semimpute._entry import THREAD_VARS
from semimpute.attention import AttentionParams, attention_forward
from semimpute.dataset import Dataset, VariableSpec
from semimpute.errors import InputError
from semimpute.training import GradientSet, composite_loss


def _child_env(**overrides):
    """Environment for a child process that must import this semimpute.

    PYTHONPATH starts with the absolute directory holding the package this
    process imported, so a child started in another working directory (or
    through an installed ``semimpute`` script) runs the same code; any
    inherited entries follow, made absolute against this working directory.
    The BLAS thread variables are dropped, so only ``overrides`` set them.
    """
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    package_root = str(Path(semimpute.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH", "")
    entries = [os.path.abspath(p) for p in inherited.split(os.pathsep)] if inherited else []
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys([package_root, *entries]))
    env.update(overrides)
    return env


@pytest.fixture
def child_env():
    """Build a child-process environment; see _child_env."""
    return _child_env


def _continuous_specs(d):
    return tuple(VariableSpec(f"v{j}", "continuous") for j in range(d))


def _complete(values):
    values = np.asarray(values, dtype=np.float64)
    return Dataset(
        values=values,
        mask=np.ones_like(values, dtype=bool),
        specs=_continuous_specs(values.shape[1]),
    )


@pytest.fixture
def make_dataset():
    """Build a complete continuous Dataset from a value matrix."""
    return _complete


@pytest.fixture
def make_mvn():
    """Sample a complete dataset from a zero-mean bivariate normal."""

    def build(seed, n=500, rho=0.8, d=2):
        rng = np.random.default_rng(seed)
        cov = np.full((d, d), rho)
        np.fill_diagonal(cov, 1.0)
        values = rng.multivariate_normal(np.zeros(d), cov, size=n)
        return _complete(values)

    return build


def _standardized_weights(w):
    """Edge weights after rescaling every variable to unit variance."""
    d = w.shape[0]
    ainv = np.linalg.inv(np.eye(d) - w.T)
    sigma = ainv @ ainv.T
    sd = np.sqrt(np.diag(sigma))
    return w * sd[:, None] / sd[None, :]


def _dag_sample(seed, d=5, n=1000, edge_prob=0.8, min_scaled=0.4):
    """Sample n rows from a random star-shaped linear Gaussian DAG.

    A random hub node feeds each other node with probability edge_prob and
    a weight drawn from +/-[0.5, 2]; noise is unit normal. Star graphs keep
    the recovery problem identifiable on standardized data: least-squares
    scores tie exactly across Markov-equivalent orientations, and for a
    star every such orientation is one re-rooting away from the truth,
    while colliders would let denser wrong graphs win the score outright.
    Graphs with fewer than 2 edges or standardized weights below min_scaled
    are redrawn; an edge weaker than the recovery threshold cannot be
    detected by any method, so such draws test nothing.
    Returns (values, weights).
    """
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        hub = int(rng.integers(d))
        w = np.zeros((d, d))
        for j in range(d):
            if j != hub and rng.random() < edge_prob:
                sign = 1.0 if rng.random() < 0.5 else -1.0
                w[hub, j] = sign * rng.uniform(0.5, 2.0)
        if (w != 0).sum() < 2:
            continue
        if np.abs(_standardized_weights(w)[w != 0]).min() >= min_scaled:
            break
    x = np.zeros((n, d))
    noise = rng.standard_normal((n, d))
    x[:, hub] = noise[:, hub]
    for j in range(d):
        if j != hub:
            x[:, j] = x[:, hub] * w[hub, j] + noise[:, j]
    return x, w


@pytest.fixture
def make_dag_data():
    """Sample a random linear Gaussian DAG; see _dag_sample."""
    return _dag_sample


def _finite_diff_grad(state, h):
    """Central-difference gradient of the composite loss over every parameter coordinate."""
    if h <= 0:
        raise InputError("h must be positive")

    def total_at(params):
        output = attention_forward(state.x, params)[0]
        return composite_loss(dataclasses.replace(state, params=params), output)[0].total

    mats = {"wq": state.params.wq, "wk": state.params.wk, "wv": state.params.wv}
    grads = {}
    for name, mat in mats.items():
        g = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            bumped = {k: v.copy() for k, v in mats.items()}
            bumped[name][idx] = mat[idx] + h
            hi = total_at(AttentionParams(**bumped))
            bumped[name][idx] = mat[idx] - h
            lo = total_at(AttentionParams(**bumped))
            g[idx] = (hi - lo) / (2.0 * h)
        grads[name] = g
    return GradientSet(d_wq=grads["wq"], d_wk=grads["wk"], d_wv=grads["wv"])


@pytest.fixture
def finite_diff_grad():
    """The gradient oracle of acceptance criterion 3; see _finite_diff_grad."""
    return _finite_diff_grad
