from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap.errors import SolverError
from posmap.lm import LMStatus, levenberg_marquardt, numeric_jacobian


def test_quadratic_exact_minimum():
    # r(theta) = A @ theta - b, linear least squares solved in few steps
    mat = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    b = np.array([2.0, 6.0, 3.0])
    expected, *_ = np.linalg.lstsq(mat, b, rcond=None)

    result = levenberg_marquardt(lambda t: mat @ t - b, np.zeros(2))
    assert np.allclose(result.params, expected, atol=1e-8)
    assert result.status in (LMStatus.GRADIENT_TOL, LMStatus.STEP_TOL)


def test_rosenbrock_converges():
    def residuals(t):
        return np.array([10.0 * (t[1] - t[0] ** 2), 1.0 - t[0]])

    result = levenberg_marquardt(residuals, np.array([-1.2, 1.0]), max_iter=500)
    assert np.allclose(result.params, [1.0, 1.0], atol=1e-6)
    assert result.cost < 1e-12


def test_accepted_costs_monotone_nonincreasing():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(20, 4))
    b = rng.normal(size=20)

    def residuals(t):
        return np.tanh(mat @ t) - b

    result = levenberg_marquardt(residuals, np.zeros(4), max_iter=50)
    hist = np.array(result.cost_history)
    assert np.all(np.diff(hist) <= 0.0)
    assert hist[0] == 0.5 * float(b @ b)  # tanh(0) = 0


def test_analytic_jacobian_matches_numeric_path():
    mat = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
    b = np.array([1.0, 0.0, 2.0])

    def residuals(t):
        return mat @ t - b

    with_jac = levenberg_marquardt(residuals, np.zeros(2), jac=lambda t: mat)
    without = levenberg_marquardt(residuals, np.zeros(2))
    assert np.allclose(with_jac.params, without.params, atol=1e-8)


def test_max_iter_status():
    def residuals(t):
        return np.array([np.exp(t[0]) - 2.0, t[0] ** 3])

    result = levenberg_marquardt(residuals, np.array([5.0]), max_iter=1)
    assert result.status == LMStatus.MAX_ITER
    assert result.iterations == 1


def test_cost_tol_status():
    # a Jacobian that points off a plateau: the first step is accepted and
    # leaves the cost exactly where it was
    result = levenberg_marquardt(
        lambda t: np.array([1.0]), np.zeros(1), lambda t: np.array([[1.0]])
    )
    assert result.status == LMStatus.COST_TOL
    assert result.iterations == 1
    assert result.cost_history == (0.5, 0.5)


def test_under_determined_raises():
    with pytest.raises(SolverError, match="under-determined"):
        levenberg_marquardt(lambda t: np.array([t.sum()]), np.zeros(3))


def test_numeric_jacobian_polynomial():
    def fun(t):
        return np.array([t[0] ** 2 + 3.0 * t[1], t[0] * t[1]])

    theta = np.array([2.0, -1.5])
    jac = numeric_jacobian(fun, theta)
    expected = np.array([[4.0, 3.0], [-1.5, 2.0]])
    assert np.allclose(jac, expected, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.integers(0, 2**31 - 1),
)
def test_never_worse_than_start(theta0, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(6, 3))
    b = rng.normal(size=6)

    def residuals(t):
        return mat @ t - b + 0.1 * np.sin(t).sum()

    start = np.array(theta0)
    r0 = residuals(start)
    result = levenberg_marquardt(residuals, start, max_iter=30)
    assert result.cost <= 0.5 * float(r0 @ r0) + 1e-12
