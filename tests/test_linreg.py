import numpy as np
import pytest

from mecalib import (
    InsufficientDataError,
    SingularDesignError,
    wald_interval,
)
from mecalib.linreg import RANK_TOLERANCE, ols_fit, residual_variance_of

from conftest import base_scenario_dataset


def test_exact_line():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([1.0, 3.0, 5.0])
    fit = ols_fit(X, y)
    assert np.allclose(fit.coefficients, [1.0, 2.0], atol=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-24)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_intercept_only_is_mean():
    X = np.ones((3, 1))
    y = np.array([2.0, 4.0, 6.0])
    fit = ols_fit(X, y)
    assert fit.coefficients[0] == pytest.approx(4.0, rel=1e-14)


def test_matches_normal_equations_oracle():
    # independent route: solve X'X b = X'y directly
    rng = np.random.default_rng(11)
    for _ in range(10):
        X = np.column_stack([np.ones(20), rng.normal(size=(20, 3))])
        y = rng.normal(size=20)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        fit = ols_fit(X, y)
        assert np.allclose(fit.coefficients, oracle, rtol=1e-8)


def test_standard_errors_match_inverse_oracle():
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
    y = rng.normal(size=50)
    fit = ols_fit(X, y)
    cov = fit.residual_variance * np.linalg.inv(X.T @ X)
    assert np.allclose(fit.standard_errors, np.sqrt(np.diag(cov)), rtol=1e-10)


def test_scaling_outcome_scales_coefficients():
    rng = np.random.default_rng(2)
    X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    y = rng.normal(size=40)
    base = ols_fit(X, y)
    scaled = ols_fit(X, 3.7 * y)
    assert np.allclose(scaled.coefficients, 3.7 * base.coefficients, rtol=1e-8)


def test_adding_covariate_multiple_shifts_only_that_coefficient():
    rng = np.random.default_rng(4)
    X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
    y = rng.normal(size=40)
    base = ols_fit(X, y)
    shifted = ols_fit(X, y + 2.5 * X[:, 2])
    expected = base.coefficients.copy()
    expected[2] += 2.5
    assert np.allclose(shifted.coefficients, expected, atol=1e-8)


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(9)
    X = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
    y = rng.normal(size=200)
    fit = ols_fit(X, y)
    residuals = y - X @ fit.coefficients
    scale = np.abs(y).max()
    assert np.all(np.abs(X.T @ residuals) < 1e-6 * len(y) * scale)


def test_r_squared_invariant_to_predictor_rescaling():
    rng = np.random.default_rng(13)
    X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
    y = X @ np.array([1.0, 0.5, -0.2]) + rng.normal(size=60)
    r2 = ols_fit(X, y).r_squared
    X2 = X.copy()
    X2[:, 1] = 1000.0 * X2[:, 1] + 3.0
    assert ols_fit(X2, y).r_squared == pytest.approx(r2, rel=1e-10)
    assert 0.0 <= r2 <= 1.0


def test_rank_deficient_design_raises():
    X = np.column_stack([np.ones(10), np.arange(10.0), 2.0 * np.arange(10.0)])
    with pytest.raises(SingularDesignError):
        ols_fit(X, np.ones(10))
    # just above the tolerance still fits
    X_ok = X.copy()
    X_ok[:, 2] += 1e-3 * np.random.default_rng(0).normal(size=10)
    ols_fit(X_ok, np.ones(10))
    assert RANK_TOLERANCE == 1e-10


def test_insufficient_rows_raises():
    with pytest.raises(InsufficientDataError):
        ols_fit(np.ones((2, 2)), np.ones(2))


def test_residual_variance_intercept_only_is_sample_variance():
    assert residual_variance_of(np.ones((3, 1)), np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0)


def test_residual_variance_exact_fit_is_zero():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    v = 2.0 - 3.0 * np.arange(5.0)
    assert residual_variance_of(X, v) == pytest.approx(0.0, abs=1e-20)


def test_residual_variance_on_large_synthetic_sample():
    # measurement noise (30) stacks on the conditional exposure variance (50)
    data, spec = base_scenario_dataset(n=100_000)
    X = np.column_stack([np.ones(data.n_rows), data.column("age")])
    v = residual_variance_of(X, data.column("bp_star_1"))
    assert v == pytest.approx(80.0, rel=0.01)


def test_wald_interval_contains_estimate_and_orders_levels():
    rng = np.random.default_rng(21)
    X = np.column_stack([np.ones(80), rng.normal(size=80)])
    y = 1.0 + 0.5 * X[:, 1] + rng.normal(size=80)
    fit = ols_fit(X, y)
    lo95, hi95 = wald_interval(fit, 1, 0.95)
    lo50, hi50 = wald_interval(fit, 1, 0.50)
    assert lo95 < lo50 < fit.coefficients[1] < hi50 < hi95
    with pytest.raises(ValueError):
        wald_interval(fit, 1, 1.2)
