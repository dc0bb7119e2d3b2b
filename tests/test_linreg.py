import warnings

import numpy as np
import pytest

from mecalib import (
    InsufficientDataError,
    SingularDesignError,
    wald_interval,
)
from mecalib.linreg import RANK_TOLERANCE, FitResult, ols_fit, residual_variance_of

from conftest import base_scenario_dataset


def svd_ols_fit(X, y):
    """Reference OLS through a full SVD of X: the oracle for ``ols_fit``.

    Same checks, tolerance and conventions as ``ols_fit``: the rank test
    takes the singular values of X with each column scaled to unit norm; the
    coefficients come from X = U S V', the RSS from explicit residuals.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if n <= p:
        raise InsufficientDataError(f"n={n} rows cannot identify p={p} parameters")
    unit = X / np.abs(X).max(axis=0)
    unit /= np.linalg.norm(unit, axis=0)
    scaled = np.linalg.svd(unit, compute_uv=False)
    if not scaled[-1] >= RANK_TOLERANCE * scaled[0]:
        raise SingularDesignError("design matrix is rank deficient")
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    coef = vt.T @ ((u.T @ y) / s)
    residuals = y - X @ coef
    rss = float(residuals @ residuals)
    residual_variance = rss / (n - p)
    centered = y - y.mean()
    tss = float(centered @ centered)
    if tss > 0.0:
        r_squared = 1.0 - rss / tss
    else:
        r_squared = 1.0 if rss <= 1e-30 else 0.0
    xtx_inv_diag = np.einsum("kj,kj->j", vt / s[:, None], vt / s[:, None])
    return FitResult(
        coefficients=coef,
        standard_errors=np.sqrt(residual_variance * xtx_inv_diag),
        residual_variance=residual_variance,
        r_squared=r_squared,
        n=n,
        p=p,
    )


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


def test_wald_interval_equals_stats_t_formula_bit_for_bit():
    from scipy import stats

    levels = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
    for df in [*range(1, 400), 1_999, 5_000, 9_997, 10_000, 99_997]:
        fit = FitResult(np.array([1.5, -0.25]), np.array([0.3, 0.0123]), 1.0, 0.5, df + 2, 2)
        for level in levels:
            half = stats.t.ppf(0.5 + level / 2.0, fit.n - fit.p) * fit.standard_errors[1]
            assert wald_interval(fit, 1, level) == (float(-0.25 - half), float(-0.25 + half))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("intercept", [True, False])
def test_matches_svd_oracle(p, intercept):
    rng = np.random.default_rng(100 * p + intercept)
    for n in (p + 1, p + 2, 10, 100, 2_000, 20_000):
        X = rng.normal(50.0, 10.0, size=(n, p))  # offset columns
        if intercept:
            X[:, 0] = 1.0
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        fit, oracle = ols_fit(X, y), svd_ols_fit(X, y)
        assert fit.coefficients == pytest.approx(oracle.coefficients, rel=1e-9)
        assert fit.standard_errors == pytest.approx(oracle.standard_errors, rel=1e-9)
        assert fit.residual_variance == pytest.approx(oracle.residual_variance, rel=1e-9)
        assert fit.r_squared == pytest.approx(oracle.r_squared, rel=1e-9)
        assert (fit.n, fit.p) == (oracle.n, oracle.p)


def raises_singular(fit, X, y):
    try:
        fit(X, y)
    except SingularDesignError:
        return True
    return False


def unit_column_factor(singular_values, rng):
    """A square matrix with unit-norm columns and the given singular value ratios.

    The values are rescaled so that their squares sum to p, then Givens
    rotations from the right, which keep the singular values, bring one
    column at a time to unit norm (Davies & Higham, 2000).
    """
    s = np.asarray(singular_values, dtype=np.float64)
    p = len(s)
    s = s * np.sqrt(p / np.sum(s * s))
    v, _ = np.linalg.qr(rng.normal(size=(p, p)))
    m = s[:, None] * v.T
    done = set()
    for _ in range(p - 1):
        norms = np.einsum("ij,ij->j", m, m)
        free = [k for k in range(p) if k not in done]
        i = min(free, key=norms.__getitem__)
        j = max(free, key=norms.__getitem__)
        a_ii, a_jj, a_ij = norms[i] - 1.0, norms[j] - 1.0, m[:, i] @ m[:, j]
        if a_jj > 0.0:  # else every free column has unit norm already
            t = (-a_ij + np.sqrt(a_ij * a_ij - a_ii * a_jj)) / a_jj
            c = 1.0 / np.sqrt(1.0 + t * t)
            m[:, i], m[:, j] = c * m[:, i] + t * c * m[:, j], -t * c * m[:, i] + c * m[:, j]
        done.add(i)
    return m


@pytest.mark.parametrize("ratio", [1e-9, 2e-10, 1.01e-10, 0.99e-10, 5e-11, 1e-12])
def test_rank_decision_matches_svd_oracle(ratio):
    # the unit-norm columns have singular value ratio `ratio`; the raw columns
    # carry scales up to 1e8 apart, which must not change the decision
    rng = np.random.default_rng(int(-np.log10(ratio) * 100))
    for n in (6, 50, 2_000):
        for p in (2, 3, 4):
            u, _ = np.linalg.qr(rng.normal(size=(n, p)))
            unit = u @ unit_column_factor(np.geomspace(1.0, ratio, p), rng)
            scaled_s = np.linalg.svd(unit, compute_uv=False)
            assert scaled_s[-1] / scaled_s[0] == pytest.approx(ratio, rel=1e-3)
            X = unit * 10.0 ** rng.uniform(-4, 4, p)
            y = rng.normal(size=n)
            expected = ratio < RANK_TOLERANCE
            assert raises_singular(svd_ols_fit, X, y) == expected
            assert raises_singular(ols_fit, X, y) == expected


def column_scaled_lstsq(X, y):
    """lstsq on unit-norm columns, mapped back: an oracle for any column scale."""
    norms = np.abs(X).max(axis=0)
    norms = norms * np.linalg.norm(X / norms, axis=0)
    coef, *_ = np.linalg.lstsq(X / norms, y, rcond=None)
    return coef / norms


@pytest.mark.parametrize("case", ["mol_per_litre", "times_1e155"])
def test_full_rank_design_in_any_units_fits(case):
    rng = np.random.default_rng(31)
    n = 200
    z = rng.normal(size=n)
    x = 5e-9 + 1e-9 * z if case == "mol_per_litre" else 1e155 * (120.0 + 7.0 * z)
    age = rng.normal(32.0, 5.0, n)
    X = np.column_stack([np.ones(n), x, age])
    y = 30.0 + z + 0.2 * age + rng.normal(size=n)
    fit = ols_fit(X, y)
    assert fit.coefficients == pytest.approx(column_scaled_lstsq(X, y), rel=1e-9)
    assert np.isfinite(fit.standard_errors).all()


@pytest.mark.parametrize("scale", [1e-150, 1e-9, 1.0, 1e9, 1e150])
def test_collinear_design_rejected_at_any_column_scale(scale):
    x = np.random.default_rng(2).normal(size=40)
    X = np.column_stack([np.ones(40), scale * x, 3.0 * scale * x])
    with pytest.raises(SingularDesignError, match="rank deficient"):
        ols_fit(X, np.ones(40))
    with pytest.raises(SingularDesignError, match="rank deficient"):
        ols_fit(np.column_stack([np.ones(40), scale * x, np.zeros(40)]), np.ones(40))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["X", "y"])
def test_non_finite_input_raises_value_error(bad, where):
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    y = rng.normal(size=30)
    for row in (0, 1, 17, 29):
        X_bad, y_bad = X.copy(), y.copy()
        if where == "X":
            X_bad[row, 1 + row % 2] = bad
        else:
            y_bad[row] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match="finite"):
                ols_fit(X_bad, y_bad)
