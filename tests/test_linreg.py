import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from mecalib import (
    InsufficientDataError,
    SingularDesignError,
    wald_interval,
)
from mecalib.linreg import RANK_TOLERANCE, FitResult, ols_fit

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
    # sqrt(diag((X'X)^-1)) = the column norms of V' / s, which hypot cannot overflow
    return FitResult(
        coefficients=coef,
        standard_errors=np.sqrt(residual_variance) * np.hypot.reduce(vt / s[:, None], axis=0),
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
    fit = ols_fit(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
    assert fit.residual_variance == pytest.approx(1.0)


def test_residual_variance_exact_fit_is_zero():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    v = 2.0 - 3.0 * np.arange(5.0)
    assert ols_fit(X, v).residual_variance == pytest.approx(0.0, abs=1e-20)


def test_residual_variance_on_large_synthetic_sample():
    # measurement noise (30) stacks on the conditional exposure variance (50)
    data, spec = base_scenario_dataset(n=100_000)
    X = np.column_stack([np.ones(data.n_rows), data.column("age")])
    v = ols_fit(X, data.column("bp_star_1")).residual_variance
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


def design_with_ratio(ratio, n, p, rng):
    """An (n, p) design whose unit-norm columns have singular value ratio ``ratio``.

    The raw columns carry scales up to 1e8 apart.
    """
    u, _ = np.linalg.qr(rng.normal(size=(n, p)))
    unit = u @ unit_column_factor(np.geomspace(1.0, ratio, p), rng)
    scaled_s = np.linalg.svd(unit, compute_uv=False)
    assert scaled_s[-1] / scaled_s[0] == pytest.approx(ratio, rel=1e-3)
    return unit * 10.0 ** rng.uniform(-4, 4, p)


# 1e-6 and 1e-8 are cleared by the certificate; from about 2 p RANK_TOLERANCE
# down the exact test decides
@pytest.mark.parametrize(
    "ratio", [1e-6, 1e-8, 1e-9, 3e-10, 2e-10, 1.01e-10, 0.99e-10, 5e-11, 1e-12])
def test_rank_decision_matches_svd_oracle(ratio):
    # the column scales must not change the decision
    rng = np.random.default_rng(int(-np.log10(ratio) * 100))
    for n in (6, 50, 2_000):
        for p in (2, 3, 4):
            X = design_with_ratio(ratio, n, p, rng)
            y = rng.normal(size=n)
            expected = ratio < RANK_TOLERANCE
            assert raises_singular(svd_ols_fit, X, y) == expected
            assert raises_singular(ols_fit, X, y) == expected


@pytest.fixture
def svd_calls(monkeypatch):
    """The matrices handed to ``np.linalg.svd`` while the test runs."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_svd_runs_only_where_the_certificate_cannot_decide(svd_calls):
    rng = np.random.default_rng(17)
    X, y = stack_of_designs(rng, (7,), 200, 3)
    # ill-conditioned but certified; and in the band: the ratio 1.5e-10 passes,
    # but the bound, at most the ratio, is below twice the tolerance
    certified = [design_with_ratio(ratio, 200, 3, rng) for ratio in (1e-6, 1e-8)]
    band = design_with_ratio(1.5e-10, 200, 3, rng)
    svd_calls.clear()  # those of design_with_ratio
    ols_fit(X, y)
    ols_fit(X[0], y[0])
    for design in certified:
        ols_fit(design, y[0])
    assert len(svd_calls) == 0

    ols_fit(band, y[0])  # in a stack, below, only this design gets the SVD
    assert len(svd_calls) == 1
    X[4] = band
    stacked = ols_fit(X, y)
    assert len(svd_calls) == 2
    assert np.array_equal(stacked.coefficients[4], ols_fit(band, y[4]).coefficients)
    assert len(svd_calls) == 3

    collinear = X[1].copy()
    collinear[:, 2] = 2.0 * collinear[:, 1]
    with pytest.raises(SingularDesignError, match="rank deficient"):
        ols_fit(collinear, y[1])
    assert len(svd_calls) == 4
    # a zero column fails with ratio 0 before any SVD
    collinear[:, 2] = 0.0
    with pytest.raises(SingularDesignError, match="0.000e\\+00"):
        ols_fit(collinear, y[1])
    assert len(svd_calls) == 4


def column_norms(X):
    """Euclidean column norms of X, with no overflow or underflow on the way."""
    scale = np.abs(X).max(axis=0)
    return scale * np.linalg.norm(X / scale, axis=0)


def column_scaled_lstsq(X, y):
    """lstsq on unit-norm columns, mapped back: an oracle for any column scale."""
    norms = column_norms(X)
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


@pytest.mark.parametrize("scale", [1e-160, 1e-155, 1e-100, 1e-9, 1.0, 1e9, 1e100, 1e155, 1e160])
def test_standard_errors_at_extreme_column_scales_match_svd_oracle(scale):
    # the exposure column in any units: no standard error under- or overflows
    rng = np.random.default_rng(41)
    n = 200
    z = rng.normal(size=n)
    age = rng.normal(32.0, 5.0, n)
    X = np.column_stack([np.ones(n), scale * (120.0 + 7.0 * z), age])
    y = 30.0 + 1.4 * z + 0.2 * age + rng.normal(size=n)
    norms = column_norms(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit, oracle = ols_fit(X, y), svd_ols_fit(X / norms, y)  # the oracle on unit columns
    assert fit.coefficients == pytest.approx(oracle.coefficients / norms, rel=1e-9)
    assert fit.standard_errors == pytest.approx(oracle.standard_errors / norms, rel=1e-9)
    unscaled = ols_fit(X / [1.0, scale, 1.0], y)
    assert fit.standard_errors[1] == pytest.approx(unscaled.standard_errors[1] / scale, rel=1e-12)


def test_design_without_columns_raises_value_error(capfd):
    for X in (np.ones((5, 0)), np.ones((3, 5, 0))):
        with pytest.raises(ValueError, match="p >= 1"):
            ols_fit(X, np.arange(5.0) * np.ones(X.shape[:-1]))
    with pytest.raises(ValueError, match="design matrix"):
        ols_fit(np.ones(5), np.ones(5))
    assert capfd.readouterr().err == ""


def stack_of_designs(rng, shape, n, p):
    X = rng.normal(50.0, 10.0, size=(*shape, n, p))
    X[..., 0] = 1.0
    y = np.einsum("...np,p->...n", X, rng.normal(size=p)) + rng.normal(size=(*shape, n))
    return X, y


@pytest.mark.parametrize("shape", [(1,), (7,), (2, 3)])
@pytest.mark.parametrize("n, p", [(4, 3), (50, 2), (500, 3)])
def test_stacked_fit_equals_each_design_bit_for_bit(shape, n, p):
    rng = np.random.default_rng(n + p + len(shape))
    X, y = stack_of_designs(rng, shape, n, p)
    y[(0,) * len(shape)] = 4.0  # a constant response among them
    stacked = ols_fit(X, y)
    assert stacked.coefficients.shape == stacked.standard_errors.shape == (*shape, p)
    assert stacked.residual_variance.shape == stacked.r_squared.shape == shape
    assert (stacked.n, stacked.p) == (n, p)
    lower, upper = wald_interval(stacked, 1, 0.9)
    for index in np.ndindex(*shape):
        alone = ols_fit(X[index], y[index])
        assert np.array_equal(stacked.coefficients[index], alone.coefficients)
        assert np.array_equal(stacked.standard_errors[index], alone.standard_errors)
        assert stacked.residual_variance[index] == alone.residual_variance
        assert stacked.r_squared[index] == alone.r_squared
        assert (lower[index], upper[index]) == wald_interval(alone, 1, 0.9)


def test_stacked_fit_raises_if_any_design_would():
    rng = np.random.default_rng(8)
    X, y = stack_of_designs(rng, (4,), 30, 3)
    X[2, :, 2] = 2.0 * X[2, :, 1]
    with pytest.raises(SingularDesignError, match="rank deficient"):
        ols_fit(X, y)
    X[2, :, 2] = rng.normal(size=30)
    y[3, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ols_fit(X, y)
    with pytest.raises(ValueError, match="y has shape"):
        ols_fit(X, y[:3])


# --------------------------------------------------------------------------
# R^-1 from the gufunc that np.linalg.inv wraps
# --------------------------------------------------------------------------

def test_inv_gufunc_is_np_linalg_inv_without_the_raise():
    # ols_fit relies on both halves: the same bits as np.linalg.inv for an
    # invertible R, and a NaN inverse, not an exception, for an exact zero pivot
    rng = np.random.default_rng(23)
    r = np.triu(rng.normal(size=(5, 4, 4)))
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_umath_linalg.inv(r, signature="d->d"), np.linalg.inv(r))
        singular = np.array([[1.0, 2.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inverse = _umath_linalg.inv(np.stack([singular, np.eye(2)]), signature="d->d")
    assert not np.isfinite(inverse[0]).any()
    assert np.array_equal(inverse[1], np.eye(2))


def test_exact_zero_pivot_raises_the_rank_error():
    # columns e1 and 2 e1: the QR leaves R = [[1, 2], [0, 0]], an exact zero
    # pivot with no zero column, so the rank test, not a zero norm, rejects it
    X = np.zeros((6, 2))
    X[0] = (1.0, 2.0)
    y = np.arange(6.0)
    message = ("design matrix is rank deficient (singular value ratio of the unit-norm "
               "columns 0.000e+00 < 1e-10)")
    rng = np.random.default_rng(29)
    good, _ = stack_of_designs(rng, (2,), 6, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for design, response in ((X, y), (np.stack([good[0], X, good[1]]), np.stack([y] * 3))):
            with pytest.raises(SingularDesignError) as excinfo:
                ols_fit(design, response)
            assert str(excinfo.value) == message


def test_fit_never_calls_np_linalg_inv(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counting_inv(a):
        calls.append(a)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    rng = np.random.default_rng(31)
    X, y = stack_of_designs(rng, (3,), 40, 3)
    ols_fit(X, y)
    ols_fit(X[0], y[0])
    X[1, :, 2] = 2.0 * X[1, :, 1]
    with pytest.raises(SingularDesignError):
        ols_fit(X, y)
    assert calls == []


@pytest.mark.parametrize("stacked", [False, True])
def test_random_designs_match_svd_oracle(stacked):
    # column scales 1e-5 to 1e5, a third of the designs near-collinear on
    # either side of the tolerance; the oracle runs on unit-norm columns
    rng = np.random.default_rng(37 + stacked)
    for _ in range(60):
        p = int(rng.integers(1, 6))
        n = int(rng.choice([p + 1, p + 3, 40, 300]))
        shape = (3,) if stacked else ()
        X = rng.normal(size=(*shape, n, p)) * 10.0 ** rng.uniform(-5, 5, p)
        y = rng.normal(size=(*shape, n)) * 10.0 ** rng.uniform(-3, 3)
        if p >= 2 and rng.random() < 1 / 3:
            j, k = rng.choice(p, 2, replace=False)
            noise = 10.0 ** rng.choice([-14.0, -6.0])  # rejected or kept
            X[..., j] = X[..., k] * (1.0 + noise * rng.normal(size=(*shape, n)))
        designs = list(np.ndindex(*shape))
        outcomes = []
        for d in designs:
            norms = column_norms(X[d])
            try:
                oracle = svd_ols_fit(X[d] / norms, y[d])
            except SingularDesignError:
                outcomes.append(None)
            else:
                outcomes.append((oracle.coefficients / norms, oracle.standard_errors / norms,
                                 oracle.residual_variance))
        if None in outcomes:
            with pytest.raises(SingularDesignError):
                ols_fit(X, y)
            continue
        fit = ols_fit(X, y)
        for d, (coefficients, standard_errors, residual_variance) in zip(designs, outcomes):
            assert fit.coefficients[d] == pytest.approx(coefficients, rel=1e-6, abs=0.0)
            assert fit.standard_errors[d] == pytest.approx(standard_errors, rel=1e-6)
            assert np.asarray(fit.residual_variance)[d] == pytest.approx(residual_variance,
                                                                         rel=1e-8)
