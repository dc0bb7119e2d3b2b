"""ols_fit at the edges of float64: overflowing sums of squares, constant responses."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from mecalib.linreg import ols_fit

OVERFLOW_Y = [1e200, 2e200, 3e201, 5e200]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mecalib.cli", *args], capture_output=True, text=True
    )


def fit_quietly(X, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        return ols_fit(X, y)


@pytest.mark.parametrize("y", [
    OVERFLOW_Y,                      # the residual norm passes 1e154
    [1e160, 2e160, 3e160, 4e160],    # an exact fit, but the total sum of squares overflows
    [1e307, 1.2e307, 1.4e307, 1.7e307],
    [1e308, 1.1e308, 1.2e308, 1.3e308],  # the sum of y overflows too
])
def test_overflowing_sums_of_squares_raise_value_error(y):
    X = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(ValueError, match="overflows"):
        fit_quietly(X, np.array(y))


def test_response_whose_sum_overflows_raises_value_error():
    # |y| = 1e307 factors fine; the sum of y, and so its mean, overflows
    with pytest.raises(ValueError, match="overflows"):
        fit_quietly(np.ones((10_000, 1)), np.full(10_000, 1e305))


@pytest.mark.parametrize("where", ["X", "y"])
def test_overflowing_column_norm_is_not_called_non_finite(where):
    X = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
    y = np.array([1.0, 3.0, 2.0, 5.0])
    if where == "X":
        X[:, 1] *= 1.5e308 / 4.0
    else:
        y *= 1.5e308 / 5.0
    with pytest.raises(ValueError, match="overflows"):
        fit_quietly(X, y)


def test_large_but_representable_response_still_fits():
    X = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
    y = np.array(OVERFLOW_Y) * 1e-60
    fit = fit_quietly(X, y)
    reference = fit_quietly(X, y * 1e-100)
    assert fit.coefficients == pytest.approx(reference.coefficients * 1e100, rel=1e-12)
    assert fit.r_squared == pytest.approx(reference.r_squared, rel=1e-12)


def test_fit_overflow_exits_1_without_traceback(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("y,x\n" + "".join(f"{y!r},{x}\n" for x, y in enumerate(OVERFLOW_Y, 1)))
    out = tmp_path / "coefs.csv"
    proc = run_cli("fit", "--input", str(path), "--outcome", "y", "--exposure", "x",
                   "--output", str(out))
    assert proc.returncode == 1
    assert "overflows" in proc.stderr and "fitting" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    assert list(tmp_path.iterdir()) == [path]


# (X, y) whose coefficients or standard errors pass 1e308
OVERFLOW_FITS = {
    "se_no_intercept": ((np.arange(1, 6) * 1e-200)[:, None], [1e150, 3e150, 2e150, 5e150, 4e150]),
    "se_with_intercept": (np.column_stack([np.ones(5), np.arange(1, 6) * 1e-160]),
                          [1e153, 3e153, 2e153, 5e153, 4e153]),
    "coefficient": ((np.arange(1, 6) * 1e-300)[:, None], [1e100, 3e100, 2e100, 5e100, 4e100]),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_FITS))
def test_overflowing_coefficients_and_standard_errors_raise_value_error(case):
    X, y = OVERFLOW_FITS[case]
    with pytest.raises(ValueError, match="standard error overflows"):
        fit_quietly(X, np.array(y))


def test_standard_error_overflow_exits_1_without_traceback(tmp_path):
    path = tmp_path / "wide.csv"
    _, y = OVERFLOW_FITS["se_with_intercept"]
    path.write_text("y,x\n" + "".join(f"{v!r},{k * 1e-160!r}\n" for k, v in enumerate(y, 1)))
    out = tmp_path / "coefs.csv"
    proc = run_cli("fit", "--input", str(path), "--outcome", "y", "--exposure", "x",
                   "--output", str(out))
    assert proc.returncode == 1
    assert "overflows" in proc.stderr and "fitting" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    assert list(tmp_path.iterdir()) == [path]


def designs(n):
    x = np.random.default_rng(n).normal(50.0, 10.0, n)
    return {
        "intercept": np.ones((n, 1)),
        "intercept_and_x": np.column_stack([np.ones(n), x]),
        "intercept_and_ramp": np.column_stack([np.ones(n), np.linspace(0.0, 9.0, n)]),
    }


@pytest.mark.parametrize("value", [1.0, 123.456, 1e8])
@pytest.mark.parametrize("n", [10, 100, 1_000])
def test_constant_response_is_a_perfect_fit(value, n):
    for name, X in designs(n).items():
        fit = fit_quietly(X, np.full(n, value))
        assert fit.r_squared == 1.0, (name, fit.r_squared)
        assert fit.coefficients[0] == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("value", [1.0, 123.456, 1e8])
def test_constant_response_without_intercept_is_no_fit(value):
    x = np.linspace(1.0, 9.0, 50)
    fit = fit_quietly(x[:, None], np.full(50, value))
    assert fit.r_squared == 0.0


@pytest.mark.parametrize("value", [123.456, 1e8])
def test_near_constant_response_keeps_the_usual_r_squared(value):
    n = 1_000
    rng = np.random.default_rng(7)
    x = rng.normal(size=n)
    y = value + 1e-6 * value * (x + rng.normal(size=n))
    fit = fit_quietly(np.column_stack([np.ones(n), x]), y)
    residual = y - np.column_stack([np.ones(n), x]) @ fit.coefficients
    centered = y - y.mean()
    expected = 1.0 - (residual @ residual) / (centered @ centered)
    assert 0.3 < fit.r_squared < 0.7
    assert fit.r_squared == pytest.approx(expected, rel=1e-6)


def test_fit_prints_r_squared_in_unit_interval_for_constant_response(tmp_path):
    path = tmp_path / "constant.csv"
    path.write_text("y,x\n" + "".join(f"123.456,{x}\n" for x in range(1_000)))
    proc = run_cli("fit", "--input", str(path), "--outcome", "y", "--exposure", "x")
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.split("r_squared=")[1].split()[0]
    assert 0.0 <= float(printed) <= 1.0
