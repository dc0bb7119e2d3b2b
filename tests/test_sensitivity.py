import csv
import json
import warnings
from statistics import median

import numpy as np
import pytest

from mecalib import (
    AnalysisSpec,
    ErrorVariance,
    ErrorVarianceDistribution,
    InfeasibleCorrectionError,
    SimexConfig,
    correct_rc,
    correct_simex,
    emit_plot_data,
    fit_uncorrected,
    run_sensitivity,
)
import mecalib.sensitivity as sensitivity
from mecalib.sensitivity import _draw_rng, sample_tau2, trapezoidal_inverse_cdf
from mecalib.util import draw_seed, substream

from conftest import base_scenario_dataset


# --------------------------------------------------------------------------
# distribution definitions and samplers
# --------------------------------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError, match="kind"):
        ErrorVarianceDistribution("gamma", 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ErrorVarianceDistribution("uniform", -1.0, 1.0)
    with pytest.raises(ValueError, match="max"):
        ErrorVarianceDistribution("uniform", 2.0, 1.0)
    with pytest.raises(ValueError, match="mode"):
        ErrorVarianceDistribution("triangular", 0.0, 1.0)
    with pytest.raises(ValueError, match="min <= mode <= max"):
        ErrorVarianceDistribution("triangular", 0.0, 1.0, mode=2.0)
    with pytest.raises(ValueError, match="lower_mode"):
        ErrorVarianceDistribution("trapezoidal", 0.0, 1.0)
    with pytest.raises(ValueError, match="min <= lower_mode"):
        ErrorVarianceDistribution("trapezoidal", 0.0, 1.0, lower_mode=0.8, upper_mode=0.2)


@pytest.mark.parametrize("kwargs", [
    dict(min=True), dict(max=True), dict(min="0"), dict(kind="triangular", mode=True),
    dict(kind="trapezoidal", lower_mode=1.0, upper_mode=np.bool_(True)),
])
def test_distribution_parameters_must_be_real_numbers(kwargs):
    with pytest.raises(ValueError, match="must be a real number"):
        ErrorVarianceDistribution(**{"kind": "uniform", "min": 0.0, "max": 2.0, **kwargs})


def test_triangular_degenerate_support():
    dist = ErrorVarianceDistribution("triangular", 48.0, 48.0, mode=48.0)
    draws = sample_tau2(dist, 100, seed=1)
    assert np.all(draws == 48.0)


def test_triangular_median_is_mode_for_symmetric_support():
    # symmetric support: inverse CDF at u = 0.5 returns the mode exactly
    assert trapezoidal_inverse_cdf(0.5, 37.0, 48.0, 48.0, 59.0) == 48.0


def test_triangular_edge_modes():
    # mode at an endpoint leaves a single branch
    left = trapezoidal_inverse_cdf(np.array([0.0, 0.5, 0.999]), 1.0, 1.0, 1.0, 3.0)
    assert left[0] >= 1.0 and left[-1] <= 3.0
    right = trapezoidal_inverse_cdf(np.array([0.0, 0.5, 0.999]), 1.0, 3.0, 3.0, 3.0)
    assert np.all((right >= 1.0) & (right <= 3.0))


def test_uniform_moments_and_support():
    dist = ErrorVarianceDistribution("uniform", 10.0, 20.0)
    draws = sample_tau2(dist, 100_000, seed=4)
    assert draws.mean() == pytest.approx(15.0, abs=0.1)
    assert draws.min() >= 10.0 and draws.max() <= 20.0


# The three quantile formulas sample_tau2 used before every prior was sampled
# as a trapezoid; the oracle of the differential tests below.
def oracle_uniform(u, low, high):
    return low + (high - low) * u


def oracle_triangular(u, low, mode, high):
    if high == low:
        return np.full_like(u, low)
    span = high - low
    split = (mode - low) / span
    with np.errstate(invalid="ignore"):
        rising = low + np.sqrt(u * span * (mode - low))
        falling = high - np.sqrt((1.0 - u) * span * (high - mode))
    return np.where(u < split, rising, falling)


def oracle_trapezoidal(u, low, lower_mode, upper_mode, high):
    if high == low:
        return np.full_like(u, low)
    height = 2.0 / (high + upper_mode - lower_mode - low)
    cdf_lower = 0.5 * height * (lower_mode - low)
    cdf_upper = cdf_lower + height * (upper_mode - lower_mode)
    with np.errstate(invalid="ignore", divide="ignore"):
        rising = low + np.sqrt(2.0 * u * (lower_mode - low) / height)
        plateau = lower_mode + (u - cdf_lower) / height
        falling = high - np.sqrt(2.0 * (1.0 - u) * (high - upper_mode) / height)
    return np.select([u < cdf_lower, u <= cdf_upper], [rising, plateau], default=falling)


def oracle_draws(dist, m, seed):
    u = substream(seed).random(m)
    if dist.kind == "uniform":
        draws = oracle_uniform(u, dist.min, dist.max)
    elif dist.kind == "triangular":
        draws = oracle_triangular(u, dist.min, dist.mode, dist.max)
    else:
        draws = oracle_trapezoidal(u, dist.min, dist.lower_mode, dist.upper_mode, dist.max)
    return np.clip(draws, dist.min, dist.max)


@pytest.mark.parametrize("dist", [
    ErrorVarianceDistribution("uniform", 0.0, 1.0),
    ErrorVarianceDistribution("uniform", 10.0, 45.0),
    ErrorVarianceDistribution("uniform", 1e-3, 7e5),
    ErrorVarianceDistribution("uniform", 3.0, 3.0),
    ErrorVarianceDistribution("uniform", 0.0, 1.5e308),  # twice the width overflows
    ErrorVarianceDistribution("triangular", 10.0, 45.0, mode=25.0),
    ErrorVarianceDistribution("triangular", 37.0, 59.0, mode=48.0),
    ErrorVarianceDistribution("triangular", 1.0, 3.0, mode=1.0),
    ErrorVarianceDistribution("triangular", 1.0, 3.0, mode=3.0),
    ErrorVarianceDistribution("triangular", 0.0, 2e4, mode=150.0),
    ErrorVarianceDistribution("triangular", 48.0, 48.0, mode=48.0),
])
def test_uniform_and_triangular_draws_equal_their_own_formulas(dist):
    for seed in (0, 1, 17, 2**40):
        assert np.array_equal(sample_tau2(dist, 20_000, seed), oracle_draws(dist, 20_000, seed))


@pytest.mark.parametrize("low, lower_mode, upper_mode, high", [
    (10.0, 20.0, 35.0, 45.0),
    (10.0, 20.0, 40.0, 60.0),
    (0.0, 0.0, 1.0, 1.0),
    (0.0, 0.3, 0.3, 1.0),
    (1.0, 1.0, 4.0, 9.0),
    (1.0, 5.0, 9.0, 9.0),
    (2.0, 2.0, 2.0, 2.0),
    (1e-3, 2e2, 3e5, 7e5),
])
def test_trapezoidal_draws_within_an_eps_of_max_of_their_old_formula(low, lower_mode,
                                                                     upper_mode, high):
    dist = ErrorVarianceDistribution("trapezoidal", low, high, lower_mode=lower_mode,
                                     upper_mode=upper_mode)
    for seed in (0, 3, 2**40):
        moved = np.abs(sample_tau2(dist, 20_000, seed) - oracle_draws(dist, 20_000, seed))
        assert moved.max() <= np.finfo(np.float64).eps * high


@pytest.mark.parametrize("kind, modes", [
    ("uniform", {}),
    ("trapezoidal", {"lower_mode": 0.0, "upper_mode": 1e-310}),
    ("trapezoidal", {"lower_mode": 2e-311, "upper_mode": 8e-311}),
])
def test_draws_on_a_subnormal_support_spread_over_it(kind, modes):
    # the plateau density 2 / s of a support 1e-310 wide is not representable
    draws = sample_tau2(ErrorVarianceDistribution(kind, 0.0, 1e-310, **modes), 1_000, seed=2)
    assert draws.min() >= 0.0 and draws.max() <= 1e-310
    assert draws.min() < 2e-311 and draws.max() > 8e-311
    assert len(np.unique(draws)) > 100


@pytest.mark.parametrize("dist", [
    ErrorVarianceDistribution("triangular", 0.0, 1e200, mode=5e199),
    ErrorVarianceDistribution("triangular", 0.0, 1.7e308, mode=0.0),
    ErrorVarianceDistribution("triangular", 0.0, 1.7e308, mode=1.7e308),
    ErrorVarianceDistribution("triangular", 1e300, 1.7e308, mode=9e307),
    ErrorVarianceDistribution("trapezoidal", 0.0, 1.7e308, lower_mode=1e308, upper_mode=1.2e308),
])
def test_draws_where_a_ramp_product_overflows_spread_over_the_support(dist):
    # u * h * 2 * ramp width is not finite here; the ramp roots are factored
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_tau2(dist, 1_000, seed=5)
    assert np.isfinite(draws).all()
    assert draws.min() >= dist.min and draws.max() <= dist.max
    assert len(np.unique(draws)) > 990
    assert draws.min() < dist.min + 0.1 * (dist.max - dist.min)
    assert draws.max() > dist.max - 0.1 * (dist.max - dist.min)


def triangular_cdf(x, low, mode, high):
    x = np.asarray(x, dtype=np.float64)
    span = high - low
    out = np.zeros_like(x)
    left = (x > low) & (x <= mode)
    right = (x > mode) & (x < high)
    out[left] = (x[left] - low) ** 2 / (span * (mode - low))
    out[right] = 1.0 - (high - x[right]) ** 2 / (span * (high - mode))
    out[x >= high] = 1.0
    return out


def trapezoidal_cdf(x, low, lower_mode, upper_mode, high):
    x = np.asarray(x, dtype=np.float64)
    height = 2.0 / (high + upper_mode - lower_mode - low)
    out = np.zeros_like(x)
    ramp_up = (x > low) & (x < lower_mode)
    out[ramp_up] = 0.5 * height * (x[ramp_up] - low) ** 2 / (lower_mode - low)
    flat = (x >= lower_mode) & (x <= upper_mode)
    out[flat] = 0.5 * height * (lower_mode - low) + height * (x[flat] - lower_mode)
    ramp_down = (x > upper_mode) & (x < high)
    out[ramp_down] = 1.0 - 0.5 * height * (high - x[ramp_down]) ** 2 / (high - upper_mode)
    out[x >= high] = 1.0
    return out


def ks_statistic(draws, cdf):
    draws = np.sort(draws)
    n = len(draws)
    grid = np.arange(1, n + 1) / n
    values = cdf(draws)
    return max(np.abs(grid - values).max(), np.abs(grid - 1.0 / n - values).max())


def test_triangular_sampler_matches_analytic_cdf():
    dist = ErrorVarianceDistribution("triangular", 37.0, 59.0, mode=48.0)
    draws = sample_tau2(dist, 100_000, seed=9)
    stat = ks_statistic(draws, lambda x: triangular_cdf(x, 37.0, 48.0, 59.0))
    assert stat < 0.01


def test_triangular_sampler_asymmetric_cdf():
    dist = ErrorVarianceDistribution("triangular", 0.0, 100.0, mode=15.0)
    draws = sample_tau2(dist, 100_000, seed=10)
    stat = ks_statistic(draws, lambda x: triangular_cdf(x, 0.0, 15.0, 100.0))
    assert stat < 0.01


def test_trapezoidal_sampler_matches_analytic_cdf():
    dist = ErrorVarianceDistribution(
        "trapezoidal", 10.0, 60.0, lower_mode=20.0, upper_mode=40.0
    )
    draws = sample_tau2(dist, 100_000, seed=11)
    stat = ks_statistic(draws, lambda x: trapezoidal_cdf(x, 10.0, 20.0, 40.0, 60.0))
    assert stat < 0.01
    assert draws.min() >= 10.0 and draws.max() <= 60.0


def test_trapezoidal_collapses_to_uniform_and_triangular():
    # plateau covering the whole support = uniform
    uniform_like = ErrorVarianceDistribution(
        "trapezoidal", 10.0, 20.0, lower_mode=10.0, upper_mode=20.0
    )
    draws = sample_tau2(uniform_like, 100_000, seed=12)
    assert draws.mean() == pytest.approx(15.0, abs=0.1)
    # zero-width plateau = triangular
    triangular_like = ErrorVarianceDistribution(
        "trapezoidal", 0.0, 10.0, lower_mode=4.0, upper_mode=4.0
    )
    draws = sample_tau2(triangular_like, 100_000, seed=13)
    stat = ks_statistic(draws, lambda x: triangular_cdf(x, 0.0, 4.0, 10.0))
    assert stat < 0.01


def test_sampler_deterministic():
    dist = ErrorVarianceDistribution("triangular", 20.0, 40.0, mode=30.0)
    assert np.array_equal(sample_tau2(dist, 50, seed=3), sample_tau2(dist, 50, seed=3))
    with pytest.raises(ValueError, match="m must be"):
        sample_tau2(dist, 0, seed=3)


# --------------------------------------------------------------------------
# run_sensitivity
# --------------------------------------------------------------------------

def test_degenerate_prior_at_zero_reproduces_uncorrected():
    data, spec = base_scenario_dataset(n=300)
    dist = ErrorVarianceDistribution("triangular", 0.0, 0.0, mode=0.0)
    result = run_sensitivity(data, spec, dist, "rc", m=10, ci=False, seed=5)
    uncorrected = float(fit_uncorrected(data, spec).coefficients[1])
    assert all(d.estimate == uncorrected for d in result.draws)


def test_rc_sensitivity_monotone_and_bracketing():
    data, spec = base_scenario_dataset(n=500)
    dist = ErrorVarianceDistribution("triangular", 20.0, 40.0, mode=30.0)
    result = run_sensitivity(data, spec, dist, "rc", m=100, ci=False, seed=6)
    assert result.summary["n_infeasible"] == 0
    ordered = sorted(result.draws, key=lambda d: d.tau2)
    estimates = [d.estimate for d in ordered]
    assert all(b > a for a, b in zip(estimates, estimates[1:]))
    at_20 = correct_rc(data, spec, ErrorVariance(20.0)).estimate
    at_40 = correct_rc(data, spec, ErrorVariance(40.0)).estimate
    assert all(at_20 <= e <= at_40 for e in estimates)


def test_sensitivity_deterministic():
    data, spec = base_scenario_dataset(n=200)
    dist = ErrorVarianceDistribution("uniform", 10.0, 30.0)
    first = run_sensitivity(data, spec, dist, "rc", m=20, ci=True, n_boot=60, seed=8)
    second = run_sensitivity(data, spec, dist, "rc", m=20, ci=True, n_boot=60, seed=8)
    assert first == second
    pooled = run_sensitivity(data, spec, dist, "rc", m=20, ci=True, n_boot=60, seed=8, threads=2)
    assert pooled == first


def test_degenerate_prior_reproduces_single_corrector_call():
    data, spec = base_scenario_dataset(n=300)
    dist = ErrorVarianceDistribution("triangular", 25.0, 25.0, mode=25.0)
    rc_result = run_sensitivity(data, spec, dist, "rc", m=3, ci=False, seed=4)
    point = correct_rc(data, spec, ErrorVariance(25.0)).estimate
    assert all(d.estimate == point for d in rc_result.draws)

    cfg = SimexConfig(n_sim=10)
    simex_result = run_sensitivity(
        data, spec, dist, "simex", m=2, ci=False, simex_config=cfg, seed=4
    )
    for i, draw in enumerate(simex_result.draws):
        expected_seed = draw_seed(_draw_rng(4, i))
        expected = correct_simex(
            data, spec, ErrorVariance(25.0), SimexConfig(n_sim=10, seed=expected_seed)
        ).estimate
        assert draw.estimate == expected


@pytest.mark.parametrize("kwargs, message", [
    (dict(m=True), "m must be an integer"),
    (dict(m=2.5), "m must be an integer"),
    (dict(seed=2.0), "seed must be an integer"),
    (dict(seed=True), "seed must be an integer"),
    (dict(seed=-1), "seed must be a nonnegative integer"),
    (dict(threads=0), "threads must be at least 1"),
    (dict(threads=2.0), "threads must be an integer"),
    (dict(ci="no"), "ci must be True, False or None"),
    (dict(ci=1), "ci must be True, False or None"),
    (dict(method="naive"), "corrector must be one of"),
    (dict(ci=True, n_boot=0), "n_boot must be at least 50, got 0"),
    (dict(n_boot=49), "n_boot must be at least 50, got 49"),  # rc intervals on by default
    (dict(method="simex", ci=True, n_boot=0), "n_boot must be at least 50, got 0"),
    (dict(ci=True, level=1.5), r"level must be in \(0, 1\), got 1.5"),
    (dict(threads=2.5), "threads must be an integer, got 2.5"),
    (dict(threads=-3), "threads must be at least 1, got -3"),
    (dict(threads=True), "threads must be an integer, got True"),
    (dict(threads="2"), "threads must be an integer, got '2'"),
    (dict(ci=True, n_boot=50.5), "n_boot must be an integer, got 50.5"),
    (dict(ci=True, level="0.9"), "level must be a real number, got '0.9'"),
])
def test_bad_arguments_raise_before_any_correction(kwargs, message, monkeypatch):
    data, spec = base_scenario_dataset(n=50)

    def no_work(*args, **kw):
        raise AssertionError("work started")

    monkeypatch.setattr(sensitivity, "prepare_correction", no_work)
    arguments = {"method": "rc", "m": 5, **kwargs}
    with pytest.raises(ValueError, match=message):
        run_sensitivity(data, spec, ErrorVarianceDistribution("uniform", 1.0, 2.0), **arguments)


def test_n_boot_is_not_checked_without_intervals():
    data, spec = base_scenario_dataset(n=50)
    dist = ErrorVarianceDistribution("uniform", 1.0, 2.0)
    result = run_sensitivity(data, spec, dist, "rc", m=3, ci=False, n_boot=0, seed=2)
    assert all(draw.ci_lower is None and draw.ci_upper is None for draw in result.draws)
    result = run_sensitivity(data, spec, dist, "simex", m=2, n_boot=0, seed=2,
                             simex_config=SimexConfig(n_sim=5))  # simex: intervals off
    assert result.summary["n_ok"] == 2


def test_all_infeasible_raises():
    data, spec = base_scenario_dataset(n=300)
    dist = ErrorVarianceDistribution("uniform", 5000.0, 6000.0)
    with pytest.raises(InfeasibleCorrectionError, match="all 5"):
        run_sensitivity(data, spec, dist, "rc", m=5, ci=False, seed=2)


def test_partial_infeasibility_is_recorded():
    data, spec = base_scenario_dataset(n=300)
    from mecalib import conditional_exposure_variance

    v = conditional_exposure_variance(data, spec)
    dist = ErrorVarianceDistribution("uniform", v - 5.0, v + 5.0)
    result = run_sensitivity(data, spec, dist, "rc", m=40, ci=False, seed=3)
    statuses = {d.status for d in result.draws}
    assert statuses == {"ok", "infeasible"}
    assert result.summary["n_ok"] + result.summary["n_infeasible"] == 40
    ok = [d.estimate for d in result.draws if d.status == "ok"]
    assert result.summary["median"] == pytest.approx(float(median(ok)))


def test_ci_defaults_by_method():
    data, spec = base_scenario_dataset(n=150)
    dist = ErrorVarianceDistribution("uniform", 5.0, 15.0)
    rc_result = run_sensitivity(data, spec, dist, "rc", m=3, n_boot=60, seed=9)
    assert all(d.ci_lower is not None for d in rc_result.draws)
    simex_result = run_sensitivity(
        data, spec, dist, "simex", m=2, simex_config=SimexConfig(n_sim=5), seed=9
    )
    assert all(d.ci_lower is None for d in simex_result.draws)


# --------------------------------------------------------------------------
# emit_plot_data
# --------------------------------------------------------------------------

def run_small_sensitivity(tmp_path, include_infeasible=False):
    data, spec = base_scenario_dataset(n=300)
    if include_infeasible:
        from mecalib import conditional_exposure_variance

        v = conditional_exposure_variance(data, spec)
        dist = ErrorVarianceDistribution("uniform", v - 5.0, v + 5.0)
        m = 30
    else:
        dist = ErrorVarianceDistribution("triangular", 20.0, 40.0, mode=30.0)
        m = 3
    result = run_sensitivity(data, spec, dist, "rc", m=m, ci=False, seed=7)
    out = tmp_path / "sens.csv"
    csv_path, json_path = emit_plot_data(result, out)
    return result, csv_path, json_path


def test_emit_plot_data_shape_and_sort(tmp_path):
    result, csv_path, json_path = run_small_sensitivity(tmp_path)
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    tau2s = [float(r["tau2"]) for r in rows]
    assert tau2s == sorted(tau2s)
    assert list(rows[0]) == ["tau2", "estimate", "ci_lower", "ci_upper", "status"]
    with open(json_path) as handle:
        sidecar = json.loads(handle.read())
    assert sidecar["method"] == "rc"
    assert sidecar["m"] == 3
    assert sidecar["distribution"]["kind"] == "triangular"


def test_emit_plot_data_infeasible_rows_have_empty_cells(tmp_path):
    result, csv_path, _ = run_small_sensitivity(tmp_path, include_infeasible=True)
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    bad = [r for r in rows if r["status"] == "infeasible"]
    assert bad
    assert all(r["estimate"] == "" and r["ci_lower"] == "" for r in bad)


def test_emit_plot_data_round_trip_median(tmp_path):
    result, csv_path, json_path = run_small_sensitivity(tmp_path, include_infeasible=True)
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    estimates = [float(r["estimate"]) for r in rows if r["status"] == "ok"]
    with open(json_path) as handle:
        sidecar = json.loads(handle.read())
    assert float(median(estimates)) == sidecar["summary"]["median"]


def test_emit_plot_data_rejects_unwritable_path(tmp_path):
    result, _, _ = run_small_sensitivity(tmp_path)
    with pytest.raises(OSError):
        emit_plot_data(result, tmp_path / "missing_dir" / "out.csv")
