import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from mecalib import (
    AnalysisSpec,
    BootstrapError,
    Dataset,
    ErrorVariance,
    InfeasibleCorrectionError,
    InsufficientReplicatesError,
    SimexConfig,
    bootstrap_ci,
    conditional_exposure_variance,
    correct_rc,
    correct_simex,
    estimate_tau2_from_replicates,
    fit_uncorrected,
)
from mecalib.data import design_matrix
from mecalib.linreg import ols_fit
from mecalib import correct, linreg, util
from mecalib.util import substream

from conftest import (base_scenario_dataset, exact_line_dataset, extrapolate,
                      simex_estimates_per_lambda)
from test_linreg import svd_ols_fit


# --------------------------------------------------------------------------
# tau2 from replicates
# --------------------------------------------------------------------------

def make_replicate_data(rows):
    rows = np.asarray(rows, dtype=np.float64)
    k = rows.shape[1]
    names = ("y",) + tuple(f"x{j}" for j in range(1, k + 1))
    values = np.column_stack([np.zeros(len(rows)), rows])
    spec = AnalysisSpec("y", names[1:])
    return Dataset(names, values), spec


def test_tau2_zero_when_replicates_agree():
    data, spec = make_replicate_data([[1, 1, 1], [2, 2, 2]])
    assert estimate_tau2_from_replicates(data, spec).tau2 == 0.0


def test_tau2_mean_within_row_variance():
    # each row has within-row variance 2 with divisor k-1, so the mean is 2
    data, spec = make_replicate_data([[0, 2], [1, 3]])
    result = estimate_tau2_from_replicates(data, spec)
    assert result.tau2 == pytest.approx(2.0, rel=1e-14)
    assert result.source == "replicates"


def test_tau2_consistency_on_large_sample():
    data, spec = base_scenario_dataset(n=100_000)
    assert estimate_tau2_from_replicates(data, spec).tau2 == pytest.approx(30.0, rel=0.01)


def test_tau2_invariances():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(50, 3))
    data, spec = make_replicate_data(rows)
    base = estimate_tau2_from_replicates(data, spec).tau2
    # replicate column order
    permuted_spec = AnalysisSpec("y", ("x3", "x1", "x2"))
    assert estimate_tau2_from_replicates(data, permuted_spec).tau2 == pytest.approx(base, rel=1e-12)
    # per-row constant shifts
    shifted, spec2 = make_replicate_data(rows + rng.normal(size=(50, 1)))
    assert estimate_tau2_from_replicates(shifted, spec2).tau2 == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("k", [2, 3, 10])
def test_tau2_matches_row_variance_reference(k):
    rng = np.random.default_rng(k)
    rows = rng.normal(120.0, 15.0, size=(400, 1)) + rng.normal(0.0, 5.0, size=(400, k))
    data, spec = make_replicate_data(rows)
    reference = data.columns(spec.exposure_replicates).var(axis=1, ddof=1).mean()
    assert estimate_tau2_from_replicates(data, spec).tau2 == pytest.approx(reference, rel=1e-12)


def test_tau2_needs_two_replicates():
    data, _ = make_replicate_data([[1, 2], [3, 4]])
    spec = AnalysisSpec("y", ("x1",))
    with pytest.raises(InsufficientReplicatesError):
        estimate_tau2_from_replicates(data, spec)


def test_error_variance_validation():
    with pytest.raises(ValueError):
        ErrorVariance(-1.0)
    with pytest.raises(ValueError):
        ErrorVariance(1.0, source="guess")


# --------------------------------------------------------------------------
# uncorrected fit
# --------------------------------------------------------------------------

def test_uncorrected_delegates_to_ols_exactly():
    data, spec = base_scenario_dataset(n=200)
    fit = fit_uncorrected(data, spec)
    X = design_matrix(data, spec.exposure, spec.covariates)
    direct = ols_fit(X, data.column(spec.outcome))
    assert np.array_equal(fit.coefficients, direct.coefficients)


def test_uncorrected_attenuated_on_base_mechanism():
    # attenuation 50 / (50 + 30) = 0.625 of the true effect 0.2
    data, spec = base_scenario_dataset(n=100_000)
    fit = fit_uncorrected(data, spec)
    assert fit.coefficients[1] == pytest.approx(0.125, rel=0.02)


def test_uncorrected_unbiased_without_error():
    data, spec = base_scenario_dataset(n=100_000, seed=7, tau2=0.0)
    fit = fit_uncorrected(data, spec)
    assert fit.coefficients[1] == pytest.approx(0.2, rel=0.02)


# --------------------------------------------------------------------------
# regression calibration
# --------------------------------------------------------------------------

def test_rc_formula_and_large_sample_recovery():
    data, spec = base_scenario_dataset(n=100_000)
    tau2 = estimate_tau2_from_replicates(data, spec)
    result = correct_rc(data, spec, tau2)
    v = conditional_exposure_variance(data, spec)
    uncorrected = fit_uncorrected(data, spec).coefficients[1]
    assert result.estimate == pytest.approx(uncorrected * v / (v - tau2.tau2), rel=1e-12)
    assert result.estimate == pytest.approx(0.2, rel=0.02)
    assert result.diagnostics["conditional_exposure_variance"] == pytest.approx(80.0, rel=0.02)
    assert result.diagnostics["correction_factor"] == pytest.approx(1.6, rel=0.03)


def test_rc_identity_at_zero_tau2():
    data, spec = base_scenario_dataset(n=300)
    result = correct_rc(data, spec, ErrorVariance(0.0))
    assert result.estimate == fit_uncorrected(data, spec).coefficients[1]
    assert result.diagnostics["correction_factor"] == 1.0


def test_rc_infeasible_when_tau2_exceeds_conditional_variance():
    # exposure with conditional variance near 50, assumed error variance 60
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, np.sqrt(50.0), 400)
    y = 1.0 + 0.5 * x + rng.normal(size=400)
    data = Dataset(("y", "x"), np.column_stack([y, x]))
    spec = AnalysisSpec("y", ("x",))
    assert conditional_exposure_variance(data, spec) < 60.0
    with pytest.raises(InfeasibleCorrectionError, match=r"infeasible correction: tau2 \(60\)"):
        correct_rc(data, spec, ErrorVariance(60.0))


def test_rc_infeasible_at_exact_boundary():
    data, spec = base_scenario_dataset(n=300)
    v = conditional_exposure_variance(data, spec)
    with pytest.raises(InfeasibleCorrectionError):
        correct_rc(data, spec, ErrorVariance(v))


def test_rc_monotone_in_tau2():
    data, spec = base_scenario_dataset(n=500)
    assert fit_uncorrected(data, spec).coefficients[1] > 0
    estimates = [correct_rc(data, spec, ErrorVariance(t)).estimate for t in (0.0, 10.0, 20.0, 30.0, 40.0)]
    assert all(b > a for a, b in zip(estimates, estimates[1:]))


# --------------------------------------------------------------------------
# SIMEX
# --------------------------------------------------------------------------

def test_simex_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SimexConfig(lambda_grid=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="start at 0"):
        SimexConfig(lambda_grid=(0.5, 1.0))
    with pytest.raises(ValueError, match="n_sim"):
        SimexConfig(n_sim=0)
    with pytest.raises(ValueError, match="extrapolant"):
        SimexConfig(extrapolant="cubic")
    with pytest.raises(ValueError, match="too short"):
        SimexConfig(lambda_grid=(0.0, 1.0), extrapolant="quadratic")
    with pytest.raises(ValueError, match="finite"):
        SimexConfig(lambda_grid=(0.0, 0.5, float("nan")))
    with pytest.raises(ValueError, match="finite"):
        SimexConfig(lambda_grid=(0.0, 1.0, float("inf")))
    for knobs in ({"n_sim": 2.5}, {"n_sim": True}, {"n_sim": "100"},
                  {"seed": 1.5}, {"seed": False}, {"seed": 3.0}):
        with pytest.raises(ValueError, match=f"{next(iter(knobs))} must be an integer"):
            SimexConfig(**knobs)
    assert SimexConfig(n_sim=np.int64(10), seed=np.int32(2)).n_sim == 10


def test_simex_lambda_map_zero_tau2_is_flat():
    data, spec = base_scenario_dataset(n=300)
    uncorrected = float(fit_uncorrected(data, spec).coefficients[1])
    points = simex_estimates_per_lambda(data, spec, ErrorVariance(0.0), SimexConfig(seed=1))
    assert points == {lam: uncorrected for lam in (0.0, 0.5, 1.0, 1.5, 2.0)}


def per_fit_reference(data, spec, tau2, cfg):
    """Lambda map rebuilt by one ``ols_fit`` refit per pseudo dataset.

    The noise vector of each pseudo dataset is sd * (z1 e1 + z2 e2 + sqrt(rest) e3)
    from the library's own (z1, z2, rest) draws, where e1 and e2 are the
    orthonormalized residualized exposure and response and e3 is a unit vector
    orthogonal to them and to the other design columns.
    """
    X = design_matrix(data, spec.exposure, spec.covariates)
    y = data.column(spec.outcome)
    n, p = X.shape
    q, _ = np.linalg.qr(np.delete(X, 1, axis=1))
    x_res = X[:, 1] - q @ (q.T @ X[:, 1])
    y_res = y - q @ (q.T @ y)
    e1 = x_res / np.linalg.norm(x_res)
    e2 = y_res - (y_res @ e1) * e1
    e2 /= np.linalg.norm(e2)
    spanned = np.column_stack([q, e1, e2])
    e3 = np.zeros(n)  # at n = p + 1 no residual dimension is left for it
    if n > p + 1:
        filler = np.random.default_rng(0).standard_normal(n)
        basis, _ = np.linalg.qr(np.column_stack([spanned, filler]))
        e3 = basis[:, -1]
        assert np.abs(spanned.T @ e3).max() < 1e-12
    points = {}
    for i, lam in enumerate(cfg.lambda_grid):
        if lam == 0.0:
            points[lam] = float(ols_fit(X, y).coefficients[1])
            continue
        rng = substream(cfg.seed, i)
        z1, z2 = rng.standard_normal((2, cfg.n_sim))
        rest = rng.chisquare(n - p - 1, cfg.n_sim) if n > p + 1 else np.zeros(cfg.n_sim)
        sd = np.sqrt(lam * tau2.tau2)
        coefs = []
        for b in range(cfg.n_sim):
            Xb = X.copy()
            Xb[:, 1] += sd * (z1[b] * e1 + z2[b] * e2 + np.sqrt(rest[b]) * e3)
            coefs.append(ols_fit(Xb, y).coefficients[1])
        points[lam] = float(np.mean(coefs))
    return points


def test_simex_lambda_map_matches_per_fit_reference():
    data, spec = base_scenario_dataset(n=200)
    tau2 = estimate_tau2_from_replicates(data, spec)
    cfg = SimexConfig(seed=17, n_sim=25)
    got = simex_estimates_per_lambda(data, spec, tau2, cfg)
    expected = per_fit_reference(data, spec, tau2, cfg)
    assert got[0.0] == expected[0.0]
    for lam in cfg.lambda_grid[1:]:
        assert got[lam] == pytest.approx(expected[lam], rel=1e-10)


@pytest.mark.parametrize("covariates", [(), ("age", "z1", "z2")])
def test_simex_lambda_map_matches_per_fit_reference_across_covariate_sets(covariates):
    # the moments come from the naive and calibration fits for any covariate set
    base, spec = base_scenario_dataset(n=150, seed=4)
    extra = np.random.default_rng(9).normal(0.0, 3.0, (base.n_rows, 2))
    data = Dataset(base.column_names + ("z1", "z2"), np.column_stack([base.values, extra]))
    spec = AnalysisSpec(spec.outcome, spec.exposure_replicates, covariates)
    tau2 = estimate_tau2_from_replicates(data, spec)
    cfg = SimexConfig(seed=23, n_sim=15)
    got = simex_estimates_per_lambda(data, spec, tau2, cfg)
    expected = per_fit_reference(data, spec, tau2, cfg)
    assert got[0.0] == expected[0.0]
    for lam in cfg.lambda_grid[1:]:
        assert got[lam] == pytest.approx(expected[lam], rel=1e-10)


def test_simex_draws_match_brute_force_noise_in_distribution():
    # n_sim=1 per seed exposes single pseudo-dataset coefficients; the brute
    # force side adds n independent N(0, lambda * tau2) draws and refits
    data, spec = base_scenario_dataset(n=20, seed=5)
    tau2 = ErrorVariance(30.0)
    X = design_matrix(data, spec.exposure, spec.covariates)
    y = data.column(spec.outcome)
    n_draws = 2000
    grid = SimexConfig().lambda_grid
    drawn = [simex_estimates_per_lambda(data, spec, tau2, SimexConfig(n_sim=1, seed=s))
             for s in range(n_draws)]
    rng = np.random.default_rng(2024)
    for lam in grid[1:]:
        new = np.array([points[lam] for points in drawn])
        noise = rng.normal(0.0, np.sqrt(lam * tau2.tau2), (n_draws, data.n_rows))
        brute = np.empty(n_draws)
        for b in range(n_draws):
            Xb = X.copy()
            Xb[:, 1] += noise[b]
            brute[b] = ols_fit(Xb, y).coefficients[1]
        mcse = np.sqrt((new.var(ddof=1) + brute.var(ddof=1)) / n_draws)
        assert abs(new.mean() - brute.mean()) < 4.0 * mcse, lam
        assert stats.ks_2samp(new, brute).pvalue > 0.001, lam


def test_simex_with_zero_residual_degrees_of_freedom():
    # n = p + 1: the residual space holds only the exposure and response directions
    data, spec = base_scenario_dataset(n=4)
    X = design_matrix(data, spec.exposure, spec.covariates)
    assert X.shape[0] == X.shape[1] + 1
    tau2 = ErrorVariance(30.0)
    cfg = SimexConfig(seed=8, n_sim=20)
    result = correct_simex(data, spec, tau2, cfg)
    assert np.isfinite(result.estimate)
    expected = per_fit_reference(data, spec, tau2, cfg)
    for lam, est in result.diagnostics["lambda_estimates"].items():
        assert est == pytest.approx(expected[lam], rel=1e-10)


def test_simex_lambda_map_tracks_attenuation_curve():
    # inflating the error variance to (1 + lambda) tau2 shifts the attenuation
    data, spec = base_scenario_dataset(n=100_000)
    points = simex_estimates_per_lambda(
        data, spec, ErrorVariance(30.0), SimexConfig(seed=3)
    )
    for lam, est in points.items():
        expected = 0.2 * 50.0 / (50.0 + (1.0 + lam) * 30.0)
        assert est == pytest.approx(expected, rel=0.02)
    ordered = [points[lam] for lam in sorted(points)]
    assert all(b < a for a, b in zip(ordered, ordered[1:]))


def test_simex_lambda_map_deterministic():
    data, spec = base_scenario_dataset(n=200)
    tau2 = estimate_tau2_from_replicates(data, spec)
    cfg = SimexConfig(seed=99, n_sim=10)
    first = simex_estimates_per_lambda(data, spec, tau2, cfg)
    second = simex_estimates_per_lambda(data, spec, tau2, cfg)
    assert first == second  # bit-identical


# --------------------------------------------------------------------------
# extrapolation
# --------------------------------------------------------------------------

def test_extrapolate_linear_exact_on_line():
    points = {lam: 3.0 + 2.0 * lam for lam in (0.0, 0.5, 1.0, 1.5, 2.0)}
    value, coefficients = extrapolate(points, "linear")
    assert value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(coefficients, [3.0, 2.0], atol=1e-12)


def test_extrapolate_quadratic_interpolates_three_points():
    coefficients_true = (0.4, -0.3, 0.05)
    points = {
        lam: coefficients_true[0] + coefficients_true[1] * lam + coefficients_true[2] * lam**2
        for lam in (0.0, 1.0, 2.0)
    }
    value, coefficients = extrapolate(points, "quadratic")
    assert np.allclose(coefficients, coefficients_true, atol=1e-10)
    expected = coefficients_true[0] - coefficients_true[1] + coefficients_true[2]
    assert value == pytest.approx(expected, abs=1e-10)


def exact_quadratic_lstsq_oracle():
    """Exact-rational least squares quadratic through the attenuation curve."""
    lams = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    ys = [Fraction(10, 80 + 30 * lam) for lam in lams]
    design = [[lam**p for p in range(3)] for lam in lams]
    ata = [[sum(design[i][r] * design[i][c] for i in range(5)) for c in range(3)] for r in range(3)]
    aty = [sum(design[i][r] * ys[i] for i in range(5)) for r in range(3)]
    m = [row[:] + [aty[r]] for r, row in enumerate(ata)]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(3):
            if r != col:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    c = [m[r][3] / m[r][r] for r in range(3)]
    return c[0] - c[1] + c[2]


def test_extrapolate_attenuation_curve_oracle():
    oracle = exact_quadratic_lstsq_oracle()
    assert oracle == Fraction(36211, 209000)  # frozen exact value, approx 0.173258
    points = {
        0.0: 0.125,
        0.5: 10.0 / 95.0,
        1.0: 10.0 / 110.0,
        1.5: 0.08,
        2.0: 10.0 / 140.0,
    }
    value, _ = extrapolate(points, "quadratic")
    assert value == pytest.approx(float(oracle), abs=1e-9)
    assert value == pytest.approx(0.1733, abs=1e-3)


def test_extrapolate_rejects_bad_inputs():
    with pytest.raises(ValueError, match="at least 3"):
        extrapolate({0.0: 1.0, 1.0: 2.0}, "quadratic")
    with pytest.raises(ValueError, match="at least 2"):
        extrapolate({0.0: 1.0}, "linear")
    with pytest.raises(ValueError, match="extrapolant"):
        extrapolate({0.0: 1.0, 1.0: 2.0}, "cubic")


# --------------------------------------------------------------------------
# full SIMEX correction
# --------------------------------------------------------------------------

def test_simex_identity_at_zero_tau2():
    data, spec = base_scenario_dataset(n=300)
    result = correct_simex(data, spec, ErrorVariance(0.0), SimexConfig(seed=2))
    uncorrected = float(fit_uncorrected(data, spec).coefficients[1])
    assert result.estimate == pytest.approx(uncorrected, abs=1e-12)


def test_simex_large_sample_lands_near_extrapolation_oracle():
    data, spec = base_scenario_dataset(n=100_000)
    result = correct_simex(data, spec, ErrorVariance(30.0), SimexConfig(seed=4))
    assert result.estimate == pytest.approx(0.173258, abs=0.005)
    assert set(result.diagnostics["lambda_estimates"]) == {0.0, 0.5, 1.0, 1.5, 2.0}
    assert len(result.diagnostics["extrapolant_coefficients"]) == 3


def test_simex_deterministic_given_seed():
    data, spec = base_scenario_dataset(n=200)
    tau2 = estimate_tau2_from_replicates(data, spec)
    cfg = SimexConfig(seed=123, n_sim=15)
    assert correct_simex(data, spec, tau2, cfg).estimate == correct_simex(data, spec, tau2, cfg).estimate


# --------------------------------------------------------------------------
# scale equivariance of all three estimates
# --------------------------------------------------------------------------

def scaled_outcome_dataset(data, spec, factor):
    values = data.values.copy()
    values[:, data.column_index(spec.outcome)] *= factor
    return Dataset(data.column_names, values)


def test_scale_equivariance_power_of_two_is_exact():
    data, spec = base_scenario_dataset(n=250)
    doubled = scaled_outcome_dataset(data, spec, 2.0)
    tau2 = estimate_tau2_from_replicates(data, spec)
    cfg = SimexConfig(seed=31, n_sim=10)
    assert fit_uncorrected(doubled, spec).coefficients[1] == 2.0 * fit_uncorrected(data, spec).coefficients[1]
    assert correct_rc(doubled, spec, tau2).estimate == 2.0 * correct_rc(data, spec, tau2).estimate
    assert correct_simex(doubled, spec, tau2, cfg).estimate == 2.0 * correct_simex(data, spec, tau2, cfg).estimate


def test_scale_equivariance_general_factor():
    data, spec = base_scenario_dataset(n=250)
    scaled = scaled_outcome_dataset(data, spec, 3.0)
    tau2 = estimate_tau2_from_replicates(data, spec)
    cfg = SimexConfig(seed=31, n_sim=10)
    assert correct_rc(scaled, spec, tau2).estimate == pytest.approx(
        3.0 * correct_rc(data, spec, tau2).estimate, rel=1e-12
    )
    assert correct_simex(scaled, spec, tau2, cfg).estimate == pytest.approx(
        3.0 * correct_simex(data, spec, tau2, cfg).estimate, rel=1e-12
    )


# --------------------------------------------------------------------------
# bootstrap
# --------------------------------------------------------------------------

def test_bootstrap_degenerate_corrector_collapses_interval():
    # y exactly linear in x: every resample refit recovers the same slope
    # (up to last-ulp rounding), and tau2=0 keeps the calibration factor 1
    data = exact_line_dataset(n=30, slope=2.0)
    spec = AnalysisSpec("y", ("x",))
    estimate = correct_rc(data, spec, ErrorVariance(0.0)).estimate
    lower, upper = bootstrap_ci(data, spec, "rc", ErrorVariance(0.0), n_boot=60, seed=5)
    assert estimate == pytest.approx(2.0, rel=1e-12)
    assert lower == pytest.approx(estimate, rel=1e-12)
    assert upper == pytest.approx(estimate, rel=1e-12)
    assert upper - lower <= 1e-12


def test_bootstrap_deterministic_and_thread_invariant():
    data, spec = base_scenario_dataset(n=120)
    tau2 = estimate_tau2_from_replicates(data, spec)
    kwargs = dict(n_boot=60, level=0.95, seed=77)
    first = bootstrap_ci(data, spec, "rc", tau2, **kwargs)
    assert bootstrap_ci(data, spec, "rc", tau2, **kwargs) == first


def test_bootstrap_matches_svd_oracle_fits(monkeypatch):
    data, spec = base_scenario_dataset(n=200)
    tau2 = estimate_tau2_from_replicates(data, spec)
    assert tau2.source == "replicates"
    kwargs = dict(n_boot=80, seed=19)
    fast = bootstrap_ci(data, spec, "rc", tau2, **kwargs)
    monkeypatch.setattr(linreg, "ols_fit", svd_ols_fit)
    monkeypatch.setattr(correct, "ols_fit", svd_ols_fit)
    reference = bootstrap_ci(data, spec, "rc", tau2, **kwargs)
    assert fast == pytest.approx(reference, rel=1e-10)


def test_parallel_map_caps_workers_at_cpus_and_jobs(monkeypatch):
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return map(fn, jobs)

    monkeypatch.setattr(util, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(util.os, "cpu_count", lambda: 4)
    assert util.parallel_map(abs, [-1, -2, -3], threads=64) == [1, 2, 3]
    assert util.parallel_map(abs, range(10), threads=64) == list(range(10))
    assert util.parallel_map(abs, range(10), threads=2) == list(range(10))
    assert pools == [3, 4, 2]
    # a single usable worker runs in-process, without a pool
    monkeypatch.setattr(util.os, "cpu_count", lambda: 1)
    assert util.parallel_map(abs, [-5, -6], threads=8) == [5, 6]
    assert pools == [3, 4, 2]


def test_bootstrap_simex_deterministic():
    data, spec = base_scenario_dataset(n=120)
    tau2 = estimate_tau2_from_replicates(data, spec)
    cfg = SimexConfig(seed=9, n_sim=5)
    first = bootstrap_ci(data, spec, "simex", tau2, cfg, n_boot=50, seed=6)
    assert bootstrap_ci(data, spec, "simex", tau2, cfg, n_boot=50, seed=6) == first


def test_bootstrap_interval_brackets_truth_on_well_behaved_data():
    data, spec = base_scenario_dataset(n=500)
    tau2 = estimate_tau2_from_replicates(data, spec)
    lower, upper = bootstrap_ci(data, spec, "rc", tau2, n_boot=200, seed=12)
    assert lower < upper
    assert lower < 0.2 < upper  # generous at n=500


def test_bootstrap_aborts_when_too_many_replicates_fail():
    data, spec = base_scenario_dataset(n=60)
    v = conditional_exposure_variance(data, spec)
    # tau2 a hair under feasibility: roughly half the resamples go infeasible
    near_boundary = ErrorVariance(v * 0.999)
    with pytest.raises(BootstrapError, match="replicates failed"):
        bootstrap_ci(data, spec, "rc", near_boundary, n_boot=100, seed=3)


def test_bootstrap_warns_on_isolated_failures():
    # pick tau2 so that only a small share of resamples cross the boundary
    data, spec = base_scenario_dataset(n=60)
    v = conditional_exposure_variance(data, spec)
    for fraction in (0.80, 0.77, 0.74, 0.71, 0.68, 0.65):
        tau2 = ErrorVariance(v * fraction)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                bootstrap_ci(data, spec, "rc", tau2, n_boot=100, seed=3)
        except BootstrapError:
            continue
        if caught:
            message = str(caught[0].message)
            assert "failed bootstrap replicates" in message
            assert "rc correction" in message and f"tau2={tau2.tau2:g}" in message
            return
    pytest.skip("no fraction produced isolated failures for this seed")


def test_bootstrap_validates_arguments():
    data, spec = base_scenario_dataset(n=100)
    tau2 = estimate_tau2_from_replicates(data, spec)
    with pytest.raises(ValueError, match="n_boot"):
        bootstrap_ci(data, spec, "rc", tau2, n_boot=10, seed=1)
    with pytest.raises(ValueError, match="level"):
        bootstrap_ci(data, spec, "rc", tau2, n_boot=60, level=1.5, seed=1)
    with pytest.raises(ValueError, match="SimexConfig"):
        bootstrap_ci(data, spec, "simex", tau2, None, n_boot=60, seed=1)
    with pytest.raises(ValueError, match="corrector"):
        bootstrap_ci(data, spec, "naive", tau2, n_boot=60, seed=1)


@pytest.mark.parametrize("kwargs, message", [
    (dict(level="0.9"), "level must be a real number, got '0.9'"),
    (dict(level=True), "level must be a real number, got True"),
    (dict(level=0), "level must be in (0, 1), got 0"),
    (dict(level=1.5), "level must be in (0, 1), got 1.5"),
    (dict(level=float("nan")), "level must be in (0, 1), got nan"),
    (dict(n_boot=50.5), "n_boot must be an integer, got 50.5"),
    (dict(n_boot=True), "n_boot must be an integer, got True"),
    (dict(n_boot="60"), "n_boot must be an integer, got '60'"),
])
def test_bootstrap_rejects_bad_worker_counts_and_sizes(kwargs, message, monkeypatch):
    data, spec = base_scenario_dataset(n=100)
    tau2 = estimate_tau2_from_replicates(data, spec)
    monkeypatch.setattr(correct, "_bootstrap_replicate",
                        lambda *args, **kw: pytest.fail("work started"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bootstrap_ci(data, spec, "rc", tau2, **{"n_boot": 60, "seed": 1, **kwargs})
