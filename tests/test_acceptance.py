"""Acceptance suite: one pass/fail line per criterion.

The heavy Monte Carlo runs are shared module-scoped fixtures; the whole
module takes a few minutes on one core.  Run with ``pytest -s`` to see the
ACCEPTANCE lines as they print; with ``-v`` each criterion is also a named
test.
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from mecalib import (
    AnalysisSpec,
    Dataset,
    ErrorVariance,
    ErrorVarianceDistribution,
    ScenarioConfig,
    SimexConfig,
    bootstrap_ci,
    correct_rc,
    correct_simex,
    emit_study_report,
    estimate_tau2_from_replicates,
    fit_uncorrected,
    generate_dataset,
    run_scenario,
    run_sensitivity,
    scenario_spec,
)
from mecalib.linreg import ols_fit
from mecalib.sensitivity import sample_tau2
from mecalib.util import DEFAULT_SEED

from conftest import base_scenario_dataset, extrapolate, simex_estimates_per_lambda
from test_sensitivity import ks_statistic, triangular_cdf

R = 1000
TAU2_SWEEP = (200.0, 100.0, 50.0, 25.0, 20.0, 15.0, 10.0, 5.0)
K_SWEEP = (2, 5, 10)
GAMMA_SWEEP = (1.0, 4.0, 8.0)
SIMEX_ORACLE = 0.17325837320574164  # exact-rational LS quadratic through 10/(80+30*lam) at -1


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} :: {detail}", flush=True)
    assert passed, f"criterion {number} {name}: {detail}"


def base_cfg(**overrides):
    overrides.setdefault("n_reps", R)
    overrides.setdefault("seed", DEFAULT_SEED)
    return ScenarioConfig(**overrides)


@pytest.fixture(scope="module")
def base_run():
    start = time.perf_counter()
    summary = run_scenario(base_cfg())
    return summary, time.perf_counter() - start


@pytest.fixture(scope="module")
def tau2_sweep():
    return {
        tau2: run_scenario(base_cfg(name=f"tau2_{tau2:g}", tau2=tau2))
        for tau2 in TAU2_SWEEP
    }


@pytest.fixture(scope="module")
def k_sweep():
    return {k: run_scenario(base_cfg(name=f"k_{k}", k=k)) for k in K_SWEEP}


@pytest.fixture(scope="module")
def gamma_sweep():
    return {
        gamma: run_scenario(base_cfg(name=f"gamma_{gamma:g}", gamma=gamma),
                            methods=("uncorrected",))
        for gamma in GAMMA_SWEEP
    }


@pytest.fixture(scope="module")
def coverage_run():
    start = time.perf_counter()
    summary = run_scenario(
        base_cfg(n_reps=500), methods=("uncorrected", "rc"), n_boot=500
    )
    return summary, time.perf_counter() - start


def test_criterion_1_attenuation(base_run):
    summary, elapsed = base_run
    pb = summary.methods["uncorrected"].percent_bias
    ok = abs(pb - (-37.5)) <= 3.0 and elapsed < 60.0
    report(1, "base attenuation", ok,
           f"uncorrected percent bias {pb:+.2f} (target -37.5 +/- 3), "
           f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_2_extreme_attenuation(tau2_sweep):
    pb = tau2_sweep[200.0].methods["uncorrected"].percent_bias
    ok = abs(pb - (-80.0)) <= 3.0
    report(2, "extreme attenuation", ok,
           f"uncorrected percent bias {pb:+.2f} at tau2=200 (target -80 +/- 3)")


def test_criterion_3_rc_unbiased(base_run, tau2_sweep):
    base_pb = base_run[0].methods["rc"].percent_bias
    sweep_pbs = {
        tau2: tau2_sweep[tau2].methods["rc"].percent_bias
        for tau2 in TAU2_SWEEP
        if 50.0 / (50.0 + tau2) >= 0.33
    }
    worst = max(abs(pb) for pb in sweep_pbs.values())
    ok = abs(base_pb) <= 3.0 and worst <= 4.0
    report(3, "rc unbiasedness", ok,
           f"base rc percent bias {base_pb:+.2f} (within 3), worst over "
           f"reliability >= 0.33 sweep {worst:.2f} (within 4)")


def test_criterion_4_simex_residual_bias(base_run, tau2_sweep):
    mean = base_run[0].methods["simex"].mean_estimate
    in_window = abs(mean - 0.173) <= 0.006
    comparisons = {30.0: base_run[0]} | {
        tau2: tau2_sweep[tau2] for tau2 in TAU2_SWEEP if 50.0 / (50.0 + tau2) <= 0.77
    }
    dominance = {
        tau2: (abs(s.methods["simex"].percent_bias), abs(s.methods["rc"].percent_bias))
        for tau2, s in comparisons.items()
    }
    all_dominated = all(sx > rc for sx, rc in dominance.values())
    ok = in_window and all_dominated
    worst = min(sx - rc for sx, rc in dominance.values())
    report(4, "simex residual bias", ok,
           f"base simex mean {mean:.4f} (target 0.173 +/- 0.006, oracle "
           f"{SIMEX_ORACLE:.4f}); |simex bias| > |rc bias| at all reliability "
           f"<= 0.77 (min margin {worst:.2f} pp)")


def test_criterion_5_coverage(coverage_run):
    summary, elapsed = coverage_run
    rc_cov = summary.methods["rc"].coverage
    unc_cov = summary.methods["uncorrected"].coverage
    ok = 0.93 <= rc_cov <= 0.97 and unc_cov < 0.90 and elapsed < 1800.0
    report(5, "coverage", ok,
           f"rc bootstrap coverage {rc_cov:.3f} (target [0.93, 0.97]), "
           f"uncorrected Wald coverage {unc_cov:.3f} (< 0.90, noncentral "
           f"oracle ~0.68), runtime {elapsed:.0f}s (< 1800s)")


def test_criterion_6_replicate_invariance(base_run, k_sweep):
    base_summary = base_run[0]
    details = []
    ok = True
    for method in ("uncorrected", "rc", "simex"):
        base_perf = base_summary.methods[method]
        for k, summary in k_sweep.items():
            perf = summary.methods[method]
            diff = abs(perf.percent_bias - base_perf.percent_bias)
            limit = 3.0 * np.hypot(perf.percent_bias_mcse, base_perf.percent_bias_mcse)
            ok &= diff <= limit
            details.append(f"{method}/k={k}: {diff:.2f}<={limit:.2f}")
    report(6, "replicate-count invariance", ok, "; ".join(details))


def test_criterion_7_covariate_dependency_invariance(gamma_sweep):
    expected_reliability = {1.0: 75.0 / 105.0, 4.0: 450.0 / 480.0, 8.0: 1650.0 / 1680.0}
    details = []
    ok = True
    for gamma, summary in gamma_sweep.items():
        pb = summary.methods["uncorrected"].percent_bias
        ok &= abs(pb - (-37.5)) <= 3.0
        data = generate_dataset(
            ScenarioConfig(name="rel", gamma=gamma, n=1_000_000, n_reps=1, seed=DEFAULT_SEED), 0
        )
        spec = scenario_spec(3)
        tau2_hat = estimate_tau2_from_replicates(data, spec).tau2
        var_star = data.column("bp_star_1").var(ddof=1)
        reliability = (var_star - tau2_hat) / var_star
        ok &= abs(reliability / expected_reliability[gamma] - 1.0) <= 0.01
        details.append(f"gamma={gamma:g}: pb {pb:+.2f}, reliability {reliability:.3f}")
    report(7, "covariate-dependency invariance", ok,
           "; ".join(details) + " (bias pinned at -37.5 while reliability rises to ~0.98)")


def test_criterion_8_property_suites():
    checks = []

    data, spec = base_scenario_dataset(n=400)
    uncorrected = float(fit_uncorrected(data, spec).coefficients[1])
    checks.append(("rc identity at tau2=0",
                   correct_rc(data, spec, ErrorVariance(0.0)).estimate == uncorrected))
    simex_zero = correct_simex(data, spec, ErrorVariance(0.0), SimexConfig(seed=1)).estimate
    checks.append(("simex identity at tau2=0", abs(simex_zero - uncorrected) < 1e-12))

    rc_path = [correct_rc(data, spec, ErrorVariance(t)).estimate for t in (0.0, 10.0, 20.0, 30.0)]
    checks.append(("rc monotonicity in tau2",
                   all(b > a for a, b in zip(rc_path, rc_path[1:])) == (uncorrected > 0)))

    coefs = (0.25, -0.11, 0.04)
    points = {lam: coefs[0] + coefs[1] * lam + coefs[2] * lam**2 for lam in (0.0, 0.7, 1.9)}
    value, fitted = extrapolate(points, "quadratic")
    residual = max(abs(f - c) for f, c in zip(fitted, coefs))
    checks.append(("extrapolation exactness on quadratic points", residual < 1e-10))

    rng = np.random.default_rng(2024)
    ols_ok = True
    for _ in range(5):
        X = np.column_stack([np.ones(20), rng.normal(size=(20, 2))])
        y = rng.normal(size=20)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        ols_ok &= bool(np.allclose(ols_fit(X, y).coefficients, oracle, rtol=1e-8))
    checks.append(("ols matches normal-equations oracle", ols_ok))

    dist = ErrorVarianceDistribution("triangular", 37.0, 59.0, mode=48.0)
    draws = sample_tau2(dist, 100_000, seed=6)
    stat = ks_statistic(draws, lambda x: triangular_cdf(x, 37.0, 48.0, 59.0))
    checks.append(("triangular sampler KS < 0.01", stat < 0.01))

    tau2 = estimate_tau2_from_replicates(data, spec)
    cfg = SimexConfig(seed=11, n_sim=10)
    determinism = (
        np.array_equal(sample_tau2(dist, 100, seed=3), sample_tau2(dist, 100, seed=3))
        and np.array_equal(
            generate_dataset(ScenarioConfig(n=50, n_reps=1, seed=3), 0).values,
            generate_dataset(ScenarioConfig(n=50, n_reps=1, seed=3), 0).values,
        )
        and simex_estimates_per_lambda(data, spec, tau2, cfg)
        == simex_estimates_per_lambda(data, spec, tau2, cfg)
        and bootstrap_ci(data, spec, "rc", tau2, n_boot=60, seed=4)
        == bootstrap_ci(data, spec, "rc", tau2, n_boot=60, seed=4)
        and run_sensitivity(data, spec, dist, "rc", m=5, ci=False, seed=5)
        == run_sensitivity(data, spec, dist, "rc", m=5, ci=False, seed=5)
    )
    small = ScenarioConfig(name="det", n=60, n_reps=5, seed=8)
    first = run_scenario(small, methods=("uncorrected", "rc"))
    second = run_scenario(small, methods=("uncorrected", "rc"))
    determinism &= all(
        first.methods[m] == second.methods[m] or
        np.array_equal(
            np.array([getattr(first.methods[m], f) for f in ("mean_estimate", "bias", "mse")]),
            np.array([getattr(second.methods[m], f) for f in ("mean_estimate", "bias", "mse")]),
        )
        for m in first.methods
    )
    checks.append(("seeded determinism of randomized operations", determinism))

    failed = [name for name, passed in checks if not passed]
    report(8, "property suites", not failed,
           f"{len(checks)} checks: " + (f"failing {failed}" if failed else "all hold"))


def test_criterion_9_sensitivity_workflow():
    data, spec = base_scenario_dataset(n=500, seed=DEFAULT_SEED)
    prior = ErrorVarianceDistribution("triangular", 20.0, 40.0, mode=30.0)
    rc_result = run_sensitivity(data, spec, prior, "rc", m=100, ci=False, seed=DEFAULT_SEED)
    ordered = sorted((d for d in rc_result.draws if d.status == "ok"), key=lambda d: d.tau2)
    estimates = [d.estimate for d in ordered]
    monotone = all(b > a for a, b in zip(estimates, estimates[1:]))
    point = correct_rc(data, spec, ErrorVariance(30.0)).estimate
    brackets = min(estimates) < point < max(estimates)

    fixed = ErrorVarianceDistribution("triangular", 30.0, 30.0, mode=30.0)
    rc_fixed = run_sensitivity(data, spec, fixed, "rc", m=30, ci=False, seed=3)
    simex_fixed = run_sensitivity(
        data, spec, fixed, "simex", m=30, ci=False,
        simex_config=SimexConfig(n_sim=100), seed=3,
    )
    rc_spread = rc_fixed.summary["max"] - rc_fixed.summary["min"]
    simex_spread = simex_fixed.summary["max"] - simex_fixed.summary["min"]
    spread_contrast = simex_spread > rc_spread and rc_spread == 0.0

    ok = monotone and brackets and spread_contrast
    report(9, "sensitivity workflow", ok,
           f"rc monotone over 100 draws: {monotone}; brackets point correction "
           f"{point:.4f}: {brackets}; at fixed tau2 simex spread {simex_spread:.4f} "
           f"> rc spread {rc_spread:.4f}")


def test_report_shape_from_full_reliability_sweep(base_run, tau2_sweep, tmp_path):
    # 8 sweep values + base, 3 methods each: 27 rows in the reliability file
    summaries = [base_run[0]] + [tau2_sweep[t] for t in TAU2_SWEEP]
    written = emit_study_report(summaries, tmp_path)
    path = next(p for p in written if p.endswith("reliability.csv"))
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 27
    assert sum(r["base"] == "true" for r in rows) == 3


def test_mse_dominates_squared_bias_everywhere(base_run, tau2_sweep, k_sweep, gamma_sweep):
    # definitional decomposition, up to Monte Carlo noise
    summaries = (
        [base_run[0]]
        + list(tau2_sweep.values())
        + list(k_sweep.values())
        + list(gamma_sweep.values())
    )
    for summary in summaries:
        for perf in summary.methods.values():
            slack = 5.0 * perf.mse_mcse + 1e-12
            assert perf.mse >= perf.bias**2 - slack, (summary.scenario.name, perf.method)


def test_rc_coverage_invariant_at_r1000():
    # long-run calibration of the RC bootstrap interval on the base scenario
    summary = run_scenario(base_cfg(), methods=("rc",), n_boot=500)
    coverage = summary.methods["rc"].coverage
    assert 0.935 <= coverage <= 0.965, coverage
