import csv
import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

import mecalib.simstudy as simstudy
from mecalib import (
    ScenarioConfig,
    SimulationError,
    derive_scenario,
    emit_study_report,
    estimate_tau2_from_replicates,
    generate_dataset,
    run_scenario,
    scenario_spec,
)
from mecalib.simstudy import load_scenarios, scenario_grid


# --------------------------------------------------------------------------
# derived quantities
# --------------------------------------------------------------------------

def test_base_scenario_derived_values():
    derived = derive_scenario(ScenarioConfig())
    assert derived.reliability == pytest.approx(0.625)
    assert derived.attenuation == pytest.approx(0.625)
    assert derived.r_squared == pytest.approx(3.0 / 103.0)  # about 0.03
    assert derived.crude_effect == pytest.approx(0.2)


def test_reliability_rises_with_covariate_dependency():
    # (25 g^2 + 50) / (25 g^2 + 50 + tau2) at gamma = 1, 4, 8
    values = [derive_scenario(ScenarioConfig(gamma=g)).reliability for g in (1.0, 4.0, 8.0)]
    assert values[0] == pytest.approx(75.0 / 105.0)   # about 0.71
    assert values[1] == pytest.approx(450.0 / 480.0)  # about 0.94
    assert values[2] == pytest.approx(1650.0 / 1680.0)  # about 0.98
    # attenuation stays put regardless of gamma
    assert all(
        derive_scenario(ScenarioConfig(gamma=g)).attenuation == pytest.approx(0.625)
        for g in (1.0, 4.0, 8.0)
    )


def test_crude_effect_formula():
    assert derive_scenario(ScenarioConfig(gamma=1.0)).crude_effect == pytest.approx(0.2 + 5.0 / 75.0)
    assert derive_scenario(ScenarioConfig(gamma=4.0)).crude_effect == pytest.approx(0.2 + 20.0 / 450.0)


# --------------------------------------------------------------------------
# data generation
# --------------------------------------------------------------------------

def test_generator_columns_and_determinism():
    cfg = ScenarioConfig(n=50, n_reps=1, seed=3)
    data = generate_dataset(cfg, 0)
    assert data.column_names == ("creatinine", "bp_star_1", "bp_star_2", "bp_star_3", "age")
    assert data.n_rows == 50
    again = generate_dataset(cfg, 0)
    assert np.array_equal(data.values, again.values)
    other_rep = generate_dataset(cfg, 1)
    assert not np.array_equal(data.values, other_rep.values)


def test_generator_zero_tau2_gives_identical_replicates():
    cfg = ScenarioConfig(tau2=0.0, n=100, n_reps=1, seed=5)
    data = generate_dataset(cfg, 0)
    assert np.array_equal(data.column("bp_star_1"), data.column("bp_star_2"))
    assert np.array_equal(data.column("bp_star_1"), data.column("bp_star_3"))


def test_generator_moments_match_mechanism():
    cfg = ScenarioConfig(n=1_000_000, n_reps=1, seed=31)
    data = generate_dataset(cfg, 0)
    assert data.column("age").var(ddof=1) == pytest.approx(25.0, rel=0.01)
    assert data.column("bp_star_1").var(ddof=1) == pytest.approx(80.0, rel=0.01)
    # outcome variance validates the derived R^2 denominator: (g+1)^2 + 2 + sigma2
    assert data.column("creatinine").var(ddof=1) == pytest.approx(103.0, rel=0.01)


def test_generator_empirical_reliability_under_covariate_dependency():
    cfg = ScenarioConfig(gamma=4.0, n=1_000_000, n_reps=1, seed=33)
    data = generate_dataset(cfg, 0)
    spec = scenario_spec(cfg.k)
    tau2_hat = estimate_tau2_from_replicates(data, spec).tau2
    var_star = data.column("bp_star_1").var(ddof=1)
    reliability = (var_star - tau2_hat) / var_star
    assert reliability == pytest.approx(0.9375, rel=0.01)
    # outcome variance under gamma=4: (4+1)^2 + 2 + 100
    assert data.column("creatinine").var(ddof=1) == pytest.approx(127.0, rel=0.01)


# --------------------------------------------------------------------------
# the scenario grid
# --------------------------------------------------------------------------

def test_grid_has_22_scenarios():
    grid = scenario_grid()
    assert len(grid) == 22
    assert len({cfg.name for cfg in grid}) == 22


def test_grid_base_entry():
    base = scenario_grid()[0]
    assert (base.tau2, base.n, base.k, base.sigma2, base.gamma) == (30.0, 500, 3, 100.0, 0.0)
    assert base.name == "base"


def test_grid_entries_differ_from_base_in_one_knob():
    grid = scenario_grid()
    base = grid[0]
    knobs = ("tau2", "n", "k", "sigma2", "gamma")
    for cfg in grid[1:]:
        differing = [k for k in knobs if getattr(cfg, k) != getattr(base, k)]
        assert len(differing) == 1, cfg.name


def test_grid_sweep_values():
    grid = {cfg.name: cfg for cfg in scenario_grid()}
    assert {grid[f"tau2_{v:g}"].tau2 for v in (200, 100, 50, 25, 20, 15, 10, 5)} == {
        200.0, 100.0, 50.0, 25.0, 20.0, 15.0, 10.0, 5.0
    }
    assert {cfg.n for cfg in grid.values()} == {125, 250, 500, 1000, 10000}
    assert {cfg.k for cfg in grid.values()} == {2, 3, 5, 10}
    assert {cfg.sigma2 for cfg in grid.values()} == {100.0, 20.0, 5.0, 1.0}
    assert {cfg.gamma for cfg in grid.values()} == {0.0, 1.0, 4.0, 8.0}


# --------------------------------------------------------------------------
# run_scenario
# --------------------------------------------------------------------------

def small_cfg(**knobs):
    knobs.setdefault("n_reps", 30)
    knobs.setdefault("n", 120)
    knobs.setdefault("seed", 17)
    knobs.setdefault("name", "small")
    return ScenarioConfig(**knobs)


def assert_perf_equal(a, b):
    np.testing.assert_equal(asdict(a), asdict(b))  # treats NaN as equal


def test_run_scenario_deterministic_and_thread_invariant():
    cfg = small_cfg(n_reps=12)
    first = run_scenario(cfg, methods=("uncorrected", "rc"))
    second = run_scenario(cfg, methods=("uncorrected", "rc"))
    assert_perf_equal(first.methods["rc"], second.methods["rc"])
    pooled = run_scenario(cfg, methods=("uncorrected", "rc"), threads=2)
    assert_perf_equal(pooled.methods["rc"], first.methods["rc"])


def test_run_scenario_method_results_independent_of_other_methods():
    cfg = small_cfg(n_reps=10)
    alone = run_scenario(cfg, methods=("rc",))
    together = run_scenario(cfg, methods=("uncorrected", "rc", "simex"))
    assert_perf_equal(alone.methods["rc"], together.methods["rc"])


def test_run_scenario_summary_contents():
    cfg = small_cfg(n_reps=40, n=200)
    summary = run_scenario(cfg)
    assert set(summary.methods) == {"uncorrected", "rc", "simex"}
    for perf in summary.methods.values():
        assert perf.n_reps_used + perf.n_failures == 40
        assert perf.mse >= perf.bias**2 - 5 * perf.mse_mcse
        assert perf.percent_bias == pytest.approx(100.0 * perf.bias / 0.2)
        assert perf.bias == pytest.approx(perf.mean_estimate - 0.2)
    unc = summary.methods["uncorrected"]
    assert 0.0 <= unc.coverage <= 1.0
    assert np.isnan(summary.methods["rc"].coverage)  # no bootstrap requested


def test_run_scenario_bootstrap_coverage_fields():
    cfg = small_cfg(n_reps=8, n=150)
    summary = run_scenario(cfg, methods=("rc",), n_boot=60)
    perf = summary.methods["rc"]
    assert 0.0 <= perf.coverage <= 1.0
    assert perf.coverage_mcse >= 0.0


def test_run_scenario_aborts_on_mass_failures():
    # tiny sample with huge error variance: calibration infeasible often
    cfg = small_cfg(n=12, tau2=200.0, n_reps=30, seed=2)
    with pytest.raises(SimulationError, match="failed") as info:
        run_scenario(cfg, methods=("rc",))
    # the message names the reasons, and they add up to the failures it reports
    failed, reasons = re.fullmatch(
        r"scenario 'small': (\d+) of 30 repetitions failed for method 'rc' \((.*)\)",
        str(info.value)).groups()
    assert reasons == f"infeasible: {failed}"


def test_run_scenario_names_why_every_repetition_failed():
    with pytest.raises(SimulationError) as info:
        run_scenario(small_cfg(n=50, tau2=1e306, n_reps=3, seed=1729), methods=("rc",))
    assert str(info.value) == "method 'rc' failed on every repetition (infeasible: 3)"


def test_study_failure_reasons_list_each_nonzero_count():
    assert simstudy._reasons({"infeasible": 2, "singular": 0, "bootstrap": 1}) == (
        "infeasible: 2, bootstrap: 1")


@pytest.mark.parametrize("gamma", [1e307, -1e307, 1.7e308])
def test_an_overflowing_gamma_is_one_value_error(gamma):
    cfg = small_cfg(n=50, gamma=gamma, n_reps=3)
    with pytest.raises(ValueError, match=r"^gamma=.* overflows the generated data"):
        generate_dataset(cfg, 0)
    with pytest.raises(ValueError, match=r"^gamma=.* overflows the generated data"):
        run_scenario(cfg)


def test_run_scenario_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown methods"):
        run_scenario(small_cfg(n_reps=2), methods=("rc", "mystery"))


@pytest.mark.parametrize("kwargs, message", [
    (dict(threads=2.5), "threads must be an integer, got 2.5"),
    (dict(threads=True), "threads must be an integer, got True"),
    (dict(threads="2"), "threads must be an integer, got '2'"),
    (dict(threads=0), "threads must be at least 1, got 0"),
    (dict(threads=-3), "threads must be at least 1, got -3"),
    # the Wald interval reads level, so it is checked without a bootstrap too
    (dict(level=1.5), r"level must be in \(0, 1\), got 1.5"),
    (dict(level="0.9"), "level must be a real number, got '0.9'"),
    (dict(level="0.9", n_boot=50), "level must be a real number, got '0.9'"),
    (dict(n_boot=0.0), "n_boot must be an integer, got 0.0"),
    (dict(n_boot=10), "n_boot must be at least 50, got 10"),
    (dict(n_boot=50.5), "n_boot must be an integer, got 50.5"),
])
def test_run_scenario_rejects_bad_arguments_before_any_repetition(kwargs, message, monkeypatch):
    monkeypatch.setattr(simstudy, "parallel_map", lambda *args, **kw: pytest.fail("work started"))
    with pytest.raises(ValueError, match=message):
        run_scenario(small_cfg(n_reps=4), **kwargs)


def test_run_scenario_needs_a_method():
    with pytest.raises(ValueError, match="at least one method"):
        run_scenario(small_cfg(n_reps=2), methods=())


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(tau2=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(k=1)
    with pytest.raises(ValueError):
        ScenarioConfig(sigma2=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_reps=0)
    with pytest.raises(ValueError):
        ScenarioConfig(n=3)
    with pytest.raises(ValueError, match="sigma2"):
        ScenarioConfig(sigma2=float("nan"))
    with pytest.raises(ValueError, match="n must be an integer"):
        ScenarioConfig(n=100.5)
    with pytest.raises(ValueError, match="n_reps must be an integer"):
        ScenarioConfig(n_reps=2.5)


@pytest.mark.parametrize("knob", ["tau2", "sigma2", "gamma"])
@pytest.mark.parametrize("value", ["30", None, [1], True, False, 1 + 0j])
def test_scenario_knobs_must_be_real_numbers(knob, value):
    with pytest.raises(ValueError, match=f"{knob} must be a real number, got"):
        ScenarioConfig(**{knob: value})
    for number in (30, 30.0, np.float64(30.0), np.int64(30)):
        assert getattr(ScenarioConfig(**{knob: number}), knob) == 30


@pytest.mark.parametrize("knob", ["tau2", "sigma2", "gamma"])
def test_scenario_knobs_must_be_finite(knob):
    with pytest.raises(ValueError, match=re.escape(
            f"{knob} must be within float64's range, got a 1329-bit integer")):
        ScenarioConfig(**{knob: 10**400})
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"^{knob} must be finite, got {value}$"):
            ScenarioConfig(**{knob: value})


# --------------------------------------------------------------------------
# scenario files and the study report
# --------------------------------------------------------------------------

def test_load_scenarios_round_trip(tmp_path):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps([
        {"name": "quick", "tau2": 10.0, "n": 100, "n_reps": 5},
        {"tau2": 50.0},
    ]))
    scenarios = load_scenarios(path)
    assert scenarios[0] == ScenarioConfig(name="quick", tau2=10.0, n=100, n_reps=5)
    assert scenarios[1].name == "custom_1"
    assert scenarios[1].n == 500  # defaults fill in

    path.write_text(json.dumps({"scenarios": [{"k": 5}]}))
    assert load_scenarios(path)[0].k == 5

    path.write_text(json.dumps([{"bogus": 1}]))
    with pytest.raises(ValueError, match="unknown fields"):
        load_scenarios(path)
    path.write_text(json.dumps([]))
    with pytest.raises(ValueError, match="nonempty"):
        load_scenarios(path)


def tiny_study(tmp_path):
    base = ScenarioConfig(name="base", n=80, n_reps=10, seed=5)
    summaries = [
        run_scenario(base, methods=("uncorrected", "rc")),
        run_scenario(replace(base, name="tau2_10", tau2=10.0), methods=("uncorrected", "rc")),
        run_scenario(replace(base, name="k_5", k=5), methods=("uncorrected", "rc")),
    ]
    out = tmp_path / "report"
    return summaries, emit_study_report(summaries, out)


def test_emit_study_report_files_and_shape(tmp_path):
    summaries, written = tiny_study(tmp_path)
    names = {p.split("/")[-1] for p in written}
    assert names == {"summaries.json", "reliability.csv", "replicates.csv"}

    with open([p for p in written if p.endswith("reliability.csv")][0], newline="") as handle:
        rows = list(csv.DictReader(handle))
    # 2 knob values (10 and base 30) x 2 methods
    assert len(rows) == 4
    assert list(rows[0]) == [
        "tau2", "method", "percent_bias", "bias_mcse", "mse", "mse_mcse",
        "coverage", "coverage_mcse", "base",
    ]
    tau2s = [float(r["tau2"]) for r in rows]
    assert tau2s == sorted(tau2s)
    base_rows = [r for r in rows if r["base"] == "true"]
    assert len(base_rows) == 2 and all(float(r["tau2"]) == 30.0 for r in base_rows)
    assert all(r["coverage"] == "" for r in rows if r["method"] == "rc")  # no bootstrap


def test_emit_study_report_round_trip_values(tmp_path):
    summaries, written = tiny_study(tmp_path)
    with open([p for p in written if p.endswith("replicates.csv")][0], newline="") as handle:
        rows = list(csv.DictReader(handle))
    k5 = next(s for s in summaries if s.scenario.name == "k_5")
    row = next(r for r in rows if float(r["k"]) == 5.0 and r["method"] == "rc")
    assert float(row["percent_bias"]) == k5.methods["rc"].percent_bias
    assert float(row["mse"]) == k5.methods["rc"].mse


def test_emit_study_report_json_contains_everything(tmp_path):
    summaries, written = tiny_study(tmp_path)
    payload = json.loads(open([p for p in written if p.endswith(".json")][0]).read())
    assert len(payload) == 3
    assert {entry["scenario"]["name"] for entry in payload} == {"base", "tau2_10", "k_5"}
    assert payload[0]["true_effect"] == 0.2
    assert "reliability" in payload[0]["derived"]
    assert "percent_bias" in payload[0]["methods"]["uncorrected"]


def test_emit_study_report_json_is_strict(tmp_path):
    _, written = tiny_study(tmp_path)
    text = open([p for p in written if p.endswith(".json")][0]).read()

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(text, parse_constant=reject)
    rc = payload[0]["methods"]["rc"]
    assert rc["coverage"] is None and rc["coverage_mcse"] is None  # no bootstrap
