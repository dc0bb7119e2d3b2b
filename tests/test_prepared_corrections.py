"""Every analysis fits once per dataset and matches fresh corrections.

``run_sensitivity`` prepares the tau2-free part of a corrector once and runs
only the per-tau2 step per draw; every draw must equal a fresh full
correction at its tau2 bit for bit, or be infeasible where that call raises.
A simulation repetition shares one preparation between the uncorrected,
RC and SIMEX analyses and must equal separate calls to each of them; the
study analyses a block of repetitions with two stacked fits, whatever its size.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import mecalib.correct as correct
import mecalib.linreg as linreg
import mecalib.sensitivity as sensitivity
import mecalib.simstudy as simstudy
import mecalib.util as util
from mecalib import (
    BootstrapError,
    ErrorVariance,
    ErrorVarianceDistribution,
    InfeasibleCorrectionError,
    SimexConfig,
    SingularDesignError,
    bootstrap_ci,
    cli,
    conditional_exposure_variance,
    correct_rc,
    correct_simex,
    estimate_tau2_from_replicates,
    fit_uncorrected,
    generate_dataset,
    run_sensitivity,
    scenario_spec,
    wald_interval,
)
from mecalib.correct import correction_steps, prepare_correction
from mecalib.sensitivity import SensitivityDraw, _draw_rng
from mecalib.simstudy import BLOCK_REPS, METHODS, run_scenario, scenario_grid
from mecalib.util import _ARRAY_PASS_FROM, draw_seed, substream, write_csv_rows

from conftest import base_scenario_dataset, constant_age, run_repetition


def fresh_draws(data, spec, method, result, simex_config, seed):
    """Per draw: a fresh full correction at its tau2, or None where it is infeasible."""
    expected = []
    for index, draw in enumerate(result.draws):
        cfg = replace(simex_config, seed=draw_seed(_draw_rng(seed, index)))
        try:
            fresh = correction_steps(method)[0](data, spec, ErrorVariance(draw.tau2), cfg)
        except InfeasibleCorrectionError:
            expected.append(None)
        else:
            expected.append(fresh.estimate)
    return expected


@pytest.mark.parametrize("method, m, simex_config", [
    ("rc", 40, SimexConfig()),
    ("simex", 8, SimexConfig(n_sim=20)),
])
def test_every_draw_equals_a_fresh_correction(method, m, simex_config):
    data, spec = base_scenario_dataset(n=300)
    v = conditional_exposure_variance(data, spec)
    dist = ErrorVarianceDistribution("uniform", max(v - 8.0, 0.0), v + 4.0)
    result = run_sensitivity(
        data, spec, dist, method, m=m, ci=False, simex_config=simex_config, seed=11
    )
    expected = fresh_draws(data, spec, method, result, simex_config, 11)
    for draw, estimate in zip(result.draws, expected):
        if estimate is None:
            assert draw.status == "infeasible" and draw.estimate is None
        else:
            assert draw.status == "ok" and draw.estimate == estimate
    if method == "rc":
        assert {d.status for d in result.draws} == {"ok", "infeasible"}


@pytest.mark.parametrize("method, ci", [("rc", True), ("simex", False)])
def test_threads_do_not_change_draws(method, ci):
    data, spec = base_scenario_dataset(n=200)
    dist = ErrorVarianceDistribution("triangular", 10.0, 40.0, mode=20.0)
    kwargs = dict(m=12, ci=ci, n_boot=50, simex_config=SimexConfig(n_sim=10), seed=5)
    serial = run_sensitivity(data, spec, dist, method, **kwargs)
    pooled = run_sensitivity(data, spec, dist, method, threads=2, **kwargs)
    assert pooled == serial


def per_draw_loop(data, spec, method, tau2_values, simex_config, seed, ci, n_boot=50):
    """The draws as a loop of fresh full corrections gives them, seeded from ``_draw_rng``."""
    corrector = correction_steps(method)[0]
    draws = []
    for index, tau2 in enumerate(tau2_values):
        rng = _draw_rng(seed, index)
        cfg = replace(simex_config, seed=draw_seed(rng))
        interval_seed = draw_seed(rng)
        try:
            estimate = corrector(data, spec, ErrorVariance(tau2), cfg).estimate
        except InfeasibleCorrectionError:
            draws.append(SensitivityDraw(tau2, None, None, None, "infeasible"))
            continue
        lower = upper = None
        if ci:
            lower, upper = bootstrap_ci(data, spec, method, ErrorVariance(tau2), cfg,
                                        n_boot=n_boot, seed=interval_seed)
        draws.append(SensitivityDraw(tau2, estimate, lower, upper, "ok"))
    return tuple(draws)


def partly_infeasible_prior(data, spec):
    v = conditional_exposure_variance(data, spec)
    return ErrorVarianceDistribution("uniform", max(v - 8.0, 0.0), v + 4.0)


@pytest.mark.parametrize("method, m, simex_config", [
    ("rc", 1000, SimexConfig()),
    ("simex", 2 * sensitivity.SIMEX_BLOCK_DRAWS + 1, SimexConfig(n_sim=5)),
])
def test_array_pass_equals_the_per_draw_loop(method, m, simex_config):
    data, spec = base_scenario_dataset(n=200)
    result = run_sensitivity(data, spec, partly_infeasible_prior(data, spec), method, m=m,
                             ci=False, simex_config=simex_config, seed=11)
    tau2 = [draw.tau2 for draw in result.draws]
    assert tau2 == sensitivity.sample_tau2(partly_infeasible_prior(data, spec), m, 11).tolist()
    assert result.draws == per_draw_loop(data, spec, method, tau2, simex_config, 11, ci=False)
    if method == "rc":
        assert {d.status for d in result.draws} == {"ok", "infeasible"}


@pytest.mark.parametrize("method", ["rc", "simex"])
@pytest.mark.parametrize("m", [1, _ARRAY_PASS_FROM - 1, _ARRAY_PASS_FROM, _ARRAY_PASS_FROM + 1])
def test_draw_seeds_on_either_side_of_the_array_pass_threshold(method, m):
    # the draw seeds come from one substreams pass: per-stream SeedSequence
    # below _ARRAY_PASS_FROM streams, the uint32 array pass from there on
    data, spec = base_scenario_dataset(n=120)
    v = conditional_exposure_variance(data, spec)
    dist = ErrorVarianceDistribution("triangular", v / 4.0, v / 2.0, mode=v / 3.0)
    cfg = SimexConfig(n_sim=4)
    result = run_sensitivity(data, spec, dist, method, m=m, ci=True, n_boot=50,
                             simex_config=cfg, seed=2**40 + 3)
    tau2 = [draw.tau2 for draw in result.draws]
    assert result.draws == per_draw_loop(data, spec, method, tau2, cfg, 2**40 + 3, ci=True)


@pytest.mark.parametrize("method", ["rc", "simex"])
def test_zero_and_infeasible_tau2_among_the_draws(method, monkeypatch):
    data, spec = base_scenario_dataset(n=150)
    v = conditional_exposure_variance(data, spec)
    # a SIMEX draw at tau2 = 0 draws no noise; RC is infeasible from tau2 = V on
    pattern = [0.0, 12.5, 0.0, v, 30.0, v + 1.0, 0.0, 5.0]
    tau2 = np.array(pattern * 9)  # 72 draws: three SIMEX blocks, the last one partial
    monkeypatch.setattr(sensitivity, "sample_tau2", lambda dist, m, seed: tau2[:m].copy())
    cfg = SimexConfig(n_sim=5)
    dist = ErrorVarianceDistribution("uniform", 0.0, v + 1.0)
    ci = method == "rc"  # an infeasible draw gets no interval
    result = run_sensitivity(data, spec, dist, method, m=len(tau2), ci=ci, n_boot=50,
                             simex_config=cfg, seed=7)
    assert result.draws == per_draw_loop(data, spec, method, tau2.tolist(), cfg, 7, ci=ci)
    statuses = {d.status for d in result.draws}
    assert statuses == ({"ok", "infeasible"} if method == "rc" else {"ok"})


def test_simex_overflow_raises_the_lowest_failing_draws_error(monkeypatch):
    data, spec = base_scenario_dataset(n=150)
    cfg = SimexConfig(n_sim=5)
    tau2 = np.full(80, 20.0)
    # draws 40, 50 and 70 overflow, from the second block on; 40 fails first
    tau2[[40, 50, 70]] = (1.2e308, 1e308, 1.5e308)
    monkeypatch.setattr(sensitivity, "sample_tau2", lambda dist, m, seed: tau2.copy())
    messages = {}
    for index in (40, 50, 70):
        draw_cfg = replace(cfg, seed=draw_seed(_draw_rng(9, index)))
        with pytest.raises(ValueError) as alone:
            correct_simex(data, spec, ErrorVariance(tau2[index]), draw_cfg)
        messages[index] = str(alone.value)
    assert len(set(messages.values())) == 3
    dist = ErrorVarianceDistribution("uniform", 0.0, 1e308)
    with pytest.raises(ValueError) as raised:
        run_sensitivity(data, spec, dist, "simex", m=80, simex_config=cfg, seed=9)
    assert str(raised.value) == messages[40]


@pytest.mark.parametrize("method", ["rc", "simex"])
def test_no_worker_process_without_intervals(method, monkeypatch):
    data, spec = base_scenario_dataset(n=150)
    dist = ErrorVarianceDistribution("triangular", 10.0, 40.0, mode=20.0)
    kwargs = dict(m=40, ci=False, simex_config=SimexConfig(n_sim=5), seed=5)
    serial = run_sensitivity(data, spec, dist, method, **kwargs)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(util, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(util.os, "cpu_count", lambda: 4)
    assert run_sensitivity(data, spec, dist, method, threads=2, **kwargs) == serial
    # intervals do start the pool
    with pytest.raises(AssertionError, match="process pool"):
        run_sensitivity(data, spec, dist, method, threads=2, **{**kwargs, "m": 2, "ci": True,
                                                               "n_boot": 50})


def counting(monkeypatch, module, name, calls=None):
    """Wrap ``module.name`` so each call appends to ``calls``; returns ``calls``."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("method", ["rc", "simex"])
def test_one_preparation_per_analysis(method, monkeypatch):
    data, spec = base_scenario_dataset(n=200)
    prepared = counting(monkeypatch, sensitivity, "prepare_correction")
    counting(monkeypatch, correct, "prepare_correction", prepared)
    full = counting(monkeypatch, correct, f"correct_{method}")
    dist = ErrorVarianceDistribution("uniform", 5.0, 15.0)
    run_sensitivity(data, spec, dist, method, m=15, ci=False,
                    simex_config=SimexConfig(n_sim=5), seed=3)
    assert len(prepared) == 1 and full == []


def test_bootstrap_intervals_still_run_the_full_corrector(monkeypatch):
    data, spec = base_scenario_dataset(n=200)
    full = counting(monkeypatch, correct, "correct_rc")
    dist = ErrorVarianceDistribution("uniform", 5.0, 15.0)
    result = run_sensitivity(data, spec, dist, "rc", m=3, ci=True, n_boot=50, seed=3)
    assert result.summary["n_ok"] == 3
    assert len(full) == 3 * 50


@pytest.mark.parametrize("method", ["rc", "simex"])
def test_prepared_step_equals_corrector(method):
    data, spec = base_scenario_dataset(n=150)
    corrector, apply = correction_steps(method)
    assert corrector is getattr(correct, f"correct_{method}")
    prepared = prepare_correction(data, spec)
    for tau2 in (0.0, 12.5, 30.0):
        cfg = SimexConfig(n_sim=15, seed=int(tau2) + 1)
        fresh = corrector(data, spec, ErrorVariance(tau2), cfg)
        assert apply(prepared, ErrorVariance(tau2), cfg) == fresh


def test_array_steps_equal_each_dataset_alone():
    # dataset 1: tau2 >= V, so RC is infeasible and SIMEX overflows; dataset 2: tau2 = 0
    inputs = correct.CorrectionInputs(slope=np.array([0.15, 0.2, 0.1]),
                                      residual_variance=np.array([90.0, 100.0, 110.0]),
                                      v=np.array([80.0, 30.0, 50.0]), n=200, p=3)
    tau2 = np.array([30.0, 1e308, 0.0])
    cfg = SimexConfig(n_sim=15)
    seeds = (5, 6, 7)
    rc, _, feasible = correct.rc_estimates(inputs, tau2)
    simex, _, simex_errors = correct.simex_estimates(inputs, tau2, cfg, seeds)
    assert feasible.tolist() == [True, False, True] and list(simex_errors) == [1]
    for r in range(3):
        alone = correct.CorrectionInputs(float(inputs.slope[r]),
                                         float(inputs.residual_variance[r]),
                                         float(inputs.v[r]), 200, 3)
        cfg_r = replace(cfg, seed=seeds[r])
        if feasible[r]:
            assert correct._apply_rc(alone, ErrorVariance(tau2[r])).estimate == rc[r]
        else:
            with pytest.raises(InfeasibleCorrectionError):
                correct._apply_rc(alone, ErrorVariance(tau2[r]))
        if r in simex_errors:
            with pytest.raises(ValueError) as raised:
                correct._apply_simex(alone, ErrorVariance(tau2[r]), cfg_r)
            assert str(raised.value) == str(simex_errors[r])
        else:
            assert correct._apply_simex(alone, ErrorVariance(tau2[r]), cfg_r).estimate == simex[r]


def test_correction_steps_reject_unknown_method():
    with pytest.raises(ValueError, match="corrector must be one of"):
        correction_steps("naive")


@pytest.mark.parametrize("method, flags", [
    ("rc", ["--replicates", "bp_star_1,bp_star_2,bp_star_3"]),
    ("simex", ["--exposure", "bp_star_1", "--tau2", "30", "--n-sim", "10"]),
])
def test_correct_reports_the_correctors_own_uncorrected_fit(method, flags, tmp_path,
                                                            monkeypatch, capsys):
    data, spec = base_scenario_dataset(n=150)
    path = tmp_path / "study.csv"
    write_csv_rows(path, data.column_names, data.values)
    out = tmp_path / "correct.json"
    expected = float(fit_uncorrected(data, spec).coefficients[1])
    fits = counting(monkeypatch, linreg, "ols_fit")
    counting(monkeypatch, correct, "ols_fit", fits)
    code = cli.main(["correct", "--input", str(path), "--outcome", "creatinine",
                     "--covariates", "age", "--method", method, *flags, "--n-boot", "0",
                     "--output", str(out)])
    assert code == 0
    assert len(fits) == 2  # the naive and calibration fits; no separate naive fit
    with open(out) as handle:
        assert json.load(handle)["uncorrected_estimate"] == expected
    assert f"uncorrected  {expected:.8g}" in capsys.readouterr().out


def separate_calls(cfg, rep, n_boot, simex_config, level=0.95):
    """``run_repetition``'s result from fresh public calls, one analysis at a time."""
    data = generate_dataset(cfg, rep)
    spec = scenario_spec(cfg.k)
    tau2 = estimate_tau2_from_replicates(data, spec)
    rng = substream(cfg.seed, rep, 1)  # the repetition's seed order: SIMEX, then rc, simex
    cfg_rep = replace(simex_config, seed=draw_seed(rng))
    boot_seeds = {"rc": draw_seed(rng), "simex": draw_seed(rng)}
    fit = fit_uncorrected(data, spec)
    expected = {"uncorrected": (float(fit.coefficients[1]), *wald_interval(fit, 1, level))}
    for method, corrector in (("rc", correct_rc), ("simex", correct_simex)):
        try:
            estimate = corrector(data, spec, tau2, cfg_rep).estimate
            lower = upper = np.nan
            if n_boot:
                lower, upper = bootstrap_ci(data, spec, method, tau2, cfg_rep, n_boot=n_boot,
                                            level=level, seed=boot_seeds[method])
            expected[method] = (estimate, lower, upper)
        except InfeasibleCorrectionError:
            expected[method] = "infeasible"
        except BootstrapError:
            expected[method] = "bootstrap"
    return expected


@pytest.mark.parametrize("name", ["base", "tau2_200", "k_2"])
@pytest.mark.parametrize("n_boot", [0, 50])
def test_repetition_equals_separate_analyses(name, n_boot):
    (cfg,) = [c for c in scenario_grid(n_reps=3, seed=7) if c.name == name]
    simex_config = SimexConfig(n_sim=20)
    for rep in range(cfg.n_reps):
        got = run_repetition(cfg, rep, METHODS, n_boot, 0.95, simex_config)
        expected = separate_calls(cfg, rep, n_boot, simex_config)
        assert got.keys() == expected.keys()
        for method, row in expected.items():
            if isinstance(row, str):
                assert got[method] == row, (name, rep, method)
            else:
                assert np.array_equal(got[method], row, equal_nan=True), (name, rep, method)


def test_repetition_fits_twice(monkeypatch):
    # a block's naive and calibration fits serve all three analyses of every
    # repetition in it: two ols_fit calls per block, whatever its size
    fits = counting(monkeypatch, linreg, "ols_fit")
    counting(monkeypatch, correct, "ols_fit", fits)
    base = replace(scenario_grid(n_reps=1)[0], n=200)
    for n_reps in (1, 2, BLOCK_REPS, BLOCK_REPS + 3):
        fits.clear()
        summary = run_scenario(replace(base, n_reps=n_reps), simex_config=SimexConfig(n_sim=10))
        assert all(perf.n_failures == 0 for perf in summary.methods.values())
        assert len(fits) == 2 * -(-n_reps // BLOCK_REPS), n_reps


def test_singular_repetition_fails_as_before(monkeypatch):
    monkeypatch.setattr(simstudy, "generate_block", constant_age(simstudy.generate_block))
    cfg = replace(scenario_grid(n_reps=1)[0], n=50)
    rest = (0, 0.95, SimexConfig(n_sim=5))
    with pytest.raises(SingularDesignError):
        run_repetition(cfg, 0, METHODS, *rest)
    assert run_repetition(cfg, 0, ("rc", "simex"), *rest) == {"rc": "singular",
                                                               "simex": "singular"}
    with pytest.raises(SingularDesignError):
        run_scenario(replace(cfg, n_reps=3), simex_config=rest[2])
