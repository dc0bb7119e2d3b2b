"""The simulation study's blocks against each repetition analysed on its own.

``run_scenario`` analyses its repetitions in blocks: two stacked fits and one
array pass of each correction per block.  Every repetition must get the
estimates, intervals and failures that ``conftest.run_repetition`` (one
repetition through the public API) gives it, bit for bit, whatever the block
size or the number of worker processes.
"""

import json
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import mecalib.simstudy as simstudy
from mecalib import (
    Dataset,
    ErrorVariance,
    ScenarioConfig,
    SimexConfig,
    SingularDesignError,
    correct_simex,
    emit_study_report,
    estimate_tau2_from_replicates,
    generate_dataset,
    run_scenario,
    scenario_spec,
)
from mecalib.simstudy import (
    AGE_EFFECT,
    AGE_MEAN,
    AGE_VAR,
    BLOCK_REPS,
    BP_INTERCEPT,
    BP_VAR_GIVEN_AGE,
    FAILURE_REASONS,
    METHODS,
    OUTCOME_INTERCEPT,
    TRUE_EFFECT,
    _block_bounds,
    _prepare_block,
    _run_block,
    _summarize_method,
    scenario_grid,
)
from mecalib.util import substream

from conftest import constant_age, run_repetition

SIMEX = SimexConfig(n_sim=20)
METHOD_SETS = [METHODS, ("rc", "simex"), ("uncorrected", "simex"), ("uncorrected",), ("rc",)]


def small_grid(n_reps, seed=11):
    """The 22 scenarios, the n=10000 one cut to n=300."""
    return [replace(cfg, n=300) if cfg.n > 1000 else cfg
            for cfg in scenario_grid(n_reps=n_reps, seed=seed)]


def same(row, expected):
    """Equal outcomes: the same failure reason, or the same numbers bit for bit."""
    if isinstance(expected, str) or isinstance(row, str):
        return row == expected
    return np.array_equal(row, expected, equal_nan=True)


def one_by_one(job):
    """The rows of a block, each repetition run as a block of one."""
    cfg, start, stop, *rest = job
    return [row for rep in range(start, stop) for row in _run_block((cfg, rep, rep + 1, *rest))]


def assert_rows_match_alone(cfg, rows, methods, n_boot):
    assert len(rows) == cfg.n_reps
    for rep, row in enumerate(rows):
        expected = run_repetition(cfg, rep, methods, n_boot, 0.95, SIMEX)
        assert row.keys() == expected.keys()
        for method in methods:
            assert same(row[method], expected[method]), (cfg.name, rep, method)


def test_blocks_equal_repetitions_alone_over_the_grid():
    for i, cfg in enumerate(small_grid(n_reps=4)):
        methods = METHOD_SETS[i % len(METHOD_SETS)]
        for chosen in {methods, METHODS}:
            rows = _run_block((cfg, 0, cfg.n_reps, chosen, 0, 0.95, SIMEX))
            assert_rows_match_alone(cfg, rows, chosen, 0)


@pytest.mark.parametrize("methods", [("rc", "simex"), ("uncorrected", "rc")])
def test_blocks_with_bootstrap_equal_repetitions_alone(methods):
    for cfg in small_grid(n_reps=2)[::5]:
        rows = _run_block((cfg, 0, cfg.n_reps, methods, 50, 0.95, SIMEX))
        assert_rows_match_alone(cfg, rows, methods, 50)


@pytest.mark.parametrize("n_boot", [0, 50])
def test_block_of_one_equals_the_full_block(n_boot):
    for cfg in small_grid(n_reps=5)[:: 4 if n_boot else 1]:
        job = (cfg, 0, cfg.n_reps, METHODS, n_boot, 0.95, SIMEX)
        assert one_by_one(job) == _run_block(job), cfg.name


def reference_values(cfg, rep):
    """One repetition's values, drawn alone from sub-stream (seed, rep) in the documented order."""
    rng = substream(cfg.seed, rep)
    n, k = cfg.n, cfg.k
    age = rng.normal(AGE_MEAN, np.sqrt(AGE_VAR), n)
    bp = BP_INTERCEPT + cfg.gamma * age + rng.normal(0.0, np.sqrt(BP_VAR_GIVEN_AGE), n)
    replicate_errors = rng.normal(0.0, np.sqrt(cfg.tau2), (n, k))
    creatinine = (OUTCOME_INTERCEPT + TRUE_EFFECT * bp + AGE_EFFECT * age
                  + rng.normal(0.0, np.sqrt(cfg.sigma2), n))
    return np.column_stack([creatinine, bp[:, None] + replicate_errors, age])


def test_block_stack_and_tau2_equal_each_repetition_alone():
    # k=10 among the scenarios: there the summation order of tau2 depends on
    # how each repetition's replicate columns are laid out in memory
    for cfg in small_grid(n_reps=20):
        for reps in (range(0, 20), range(7, 9)):
            values = simstudy.generate_block(cfg, reps)
            spec, _, tau2, *_ = _prepare_block(cfg, reps, METHODS, 0)
            assert values.shape == (len(reps), cfg.n, cfg.k + 2)
            for r, rep in enumerate(reps):
                alone = Dataset(spec.all_columns(), reference_values(cfg, rep))
                assert np.array_equal(values[r], alone.values), (cfg.name, rep)
                assert np.array_equal(generate_dataset(cfg, rep).values, alone.values)
                assert tau2[r] == estimate_tau2_from_replicates(alone, spec), (cfg.name, rep)


def as_text(summary):
    """A summary as JSON text: NaN metrics (no intervals) compare equal."""
    return json.dumps(asdict(summary))


@pytest.mark.parametrize("n_boot", [0, 50])
def test_results_do_not_depend_on_threads(n_boot):
    cfg = replace(scenario_grid(n_reps=6, seed=3)[0], n=150)
    kwargs = dict(n_boot=n_boot, simex_config=SIMEX)
    serial = run_scenario(cfg, **kwargs)
    assert as_text(run_scenario(cfg, threads=2, **kwargs)) == as_text(serial)
    rc_only = run_scenario(cfg, methods=("rc",), threads=2, **kwargs)
    assert as_text(rc_only.methods["rc"]) == as_text(serial.methods["rc"])


def test_block_bounds():
    assert _block_bounds(1, 1) == [(0, 1)]
    assert _block_bounds(20, 1) == [(0, 20)]
    assert _block_bounds(20, 2) == [(0, 10), (10, 20)]
    assert _block_bounds(5, 4) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert _block_bounds(5, 0) == [(0, 5)]
    bounds = _block_bounds(1000, 1)
    assert len(bounds) == -(-1000 // BLOCK_REPS)
    assert bounds[0] == (0, BLOCK_REPS) and bounds[-1][1] == 1000
    for n_reps in (1, 7, 64, 1000):
        for threads in (1, 2, 3, 8):
            bounds = _block_bounds(n_reps, threads)
            assert len(bounds) >= min(threads, n_reps)
            assert [start for start, _ in bounds[1:]] == [stop for _, stop in bounds[:-1]]
            assert all(0 < stop - start <= BLOCK_REPS for start, stop in bounds)


def test_singular_repetition_inside_a_block(monkeypatch):
    monkeypatch.setattr(simstudy, "generate_block", constant_age(simstudy.generate_block, {2}))
    cfg = replace(scenario_grid(n_reps=5, seed=4)[0], n=80)
    rows = _run_block((cfg, 0, 5, ("rc", "simex"), 0, 0.95, SIMEX))
    assert rows[2] == {"rc": "singular", "simex": "singular"}
    assert_rows_match_alone(cfg, rows, ("rc", "simex"), 0)
    monkeypatch.setattr(simstudy, "MAX_FAILURE_FRACTION", 1.0)
    summary = run_scenario(cfg, methods=("rc", "simex"), simex_config=SIMEX)
    for perf in summary.methods.values():
        assert perf.failures == {"infeasible": 0, "singular": 1, "bootstrap": 0}
        assert perf.n_failures == 1 and perf.n_reps_used == 4
    with pytest.raises(SingularDesignError):
        _run_block((cfg, 0, 5, METHODS, 0, 0.95, SIMEX))


def test_constant_age_fails_every_correction_as_singular(monkeypatch):
    monkeypatch.setattr(simstudy, "generate_block", constant_age(simstudy.generate_block))
    cfg = replace(scenario_grid(n_reps=3)[0], n=50)
    rows = [row["rc"] for row in _run_block((cfg, 0, 3, ("rc", "simex"), 0, 0.95, SIMEX))]
    assert rows == ["singular"] * 3
    failures = _summarize_method("rc", rows + [(0.2, np.nan, np.nan)], 4).failures
    assert failures == {"infeasible": 0, "singular": 3, "bootstrap": 0}


def test_simex_overflow_in_a_block_aborts_with_the_same_error(monkeypatch):
    # No dataset's replicates estimate tau2 = 1e308 (their sum of squares
    # overflows first), so the block's tau2 step is replaced.
    estimate = simstudy.replicate_tau2
    data_of_rep_3 = simstudy.generate_dataset(scenario_grid(n_reps=6)[0], 3)
    replicates_of_rep_3 = data_of_rep_3.columns(scenario_spec(3).exposure_replicates)

    def huge_at_rep_3(replicates):
        tau2 = np.array(estimate(replicates))
        for r, block in enumerate(replicates):
            if np.array_equal(block, replicates_of_rep_3):
                tau2[r] = 1e308
        return tau2

    monkeypatch.setattr(simstudy, "replicate_tau2", huge_at_rep_3)
    cfg = scenario_grid(n_reps=6)[0]
    with pytest.raises(ValueError) as alone:
        correct_simex(data_of_rep_3, scenario_spec(cfg.k), ErrorVariance(1e308), SIMEX)
    assert "tau2=1e+308" in str(alone.value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as blocked:
            run_scenario(cfg, simex_config=SIMEX)
        assert str(blocked.value) == str(alone.value)
        # RC alone meets only an infeasible repetition
        monkeypatch.setattr(simstudy, "MAX_FAILURE_FRACTION", 0.5)
        summary = run_scenario(cfg, methods=("rc",))
    assert summary.methods["rc"].failures["infeasible"] == 1


def test_failures_by_reason_match_repetitions_alone(tmp_path, monkeypatch):
    # tau2 = 200 at n = 60: some calibrations are infeasible and some
    # bootstraps lose more than 10% of their replicates
    cfg = ScenarioConfig(name="tau2_200_n60", tau2=200.0, n=60, n_reps=12, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # dropped bootstrap replicates
        monkeypatch.setattr(simstudy, "MAX_FAILURE_FRACTION", 1.0)
        summary = run_scenario(cfg, methods=("uncorrected", "rc"), n_boot=50)
        alone = [run_repetition(cfg, rep, ("uncorrected", "rc"), 50, 0.95, SimexConfig())
                 for rep in range(cfg.n_reps)]
    expected = dict.fromkeys(FAILURE_REASONS, 0)
    for row in alone:
        if isinstance(row["rc"], str):
            expected[row["rc"]] += 1
    rc = summary.methods["rc"]
    assert rc.failures == expected
    assert expected["infeasible"] > 0 and expected["bootstrap"] > 0
    assert rc.n_failures == sum(expected.values()) == cfg.n_reps - rc.n_reps_used
    assert summary.methods["uncorrected"].failures == dict.fromkeys(FAILURE_REASONS, 0)

    emit_study_report([summary], tmp_path)
    with open(tmp_path / "summaries.json") as handle:
        written = json.load(handle)[0]["methods"]["rc"]
    assert written["failures"] == expected and written["n_failures"] == rc.n_failures
