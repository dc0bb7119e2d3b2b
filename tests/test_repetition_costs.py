"""The per-repetition fast paths against the computations they replace.

The SIMEX lambda pass is checked against the per-lambda loop it replaced,
``extrapolate`` against a fresh least-squares fit, and the import graph for
the absence of any ``scipy`` module from ``import mecalib`` and from the
fit, correct and sensitivity commands.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mecalib
import mecalib.simstudy as simstudy
from mecalib import (
    ErrorVariance,
    ScenarioConfig,
    SimexConfig,
    correct_simex,
    estimate_tau2_from_replicates,
    generate_dataset,
)
from mecalib.correct import prepare_correction, replicate_tau2
from mecalib.util import substream, write_csv_rows

from conftest import base_scenario_dataset, extrapolate, simex_estimates_per_lambda

SRC = Path(mecalib.__file__).resolve().parents[1]


def run_python(*args):
    """A fresh interpreter that imports this checkout of mecalib."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def per_lambda_loop(prepared, tau2, cfg):
    """The lambda map one lambda at a time, as the study computed it before."""
    uncorrected, residual_variance, v, n, p = prepared
    df = n - p
    a = math.sqrt(v * (df + 1))
    b = uncorrected * a
    c = math.sqrt(residual_variance * df)
    rest_df = df - 1
    estimates = {0.0: uncorrected}
    for i, lam in enumerate(cfg.lambda_grid[1:], start=1):
        rng = substream(cfg.seed, i)
        sd = math.sqrt(lam * tau2.tau2)
        z1, z2 = rng.standard_normal((2, cfg.n_sim))
        rest = rng.chisquare(rest_df, cfg.n_sim) if rest_df > 0 else 0.0
        coefs = (a * b + sd * (b * z1 + c * z2)) / (
            a * a + 2.0 * sd * a * z1 + sd * sd * (z1 * z1 + z2 * z2 + rest)
        )
        estimates[lam] = float(coefs.mean())
    return estimates


@pytest.mark.parametrize("n", [4, 60, 500])  # n = 4: no residual dimension left (rest_df = 0)
@pytest.mark.parametrize("n_sim", [1, 100])
@pytest.mark.parametrize("grid", [(0.0, 0.5, 1.0, 1.5, 2.0), (0.0, 0.25, 1.0, 3.0)])
def test_lambda_pass_equals_per_lambda_loop(n, n_sim, grid):
    for seed in (0, 5, 2**40):
        data, spec = base_scenario_dataset(n=n, seed=seed % 97)
        prepared = prepare_correction(data, spec)
        tau2 = estimate_tau2_from_replicates(data, spec)
        cfg = SimexConfig(lambda_grid=grid, n_sim=n_sim, seed=seed)
        got = simex_estimates_per_lambda(data, spec, tau2, cfg)
        assert got == per_lambda_loop(prepared, tau2, cfg)
        assert list(got) == list(grid)


def lstsq_extrapolation(points, degree):
    lambdas = np.array(sorted(points))
    values = np.array([points[lam] for lam in lambdas])
    basis = np.vander(lambdas, degree + 1, increasing=True)
    coefficients, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return float(np.polynomial.polynomial.polyval(-1.0, coefficients)), coefficients


def test_extrapolate_matches_lstsq_on_alternating_grids():
    grids = [(0.0, 0.5, 1.0, 1.5, 2.0), (0.0, 1.0, 2.0), (0.0, 0.25, 0.5, 1.0, 3.0, 4.0),
             (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)]
    rng = np.random.default_rng(12)
    for _ in range(25):
        for grid in grids:  # one grid after another: no weights may leak between them
            values = 0.2 / (1.0 + 0.6 * (1.0 + np.array(grid))) + rng.normal(0.0, 0.01, len(grid))
            points = dict(zip(reversed(grid), reversed(values.tolist())))  # order-free
            for extrapolant, degree in (("linear", 1), ("quadratic", 2)):
                estimate, coefficients = extrapolate(points, extrapolant)
                oracle, oracle_coefficients = lstsq_extrapolation(points, degree)
                assert estimate == pytest.approx(oracle, rel=1e-12)
                assert coefficients == pytest.approx(oracle_coefficients, rel=1e-12)
                assert coefficients.shape == (degree + 1,)


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_leaves_scipy_stats_out():
    proc = run_python("-c", "import sys, mecalib.cli; "
                      "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules, "
                      f"{SCIPY_MODULES})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False []"


def test_import_leaves_the_process_pool_out():
    # parallel_map imports concurrent.futures, and with it multiprocessing, for a pool only
    proc = run_python("-c", "import sys, mecalib, mecalib.cli; print(sorted(m for m in "
                      "sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fit_correct_and_sensitivity_processes_load_no_scipy(tmp_path):
    data, _ = base_scenario_dataset(n=150)
    path = tmp_path / "d.csv"
    write_csv_rows(path, data.column_names, data.values)
    common = ["--input", str(path), "--outcome", "creatinine", "--exposure", "bp_star_1"]
    sensitivity = ["sensitivity", *common, "--tau2-dist", "uniform", "--tau2-min", "5",
                   "--tau2-max", "10", "--draws", "5"]
    commands = [
        ["fit", *common],
        ["correct", *common, "--method", "rc", "--tau2", "15", "--n-boot", "50"],
        ["correct", *common, "--method", "simex", "--tau2", "15", "--n-sim", "10",
         "--n-boot", "50"],
        [*sensitivity, "--method", "rc", "--n-boot", "50", "--output", str(tmp_path / "rc.csv")],
        [*sensitivity, "--method", "simex", "--n-sim", "10",
         "--output", str(tmp_path / "simex.csv")],
    ]
    for argv in commands:
        proc = run_python("-c", "import sys; from mecalib.cli import main; "
                          f"code = main(sys.argv[1:]); print({SCIPY_MODULES}); sys.exit(code)",
                          *argv)
        assert proc.returncode == 0, (argv[0], proc.stderr)
        assert proc.stdout.splitlines()[-1] == "[]", argv


def test_generate_dataset_keeps_its_array(monkeypatch):
    made = []
    generate_block = simstudy.generate_block

    def recording(cfg, reps):
        made.append(generate_block(cfg, reps))
        return made[-1]

    monkeypatch.setattr(simstudy, "generate_block", recording)
    data = generate_dataset(ScenarioConfig(n=50, n_reps=1), 0)
    assert data.values.base is made[-1]
    assert not data.values.flags.writeable


def test_simex_overflow_raises_naming_tau2():
    data, spec = base_scenario_dataset(n=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"tau2=1e\+308"):
            correct_simex(data, spec, ErrorVariance(1e308), SimexConfig(seed=3))
        # large but representable: still a finite result
        result = correct_simex(data, spec, ErrorVariance(1e6), SimexConfig(seed=3))
    assert all(map(math.isfinite, result.diagnostics["lambda_estimates"].values()))
    assert math.isfinite(result.estimate)


def test_simex_overflow_is_a_cli_runtime_error(tmp_path):
    data, _ = base_scenario_dataset(n=150)
    path = tmp_path / "d.csv"
    write_csv_rows(path, data.column_names, data.values)
    out = tmp_path / "big.json"
    proc = run_python(
        "-W", "error::RuntimeWarning", "-m", "mecalib.cli", "correct",
        "--input", str(path), "--outcome", "creatinine", "--exposure", "bp_star_1",
        "--tau2", "1e308", "--method", "simex", "--output", str(out),
    )
    assert proc.returncode == 1, proc.stderr
    assert "tau2=1e+308" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


REPLICATE_OVERFLOW = ("the replicate measurements' squared deviations overflow float64; "
                      "rescale the exposure")


@pytest.mark.parametrize("rows", [
    [[1e200, -1e200, 3.0], [1.0, 2.0, 3.0]],    # a squared deviation overflows
    [[1.7e308, 1.7e308, 1.7e308], [1.0, 2.0, 4.0]],  # so does the row sum behind the mean
    [[1e153, -1e153, 0.0]] * 100,                # each row is finite, their sum is not
])
def test_overflowing_replicates_raise_one_value_error(rows):
    replicates = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            replicate_tau2(replicates)
    assert str(excinfo.value) == REPLICATE_OVERFLOW


def test_finite_replicate_tau2_is_unchanged():
    # the estimate before the overflow guard, on a stack and on one block
    replicates = generate_dataset(ScenarioConfig(n=300), 2).values[:, 1:4]
    for block in (replicates, np.stack([replicates, replicates[::-1] * 1e150])):
        deviations = block - block.mean(axis=-1, keepdims=True)
        sums = np.add.reduce(deviations * deviations, axis=-1)
        expected = np.add.reduce(sums, axis=-1) / (sums.shape[-1] * 2)
        assert np.array_equal(replicate_tau2(block), expected)


@pytest.mark.parametrize("scenario", ['[{"gamma": 1e200, "n": 50}]', '[{"tau2": 1e308, "n": 50}]'])
def test_simulated_replicate_overflow_is_one_line(tmp_path, scenario):
    path = tmp_path / "scenarios.json"
    path.write_text(scenario)
    for flags in ((), ("-W", "error::RuntimeWarning")):
        proc = run_python(*flags, "-m", "mecalib.cli", "simulate", "--scenarios-file", str(path),
                          "--reps", "3", "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == f"mecalib: error during simulation study: {REPLICATE_OVERFLOW}\n"
        assert not (tmp_path / "out").exists()


def test_replicate_overflow_is_a_cli_runtime_error(tmp_path):
    data, _ = base_scenario_dataset(n=60)
    values = data.values.copy()
    values[7, 1:4] = (1e200, -1e200, 5.0)
    path = tmp_path / "huge.csv"
    write_csv_rows(path, data.column_names, values)
    out = tmp_path / "out.json"
    for flags in ((), ("-W", "error::RuntimeWarning")):
        proc = run_python(*flags, "-m", "mecalib.cli", "correct", "--input", str(path),
                          "--outcome", "creatinine", "--replicates",
                          "bp_star_1,bp_star_2,bp_star_3", "--method", "rc", "--output", str(out))
        assert proc.returncode == 1
        assert proc.stderr.endswith(f": {REPLICATE_OVERFLOW}\n")
        assert len(proc.stderr.splitlines()) == 1 and not out.exists()
