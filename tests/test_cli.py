import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from mecalib import cli
from mecalib.data import write_csv

from conftest import base_scenario_dataset


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mecalib.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture(scope="module")
def study_csv(tmp_path_factory):
    data, _ = base_scenario_dataset(n=150)
    path = tmp_path_factory.mktemp("cli") / "study.csv"
    write_csv(data, path)
    return path


def test_fit_happy_path(study_csv):
    proc = run_cli(
        "fit", "--input", str(study_csv), "--outcome", "creatinine",
        "--exposure", "bp_star_1", "--covariates", "age",
    )
    assert proc.returncode == 0, proc.stderr
    assert "coefficient" in proc.stdout
    assert "bp_star_1" in proc.stdout
    assert "r_squared" in proc.stdout


def test_fit_writes_output(study_csv, tmp_path):
    out = tmp_path / "coefs.csv"
    proc = run_cli(
        "fit", "--input", str(study_csv), "--outcome", "creatinine",
        "--exposure", "bp_star_1", "--output", str(out),
    )
    assert proc.returncode == 0
    header = out.read_text().splitlines()[0]
    assert header == "term,coefficient,std_error"


def test_fit_unknown_column_is_runtime_error(study_csv):
    proc = run_cli(
        "fit", "--input", str(study_csv), "--outcome", "creatinine",
        "--exposure", "nope",
    )
    assert proc.returncode == 1
    assert "column not found" in proc.stderr
    assert "fitting" in proc.stderr


def test_missing_input_file_is_runtime_error(tmp_path):
    proc = run_cli(
        "fit", "--input", str(tmp_path / "ghost.csv"), "--outcome", "y",
        "--exposure", "x",
    )
    assert proc.returncode == 1


def test_usage_errors_exit_2(study_csv):
    assert run_cli().returncode == 2
    assert run_cli("fit").returncode == 2
    assert run_cli("correct", "--input", str(study_csv), "--outcome", "creatinine",
                   "--method", "rc").returncode == 2  # no tau2 source
    proc = run_cli(
        "correct", "--input", str(study_csv), "--outcome", "creatinine",
        "--method", "rc", "--tau2", "5", "--replicates", "bp_star_1,bp_star_2",
    )
    assert proc.returncode == 2  # both sources
    assert run_cli("simulate", "--scenario", "bogus").returncode == 2


@pytest.mark.parametrize("n_boot", ["1", "49", "-5"])
def test_too_small_n_boot_is_usage_error(study_csv, tmp_path, n_boot):
    data = ("--input", str(study_csv), "--outcome", "creatinine", "--exposure", "bp_star_1")
    commands = [
        ("correct", *data, "--method", "rc", "--tau2", "5"),
        ("sensitivity", *data, "--method", "rc", "--tau2-dist", "uniform",
         "--tau2-min", "1", "--tau2-max", "5", "--output", str(tmp_path / "s.csv")),
        ("simulate", "--scenario", "base", "--reps", "2", "--out-dir", str(tmp_path / "o")),
    ]
    for command in commands:
        proc = run_cli(*command, "--n-boot", n_boot)
        assert proc.returncode == 2, (command[0], proc.stderr)
        assert "--n-boot" in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("level", ["0", "1", "1.5", "nan", "-0.1"])
def test_level_outside_unit_interval_is_usage_error(study_csv, tmp_path, level):
    data = ("--input", str(study_csv), "--outcome", "creatinine", "--exposure", "bp_star_1")
    commands = [
        ("correct", *data, "--method", "rc", "--tau2", "5", "--output", str(tmp_path / "c.json")),
        ("sensitivity", *data, "--method", "rc", "--tau2-dist", "uniform",
         "--tau2-min", "1", "--tau2-max", "5", "--output", str(tmp_path / "s.csv")),
        ("simulate", "--scenario", "base", "--reps", "2", "--out-dir", str(tmp_path / "o")),
    ]
    for command in commands:
        proc = run_cli(*command, "--level", level)
        assert proc.returncode == 2, (command[0], proc.stderr)
        assert "--level" in proc.stderr and "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_non_positive_reps_is_usage_error(tmp_path, reps):
    out_dir = tmp_path / "o"
    proc = run_cli("simulate", "--scenario", "base", "--reps", reps, "--out-dir", str(out_dir))
    assert proc.returncode == 2, proc.stderr
    assert "--reps" in proc.stderr and "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


def test_tables_follow_redirected_stdout(study_csv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["fit", "--input", str(study_csv), "--outcome", "creatinine",
                         "--exposure", "bp_star_1"])
    assert code == 0
    header = buffer.getvalue().splitlines()[0]
    assert header.split() == ["term", "coefficient", "std_error"]


def test_non_finite_lambda_is_runtime_error(study_csv):
    proc = run_cli(
        "correct", "--input", str(study_csv), "--outcome", "creatinine",
        "--exposure", "bp_star_1", "--method", "simex", "--tau2", "5",
        "--lambda-grid", "0,0.5,nan",
    )
    assert proc.returncode == 1
    assert "lambda_grid" in proc.stderr and "Traceback" not in proc.stderr


def test_help_documents_defaults():
    for sub in ("fit", "correct", "sensitivity", "simulate"):
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        assert "--help" in proc.stdout
    correct_help = run_cli("correct", "--help").stdout
    assert "default: 100" in correct_help       # n-sim
    assert "default: 0.95" in correct_help      # level
    assert "0.0, 0.5, 1.0, 1.5, 2.0" in correct_help
    assert "default: 1729" in correct_help      # seed


def test_correct_rc_with_replicates(study_csv, tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli(
        "correct", "--input", str(study_csv), "--outcome", "creatinine",
        "--method", "rc", "--replicates", "bp_star_1,bp_star_2,bp_star_3",
        "--covariates", "age", "--n-boot", "60", "--seed", "5",
        "--output", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "correction_factor" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["method"] == "rc"
    assert payload["tau2_source"] == "replicates"
    assert payload["ci_lower"] < payload["estimate"] < payload["ci_upper"]


def test_correct_simex_prints_lambda_table(study_csv):
    proc = run_cli(
        "correct", "--input", str(study_csv), "--outcome", "creatinine",
        "--method", "simex", "--replicates", "bp_star_1,bp_star_2,bp_star_3",
        "--covariates", "age", "--n-sim", "10", "--seed", "5",
    )
    assert proc.returncode == 0, proc.stderr
    assert "lambda" in proc.stdout
    assert "mean_estimate" in proc.stdout


def test_correct_infeasible_tau2_message(tmp_path):
    # conditional exposure variance around 20, assumed tau2 is 30
    rng = np.random.default_rng(2)
    x = rng.normal(0.0, np.sqrt(20.0), 200)
    y = 1.0 + 0.5 * x + rng.normal(size=200)
    from mecalib import Dataset

    path = tmp_path / "narrow.csv"
    write_csv(Dataset(("y", "x"), np.column_stack([y, x])), path)
    proc = run_cli(
        "correct", "--input", str(path), "--outcome", "y", "--exposure", "x",
        "--method", "rc", "--tau2", "30",
    )
    assert proc.returncode == 1
    assert "infeasible correction: tau2 (30) >= conditional exposure variance" in proc.stderr


def test_sensitivity_writes_plot_data(study_csv, tmp_path):
    out = tmp_path / "sens.csv"
    proc = run_cli(
        "sensitivity", "--input", str(study_csv), "--outcome", "creatinine",
        "--exposure", "bp_star_1", "--covariates", "age",
        "--method", "rc", "--tau2-dist", "triangular",
        "--tau2-min", "10", "--tau2-mode", "20", "--tau2-max", "30",
        "--draws", "20", "--ci", "off", "--seed", "3", "--output", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    sidecar = json.loads((tmp_path / "sens.json").read_text())
    assert sidecar["distribution"]["mode"] == 20.0
    assert sidecar["summary"]["n_ok"] == 20


def test_sensitivity_requires_mode_for_triangular(study_csv, tmp_path):
    proc = run_cli(
        "sensitivity", "--input", str(study_csv), "--outcome", "creatinine",
        "--exposure", "bp_star_1", "--method", "rc", "--tau2-dist", "triangular",
        "--tau2-min", "10", "--tau2-max", "30",
        "--output", str(tmp_path / "x.csv"),
    )
    assert proc.returncode == 2


def test_sensitivity_unwritable_output_leaves_no_file(study_csv, tmp_path):
    out = tmp_path / "no_such_dir" / "sens.csv"
    proc = run_cli(
        "sensitivity", "--input", str(study_csv), "--outcome", "creatinine",
        "--exposure", "bp_star_1", "--method", "rc", "--tau2-dist", "uniform",
        "--tau2-min", "10", "--tau2-max", "30", "--draws", "5", "--ci", "off",
        "--output", str(out),
    )
    assert proc.returncode == 1
    assert not out.exists()


def test_simulate_single_scenario_deterministic_files(tmp_path):
    args = (
        "simulate", "--scenario", "base", "--reps", "30", "--seed", "7",
        "--methods", "uncorrected,rc",
    )
    first = run_cli(*args, "--out-dir", str(tmp_path / "a"))
    second = run_cli(*args, "--out-dir", str(tmp_path / "b"))
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    a = (tmp_path / "a" / "summaries.json").read_bytes()
    b = (tmp_path / "b" / "summaries.json").read_bytes()
    assert a == b
    assert "percent_bias" in first.stdout


def test_simulate_scenarios_file(tmp_path):
    scenarios = [{"name": "quick", "tau2": 10.0, "n": 80, "n_reps": 5}]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(scenarios))
    proc = run_cli(
        "simulate", "--scenarios-file", str(path), "--methods", "uncorrected",
        "--out-dir", str(tmp_path / "out"),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "out" / "summaries.json").read_text())
    assert payload[0]["scenario"]["name"] == "quick"
