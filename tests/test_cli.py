import contextlib
import io
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mecalib import cli, util
from mecalib.util import write_csv_rows

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
    write_csv_rows(path, data.column_names, data.values)
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


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_draws_and_n_sim_are_usage_errors(study_csv, tmp_path, value):
    data = ("--input", str(study_csv), "--outcome", "creatinine", "--exposure", "bp_star_1")
    sensitivity = ("sensitivity", *data, "--method", "simex", "--tau2-dist", "uniform",
                   "--tau2-min", "1", "--tau2-max", "5", "--output", str(tmp_path / "s.csv"))
    commands = [
        (("correct", *data, "--method", "simex", "--tau2", "5"), "--n-sim"),
        (sensitivity, "--n-sim"),
        (sensitivity, "--draws"),
    ]
    for command, flag in commands:
        proc = run_cli(*command, flag, value)
        assert proc.returncode == 2, (command[0], flag, proc.stderr)
        assert flag in proc.stderr and "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


def run_main(argv, capsys):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_usage_error(study_csv, tmp_path, threads, capsys):
    data = ("--input", str(study_csv), "--outcome", "creatinine", "--exposure", "bp_star_1")
    commands = [
        ("correct", *data, "--method", "rc", "--tau2", "5", "--output", str(tmp_path / "c.json")),
        ("sensitivity", *data, "--method", "rc", "--tau2-dist", "uniform",
         "--tau2-min", "1", "--tau2-max", "5", "--output", str(tmp_path / "s.csv")),
        ("simulate", "--scenario", "base", "--reps", "2", "--out-dir", str(tmp_path / "o")),
    ]
    for command in commands:
        code, _, err = run_main([*command, "--threads", threads], capsys)
        assert code == 2, (command[0], err)
        assert "--threads" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_only_sensitivity_and_simulate_start_worker_processes(study_csv, tmp_path, capsys,
                                                             monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):  # runs the jobs, in threads
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(util, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(util.os, "cpu_count", lambda: 4)
    data = ("--input", str(study_csv), "--outcome", "creatinine", "--covariates", "age")
    commands = {  # argv, with {out} an output directory -> the pools it starts at --threads 2
        ("correct", *data, "--method", "rc", "--replicates", "bp_star_1,bp_star_2,bp_star_3",
         "--n-boot", "50", "--output", "{out}/c.json"): [],
        ("sensitivity", *data, "--exposure", "bp_star_1", "--method", "rc", "--ci", "on",
         "--n-boot", "50", "--tau2-dist", "uniform", "--tau2-min", "1", "--tau2-max", "5",
         "--draws", "6", "--output", "{out}/s.csv"): [2],
        ("simulate", "--scenario", "base", "--reps", "8", "--out-dir", "{out}"): [2],
    }
    for argv, started in commands.items():
        outputs = []
        for threads in ("1", "2"):
            pools.clear()
            out = tmp_path / argv[0] / threads
            out.mkdir(parents=True)
            code, stdout, err = run_main(
                [arg.format(out=out) for arg in argv] + ["--threads", threads], capsys)
            assert code == 0, err
            assert pools == ([] if threads == "1" else started), argv[0]
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            outputs.append((stdout.replace(str(out), "{out}"), files))
        assert outputs[0] == outputs[1], argv[0]


def test_simulate_without_methods_is_usage_error(tmp_path, capsys):
    code, _, err = run_main(["simulate", "--scenario", "base", "--reps", "2", "--methods", ",",
                             "--out-dir", str(tmp_path / "o")], capsys)
    assert code == 2 and "--methods" in err
    assert not any(tmp_path.iterdir())


def test_handler_usage_errors_print_the_subcommand_usage(study_csv, tmp_path, capsys):
    # errors the handlers raise after parsing read like argparse's own
    data = ["--input", str(study_csv), "--outcome", "creatinine", "--exposure", "bp_star_1"]
    cases = [
        (["correct", *data, "--method", "rc"], "correct",
         "exactly one of --tau2 or --replicates is required"),
        (["sensitivity", *data, "--method", "rc", "--tau2-dist", "triangular",
          "--tau2-min", "1", "--tau2-max", "5", "--output", str(tmp_path / "s.csv")],
         "sensitivity", "--tau2-mode is required for a triangular prior"),
        (["simulate", "--scenario", "bogus", "--out-dir", str(tmp_path / "o")], "simulate",
         "unknown scenario 'bogus'"),
    ]
    for argv, name, message in cases:
        code, _, err = run_main(argv, capsys)
        assert code == 2, name
        assert err.startswith(f"usage: mecalib {name} [-h]"), err
        assert f"\nmecalib {name}: error: {message}" in err
    assert not any(tmp_path.iterdir())


def test_tables_follow_redirected_stdout(study_csv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["fit", "--input", str(study_csv), "--outcome", "creatinine",
                         "--exposure", "bp_star_1"])
    assert code == 0
    header = buffer.getvalue().splitlines()[0]
    assert header.split() == ["term", "coefficient", "std_error"]


# argument values the subcommand rejects; the input does not exist, so exit 2
# shows that the check comes before the CSV is read
GHOST = ("--input", "ghost.csv", "--outcome", "creatinine", "--exposure", "bp_star_1")
CORRECT = ("correct", *GHOST, "--method", "rc", "--tau2", "5")
SENSITIVITY = ("sensitivity", *GHOST, "--method", "rc", "--tau2-dist", "uniform",
               "--output", "s.csv")
BAD_ARGUMENT_VALUES = {
    "tau2_negative": (("correct", *GHOST, "--method", "rc", "--tau2", "-1"),
                      "argument --tau2: tau2 must be nonnegative, got -1.0"),
    "tau2_nan": (("correct", *GHOST, "--method", "simex", "--tau2", "nan"),
                 "argument --tau2: tau2 must be finite, got nan"),
    "tau2_inf": (("correct", *GHOST, "--method", "rc", "--tau2", "inf"),
                 "argument --tau2: tau2 must be finite, got inf"),
    "seed_correct": ((*CORRECT, "--seed", "-1"), "argument --seed: must be nonnegative, got -1"),
    "seed_sensitivity": ((*SENSITIVITY, "--tau2-min", "1", "--tau2-max", "5", "--seed", "-1"),
                         "argument --seed: must be nonnegative, got -1"),
    "seed_simulate": (("simulate", "--scenario", "base", "--reps", "2", "--out-dir", "o",
                       "--seed", "-1"), "argument --seed: must be nonnegative, got -1"),
    "lambda_nan": (("correct", *GHOST, "--method", "simex", "--tau2", "5",
                    "--lambda-grid", "0,0.5,nan"),
                   "--lambda-grid: lambda_grid[2] must be finite, got nan"),
    "lambda_nan_rc": ((*CORRECT, "--lambda-grid", "0,nan"),  # rc checks the grid it ignores
                      "--lambda-grid: lambda_grid[1] must be finite, got nan"),
    "lambda_repeated": ((*CORRECT, "--lambda-grid", "0,1,1"),
                        "--lambda-grid: lambda_grid must be strictly increasing, "
                        "got (0.0, 1.0, 1.0)"),
    "lambda_no_zero": ((*SENSITIVITY, "--tau2-min", "1", "--tau2-max", "5",
                        "--lambda-grid", "1,2"),
                       "--lambda-grid: lambda_grid must start at 0, got (1.0, 2.0)"),
    "prior_min": ((*SENSITIVITY, "--tau2-min", "-5", "--tau2-max", "5"),
                  "tau2 prior: min must be nonnegative (variance units), got -5.0"),
    "prior_max": ((*SENSITIVITY, "--tau2-min", "1", "--tau2-max", "inf"),
                  "tau2 prior: max must be finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENT_VALUES))
def test_bad_argument_values_are_usage_errors_before_any_read(case, tmp_path, capsys,
                                                              monkeypatch):
    argv, message = BAD_ARGUMENT_VALUES[case]
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(list(argv), capsys)
    assert code == 2, err
    assert err.startswith(f"usage: mecalib {argv[0]} [-h]"), err
    assert err.endswith(f"\nmecalib {argv[0]}: error: {message}\n"), err
    assert out == "" and not any(tmp_path.iterdir())


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
    path = tmp_path / "narrow.csv"
    write_csv_rows(path, ("y", "x"), np.column_stack([y, x]))
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


@pytest.mark.parametrize("scenario", [{"tau2": "30"}, {"tau2": None}, {"gamma": [1]},
                                      {"tau2": True}, {"sigma2": "1"}])
def test_non_numeric_scenario_fields_are_runtime_errors(tmp_path, scenario, capsys):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps([scenario]))
    code, out, err = run_main(["simulate", "--scenarios-file", str(path), "--reps", "2",
                               "--out-dir", str(tmp_path / "out")], capsys)
    knob = next(iter(scenario))
    assert code == 1, err
    assert err.startswith(f"mecalib: error during simulation study: {knob} must be a real number")
    assert len(err.splitlines()) == 1 and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("knob", ["tau2", "sigma2", "gamma"])
def test_a_scenario_number_beyond_float64_is_one_error_line(tmp_path, knob):
    path = tmp_path / "f.json"
    path.write_text('[{"%s": %s}]' % (knob, "9" * 400))
    proc = run_cli("simulate", "--scenarios-file", str(path), "--reps", "2",
                   "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (f"mecalib: error during simulation study: {knob} must be within "
                           "float64's range, got a 1329-bit integer\n")
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, message", [
    ({"gamma": 1e307, "n": 50}, "gamma=1e+307 overflows the generated data; lower |gamma|"),
    ({"tau2": 1e306, "n": 50}, "method 'rc' failed on every repetition (infeasible: 3)"),
])
def test_simulate_failure_is_one_line_naming_its_cause(tmp_path, scenario, message):
    # a fresh interpreter with default warning filters: a stray RuntimeWarning would print
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps([scenario]))
    proc = run_cli("simulate", "--scenarios-file", str(path), "--reps", "3",
                   "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr == f"mecalib: error during simulation study: {message}\n"
    assert not (tmp_path / "out").exists()


def test_simulate_all_runs_all_22_scenarios(tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["simulate", "--scenario", "all", "--reps", "1", "--methods",
                         "uncorrected", "--out-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "summaries.json").read_text())
    assert len(payload) == 22
    assert max(entry["scenario"]["n"] for entry in payload) == 10000
    assert "/22] scenario=n_10000 " in out.getvalue()


def test_simulate_has_no_full_option(tmp_path, capsys):
    code, out, err = run_main(["simulate", "--scenario", "base", "--reps", "1", "--full",
                               "--out-dir", str(tmp_path / "o")], capsys)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --full" in err
    assert not any(tmp_path.iterdir())


def sensitivity_argv(csv_path, out, *extra):
    return ["sensitivity", "--input", str(csv_path), "--outcome", "creatinine",
            "--exposure", "bp_star_1", "--method", "rc", "--tau2-dist", "uniform",
            "--tau2-min", "10", "--tau2-max", "20", "--draws", "20", "--seed", "3",
            "--output", str(out), *extra]


def test_sensitivity_n_boot_0_turns_auto_intervals_off(study_csv, tmp_path, capsys):
    auto, off = tmp_path / "auto.csv", tmp_path / "off.csv"
    code, _, err = run_main(sensitivity_argv(study_csv, auto, "--n-boot", "0"), capsys)
    assert code == 0, err
    assert run_main(sensitivity_argv(study_csv, off, "--ci", "off"), capsys)[0] == 0
    rows = auto.read_text().splitlines()[1:]
    assert len(rows) == 20 and all(row.split(",")[2:4] == ["", ""] for row in rows)
    assert auto.read_bytes() == off.read_bytes()


def test_sensitivity_ci_on_with_n_boot_0_is_usage_error(tmp_path, capsys):
    # the input does not exist: the usage error comes before the CSV is read
    argv = sensitivity_argv(tmp_path / "ghost.csv", tmp_path / "s.csv", "--ci", "on",
                            "--n-boot", "0")
    code, _, err = run_main(argv, capsys)
    assert code == 2
    assert "--ci on: n_boot must be at least 50, got 0" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


# --------------------------------------------------------------------------
# one parser per process
# --------------------------------------------------------------------------

@pytest.fixture
def fresh_parser():
    """``cli.main``'s cached parser dropped before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_import_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c", "import mecalib, mecalib.cli as cli; "
         "print(cli._parser.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_main_builds_its_parser_once(study_csv, monkeypatch, capsys, fresh_parser):
    builds = []
    build_parser = cli.build_parser

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    data = ["--input", str(study_csv), "--outcome", "creatinine", "--exposure", "bp_star_1"]
    for _ in range(5):
        assert run_main(["fit", *data], capsys)[0] == 0
        assert run_main(["fit", *data, "--bogus"], capsys)[0] == 2
    assert len(builds) == 1
    assert build_parser() is not build_parser()  # the public builder stays fresh per call


def test_options_of_one_call_do_not_reach_the_next(study_csv, tmp_path, capsys, fresh_parser):
    data = ["--input", str(study_csv), "--outcome", "creatinine", "--exposure", "bp_star_1"]
    out = tmp_path / "coefs.csv"
    code, first, _ = run_main(["fit", *data, "--covariates", "age", "--output", str(out)], capsys)
    assert code == 0 and "age" in first and "wrote" in first
    out.unlink()
    code, second, _ = run_main(["fit", *data], capsys)
    assert code == 0 and "age" not in second and "wrote" not in second
    assert not any(tmp_path.iterdir())

    result = tmp_path / "rc.json"
    correct = ["correct", *data, "--method", "rc", "--tau2", "15"]
    assert run_main([*correct, "--n-boot", "60", "--output", str(result)], capsys)[0] == 0
    assert json.loads(result.read_text())["level"] == 0.95
    result.unlink()
    code, out_text, _ = run_main(correct, capsys)
    assert code == 0 and "wrote" not in out_text
    assert out_text.splitlines()[3].split()[2:] == ["-", "-"]  # rc row: no interval
    assert not any(tmp_path.iterdir())


def test_usage_error_leaves_later_calls_unchanged(study_csv, tmp_path, capsys, fresh_parser):
    data = ["--input", str(study_csv), "--outcome", "creatinine", "--exposure", "bp_star_1"]
    fit = ["fit", *data, "--covariates", "age"]
    code, expected, _ = run_main(fit, capsys)
    assert code == 0
    bad_calls = [
        ["fit"],
        ["fit", *data, "--bogus"],
        ["correct", *data, "--method", "rc"],  # rejected by the handler: no tau2 source
        sensitivity_argv(study_csv, tmp_path / "s.csv", "--ci", "on", "--n-boot", "0"),
    ]
    for argv in bad_calls:
        assert run_main(argv, capsys)[0] == 2, argv
        assert run_main(fit, capsys) == (0, expected, "")
    assert not any(tmp_path.iterdir())


def test_one_process_writes_what_fresh_processes_write(study_csv, tmp_path, capsys,
                                                       fresh_parser):
    def commands(out):
        data = ("--input", str(study_csv), "--outcome", "creatinine", "--exposure", "bp_star_1")
        return [
            ("fit", *data, "--covariates", "age", "--output", str(out / "fit.csv")),
            ("correct", *data, "--method", "rc", "--tau2", "15", "--n-boot", "60",
             "--output", str(out / "rc.json")),
            ("correct", "--input", str(study_csv), "--outcome", "creatinine", "--method",
             "simex", "--replicates", "bp_star_1,bp_star_2", "--n-sim", "10",
             "--output", str(out / "simex.json")),
            tuple(sensitivity_argv(study_csv, out / "sens.csv", "--n-boot", "50")),
            tuple(sensitivity_argv(study_csv, out / "sens0.csv", "--n-boot", "0")),
        ]

    one, fresh = tmp_path / "one", tmp_path / "fresh"
    one.mkdir()
    fresh.mkdir()
    for in_process, command in zip(commands(one), commands(fresh)):
        code, out_text, err = run_main(list(in_process), capsys)
        assert code == 0, err
        proc = run_cli(*command)
        assert proc.returncode == 0, proc.stderr
        assert out_text.replace(str(one), "OUT") == proc.stdout.replace(str(fresh), "OUT")
    names = sorted(path.name for path in one.iterdir())
    assert names == sorted(path.name for path in fresh.iterdir()) and len(names) == 7
    for name in names:
        assert (one / name).read_bytes() == (fresh / name).read_bytes(), name


def test_help_is_the_same_on_every_call(monkeypatch, capsys, fresh_parser):
    monkeypatch.setenv("COLUMNS", "100")
    for argv in (["--help"], ["sensitivity", "--help"]):
        first = run_main(argv, capsys)
        assert first[0] == 0 and "--help" in first[1]
        assert run_main(argv, capsys) == first
    assert run_main(["--help"], capsys)[1] == cli.build_parser().format_help()
