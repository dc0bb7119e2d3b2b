"""The three benchmark workloads: their inputs, their ops and their output checks.

Each op is one in-process ``mecalib.cli.main(argv)`` call, the command a
user types.  A workload builds its inputs from the workload seed, hands the
program only those inputs (command-line arguments and files), and checks
every op's output files and printed tables against :mod:`reference`.
Checks that cannot be exact (bootstrap coverage, SIMEX, prior draws) are
pooled over the run and judged in Monte Carlo standard errors, so they keep
holding when a random-number stream changes on purpose.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics

import numpy as np
from scipy import stats

import reference as ref
from reference import close, within


def op_seed(seed: int, index: int) -> int:
    """Seed handed to op ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def table_rows(text: str, first_cells) -> dict:
    """Rows of the printed tables whose first cell is in ``first_cells``."""
    rows = {}
    for line in text.splitlines():
        cells = line.split()
        if cells and cells[0] in first_cells:
            rows[cells[0]] = cells[1:]
    return rows


def count_nonfinite(node) -> int:
    """Non-finite floats anywhere in a parsed JSON document."""
    if isinstance(node, float):
        return 0 if math.isfinite(node) else 1
    if isinstance(node, dict):
        return sum(count_nonfinite(v) for v in node.values())
    if isinstance(node, list):
        return sum(count_nonfinite(v) for v in node)
    return 0


def remove(*paths) -> None:
    for path in paths:
        if os.path.exists(path):
            os.unlink(path)


class Workload:
    """Interface shared by the workloads.

    ``cycle`` is the number of ops after which the op mix repeats; a run
    measures whole cycles.  ``warmup`` ops run before measuring and are not
    counted.
    """

    name = ""
    cycle = 1
    warmup = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def make_inputs(self) -> None:
        """Generate the inputs from the seed (timed as part of set-up)."""

    def argv(self, index: int) -> list[str]:
        raise NotImplementedError

    def before_op(self, index: int) -> None:
        """Remove the op's output files so a check never reads stale output."""

    def check(self, index: int, stdout: str) -> list[str]:
        """Errors in op ``index``'s output; also feeds the pooled checks."""
        raise NotImplementedError

    def pooled_check(self) -> list[str]:
        """Errors of the in-distribution checks pooled over the run."""
        return []

    def record(self) -> dict:
        """Extra facts for the run record."""
        return {}


class _Simulate(Workload):
    """``mecalib simulate`` on one scenario per op, with a fresh seed per op."""

    reps = 1
    methods = ("uncorrected", "rc", "simex")
    n_boot = 0
    level = 0.95

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out_dir = os.path.join(workdir, "study")
        self.scenarios = []
        self.pools = {}  # (scenario name, method) -> reference.Pool
        self.covered = 0.0
        self.intervals = 0
        self.nonfinite = 0
        self.nonfinite_files = 0

    def make_inputs(self):
        import mecalib.simstudy as simstudy

        self.scenarios = [
            (cfg, simstudy.derive_scenario(cfg))
            for cfg in self.pick_scenarios(simstudy.scenario_grid())
        ]

    def pick_scenarios(self, grid):
        raise NotImplementedError

    def argv(self, index):
        cfg, _ = self.scenarios[index % len(self.scenarios)]
        argv = ["simulate", "--scenario", cfg.name, "--reps", str(self.reps),
                "--seed", str(op_seed(self.seed, index)), "--threads", "1",
                "--out-dir", self.out_dir]
        if self.methods != _Simulate.methods:
            argv += ["--methods", ",".join(self.methods)]
        if self.n_boot:
            argv += ["--n-boot", str(self.n_boot)]
        return argv

    def before_op(self, index):
        remove(os.path.join(self.out_dir, "summaries.json"))

    def check(self, index, stdout):
        cfg, _ = self.scenarios[index % len(self.scenarios)]
        seed = op_seed(self.seed, index)
        errors = []
        with open(os.path.join(self.out_dir, "summaries.json")) as handle:
            summaries = json.load(handle)  # bare NaN parses, as in Python's json
        self.nonfinite += count_nonfinite(summaries)
        self.nonfinite_files += 1
        if len(summaries) != 1:
            return [f"summaries.json holds {len(summaries)} scenarios, expected 1"]
        summary = summaries[0]
        scenario = summary["scenario"]
        expected = {"name": cfg.name, "n": cfg.n, "k": cfg.k, "tau2": cfg.tau2,
                    "sigma2": cfg.sigma2, "gamma": cfg.gamma, "n_reps": self.reps,
                    "seed": seed}
        for key, value in expected.items():
            if scenario.get(key) != value:
                errors.append(f"scenario {key}={scenario.get(key)!r}, expected {value!r}")
        if sorted(summary["methods"]) != sorted(self.methods):
            return errors + [f"methods {sorted(summary['methods'])}, expected "
                             f"{sorted(self.methods)}"]

        # deterministic results against the lstsq reference
        naive, rc, wald_covered = [], [], 0
        t_quantile = stats.t.ppf(0.5 + self.level / 2.0, cfg.n - 3)
        for rep in range(self.reps):
            values = ref.study_dataset(seed, rep, cfg.n, cfg.k, cfg.tau2, cfg.sigma2,
                                       cfg.gamma)
            result = ref.analyses(values, cfg.k)
            naive.append(result["naive"])
            half = t_quantile * result["se"][1]
            wald_covered += result["naive"] - half <= ref.TRUE_EFFECT <= result["naive"] + half
            if result["rc"] is not None:
                rc.append(result["rc"])
        expected_estimates = {"uncorrected": naive, "rc": rc}
        printed = table_rows(stdout, self.methods)
        for method, perf in summary["methods"].items():
            if method not in printed:
                errors.append(f"{method}: no row in the printed table")
            elif not close(printed[method][0], perf["mean_estimate"], 1e-5):
                errors.append(f"{method}: printed mean_estimate {printed[method][0]} != "
                              f"{perf['mean_estimate']!r}")
            if method in expected_estimates:
                estimates = np.array(expected_estimates[method])
                failures = self.reps - len(estimates)
                if perf["n_failures"] != failures:
                    errors.append(f"{method}: n_failures={perf['n_failures']}, "
                                  f"expected {failures}")
                    continue
                mse = float(np.mean((estimates - ref.TRUE_EFFECT) ** 2))
                for key, value in (("mean_estimate", estimates.mean()), ("mse", mse)):
                    if not close(perf[key], value):
                        errors.append(f"{method}: {key}={perf[key]!r}, reference {value!r}")
            elif perf["n_failures"]:
                errors.append(f"{method}: {perf['n_failures']} failed repetitions")
        wald = summary["methods"]["uncorrected"]["coverage"]
        if not close(wald, wald_covered / self.reps):
            errors.append(f"uncorrected: coverage {wald!r}, reference {wald_covered / self.reps!r}")
        if errors:
            return errors

        for method, perf in summary["methods"].items():
            used = perf["n_reps_used"]
            sd = perf["mean_estimate_mcse"] * math.sqrt(used)
            self.pools.setdefault((cfg.name, method), ref.Pool()).add(
                used, perf["mean_estimate"], sd)
        if self.n_boot:
            coverage = summary["methods"]["rc"]["coverage"]
            if not 0.0 <= coverage <= 1.0:
                return [f"rc: bootstrap coverage {coverage!r} not in [0, 1]"]
            self.covered += coverage * summary["methods"]["rc"]["n_reps_used"]
            self.intervals += summary["methods"]["rc"]["n_reps_used"]
        return []

    def pooled_check(self):
        """Closed forms from ``derive_scenario``, per scenario, in MCSE units.

        Uncorrected mean = 0.2 * attenuation.  RC mean = 0.2 where the
        reliability is at least 0.33 (below that RC has a known
        small-sample bias).  SIMEX lies between the two.  RC bootstrap
        coverage = the nominal level.
        """
        errors = []
        for cfg, derived in self.scenarios:
            attenuated = ref.TRUE_EFFECT * derived.attenuation
            targets = {
                "uncorrected": (attenuated, attenuated),
                "rc": (ref.TRUE_EFFECT, ref.TRUE_EFFECT) if derived.reliability >= 0.33
                else None,
                "simex": (attenuated, ref.TRUE_EFFECT),
            }
            for method in self.methods:
                pool = self.pools.get((cfg.name, method))
                if pool is None or targets[method] is None:
                    continue
                lo, hi = targets[method]
                within(f"{cfg.name} {method} mean estimate over {pool.count} reps",
                       pool.mean(), lo, hi, pool.mcse(), errors)
        if self.intervals:
            p = self.level
            within(f"rc bootstrap coverage over {self.intervals} intervals",
                   self.covered / self.intervals, p, p,
                   math.sqrt(p * (1 - p) / self.intervals), errors)
        return errors

    def record(self):
        return {"reps_per_op": self.reps, "n_boot": self.n_boot,
                "scenarios": [cfg.name for cfg, _ in self.scenarios],
                "summaries_json_nonfinite_values": self.nonfinite,
                "summaries_json_files_read": self.nonfinite_files}


class SimRcBoot(_Simulate):
    """The RC coverage study: nearly all op time is in ``bootstrap_ci``.

    Each replicate resamples rows, re-estimates tau2 and refits twice, so
    this is where a sufficient-statistic bootstrap shows; SIMEX does no work.
    """

    name = "sim_rc_boot"
    reps = 1
    methods = ("uncorrected", "rc")
    n_boot = 199

    def pick_scenarios(self, grid):
        return [cfg for cfg in grid if cfg.name == "base"]


class SimGrid(_Simulate):
    """The default study over the grid: the SIMEX simulation step dominates.

    Scenarios run in grid order (n from 125 to 1000, so op cost follows n);
    no bootstrap runs, so a faster SIMEX shows here and a faster bootstrap
    does not.
    """

    name = "sim_grid"
    # 20 reps keep the study's 10% failure abort out of reach: at tau2=200 one
    # RC repetition in ~300 is infeasible, and 3 of 20 would be needed.
    reps = 20

    def pick_scenarios(self, grid):
        return [cfg for cfg in grid if cfg.n <= 1000]

    @property
    def cycle(self):
        return len(self.scenarios)


class CliLargeCsv(Workload):
    """Analyst session on one large CSV: fit, correct, sensitivity in turn.

    CSV parsing dominates; every op writes output files, and the sensitivity
    draws run many corrections on one shared dataset, unlike the fresh data
    per op of the study workloads.
    """

    name = "cli_large_csv"
    cycle = 3
    warmup = 3
    n_rows = 20_000
    draws = 50
    prior = ("triangular", 20.0, 30.0, 45.0)  # kind, min, mode, max

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.csv_path = os.path.join(workdir, "study.csv")
        self.fit_out = os.path.join(workdir, "fit.csv")
        self.correct_out = os.path.join(workdir, "correct.json")
        self.sens_out = os.path.join(workdir, "sensitivity.csv")
        self.sens_sidecar = os.path.join(workdir, "sensitivity.json")
        self.values = None
        self.csv_bytes = 0
        self.expected = None
        self.draw_pool = ref.Pool()

    def make_inputs(self):
        self.values = ref.study_dataset(self.seed, 0, self.n_rows, 3, 30.0, 100.0, 0.0)
        with open(self.csv_path, "w") as handle:
            handle.write("creatinine,bp_star_1,bp_star_2,bp_star_3,age\n")
            handle.write("\n".join(",".join(f"{v:.17g}" for v in row) for row in self.values))
            handle.write("\n")
        self.csv_bytes = os.path.getsize(self.csv_path)
        self.expected = None

    def argv(self, index):
        data = ["--input", self.csv_path, "--outcome", "creatinine"]
        seed = ["--seed", str(op_seed(self.seed, index)), "--threads", "1"]
        kind = index % 3
        if kind == 0:
            return ["fit", *data, "--exposure", "bp_star_1", "--covariates", "age",
                    "--output", self.fit_out]
        if kind == 1:
            return ["correct", *data, "--method", "rc", "--covariates", "age",
                    "--replicates", "bp_star_1,bp_star_2,bp_star_3", *seed,
                    "--output", self.correct_out]
        dist, low, mode, high = self.prior
        return ["sensitivity", *data, "--exposure", "bp_star_1", "--covariates", "age",
                "--method", "rc", "--tau2-dist", dist, "--tau2-min", f"{low:g}",
                "--tau2-mode", f"{mode:g}", "--tau2-max", f"{high:g}", "--ci", "off",
                "--draws", str(self.draws), *seed, "--output", self.sens_out]

    def before_op(self, index):
        outputs = ((self.fit_out,), (self.correct_out,), (self.sens_out, self.sens_sidecar))
        remove(*outputs[index % 3])

    def check(self, index, stdout):
        if self.expected is None:
            self.expected = ref.analyses(self.values, 3)
        return (self._check_fit, self._check_correct, self._check_sensitivity)[index % 3](
            stdout, self.expected)

    def _check_fit(self, stdout, exp):
        errors = []
        terms = ("intercept", "bp_star_1", "age")
        with open(self.fit_out, newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["term", "coefficient", "std_error"] or len(rows) != 4:
            return [f"fit CSV has header {rows[0]} and {len(rows) - 1} rows"]
        printed = table_rows(stdout, terms)
        for j, (term, coef, se) in enumerate(rows[1:]):
            if term != terms[j]:
                errors.append(f"fit CSV row {j + 1} is {term!r}, expected {terms[j]!r}")
            if not (close(coef, exp["coef"][j]) and close(se, exp["se"][j])):
                errors.append(f"fit {term}: ({coef}, {se}) vs reference "
                              f"({exp['coef'][j]!r}, {exp['se'][j]!r})")
            if term not in printed or not close(printed[term][0], exp["coef"][j], 1e-7):
                errors.append(f"fit {term}: printed row {printed.get(term)}")
        if f"n={self.n_rows}  p=3" not in stdout:
            errors.append("fit: n/p line missing from the printed output")
        return errors

    def _check_correct(self, stdout, exp):
        with open(self.correct_out) as handle:
            result = json.load(handle)
        errors = []
        if result["method"] != "rc" or result["tau2_source"] != "replicates":
            errors.append(f"correct: method {result['method']!r}, "
                          f"tau2 source {result['tau2_source']!r}")
        if result["ci_lower"] is not None or result["ci_upper"] is not None:
            errors.append("correct: an interval without --n-boot")
        diagnostics = result["diagnostics"]
        for label, value, expected in (
            ("estimate", result["estimate"], exp["rc"]),
            ("uncorrected_estimate", result["uncorrected_estimate"], exp["naive"]),
            ("tau2", result["tau2"], exp["tau2"]),
            ("correction_factor", diagnostics["correction_factor"], exp["factor"]),
            ("conditional_exposure_variance", diagnostics["conditional_exposure_variance"],
             exp["v"]),
        ):
            if not close(value, expected):
                errors.append(f"correct {label}={value!r}, reference {expected!r}")
        printed = table_rows(stdout, ("uncorrected", "rc"))
        if not (close(printed.get("rc", ["x"])[0], exp["rc"], 1e-7)
                and close(printed.get("uncorrected", ["x"])[0], exp["naive"], 1e-7)):
            errors.append(f"correct: printed rows {printed}")
        return errors

    def _check_sensitivity(self, stdout, exp):
        errors = []
        _, low, _, high = self.prior
        with open(self.sens_out, newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["tau2", "estimate", "ci_lower", "ci_upper", "status"]:
            return [f"sensitivity CSV header {rows[0]}"]
        rows = rows[1:]
        if len(rows) != self.draws:
            return [f"sensitivity CSV has {len(rows)} rows, expected {self.draws}"]
        tau2s = [float(r[0]) for r in rows]
        if tau2s != sorted(tau2s):
            errors.append("sensitivity CSV rows are not sorted by tau2")
        estimates = []
        for tau2_text, estimate, lower, upper, status in rows:
            tau2 = float(tau2_text)
            expected = exp["naive"] * exp["v"] / (exp["v"] - tau2)
            if not (low <= tau2 <= high) or status != "ok" or lower or upper:
                errors.append(f"sensitivity row {tau2_text},{estimate},{lower},{upper},"
                              f"{status}")
            elif not close(estimate, expected):
                errors.append(f"sensitivity tau2={tau2_text}: estimate {estimate}, "
                              f"reference {expected!r}")
            else:
                estimates.append(float(estimate))
        with open(self.sens_sidecar) as handle:
            sidecar = json.load(handle)
        summary = sidecar["summary"]
        if (sidecar["m"] != self.draws or summary["n_ok"] != self.draws
                or summary["n_infeasible"] != 0):
            errors.append(f"sensitivity sidecar m={sidecar['m']} summary={summary}")
        if estimates and not close(summary["median"], statistics.median(estimates)):
            errors.append(f"sensitivity sidecar median {summary['median']!r}")
        printed = table_rows(stdout, ("rc",)).get("rc", [])
        if printed[:3] != [str(self.draws), str(self.draws), "0"] or not close(
                printed[3], summary["median"], 1e-7):
            errors.append(f"sensitivity: printed row {printed}")
        if not errors:
            self.draw_pool.add(len(tau2s), statistics.fmean(tau2s), statistics.stdev(tau2s))
        return errors

    def pooled_check(self):
        """Prior draws pooled over the run: their mean is the triangular mean."""
        errors = []
        if self.draw_pool.groups:
            _, low, mode, high = self.prior
            mean = (low + mode + high) / 3.0
            within(f"mean of {self.draw_pool.count} tau2 draws", self.draw_pool.mean(),
                   mean, mean, self.draw_pool.mcse(), errors)
        return errors

    def record(self):
        return {"csv_rows": self.n_rows, "csv_bytes": self.csv_bytes,
                "sensitivity_draws": self.draws}


WORKLOADS = {w.name: w for w in (SimRcBoot, SimGrid, CliLargeCsv)}
