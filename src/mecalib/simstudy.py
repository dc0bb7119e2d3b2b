"""Monte Carlo study of the correction methods on synthetic exposure data.

The synthetic mechanism mimics a blood-pressure / kidney-function study:

    age        ~ Normal(32, 25)
    bp | age   ~ Normal(120 + gamma * age, 50)
    bp_star_j  = bp + Normal(0, tau2)      independently for j = 1..k
    creatinine ~ Normal(30 + 0.2 * bp + 0.2 * age, sigma2)

(second Normal parameters are variances).  The analysis model regresses
creatinine on the first error-prone measurement and age; the estimand is the
bp coefficient 0.2, so the uncorrected analysis is attenuated by the factor
50 / (50 + tau2) regardless of gamma.  Scenarios vary one knob at a time
around a base configuration; each repetition generates a fresh dataset,
estimates tau2 from the replicates, and applies the uncorrected, regression
calibration, and simulation-extrapolation analyses using only the first
replicate as the analysis exposure.

Performance per method is summarized as bias, percent bias, MSE, and CI
coverage of the true effect, each with its Monte Carlo standard error.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

from .correct import (
    CORRECTION_METHODS,
    CorrectionInputs,
    ErrorVariance,
    SimexConfig,
    bootstrap_ci,
    check_bootstrap,
    correction_fits,
    rc_estimates,
    replicate_tau2,
    simex_estimates,
)
from .data import AnalysisSpec, Dataset
from .errors import BootstrapError, MecalibError, SimulationError, SingularDesignError
from .linreg import wald_interval
from .util import (DEFAULT_SEED, check_level, check_threads, draw_seed, parallel_map,
                   require_integers, require_reals, substreams, write_csv_rows, write_json)

TRUE_EFFECT = 0.2

# Fixed pieces of the generating mechanism (variances, not SDs).
AGE_MEAN, AGE_VAR = 32.0, 25.0
BP_INTERCEPT, BP_VAR_GIVEN_AGE = 120.0, 50.0
OUTCOME_INTERCEPT, AGE_EFFECT = 30.0, 0.2

METHODS = ("uncorrected", *CORRECTION_METHODS)

BASE_NAME = "base"

# sweep name -> (swept knob, values beyond base)
SWEEPS = {
    "reliability": ("tau2", (200.0, 100.0, 50.0, 25.0, 20.0, 15.0, 10.0, 5.0)),
    "sample_size": ("n", (125, 250, 1000, 10000)),
    "replicates": ("k", (2, 5, 10)),
    "r_squared": ("sigma2", (20.0, 5.0, 1.0)),
    "covariate_dependency": ("gamma", (1.0, 4.0, 8.0)),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: generating-mechanism knobs plus run size."""

    name: str = BASE_NAME
    tau2: float = 30.0
    n: int = 500
    k: int = 3
    sigma2: float = 100.0
    gamma: float = 0.0
    n_reps: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        require_integers(self, "n", "k", "n_reps", "seed")
        require_reals(self, "tau2", "sigma2", "gamma")
        if not np.isfinite(self.tau2) or self.tau2 < 0.0:
            raise ValueError(f"tau2 must be nonnegative, got {self.tau2}")
        if self.n < 4:
            raise ValueError(f"n must leave degrees of freedom for 3 parameters, got {self.n}")
        if self.k < 2:
            raise ValueError(f"k must be at least 2 replicates, got {self.k}")
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.n_reps < 1:
            raise ValueError(f"n_reps must be at least 1, got {self.n_reps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ScenarioDerived:
    """Closed-form properties implied by a scenario's knobs.

    ``r_squared`` of the outcome model follows from the variance
    decomposition of the outcome: the linear predictor
    0.2 * bp + 0.2 * age has variance
    0.04 * (Var(bp) + Var(age) + 2 Cov(bp, age))
    = 0.04 * (25 gamma^2 + 50 + 25 + 50 gamma) = (gamma + 1)^2 + 2,
    so R^2 = ((gamma + 1)^2 + 2) / ((gamma + 1)^2 + 2 + sigma2).
    """

    reliability: float
    attenuation: float
    r_squared: float
    crude_effect: float


def derive_scenario(cfg: ScenarioConfig) -> ScenarioDerived:
    bp_var = AGE_VAR * cfg.gamma**2 + BP_VAR_GIVEN_AGE
    explained = (cfg.gamma + 1.0) ** 2 + 2.0
    return ScenarioDerived(
        reliability=bp_var / (bp_var + cfg.tau2),
        attenuation=BP_VAR_GIVEN_AGE / (BP_VAR_GIVEN_AGE + cfg.tau2),
        r_squared=explained / (explained + cfg.sigma2),
        crude_effect=TRUE_EFFECT + 5.0 * cfg.gamma / bp_var,
    )


def scenario_spec(k: int) -> AnalysisSpec:
    """Column roles for a generated dataset with k replicate measurements."""
    return AnalysisSpec(
        outcome="creatinine",
        exposure_replicates=tuple(f"bp_star_{j}" for j in range(1, k + 1)),
        covariates=("age",),
    )


def generate_block(cfg: ScenarioConfig, reps: range) -> np.ndarray:
    """Generate the datasets of repetitions ``reps`` as one (len(reps), n, k + 2) value stack.

    Column order: creatinine, bp_star_1..bp_star_k, age.  Repetition ``rep``
    draws from the RNG stream (cfg.seed, rep) in a fixed order (age, bp
    noise, replicate errors, outcome noise), so each dataset is reproducible,
    independent of the others and of the block it is drawn in.  A ``gamma``
    so large that the data overflow float64 raises ``ValueError``.
    """
    n, k = cfg.n, cfg.k
    streams = substreams(cfg.seed, np.arange(reps.start, reps.stop))
    age, bp_noise, outcome_noise = np.empty((3, len(reps), n))
    replicate_errors = np.empty((len(reps), n, k))
    for r in range(len(reps)):
        rng = streams[r]
        age[r] = rng.normal(AGE_MEAN, np.sqrt(AGE_VAR), n)
        bp_noise[r] = rng.normal(0.0, np.sqrt(BP_VAR_GIVEN_AGE), n)
        replicate_errors[r] = rng.normal(0.0, np.sqrt(cfg.tau2), (n, k))
        outcome_noise[r] = rng.normal(0.0, np.sqrt(cfg.sigma2), n)
    values = np.empty((len(reps), n, k + 2))
    try:
        with np.errstate(over="raise"):
            bp = BP_INTERCEPT + cfg.gamma * age + bp_noise
            values[..., 0] = OUTCOME_INTERCEPT + TRUE_EFFECT * bp + AGE_EFFECT * age + outcome_noise
            np.add(bp[..., None], replicate_errors, out=values[..., 1:k + 1])
    except FloatingPointError:
        raise ValueError(f"gamma={cfg.gamma:g} overflows the generated data; "
                         "lower |gamma|") from None
    values[..., k + 1] = age
    return values


def generate_dataset(cfg: ScenarioConfig, rep_index: int) -> Dataset:
    """Generate the synthetic dataset of repetition ``rep_index`` (see :func:`generate_block`)."""
    values = generate_block(cfg, range(rep_index, rep_index + 1))[0]
    values.setflags(write=False)  # a fresh array: no defensive copy needed
    return Dataset(scenario_spec(cfg.k).all_columns(), values)


# Why a repetition yields no estimate for a method: the calibration is
# infeasible (tau2 >= V), a design is rank deficient, or too many bootstrap
# replicates failed.
FAILURE_REASONS = ("infeasible", "singular", "bootstrap")

# A scenario aborts when more than this share of its repetitions fail for a method.
MAX_FAILURE_FRACTION = 0.1

# Repetitions analysed together: a block makes two stacked fits and one
# array pass of each correction, whatever its size.
BLOCK_REPS = 32


@dataclass(frozen=True)
class MethodPerformance:
    """Performance of one method over the repetitions of one scenario.

    ``failures`` counts the excluded repetitions by reason (see
    ``FAILURE_REASONS``); ``n_failures`` is their sum.
    """

    method: str
    n_reps_used: int
    n_failures: int
    failures: dict[str, int]
    mean_estimate: float
    mean_estimate_mcse: float
    bias: float
    bias_mcse: float
    percent_bias: float
    percent_bias_mcse: float
    mse: float
    mse_mcse: float
    coverage: float  # NaN when the method produced no intervals
    coverage_mcse: float


@dataclass(frozen=True)
class PerformanceSummary:
    scenario: ScenarioConfig
    derived: ScenarioDerived
    true_effect: float
    methods: dict[str, MethodPerformance] = field(default_factory=dict)


def _block_bounds(n_reps: int, threads: int) -> list[tuple[int, int]]:
    """Consecutive repetition ranges of at most BLOCK_REPS, at least ``threads`` of them."""
    size = max(1, min(BLOCK_REPS, n_reps // max(threads, 1)))
    return [(start, min(start + size, n_reps)) for start in range(0, n_reps, size)]


def _prepare_block(cfg: ScenarioConfig, reps: range, methods, n_boot: int):
    """Each repetition's tau2 and seeds, the block's two stacked fits, and its datasets.

    Everything is computed on the block's value stack, in the order a
    repetition alone meets it: its values are checked as a ``Dataset`` checks
    them, then tau2 is estimated, then the designs are fitted.  ``Dataset``
    objects are built only for the bootstrap, which resamples them (the
    datasets are None without one).
    """
    k = cfg.k
    spec = scenario_spec(k)
    values = generate_block(cfg, reps)
    values.setflags(write=False)
    datasets = None
    if n_boot or not np.isfinite(values).all():  # a Dataset names the first non-finite value
        datasets = [Dataset(spec.all_columns(), rep_values) for rep_values in values]
    # each repetition's replicate block laid out as Dataset.columns returns it,
    # which sets the summation order of tau2
    replicates = np.empty((len(reps), k, cfg.n)).swapaxes(-1, -2)
    replicates[...] = values[..., 1:k + 1]
    tau2 = [ErrorVariance(value, source="replicates")
            for value in replicate_tau2(replicates).tolist()]
    simex_seeds, boot_seeds = [], []
    # Analysis seeds are drawn in a fixed order (SIMEX seed, then one bootstrap
    # seed per correction method) so that results for one method do not
    # depend on which other methods were requested.
    if "simex" in methods or n_boot:
        streams = substreams(cfg.seed, [(rep, 1) for rep in reps])
        for r in range(len(reps)):
            rng = streams[r]
            simex_seeds.append(draw_seed(rng))
            if n_boot:
                boot_seeds.append({method: draw_seed(rng) for method in CORRECTION_METHODS})
    X = np.empty((len(reps), cfg.n, 2 + len(spec.covariates)))
    X[..., 0] = 1.0
    X[..., 1] = values[..., 1]
    X[..., 2:] = values[..., k + 1:]
    naive, calibration = correction_fits(X, np.ascontiguousarray(values[..., 0]))
    return spec, datasets, tau2, simex_seeds, boot_seeds, naive, calibration


def _analyse_block(prepared, methods, n_boot: int, level: float, simex_config: SimexConfig):
    """Per repetition: method -> (estimate, ci_lower, ci_upper), or its failure reason."""
    spec, datasets, tau2_values, simex_seeds, boot_seeds, naive, calibration = prepared
    inputs = CorrectionInputs.from_fit(naive, calibration.residual_variance)
    tau2 = np.array([value.tau2 for value in tau2_values])
    # method -> {repetition: its failure reason, or the error that aborts the study}
    estimates, failures = {}, {}
    if "uncorrected" in methods:
        lower, upper = wald_interval(naive, index=1, level=level)
        estimates["uncorrected"] = list(zip(inputs.slope.tolist(), lower.tolist(),
                                            upper.tolist()))
    if "rc" in methods:
        rc, _, feasible = rc_estimates(inputs, tau2)
        estimates["rc"] = rc.tolist()
        failures["rc"] = dict.fromkeys(np.flatnonzero(~feasible).tolist(), "infeasible")
    if "simex" in methods:
        simex, _, failures["simex"] = simex_estimates(inputs, tau2, simex_config, simex_seeds)
        estimates["simex"] = simex.tolist()
    rows = []
    for r, tau2_value in enumerate(tau2_values):
        row = {}
        if "uncorrected" in methods:
            row["uncorrected"] = estimates["uncorrected"][r]
        for method in CORRECTION_METHODS:
            if method not in methods:
                continue
            failure = failures[method].get(r)
            if isinstance(failure, Exception):  # a SIMEX overflow
                raise failure
            if failure is not None:
                row[method] = failure
                continue
            estimate = estimates[method][r]
            lower = upper = math.nan
            if n_boot:
                try:
                    lower, upper = bootstrap_ci(
                        datasets[r], spec, method, tau2_value, simex_config,
                        n_boot=n_boot, level=level, seed=boot_seeds[r][method],
                    )
                except BootstrapError:
                    row[method] = "bootstrap"
                    continue
            row[method] = (estimate, lower, upper)
        rows.append(row)
    return rows


def _run_block(job) -> list[dict]:
    """Analyse repetitions ``start`` to ``stop`` as one block.

    A block whose preparation raises (a rank-deficient design, say) is
    analysed again one repetition at a time, so each repetition fails or
    raises as it would alone.  A lone repetition with a rank-deficient design
    fails every selected correction, or raises when the uncorrected analysis,
    which has no other fit, was requested.
    """
    cfg, start, stop, methods, n_boot, level, simex_config = job
    try:
        prepared = _prepare_block(cfg, range(start, stop), methods, n_boot)
    except (MecalibError, ValueError) as exc:  # ValueError: an overflow, say
        if stop - start > 1:
            return [row for rep in range(start, stop)
                    for row in _run_block((cfg, rep, rep + 1, *job[3:]))]
        if isinstance(exc, SingularDesignError) and "uncorrected" not in methods:
            return [dict.fromkeys(methods, "singular")]
        raise
    return _analyse_block(prepared, methods, n_boot, level, simex_config)


def _reasons(failures) -> str:
    """The nonzero failure counts, e.g. ``infeasible: 3, singular: 1``."""
    return ", ".join(f"{reason}: {count}" for reason, count in failures.items() if count)


def _summarize_method(method, rows, n_reps):
    values = np.array([r for r in rows if not isinstance(r, str)], dtype=np.float64)
    failures = {reason: rows.count(reason) for reason in FAILURE_REASONS}
    if len(values) == 0:
        raise SimulationError(
            f"method {method!r} failed on every repetition ({_reasons(failures)})")
    estimates = values[:, 0]
    r_used = len(estimates)
    mean_estimate = float(estimates.mean())
    sd = float(estimates.std(ddof=1)) if r_used > 1 else 0.0
    mcse_mean = sd / np.sqrt(r_used)
    bias = mean_estimate - TRUE_EFFECT
    squared_error = (estimates - TRUE_EFFECT) ** 2
    mse = float(squared_error.mean())
    mse_sd = float(squared_error.std(ddof=1)) if r_used > 1 else 0.0

    has_ci = np.isfinite(values[:, 1]) & np.isfinite(values[:, 2])
    if has_ci.any():
        covered = (values[has_ci, 1] <= TRUE_EFFECT) & (TRUE_EFFECT <= values[has_ci, 2])
        n_ci = int(has_ci.sum())
        coverage = float(covered.mean())
        coverage_mcse = float(np.sqrt(coverage * (1.0 - coverage) / n_ci))
    else:
        coverage = coverage_mcse = float("nan")

    return MethodPerformance(
        method=method,
        n_reps_used=r_used,
        n_failures=n_reps - r_used,
        failures=failures,
        mean_estimate=mean_estimate,
        mean_estimate_mcse=float(mcse_mean),
        bias=float(bias),
        bias_mcse=float(mcse_mean),
        percent_bias=100.0 * bias / TRUE_EFFECT,
        percent_bias_mcse=float(100.0 * mcse_mean / TRUE_EFFECT),
        mse=mse,
        mse_mcse=float(mse_sd / np.sqrt(r_used)),
        coverage=coverage,
        coverage_mcse=coverage_mcse,
    )


def run_scenario(
    cfg: ScenarioConfig,
    methods=METHODS,
    n_boot: int = 0,
    level: float = 0.95,
    simex_config: SimexConfig | None = None,
    threads: int = 1,
) -> PerformanceSummary:
    """Run all repetitions of one scenario and aggregate performance.

    ``n_boot=0`` skips bootstrap intervals for the corrected methods (their
    coverage is then NaN); the uncorrected analysis always gets a
    normal-theory Wald interval.  Repetitions where a correction fails are
    excluded and counted by reason; the scenario aborts if more than
    ``MAX_FAILURE_FRACTION`` of repetitions fail for any method.

    Repetitions are analysed in blocks of at most ``BLOCK_REPS``: each
    repetition still draws its dataset and seeds from its own sub-streams,
    and its results equal those of analysing it alone.  Deterministic given
    (cfg, seed), independent of ``threads`` and of the blocking.
    """
    check_threads(threads)
    require_integers(SimpleNamespace(n_boot=n_boot), "n_boot")  # 0.0 is not "no bootstrap"
    check_level(level)  # the Wald interval reads it, with or without a bootstrap
    if n_boot:
        check_bootstrap(n_boot, level)
    if not methods:
        raise ValueError("methods must name at least one method")
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    if simex_config is None:
        simex_config = SimexConfig()
    jobs = [
        (cfg, start, stop, tuple(methods), n_boot, level, simex_config)
        for start, stop in _block_bounds(cfg.n_reps, threads)
    ]
    results = [row for block in parallel_map(_run_block, jobs, threads=threads) for row in block]

    performances = {}
    for method in METHODS:
        if method not in methods:
            continue
        perf = _summarize_method(method, [r[method] for r in results], cfg.n_reps)
        if perf.n_failures > MAX_FAILURE_FRACTION * cfg.n_reps:
            raise SimulationError(
                f"scenario {cfg.name!r}: {perf.n_failures} of {cfg.n_reps} "
                f"repetitions failed for method {method!r} ({_reasons(perf.failures)})"
            )
        performances[method] = perf
    return PerformanceSummary(
        scenario=cfg,
        derived=derive_scenario(cfg),
        true_effect=TRUE_EFFECT,
        methods=performances,
    )


def scenario_grid(n_reps: int = 1000, seed: int = DEFAULT_SEED) -> list[ScenarioConfig]:
    """The full 22-scenario grid: base plus five one-knob-at-a-time sweeps."""
    base = ScenarioConfig(name=BASE_NAME, n_reps=n_reps, seed=seed)
    grid = [base]
    for knob, values in SWEEPS.values():
        for value in values:
            name = f"{knob}_{value:g}"
            grid.append(replace(base, name=name, **{knob: value}))
    return grid


def scenario_sweep_knob(cfg: ScenarioConfig, base: ScenarioConfig | None = None) -> str | None:
    """Which single knob differs from ``base``, or None (base itself / multi-knob).

    ``base`` defaults to the canonical base scenario; reports built from a
    resized study (e.g. smaller n everywhere) pass their own base so sweep
    membership stays relative.
    """
    reference = base if base is not None else ScenarioConfig(name=BASE_NAME)
    differing = [
        knob for knob, _ in SWEEPS.values()
        if getattr(cfg, knob) != getattr(reference, knob)
    ]
    return differing[0] if len(differing) == 1 else None


def load_scenarios(path: str | os.PathLike) -> list[ScenarioConfig]:
    """Read scenarios from JSON: a list of objects with ScenarioConfig fields.

    Missing fields default to the base scenario values; a top-level
    ``{"scenarios": [...]}`` wrapper is also accepted.
    """
    with open(path) as handle:
        raw = json.load(handle)
    if isinstance(raw, dict):
        raw = raw.get("scenarios")
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: expected a nonempty JSON list of scenario objects")
    scenarios = []
    allowed = {f.name for f in fields(ScenarioConfig)}
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ValueError(f"{path}: scenario {i} is not an object")
        extra = set(item) - allowed
        if extra:
            raise ValueError(f"{path}: scenario {i} has unknown fields {sorted(extra)}")
        item = dict(item)
        item.setdefault("name", f"custom_{i}")
        scenarios.append(ScenarioConfig(**item))
    return scenarios


REPORT_COLUMNS = (
    "method",
    "percent_bias",
    "bias_mcse",
    "mse",
    "mse_mcse",
    "coverage",
    "coverage_mcse",
    "base",
)


def _summary_as_dict(summary: PerformanceSummary) -> dict:
    return {
        "scenario": asdict(summary.scenario),
        "derived": asdict(summary.derived),
        "true_effect": summary.true_effect,
        "methods": {name: asdict(perf) for name, perf in summary.methods.items()},
    }


def emit_study_report(summaries, out_dir: str | os.PathLike) -> list[str]:
    """Write the study report: one CSV per populated sweep plus a JSON dump.

    Each sweep CSV has one row per (scenario, method) with the swept knob's
    value in the first column; the base scenario appears in every sweep file
    with the ``base`` flag set.  Returns the paths written.  NaN metrics
    (e.g. coverage without bootstrap intervals) become empty cells.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("no summaries to report")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    json_path = os.path.join(os.fspath(out_dir), "summaries.json")
    write_json(json_path, [_summary_as_dict(s) for s in summaries])
    written.append(json_path)

    base_summaries = [s for s in summaries if s.scenario.name == BASE_NAME]
    base_cfg = base_summaries[0].scenario if base_summaries else None
    for sweep_name, (knob, _) in SWEEPS.items():
        members = [
            s for s in summaries
            if s.scenario.name != BASE_NAME
            and scenario_sweep_knob(s.scenario, base_cfg) == knob
        ]
        if not members:
            continue
        rows = members + base_summaries
        rows.sort(key=lambda s: getattr(s.scenario, knob))
        path = os.path.join(os.fspath(out_dir), f"{sweep_name}.csv")
        write_csv_rows(path, (knob,) + REPORT_COLUMNS, [
            (getattr(summary.scenario, knob), method, perf.percent_bias, perf.bias_mcse,
             perf.mse, perf.mse_mcse, perf.coverage, perf.coverage_mcse,
             summary.scenario.name == BASE_NAME)
            for summary in rows
            for method, perf in summary.methods.items()
        ])
        written.append(path)
    return written
