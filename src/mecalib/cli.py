"""Command-line entry point.

Subcommands: ``fit`` (plain OLS), ``correct`` (regression calibration or
SIMEX on one dataset), ``sensitivity`` (correction across a tau2 prior), and
``simulate`` (the Monte Carlo performance study).  All numeric output is
printed as a table; file outputs are written atomically so a failing run
never leaves partial files behind.

Exit codes: 0 success, 1 runtime failure (diagnostic names the failing
stage), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .correct import (
    CORRECTION_METHODS,
    EXTRAPOLANT_DEGREE,
    MIN_BOOT,
    ErrorVariance,
    SimexConfig,
    bootstrap_ci,
    check_bootstrap,
    correction_steps,
    estimate_tau2_from_replicates,
    fit_uncorrected,
    prepare_correction,
)
from .data import AnalysisSpec, load_csv
from .errors import MecalibError
from .sensitivity import ErrorVarianceDistribution, emit_plot_data, run_sensitivity
from .simstudy import (
    METHODS,
    emit_study_report,
    load_scenarios,
    run_scenario,
    scenario_grid,
)
from .util import DEFAULT_SEED, write_csv_rows, write_json


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _n_boot(text: str) -> int:
    value = int(text)
    if value != 0 and value < MIN_BOOT:
        raise argparse.ArgumentTypeError(f"must be 0 or at least {MIN_BOOT}, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _tau2(text: str) -> float:
    value = float(text)
    try:
        return ErrorVariance(value).tau2
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _level(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _print_table(headers, rows):
    table = [tuple(str(c) for c in headers)] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for r, row in enumerate(table):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        print(line)
        if r == 0:
            print("  ".join("-" * w for w in widths))


def _num(value, digits=6) -> str:
    if value is None or value != value:  # NaN
        return "-"
    return f"{value:.{digits}g}"


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for all four subcommands (``main`` reuses one, see ``_parser``)."""
    parser = argparse.ArgumentParser(
        prog="mecalib",
        description="Measurement error correction and sensitivity analysis "
        "for error-prone exposures in linear models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def add_data_flags(p, exposure_required=True):
        p.add_argument("--input", required=True, help="CSV file with a header row")
        p.add_argument("--outcome", required=True, help="outcome column name")
        p.add_argument("--exposure", required=exposure_required,
                       help="error-prone exposure column used in the analysis")
        p.add_argument("--covariates", type=_comma_list, default=(),
                       help="comma-separated covariate columns")

    simex_defaults = SimexConfig()

    def add_simex_flags(p):
        p.add_argument("--lambda-grid", type=_comma_floats, default=simex_defaults.lambda_grid,
                       help="comma-separated noise multipliers, starting at 0")
        p.add_argument("--n-sim", type=_positive_int, default=simex_defaults.n_sim,
                       help="pseudo datasets per positive multiplier")
        p.add_argument("--extrapolant", choices=tuple(EXTRAPOLANT_DEGREE),
                       default=simex_defaults.extrapolant,
                       help="trend model extrapolated to lambda = -1")

    def add_common_flags(p, n_boot_default, threads_help):
        p.add_argument("--n-boot", type=_n_boot, default=n_boot_default,
                       help="bootstrap replicates for percentile CIs (0 disables)")
        p.add_argument("--level", type=_level, default=0.95, help="confidence level, in (0, 1)")
        p.add_argument("--seed", type=_nonnegative_int, default=DEFAULT_SEED,
                       help="seed for all randomized steps")
        p.add_argument("--threads", type=_positive_int, default=1, help=threads_help)

    p_fit = sub.add_parser("fit", formatter_class=fmt,
                           help="ordinary least squares fit, measurement error ignored")
    add_data_flags(p_fit)
    p_fit.add_argument("--output", help="optional CSV path for the coefficient table")

    p_cor = sub.add_parser("correct", formatter_class=fmt,
                           help="correct the exposure coefficient (rc or simex)")
    add_data_flags(p_cor, exposure_required=False)
    p_cor.add_argument("--method", choices=CORRECTION_METHODS, required=True)
    p_cor.add_argument("--tau2", type=_tau2,
                       help="known measurement error variance (external source)")
    p_cor.add_argument("--replicates", type=_comma_list,
                       help="comma-separated replicate columns; estimates tau2 and "
                            "uses the first as the analysis exposure")
    add_simex_flags(p_cor)
    add_common_flags(p_cor, 0, threads_help="accepted and unused: correct runs in one process")
    p_cor.add_argument("--output", help="optional JSON path for the full result")

    p_sen = sub.add_parser("sensitivity", formatter_class=fmt,
                           help="correction across a prior distribution for tau2")
    add_data_flags(p_sen)
    p_sen.add_argument("--method", choices=CORRECTION_METHODS, required=True)
    p_sen.add_argument("--tau2-dist", choices=("uniform", "triangular", "trapezoidal"),
                       required=True, help="prior distribution family for tau2")
    p_sen.add_argument("--tau2-min", type=float, required=True)
    p_sen.add_argument("--tau2-max", type=float, required=True)
    p_sen.add_argument("--tau2-mode", type=float, help="triangular mode")
    p_sen.add_argument("--tau2-lower-mode", type=float, help="trapezoidal plateau start")
    p_sen.add_argument("--tau2-upper-mode", type=float, help="trapezoidal plateau end")
    p_sen.add_argument("--draws", type=_positive_int, default=100, help="number of tau2 draws")
    p_sen.add_argument("--ci", choices=("auto", "on", "off"), default="auto",
                       help="per-draw bootstrap CIs (auto: on for rc unless --n-boot is 0, "
                            "off for simex)")
    add_simex_flags(p_sen)
    add_common_flags(p_sen, 199, threads_help="worker processes for the per-draw intervals")
    p_sen.add_argument("--output", required=True,
                       help="CSV path for plot data (JSON summary written alongside)")

    p_sim = sub.add_parser("simulate", formatter_class=fmt,
                           help="run the Monte Carlo simulation study")
    p_sim.add_argument("--scenario", default="all",
                       help="scenario name from the built-in grid, or 'all'")
    p_sim.add_argument("--scenarios-file",
                       help="JSON file with custom scenarios (overrides --scenario)")
    p_sim.add_argument("--reps", type=_positive_int, help="override repetitions per scenario")
    p_sim.add_argument("--methods", type=_comma_list, default=METHODS,
                       help="comma-separated subset of " + ",".join(METHODS))
    add_common_flags(p_sim, 0, threads_help="worker processes for blocks of repetitions")
    p_sim.add_argument("--out-dir", default="study_report",
                       help="directory for the report CSVs and summaries.json")
    for p in (p_fit, p_cor, p_sen, p_sim):  # a handler's usage errors print its usage line
        p.set_defaults(subparser=p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built on the first.

    Parsing only reads the parser and fills a fresh namespace, so one parser
    serves any number of calls; building it costs far more than a parse.
    """
    return build_parser()


def _analysis_inputs(args, parser):
    """Load the dataset and resolve the tau2 source for the correct subcommand."""
    if (args.tau2 is None) == (args.replicates is None):
        parser.error("exactly one of --tau2 or --replicates is required")
    if args.replicates:
        if len(args.replicates) < 2:
            parser.error("--replicates needs at least two columns")
        exposure_replicates = args.replicates
        if args.exposure and args.exposure != exposure_replicates[0]:
            parser.error("--exposure must equal the first replicate column")
    else:
        if not args.exposure:
            parser.error("--exposure is required with --tau2")
        exposure_replicates = (args.exposure,)
    spec = AnalysisSpec(
        outcome=args.outcome,
        exposure_replicates=exposure_replicates,
        covariates=args.covariates,
    )
    data = load_csv(args.input, spec)
    if args.replicates:
        tau2 = estimate_tau2_from_replicates(data, spec)
    else:
        tau2 = ErrorVariance(tau2=args.tau2, source="external")
    return data, spec, tau2


def _simex_config(args, parser) -> SimexConfig:
    """The SIMEX settings; an invalid grid is a usage error, with --method rc too."""
    try:
        return SimexConfig(args.lambda_grid, args.n_sim, args.extrapolant, args.seed)
    except ValueError as exc:
        parser.error(f"--lambda-grid: {exc}")


def _cmd_fit(args, parser) -> int:
    spec = AnalysisSpec(args.outcome, (args.exposure,), args.covariates)
    data = load_csv(args.input, spec)
    fit = fit_uncorrected(data, spec)
    terms = ("intercept", args.exposure, *args.covariates)
    rows = [
        (term, _num(coef, 8), _num(se, 8))
        for term, coef, se in zip(terms, fit.coefficients, fit.standard_errors)
    ]
    _print_table(("term", "coefficient", "std_error"), rows)
    print(f"n={fit.n}  p={fit.p}  residual_variance={_num(fit.residual_variance, 8)}  "
          f"r_squared={_num(fit.r_squared, 6)}")
    if args.output:
        write_csv_rows(args.output, ("term", "coefficient", "std_error"),
                       zip(terms, fit.coefficients, fit.standard_errors))
        print(f"wrote {args.output}")
    return 0


def _cmd_correct(args, parser) -> int:
    cfg = _simex_config(args, parser)
    data, spec, tau2 = _analysis_inputs(args, parser)
    _, apply = correction_steps(args.method)
    prepared = prepare_correction(data, spec)  # its naive fit is reported as uncorrected
    result = apply(prepared, tau2, cfg)
    uncorrected = prepared.slope
    if args.n_boot:
        lower, upper = bootstrap_ci(data, spec, args.method, tau2, cfg, n_boot=args.n_boot,
                                    level=args.level, seed=args.seed)
        result = replace(result, ci_lower=lower, ci_upper=upper)

    rows = [
        ("uncorrected", _num(uncorrected, 8), "-", "-"),
        (result.method, _num(result.estimate, 8), _num(result.ci_lower, 8),
         _num(result.ci_upper, 8)),
    ]
    _print_table(("method", "estimate", "ci_lower", "ci_upper"), rows)
    print(f"tau2={_num(tau2.tau2, 8)} (source: {tau2.source})")
    if result.method == "rc":
        print(f"correction_factor={_num(result.diagnostics['correction_factor'], 8)}  "
              f"conditional_exposure_variance="
              f"{_num(result.diagnostics['conditional_exposure_variance'], 8)}")
    else:
        lambdas = result.diagnostics["lambda_estimates"]
        _print_table(
            ("lambda", "mean_estimate"),
            [(_num(lam, 6), _num(est, 8)) for lam, est in lambdas.items()],
        )
    if args.output:
        payload = {
            "method": result.method,
            "estimate": result.estimate,
            "ci_lower": result.ci_lower,
            "ci_upper": result.ci_upper,
            "level": args.level if args.n_boot else None,
            "tau2": tau2.tau2,
            "tau2_source": tau2.source,
            "uncorrected_estimate": uncorrected,
            "diagnostics": dict(result.diagnostics),
            "seed": args.seed,
        }
        write_json(args.output, payload)
        print(f"wrote {args.output}")
    return 0


def _make_distribution(args, parser) -> ErrorVarianceDistribution:
    kind = args.tau2_dist
    if kind == "triangular" and args.tau2_mode is None:
        parser.error("--tau2-mode is required for a triangular prior")
    if kind == "trapezoidal" and (args.tau2_lower_mode is None or args.tau2_upper_mode is None):
        parser.error("--tau2-lower-mode and --tau2-upper-mode are "
                     "required for a trapezoidal prior")
    try:
        return ErrorVarianceDistribution(
            kind=kind,
            min=args.tau2_min,
            max=args.tau2_max,
            mode=args.tau2_mode if kind == "triangular" else None,
            lower_mode=args.tau2_lower_mode if kind == "trapezoidal" else None,
            upper_mode=args.tau2_upper_mode if kind == "trapezoidal" else None,
        )
    except ValueError as exc:
        parser.error(f"tau2 prior: {exc}")


def _cmd_sensitivity(args, parser) -> int:
    if args.ci == "on":
        try:
            check_bootstrap(args.n_boot, args.level)
        except ValueError as exc:
            parser.error(f"--ci on: {exc}")
    dist = _make_distribution(args, parser)
    cfg = _simex_config(args, parser)
    spec = AnalysisSpec(args.outcome, (args.exposure,), args.covariates)
    data = load_csv(args.input, spec)
    # auto is the method's default, except that --n-boot 0 turns intervals off
    ci = None if args.ci == "auto" and args.n_boot else args.ci == "on"
    result = run_sensitivity(
        data, spec, dist, args.method,
        m=args.draws, ci=ci, n_boot=args.n_boot, level=args.level,
        simex_config=cfg, seed=args.seed, threads=args.threads,
    )
    csv_path, json_path = emit_plot_data(result, args.output)
    summary = result.summary
    _print_table(
        ("method", "draws", "ok", "infeasible", "median", "min", "max"),
        [(result.method, len(result.draws), summary["n_ok"], summary["n_infeasible"],
          _num(summary["median"], 8), _num(summary["min"], 8), _num(summary["max"], 8))],
    )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _select_scenarios(args, parser):
    if args.scenarios_file:
        scenarios = load_scenarios(args.scenarios_file)
    else:
        grid = scenario_grid(seed=args.seed)
        if args.scenario == "all":
            scenarios = grid
        else:
            matches = [cfg for cfg in grid if cfg.name == args.scenario]
            if not matches:
                names = ", ".join(cfg.name for cfg in grid)
                parser.error(f"unknown scenario {args.scenario!r}; "
                             f"choose from: {names}")
            scenarios = matches
    if args.reps is not None:
        scenarios = [replace(cfg, n_reps=args.reps) for cfg in scenarios]
    return scenarios


def _cmd_simulate(args, parser) -> int:
    if not args.methods:
        parser.error("--methods must name at least one method")
    for method in args.methods:
        if method not in METHODS:
            parser.error(f"unknown method {method!r}")
    scenarios = _select_scenarios(args, parser)
    summaries = []
    for i, cfg in enumerate(scenarios, start=1):
        print(f"[{i}/{len(scenarios)}] scenario={cfg.name} tau2={_num(cfg.tau2)} "
              f"n={cfg.n} k={cfg.k} sigma2={_num(cfg.sigma2)} gamma={_num(cfg.gamma)} "
              f"reps={cfg.n_reps}")
        summary = run_scenario(
            cfg, methods=args.methods, n_boot=args.n_boot, level=args.level,
            threads=args.threads,
        )
        rows = [
            (perf.method, _num(perf.mean_estimate, 6), _num(perf.percent_bias, 4),
             _num(perf.mse, 4), _num(perf.coverage, 4), perf.n_failures)
            for perf in summary.methods.values()
        ]
        _print_table(
            ("method", "mean_estimate", "percent_bias", "mse", "coverage", "failures"),
            rows,
        )
        summaries.append(summary)
    written = emit_study_report(summaries, args.out_dir)
    print("wrote " + ", ".join(written))
    return 0


# subcommand -> (handler, stage named in runtime error messages)
_COMMANDS = {
    "fit": (_cmd_fit, "fitting"),
    "correct": (_cmd_correct, "correction"),
    "sensitivity": (_cmd_sensitivity, "sensitivity analysis"),
    "simulate": (_cmd_simulate, "simulation study"),
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    command, stage = _COMMANDS[args.subcommand]
    try:
        return command(args, args.subparser)
    except (MecalibError, ValueError, OSError) as exc:
        print(f"mecalib: error during {stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
