"""Correction of regression attenuation caused by random exposure error.

A noisy exposure measurement X* = X + e with Var(e) = tau2 pulls the OLS
exposure coefficient toward zero: the fitted coefficient converges to
beta * (V - tau2) / V, where V is the conditional variance of X* given the
covariates.  Two correction strategies are implemented:

* regression calibration (``correct_rc``): multiply the naive coefficient by
  V / (V - tau2), with V estimated as the residual variance of X* regressed
  on an intercept and the covariates;
* simulation-extrapolation (``correct_simex``): deliberately add extra noise
  at several multiples ``lambda`` of tau2, trace how the coefficient decays as
  total error variance (1 + lambda) * tau2 grows, fit a smooth trend, and read
  it off at lambda = -1 where the total error variance would vanish.

tau2 itself can be estimated from replicate measurements
(``estimate_tau2_from_replicates``) or supplied from external knowledge.
Confidence intervals come from a row-resampling percentile bootstrap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Mapping

import numpy as np

from .data import AnalysisSpec, Dataset, design_matrix
from .errors import (
    BootstrapError,
    InfeasibleCorrectionError,
    InsufficientReplicatesError,
    SingularDesignError,
)
from .linreg import FitResult, ols_fit, residual_variance_of
from .util import draw_seed, parallel_map, require_integers, substream

DEFAULT_LAMBDA_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)

# Correction methods, in the order their per-method seeds are drawn.
CORRECTION_METHODS = ("rc", "simex")

# Smallest bootstrap that gives usable percentile intervals.
MIN_BOOT = 50

EXTRAPOLANT_DEGREE = {"linear": 1, "quadratic": 2}


@dataclass(frozen=True)
class ErrorVariance:
    """Measurement error variance tau2, in squared exposure units.

    ``source`` records where the value came from: ``"replicates"`` when
    estimated from repeated measurements (then the bootstrap re-estimates it
    per resample) or ``"external"`` for literature / expert values (held
    fixed during resampling).
    """

    tau2: float
    source: str = "external"

    def __post_init__(self):
        if self.source not in ("replicates", "external"):
            raise ValueError(f"unknown error variance source {self.source!r}")
        if not np.isfinite(self.tau2) or self.tau2 < 0.0:
            raise ValueError(f"tau2 must be a finite nonnegative number, got {self.tau2}")


@dataclass(frozen=True)
class SimexConfig:
    """Knobs of the simulation-extrapolation procedure.

    ``lambda_grid`` holds the noise multipliers, strictly increasing and
    starting at 0 (the no-extra-noise point, which enters the extrapolation
    fit as the uncorrected estimate).  ``n_sim`` pseudo datasets are averaged
    per positive multiplier.
    """

    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    n_sim: int = 100
    extrapolant: str = "quadratic"
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "n_sim", "seed")
        object.__setattr__(self, "lambda_grid", tuple(float(lam) for lam in self.lambda_grid))
        grid = self.lambda_grid
        if not all(math.isfinite(lam) for lam in grid):
            raise ValueError(f"lambda_grid must hold finite numbers, got {grid}")
        if len(grid) < 2:
            raise ValueError("lambda_grid needs at least two points")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"lambda_grid must be strictly increasing, got {grid}")
        if grid[0] != 0.0:
            raise ValueError(f"lambda_grid must start at 0, got {grid}")
        if self.extrapolant not in EXTRAPOLANT_DEGREE:
            raise ValueError(f"extrapolant must be linear or quadratic, got {self.extrapolant!r}")
        if len(grid) < EXTRAPOLANT_DEGREE[self.extrapolant] + 1:
            raise ValueError("lambda_grid too short for the chosen extrapolant")
        if self.n_sim < 1:
            raise ValueError(f"n_sim must be at least 1, got {self.n_sim}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class CorrectionResult:
    """A corrected exposure coefficient with optional bootstrap interval.

    ``diagnostics`` is method specific: regression calibration reports the
    correction factor and the conditional exposure variance; SIMEX reports
    the per-multiplier averaged estimates and the extrapolant coefficients.
    """

    method: str
    estimate: float
    ci_lower: float | None = None
    ci_upper: float | None = None
    diagnostics: Mapping | None = None

    def __post_init__(self):
        if (self.ci_lower is None) != (self.ci_upper is None):
            raise ValueError("ci_lower and ci_upper must be set together")
        if self.ci_lower is not None and self.ci_lower > self.ci_upper:
            raise ValueError(
                f"ci_lower ({self.ci_lower}) must not exceed ci_upper ({self.ci_upper})"
            )

    def with_ci(self, ci_lower: float, ci_upper: float) -> "CorrectionResult":
        return replace(self, ci_lower=ci_lower, ci_upper=ci_upper)


def estimate_tau2_from_replicates(data: Dataset, spec: AnalysisSpec) -> ErrorVariance:
    """Estimate the error variance as the average within-row replicate variance.

    Each row's k replicate measurements share one true exposure value, so
    their sample variance (divisor k - 1) estimates tau2; averaging over rows
    pools those estimates.
    """
    if spec.n_replicates < 2:
        raise InsufficientReplicatesError(
            f"need at least 2 replicate columns to estimate tau2, got {spec.n_replicates}"
        )
    replicates = data.columns(spec.exposure_replicates)
    deviations = replicates - replicates.mean(axis=1, keepdims=True)
    sum_sq = float(np.einsum("ij,ij->", deviations, deviations))
    return ErrorVariance(sum_sq / (data.n_rows * (spec.n_replicates - 1)), source="replicates")


def fit_uncorrected(data: Dataset, spec: AnalysisSpec) -> FitResult:
    """OLS of the outcome on [1, first replicate, covariates], errors ignored."""
    X = design_matrix(data, spec.exposure, spec.covariates)
    y = data.column(spec.outcome)
    return ols_fit(X, y)


def conditional_exposure_variance(data: Dataset, spec: AnalysisSpec) -> float:
    """Variance of the error-prone exposure given the covariates.

    Residual variance of X* regressed on [1, covariates]; with no covariates
    this is simply the sample variance of X*.
    """
    covariates = design_matrix(data, None, spec.covariates)
    return residual_variance_of(covariates, data.column(spec.exposure))


def prepare_correction(data: Dataset, spec: AnalysisSpec) -> tuple[FitResult, float]:
    """The tau2-free part of every correction: the naive fit and V."""
    return fit_uncorrected(data, spec), conditional_exposure_variance(data, spec)


def _apply_rc(prepared: tuple[FitResult, float], tau2: ErrorVariance,
              cfg=None) -> CorrectionResult:
    """Per-tau2 part of regression calibration: the closed-form factor V / (V - tau2)."""
    fit, v = prepared
    uncorrected = float(fit.coefficients[1])
    if v <= tau2.tau2:
        raise InfeasibleCorrectionError(
            f"infeasible correction: tau2 ({tau2.tau2:g}) >= "
            f"conditional exposure variance ({v:g})"
        )
    factor = v / (v - tau2.tau2)
    return CorrectionResult(
        method="rc",
        estimate=uncorrected * factor,
        diagnostics={
            "uncorrected_estimate": uncorrected,
            "conditional_exposure_variance": v,
            "correction_factor": factor,
            "tau2": tau2.tau2,
        },
    )


def correct_rc(
    data: Dataset, spec: AnalysisSpec, tau2: ErrorVariance, cfg: SimexConfig | None = None
) -> CorrectionResult:
    """Regression calibration: scale the naive coefficient by V / (V - tau2).

    Feasibility requires tau2 < V; otherwise the assumed error variance
    explains all (or more than) the observed conditional variance of the
    proxy and no finite correction exists.  ``cfg`` is ignored; it is there
    so that every corrector has the signature of :func:`corrector_for`.
    """
    return _apply_rc(prepare_correction(data, spec), tau2)


def _simulate_lambdas(prepared: tuple[FitResult, float], tau2: ErrorVariance,
                      cfg: SimexConfig) -> dict:
    """Per-tau2 simulation step of SIMEX on a prepared dataset."""
    fit, v = prepared
    uncorrected = float(fit.coefficients[1])
    if tau2.tau2 == 0.0:
        return {lam: uncorrected for lam in cfg.lambda_grid}
    # Residualized on the other design columns (Frisch-Waugh-Lovell), the
    # exposure is a e1 and the response b e1 + c e2 with e1, e2 orthonormal:
    # a^2 = V (df + 1) from the calibration fit, b = slope a, and c^2 is the
    # naive RSS.  The residualized noise is sd (z1 e1 + z2 e2 + r), where r
    # lies in the other df - 1 residual dimensions and |r|^2 = sd^2 rest.
    df = fit.n - fit.p
    a = math.sqrt(v * (df + 1))
    b = uncorrected * a
    c = math.sqrt(fit.residual_variance * df)
    rest_df = df - 1
    lambdas = cfg.lambda_grid[1:]  # the grid starts at 0
    z = np.empty((len(lambdas), 2, cfg.n_sim))
    rest = np.zeros((len(lambdas), cfg.n_sim))
    for i, row in enumerate(z, start=1):
        rng = substream(cfg.seed, i)
        rng.standard_normal(out=row)
        if rest_df > 0:
            rest[i - 1] = rng.chisquare(rest_df, cfg.n_sim)
    z1, z2 = z[:, 0], z[:, 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        sd = np.sqrt(np.array(lambdas) * tau2.tau2)[:, None]
        coefs = (a * b + sd * (b * z1 + c * z2)) / (
            a * a + 2.0 * sd * a * z1 + sd * sd * (z1 * z1 + z2 * z2 + rest)
        )
        means = coefs.mean(axis=1)
    if not np.isfinite(means).all():
        raise ValueError(
            f"SIMEX pseudo estimates overflow float64 at tau2={tau2.tau2:g}; "
            "rescale the exposure or lower tau2"
        )
    return {0.0: uncorrected, **dict(zip(lambdas, means.tolist()))}


def simex_estimates_per_lambda(
    data: Dataset, spec: AnalysisSpec, tau2: ErrorVariance, cfg: SimexConfig
) -> dict[float, float]:
    """Simulation step: averaged exposure estimates per noise multiplier.

    For every positive lambda on the grid, ``cfg.n_sim`` pseudo datasets are
    formed by adding independent N(0, lambda * tau2) noise to the exposure
    column and refit; the mapping lambda -> mean exposure coefficient is
    returned in grid order.  The lambda = 0 entry is the uncorrected estimate
    itself with no simulation.  A refit sees the noise only through three
    numbers (Cook & Stefanski, 1994), drawn exactly as two standard normals
    and one chi-square per pseudo dataset.  Grid entry i draws from the RNG
    sub-stream (cfg.seed, i), so the result is reproducible bit for bit.
    """
    return _simulate_lambdas(prepare_correction(data, spec), tau2, cfg)


def extrapolate(points: Mapping[float, float], extrapolant: str = "quadratic"):
    """Extrapolation step: fit estimate ~ polynomial(lambda), evaluate at -1.

    At lambda = -1 the total error variance (1 + lambda) * tau2 is zero, so
    the fitted trend read off there is the error-free prediction.  Returns
    ``(estimate_at_minus_one, coefficients)`` with coefficients in ascending
    degree order.
    """
    if extrapolant not in EXTRAPOLANT_DEGREE:
        raise ValueError(f"extrapolant must be linear or quadratic, got {extrapolant!r}")
    degree = EXTRAPOLANT_DEGREE[extrapolant]
    lambdas = sorted(points)
    if len(lambdas) < degree + 1:
        raise ValueError(
            f"{extrapolant} extrapolation needs at least {degree + 1} points, got {len(lambdas)}"
        )
    weights, at_minus_one = _extrapolation_weights(tuple(lambdas), degree)
    values = np.array([points[lam] for lam in lambdas], dtype=np.float64)
    return float(at_minus_one @ values), weights @ values


@lru_cache(maxsize=16)
def _extrapolation_weights(lambdas: tuple[float, ...], degree: int):
    """Least-squares polynomial fit on a fixed sorted grid as linear weights of the values.

    Returns ``(W, w)``: the coefficients of the fit to ``values`` are
    ``W @ values`` and its value at lambda = -1 is ``w @ values``.
    """
    grid = np.array(lambdas, dtype=np.float64)
    if len(np.unique(grid)) != len(grid):
        raise ValueError("lambda values must be distinct")
    basis = np.vander(grid, degree + 1, increasing=True)
    weights, *_ = np.linalg.lstsq(basis, np.eye(len(grid)), rcond=None)
    return weights, (-1.0) ** np.arange(degree + 1) @ weights


def _simex_result(per_lambda: dict, tau2: ErrorVariance, cfg: SimexConfig) -> CorrectionResult:
    """Extrapolation step of SIMEX and its diagnostics."""
    estimate, coefficients = extrapolate(per_lambda, cfg.extrapolant)
    if not math.isfinite(estimate):
        raise ValueError(f"SIMEX extrapolation overflows float64 at tau2={tau2.tau2:g}")
    return CorrectionResult(
        method="simex",
        estimate=estimate,
        diagnostics={
            "lambda_estimates": per_lambda,
            "extrapolant": cfg.extrapolant,
            "extrapolant_coefficients": tuple(float(c) for c in coefficients),
            "tau2": tau2.tau2,
        },
    )


def _apply_simex(prepared: tuple[FitResult, float], tau2: ErrorVariance,
                 cfg: SimexConfig) -> CorrectionResult:
    """Per-tau2 part of SIMEX: simulate on the prepared fit and V, then extrapolate."""
    return _simex_result(_simulate_lambdas(prepared, tau2, cfg), tau2, cfg)


def correct_simex(
    data: Dataset, spec: AnalysisSpec, tau2: ErrorVariance, cfg: SimexConfig
) -> CorrectionResult:
    """Full simulation-extrapolation correction (simulate, then extrapolate)."""
    return _simex_result(simex_estimates_per_lambda(data, spec, tau2, cfg), tau2, cfg)


def correction_steps(method: str) -> tuple:
    """``(corrector, prepare, apply)`` of ``method``, from the module's current bindings.

    ``corrector(data, spec, tau2, cfg) == apply(prepare(data, spec), tau2, cfg)``:
    ``prepare`` is :func:`prepare_correction` for every method, ``apply`` the
    per-tau2 step.
    """
    steps = dict(zip(CORRECTION_METHODS, ((correct_rc, _apply_rc), (correct_simex, _apply_simex))))
    if method not in steps:
        raise ValueError(f"corrector must be one of {CORRECTION_METHODS}, got {method!r}")
    corrector, apply = steps[method]
    return corrector, prepare_correction, apply


def corrector_for(method: str):
    """The correction function ``(data, spec, tau2, cfg) -> CorrectionResult`` of ``method``."""
    return correction_steps(method)[0]


def _bootstrap_replicate(
    data: Dataset,
    spec: AnalysisSpec,
    correct,
    tau2: ErrorVariance,
    cfg: SimexConfig | None,
    seed: int,
    index: int,
) -> float | None:
    """One resample-and-correct pass; None signals a failed replicate.

    A given ``cfg`` gets a fresh seed per replicate, drawn after the rows.
    """
    rng = substream(seed, index)
    rows = rng.integers(0, data.n_rows, size=data.n_rows)
    resample = data.take_rows(rows)
    tau2_b = (
        estimate_tau2_from_replicates(resample, spec)
        if tau2.source == "replicates"
        else tau2
    )
    cfg_b = None if cfg is None else replace(cfg, seed=draw_seed(rng))
    try:
        return correct(resample, spec, tau2_b, cfg_b).estimate
    except (InfeasibleCorrectionError, SingularDesignError):
        return None


def bootstrap_ci(
    data: Dataset,
    spec: AnalysisSpec,
    corrector: str,
    tau2: ErrorVariance,
    cfg: SimexConfig | None = None,
    n_boot: int = 999,
    level: float = 0.95,
    seed: int = 0,
    threads: int = 1,
) -> tuple[float, float]:
    """Percentile bootstrap interval for a corrected exposure coefficient.

    Rows are resampled with replacement ``n_boot`` times and the full
    corrector re-run on each resample.  When tau2 came from replicates it is
    re-estimated per resample so its sampling uncertainty propagates into the
    interval; an externally supplied tau2 is held fixed.  Replicate ``b``
    uses the RNG sub-stream (seed, b), so the interval is reproducible and
    independent of any execution order.

    Replicates on which the correction fails (infeasible calibration,
    singular resample) are dropped; if more than 10% fail the interval is
    abandoned with a :class:`BootstrapError`.
    """
    if n_boot < MIN_BOOT:
        raise ValueError(f"n_boot must be at least {MIN_BOOT}, got {n_boot}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    correct = corrector_for(corrector)
    # SIMEX is the one randomized corrector; RC ignores cfg, so its replicates
    # get None and skip the per-replicate reseed.
    randomized = corrector == "simex"
    if randomized and cfg is None:
        raise ValueError("the simex corrector needs a SimexConfig")

    worker = partial(
        _bootstrap_replicate, data, spec, correct, tau2, cfg if randomized else None, seed
    )
    replicate_estimates = parallel_map(worker, range(n_boot), threads=threads)
    estimates = [est for est in replicate_estimates if est is not None]
    failures = n_boot - len(estimates)
    if failures > 0.1 * n_boot:
        raise BootstrapError(
            f"{failures} of {n_boot} bootstrap replicates failed; "
            "the correction is not stable under resampling"
        )
    if failures:
        warnings.warn(
            f"dropped {failures} of {n_boot} failed bootstrap replicates "
            f"({corrector} correction, tau2={tau2.tau2:g})",
            stacklevel=2,
        )
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(estimates, [alpha, 1.0 - alpha])
    return float(lower), float(upper)
