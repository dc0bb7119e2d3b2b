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

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace
from typing import Mapping, NamedTuple

import numpy as np

from .data import AnalysisSpec, Dataset, design_matrix
from .errors import (
    BootstrapError,
    InfeasibleCorrectionError,
    InsufficientReplicatesError,
    SingularDesignError,
)
from .linreg import FitResult, ols_fit
from .util import check_level, draw_seed, require_integers, require_real, substreams

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
        require_real("tau2", self.tau2)
        if self.tau2 < 0.0:
            raise ValueError(f"tau2 must be nonnegative, got {self.tau2}")


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
        for i, lam in enumerate(self.lambda_grid):
            require_real(f"lambda_grid[{i}]", lam)
        grid = tuple(map(float, self.lambda_grid))
        object.__setattr__(self, "lambda_grid", grid)
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


def _replicate_sums_of_squares(replicates: np.ndarray) -> np.ndarray:
    """Each row's sum of squared deviations of its replicates from their mean.

    ``replicates`` is an (n, k) block of replicate columns, or a stack
    (..., n, k) of them.  Every row's entry depends on that row alone, so the
    entries of a row resample are the entries of the rows drawn, bit for bit.
    The summation order follows the memory layout: a stack gives each block's
    numbers when each of its blocks is laid out as ``Dataset.columns`` returns
    one (rows adjacent in memory).
    """
    if replicates.shape[-1] < 2:
        raise InsufficientReplicatesError(
            f"need at least 2 replicate columns to estimate tau2, got {replicates.shape[-1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # replicate_tau2 reports overflow
        deviations = replicates - replicates.mean(axis=-1, keepdims=True)
        return np.add.reduce(deviations * deviations, axis=-1)


def _pooled_tau2(row_sums_of_squares: np.ndarray, n_replicates: int):
    """The mean of the per-row replicate variances (divisor k - 1), over the last axis."""
    return np.add.reduce(row_sums_of_squares, axis=-1) / (
        row_sums_of_squares.shape[-1] * (n_replicates - 1))


def replicate_tau2(replicates: np.ndarray):
    """The tau2 estimate of an (n, k) block of replicate columns, or of each of a stack.

    See :func:`estimate_tau2_from_replicates`; a stack (..., n, k) gives an
    array of shape (...), each entry that of its block alone when the blocks
    are laid out as :func:`_replicate_sums_of_squares` describes.  Replicates
    whose squared deviations overflow float64 raise ``ValueError``.
    """
    with np.errstate(over="ignore"):
        tau2 = _pooled_tau2(_replicate_sums_of_squares(replicates), replicates.shape[-1])
    if not np.isfinite(tau2).all():
        raise ValueError("the replicate measurements' squared deviations overflow float64; "
                         "rescale the exposure")
    return tau2


def estimate_tau2_from_replicates(data: Dataset, spec: AnalysisSpec) -> ErrorVariance:
    """Estimate the error variance as the average within-row replicate variance.

    Each row's k replicate measurements share one true exposure value, so
    their sample variance (divisor k - 1) estimates tau2; averaging over rows
    pools those estimates.
    """
    return ErrorVariance(float(replicate_tau2(data.columns(spec.exposure_replicates))),
                         source="replicates")


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
    return ols_fit(covariates, data.column(spec.exposure)).residual_variance


class CorrectionInputs(NamedTuple):
    """The five numbers every correction reads from a dataset.

    ``slope`` is the naive exposure coefficient and ``residual_variance`` the
    residual variance of the naive fit on [1, x*, covariates]; ``v`` is V, the
    residual variance of x* on [1, covariates]; ``n`` rows and ``p`` naive
    design columns.  Each is a scalar for one dataset, or an array with one
    entry per dataset, so one arithmetic serves a single analysis and a block
    of simulated datasets alike.
    """

    slope: float | np.ndarray
    residual_variance: float | np.ndarray
    v: float | np.ndarray
    n: int | np.ndarray
    p: int | np.ndarray

    @classmethod
    def from_fit(cls, naive: FitResult, v) -> "CorrectionInputs":
        """The numbers of a naive fit (of one design or a stack) and its V."""
        slope = naive.coefficients[..., 1]
        return cls(slope if slope.ndim else float(slope), naive.residual_variance, v,
                   naive.n, naive.p)


def correction_fits(X: np.ndarray, y: np.ndarray) -> tuple[FitResult, FitResult]:
    """The naive fit on [1, x*, covariates] and the calibration fit of x* on the rest.

    ``X`` and ``y`` hold one design or a stack of them, as for :func:`ols_fit`.
    """
    return ols_fit(X, y), ols_fit(np.concatenate((X[..., :1], X[..., 2:]), axis=-1), X[..., 1])


def prepare_correction(data: Dataset, spec: AnalysisSpec) -> CorrectionInputs:
    """The tau2-free part of every correction: the naive fit and V, as five numbers."""
    naive, calibration = correction_fits(
        design_matrix(data, spec.exposure, spec.covariates), data.column(spec.outcome))
    return CorrectionInputs.from_fit(naive, calibration.residual_variance)


def rc_estimates(prepared: CorrectionInputs, tau2):
    """Regression calibration of one dataset or of many: estimates, factors and feasibility.

    ``prepared`` and ``tau2`` hold scalars, or arrays with one entry per
    dataset.  The factor is V / (V - tau2) and the estimate the naive slope
    times it.  The third result is True where tau2 < V; elsewhere no finite
    correction exists, and the dataset's estimate and factor mean nothing.
    """
    v = np.asarray(prepared.v, dtype=np.float64)[()]  # a NumPy scalar for one dataset
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factor = v / (v - tau2)
        return prepared.slope * factor, factor, v > tau2


def _apply_rc(prepared: CorrectionInputs, tau2: ErrorVariance, cfg=None) -> CorrectionResult:
    """Per-tau2 part of regression calibration: the closed-form factor V / (V - tau2)."""
    estimate, factor, feasible = rc_estimates(prepared, tau2.tau2)
    if not feasible:
        raise InfeasibleCorrectionError(
            f"infeasible correction: tau2 ({tau2.tau2:g}) >= "
            f"conditional exposure variance ({prepared.v:g})"
        )
    return CorrectionResult(
        method="rc",
        estimate=float(estimate),
        diagnostics={
            "uncorrected_estimate": prepared.slope,
            "conditional_exposure_variance": prepared.v,
            "correction_factor": float(factor),
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
    so that both correctors share the signature ``(data, spec, tau2, cfg)``.
    """
    return _apply_rc(prepare_correction(data, spec), tau2)


def _simex_values(prepared: CorrectionInputs, tau2, cfg: SimexConfig, seeds):
    """Mean estimate at every grid lambda, one row per seed, and the datasets that overflow.

    ``prepared`` and ``tau2`` hold scalars or arrays with one entry per seed.
    Column 0 (lambda = 0) is the naive slope; row r draws grid entry i from
    the sub-stream (seeds[r], i), and a row with tau2 = 0 draws nothing and
    holds the naive slope throughout.  Returns the values and a mapping from
    the index of each row with a non-finite mean to its ``ValueError``.
    """
    rows = len(seeds)
    slope, residual_variance, v, n, p, tau2 = (
        np.full(rows, x, dtype=np.float64) for x in (*prepared, tau2)
    )
    # Residualized on the other design columns (Frisch-Waugh-Lovell), the
    # exposure is a e1 and the response b e1 + c e2 with e1, e2 orthonormal:
    # a^2 = V (df + 1) from the calibration fit, b = slope a, and c^2 is the
    # naive RSS.  The residualized noise is sd (z1 e1 + z2 e2 + r), where r
    # lies in the other df - 1 residual dimensions and |r|^2 = sd^2 rest.
    df = n - p
    rest_df = df - 1
    lambdas = np.array(cfg.lambda_grid[1:])  # the grid starts at 0
    z = np.zeros((rows, len(lambdas), 2, cfg.n_sim))
    rest = np.zeros((rows, len(lambdas), cfg.n_sim))
    # a row with tau2 = 0 draws nothing
    simulated = [r for r, value in enumerate(tau2.tolist()) if value != 0.0]
    paths = range(1, len(lambdas) + 1)
    streams = substreams([seeds[r] for r in simulated for _ in paths], [*paths] * len(simulated))
    for r in simulated:
        # zip reads z[r] first, so it stops without taking the next row's stream
        for i, (draws, rng) in enumerate(zip(z[r], streams)):
            rng.standard_normal(out=draws)
            if rest_df[r] > 0:
                rest[r, i] = rng.chisquare(rest_df[r], cfg.n_sim)
    z1, z2 = z[:, :, 0], z[:, :, 1]
    values = np.empty((rows, len(cfg.lambda_grid)))
    values[:, 0] = slope
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        a = np.sqrt(v * (df + 1))[:, None, None]
        b = slope[:, None, None] * a
        c = np.sqrt(residual_variance * df)[:, None, None]
        sd = np.sqrt(lambdas * tau2[:, None])[..., None]
        coefs = (a * b + sd * (b * z1 + c * z2)) / (
            a * a + 2.0 * sd * a * z1 + sd * sd * (z1 * z1 + z2 * z2 + rest)
        )
        values[:, 1:] = np.where((tau2 == 0.0)[:, None], slope[:, None], coefs.mean(axis=-1))
    errors = {
        r: ValueError(f"SIMEX pseudo estimates overflow float64 at tau2={tau2[r]:g}; "
                      "rescale the exposure or lower tau2")
        for r in np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist()
    }
    return values, errors


def simex_estimates(prepared: CorrectionInputs, tau2, cfg: SimexConfig, seeds):
    """SIMEX of one dataset or of many: estimates, lambda values and failures.

    Dataset r is simulated from ``seeds[r]``; ``prepared`` and ``tau2`` hold
    scalars or arrays with one entry per seed.  Returns the estimates at
    lambda = -1, the (datasets, grid) array of mean estimates per lambda, and
    a mapping from the index of each dataset whose means or estimate are not
    finite to the ``ValueError`` it fails with.
    """
    values, errors = _simex_values(prepared, tau2, cfg, seeds)
    _, at_minus_one = _extrapolation_weights(cfg.lambda_grid, EXTRAPOLANT_DEGREE[cfg.extrapolant])
    estimates = _weighted_sum(values, at_minus_one)
    tau2 = np.full(estimates.shape, tau2)
    for r in np.flatnonzero(~np.isfinite(estimates)).tolist():
        errors.setdefault(r, ValueError(
            f"SIMEX extrapolation overflows float64 at tau2={tau2[r]:g}"))
    return estimates, values, errors


def _weighted_sum(values: np.ndarray, weights: np.ndarray):
    """``weights @ row`` for each row of ``values``, added in grid order.

    The fixed order makes a row's result independent of the rows beside it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the callers report overflow
        total = values[..., 0] * weights[0]
        for j in range(1, len(weights)):
            total = total + values[..., j] * weights[j]
    return total


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


def _apply_simex(prepared: CorrectionInputs, tau2: ErrorVariance,
                 cfg: SimexConfig) -> CorrectionResult:
    """Per-tau2 part of SIMEX: simulate on the prepared numbers, then extrapolate."""
    estimates, values, errors = simex_estimates(prepared, tau2.tau2, cfg, (cfg.seed,))
    if errors:
        raise errors[0]
    weights, _ = _extrapolation_weights(cfg.lambda_grid, EXTRAPOLANT_DEGREE[cfg.extrapolant])
    return CorrectionResult(
        method="simex",
        estimate=float(estimates[0]),
        diagnostics={
            "lambda_estimates": dict(zip(cfg.lambda_grid, values[0].tolist())),
            "extrapolant": cfg.extrapolant,
            "extrapolant_coefficients": tuple((weights @ values[0]).tolist()),
            "tau2": tau2.tau2,
        },
    )


def correct_simex(
    data: Dataset, spec: AnalysisSpec, tau2: ErrorVariance, cfg: SimexConfig
) -> CorrectionResult:
    """Full simulation-extrapolation correction (simulate, then extrapolate)."""
    return _apply_simex(prepare_correction(data, spec), tau2, cfg)


def correction_steps(method: str) -> tuple:
    """``(corrector, apply)`` of ``method``, from the module's current bindings.

    ``corrector(data, spec, tau2, cfg) == apply(prepare_correction(data, spec), tau2, cfg)``:
    ``apply`` is the per-tau2 step.
    """
    steps = dict(zip(CORRECTION_METHODS, ((correct_rc, _apply_rc), (correct_simex, _apply_simex))))
    if method not in steps:
        raise ValueError(f"corrector must be one of {CORRECTION_METHODS}, got {method!r}")
    return steps[method]


def _bootstrap_replicate(
    data: Dataset,
    spec: AnalysisSpec,
    correct,
    tau2: ErrorVariance,
    row_sums_of_squares: np.ndarray | None,
    cfg: SimexConfig | None,
    rng: np.random.Generator,
) -> float | None:
    """One resample-and-correct pass on the replicate's generator; None signals a failure.

    With ``row_sums_of_squares`` (tau2 from replicates) tau2 is pooled from
    the drawn rows' entries, which equals re-estimating it on the resample.
    A given ``cfg`` gets a fresh seed per replicate, drawn after the rows.
    """
    rows = rng.integers(0, data.n_rows, size=data.n_rows)
    resample = data.take_rows(rows)
    tau2_b = tau2 if row_sums_of_squares is None else ErrorVariance(
        float(_pooled_tau2(row_sums_of_squares[rows], spec.n_replicates)), source="replicates")
    cfg_b = None if cfg is None else replace(cfg, seed=draw_seed(rng))
    try:
        return correct(resample, spec, tau2_b, cfg_b).estimate
    except (InfeasibleCorrectionError, SingularDesignError):
        return None


def check_bootstrap(n_boot: int, level: float) -> None:
    """Raise ``ValueError`` unless integer ``n_boot >= MIN_BOOT`` and real ``0 < level < 1``."""
    require_integers(SimpleNamespace(n_boot=n_boot), "n_boot")
    if n_boot < MIN_BOOT:
        raise ValueError(f"n_boot must be at least {MIN_BOOT}, got {n_boot}")
    check_level(level)


def bootstrap_ci(
    data: Dataset,
    spec: AnalysisSpec,
    corrector: str,
    tau2: ErrorVariance,
    cfg: SimexConfig | None = None,
    n_boot: int = 999,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for a corrected exposure coefficient.

    Rows are resampled with replacement ``n_boot`` times and the full
    corrector re-run on each resample.  When tau2 came from replicates it is
    re-estimated per resample so its sampling uncertainty propagates into the
    interval; an externally supplied tau2 is held fixed.  Replicate ``b``
    uses the RNG sub-stream (seed, b), so the interval is reproducible and
    independent of any execution order; the sub-streams of all replicates
    are seeded in one pass (:func:`substreams`), and every replicate runs in
    the calling process.

    Replicates on which the correction fails (infeasible calibration,
    singular resample) are dropped; if more than 10% fail the interval is
    abandoned with a :class:`BootstrapError`.
    """
    check_bootstrap(n_boot, level)
    correct, _ = correction_steps(corrector)
    if corrector == "rc":  # RC ignores cfg: its replicates skip the per-replicate reseed
        cfg = None
    elif cfg is None:  # SIMEX is the one randomized corrector
        raise ValueError("the simex corrector needs a SimexConfig")

    row_sums_of_squares = (
        _replicate_sums_of_squares(data.columns(spec.exposure_replicates))
        if tau2.source == "replicates" else None
    )
    replicate_estimates = (_bootstrap_replicate(data, spec, correct, tau2, row_sums_of_squares,
                                                cfg, rng)
                           for rng in substreams(seed, np.arange(n_boot)))
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
