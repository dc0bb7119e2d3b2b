"""Sensitivity analysis when no validation data pin down the error variance.

Instead of a single tau2, the analyst specifies a prior distribution over it
(uniform, triangular, or trapezoidal), the distribution is sampled by inverse
transform, and a correction is run per draw.  The spread of the corrected
estimates across draws shows how much the conclusion depends on the assumed
amount of measurement error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from statistics import median

import numpy as np

from .correct import (ErrorVariance, SimexConfig, bootstrap_ci, correction_steps,
                      prepare_correction)
from .data import AnalysisSpec, Dataset
from .errors import InfeasibleCorrectionError
from .util import draw_seed, parallel_map, substream, write_csv_rows, write_json

PLOT_DATA_COLUMNS = ("tau2", "estimate", "ci_lower", "ci_upper", "status")


@dataclass(frozen=True)
class ErrorVarianceDistribution:
    """Prior for tau2 with bounded support [min, max].

    * ``uniform``: flat over [min, max].
    * ``triangular``: peak at ``mode``, linear decay to the endpoints.
    * ``trapezoidal``: linear ramp from min to ``lower_mode``, flat plateau to
      ``upper_mode``, linear ramp down to max.

    Degenerate shapes (equal parameters) are allowed and collapse to point
    masses or simpler shapes.
    """

    kind: str
    min: float
    max: float
    mode: float | None = None
    lower_mode: float | None = None
    upper_mode: float | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "triangular", "trapezoidal"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError("distribution bounds must be finite")
        if self.min < 0.0:
            raise ValueError(f"min must be nonnegative (variance units), got {self.min}")
        if self.max < self.min:
            raise ValueError(f"max ({self.max}) must be >= min ({self.min})")
        if self.kind == "triangular":
            if self.mode is None:
                raise ValueError("triangular distribution needs a mode")
            if not self.min <= self.mode <= self.max:
                raise ValueError(
                    f"need min <= mode <= max, got {self.min}, {self.mode}, {self.max}"
                )
        if self.kind == "trapezoidal":
            if self.lower_mode is None or self.upper_mode is None:
                raise ValueError("trapezoidal distribution needs lower_mode and upper_mode")
            if not self.min <= self.lower_mode <= self.upper_mode <= self.max:
                raise ValueError(
                    "need min <= lower_mode <= upper_mode <= max, got "
                    f"{self.min}, {self.lower_mode}, {self.upper_mode}, {self.max}"
                )

    def parameters(self) -> dict:
        out = {"kind": self.kind, "min": self.min, "max": self.max}
        if self.kind == "triangular":
            out["mode"] = self.mode
        if self.kind == "trapezoidal":
            out["lower_mode"] = self.lower_mode
            out["upper_mode"] = self.upper_mode
        return out


def _ramp_offset(u, h, width):
    """Distance ``sqrt(u * h * 2 width)`` from a ramp's outer end to the quantile.

    Where the direct product overflows (a ramp near the float64 limit) the
    root is taken factor by factor, with no overflowing intermediate.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf: the factored form holds
        direct = np.sqrt(u * h * (2.0 * width))
        factored = np.sqrt(u * h) * (np.sqrt(width) * math.sqrt(2.0))
    return np.where(np.isfinite(direct), direct, factored)


def trapezoidal_inverse_cdf(u, low: float, lower_mode: float, upper_mode: float, high: float):
    """Quantile function of the trapezoidal distribution (ramp, plateau, ramp).

    The plateau density is 1 / h, h half the support width plus half the
    plateau width; h stays finite for every finite support.  Each ramp doubles
    its own width, not h, so a flat ramp gives 0 even where 2h overflows.
    """
    u = np.asarray(u, dtype=np.float64)
    if high == low:
        return np.full_like(u, low)
    h = (high - low) / 2.0 + (upper_mode - lower_mode) / 2.0
    cdf_lower = (lower_mode - low) / h / 2.0
    cdf_upper = cdf_lower + (upper_mode - lower_mode) / h
    rising = low + _ramp_offset(u, h, lower_mode - low)
    plateau = lower_mode + (u - cdf_lower) * h
    falling = high - _ramp_offset(1.0 - u, h, high - upper_mode)
    return np.select([u < cdf_lower, u <= cdf_upper], [rising, plateau], default=falling)


def sample_tau2(dist: ErrorVarianceDistribution, m: int, seed: int = 0) -> np.ndarray:
    """Draw ``m`` tau2 values by inverse transform of Uniform(0, 1), every prior as a trapezoid."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    u = substream(seed).random(m)
    corners = {
        "uniform": (dist.min, dist.min, dist.max, dist.max),
        "triangular": (dist.min, dist.mode, dist.mode, dist.max),
        "trapezoidal": (dist.min, dist.lower_mode, dist.upper_mode, dist.max),
    }[dist.kind]
    # sqrt rounding can overshoot the support by an ulp; clamp it back
    return np.clip(trapezoidal_inverse_cdf(u, *corners), dist.min, dist.max)


@dataclass(frozen=True)
class SensitivityDraw:
    tau2: float
    estimate: float | None
    ci_lower: float | None
    ci_upper: float | None
    status: str  # "ok" | "infeasible"


@dataclass(frozen=True)
class SensitivityResult:
    """Per-draw corrected estimates plus a summary over the feasible ones.

    ``draws`` stay in sampling order so a re-run with the same seed is
    comparable element by element; ``summary`` holds median/min/max of the
    ok estimates and the feasibility counts.
    """

    method: str
    distribution: ErrorVarianceDistribution
    draws: tuple[SensitivityDraw, ...]
    summary: dict


def _draw_rng(seed: int, index: int):
    """Per-draw RNG stream; kept as a named helper so tests can re-derive it."""
    return substream(seed, 1, index)


def _run_draw(data, spec, method, correct, simex_config, ci, n_boot, level, seed, job):
    """One draw; ``correct`` is the prepared ``(tau2, cfg)`` step of ``method``."""
    index, tau2_value = job
    rng = _draw_rng(seed, index)
    corrector_seed = draw_seed(rng)
    ci_seed = draw_seed(rng)
    error_variance = ErrorVariance(tau2=float(tau2_value), source="external")
    cfg = replace(simex_config, seed=corrector_seed)
    try:
        result = correct(error_variance, cfg)
        lower = upper = None
        if ci:
            lower, upper = bootstrap_ci(
                data, spec, method, error_variance, cfg,
                n_boot=n_boot, level=level, seed=ci_seed,
            )
        return SensitivityDraw(float(tau2_value), result.estimate, lower, upper, "ok")
    except InfeasibleCorrectionError:
        return SensitivityDraw(float(tau2_value), None, None, None, "infeasible")


def run_sensitivity(
    data: Dataset,
    spec: AnalysisSpec,
    dist: ErrorVarianceDistribution,
    method: str,
    m: int = 100,
    ci: bool | None = None,
    n_boot: int = 199,
    level: float = 0.95,
    simex_config: SimexConfig | None = None,
    seed: int = 0,
    threads: int = 1,
) -> SensitivityResult:
    """Correct the exposure coefficient once per tau2 draw from ``dist``.

    ``ci=None`` applies the method default: bootstrap intervals on for
    regression calibration (cheap) and off for SIMEX, where each interval
    costs n_boot full simulation-extrapolation runs.  Infeasible calibration
    draws (tau2 beyond the observed conditional exposure variance) are
    recorded with ``status="infeasible"`` and excluded from the summary; if
    every draw is infeasible the analysis raises instead of returning an
    empty summary.  Deterministic given ``seed``, whatever ``threads`` is.
    The tau2-free fits run once; each draw runs only the per-tau2 step.
    """
    _, apply = correction_steps(method)  # rejects an unknown method first
    if ci is None:
        ci = method == "rc"
    if simex_config is None:
        simex_config = SimexConfig()

    tau2_draws = sample_tau2(dist, m, seed)
    correct = partial(apply, prepare_correction(data, spec))  # the tau2-free fits, once
    worker = partial(_run_draw, data, spec, method, correct, simex_config, ci, n_boot, level, seed)
    draws = parallel_map(worker, enumerate(tau2_draws), threads=threads)

    ok = [d.estimate for d in draws if d.status == "ok"]
    if not ok:
        raise InfeasibleCorrectionError(
            f"all {m} tau2 draws were infeasible; the assumed error variance "
            "distribution lies entirely at or above the conditional exposure variance"
        )
    summary = {
        "median": float(median(ok)),
        "min": float(min(ok)),
        "max": float(max(ok)),
        "n_ok": len(ok),
        "n_infeasible": m - len(ok),
    }
    return SensitivityResult(
        method=method, distribution=dist, draws=tuple(draws), summary=summary
    )


def emit_plot_data(result: SensitivityResult, path: str | os.PathLike) -> tuple[str, str]:
    """Write plot-ready CSV (one row per draw, sorted by tau2) plus a JSON sidecar.

    CSV columns are exactly ``tau2, estimate, ci_lower, ci_upper, status``;
    infeasible draws keep their row with empty numeric cells.  The sidecar
    (same path with a .json extension) records the method, draw count,
    distribution parameters, and the estimate summary.  Returns the two paths
    written.  Both files are written atomically.
    """
    if not result.draws:
        raise ValueError("cannot emit an empty sensitivity result")
    csv_path = os.fspath(path)
    base, ext = os.path.splitext(csv_path)
    json_path = base + (".summary.json" if ext == ".json" else ".json")

    rows = [
        (draw.tau2, draw.estimate, draw.ci_lower, draw.ci_upper, draw.status)
        for draw in sorted(result.draws, key=lambda d: d.tau2)
    ]
    write_csv_rows(csv_path, PLOT_DATA_COLUMNS, rows)
    sidecar = {
        "method": result.method,
        "m": len(result.draws),
        "distribution": result.distribution.parameters(),
        "summary": result.summary,
    }
    write_json(json_path, sidecar)
    return csv_path, json_path
