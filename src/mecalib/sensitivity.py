"""Sensitivity analysis when no validation data pin down the error variance.

Instead of a single tau2, the analyst specifies a prior distribution over it
(uniform, triangular, or trapezoidal), the distribution is sampled by inverse
transform, and the draws are corrected in one array pass.  The spread of the
corrected estimates across draws shows how much the conclusion depends on the
assumed amount of measurement error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from statistics import median
from types import SimpleNamespace

import numpy as np

from .correct import (ErrorVariance, SimexConfig, bootstrap_ci, check_bootstrap, correction_steps,
                      prepare_correction, rc_estimates, simex_estimates)
from .data import AnalysisSpec, Dataset
from .errors import InfeasibleCorrectionError
from .util import (check_threads, draw_seed, parallel_map, require_integers, require_reals,
                   substream, substreams, write_csv_rows, write_json)

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
        require_reals(self, "min", "max", *(name for name in ("mode", "lower_mode", "upper_mode")
                                            if getattr(self, name) is not None))
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


# Draws whose SIMEX pseudo estimates are one array pass (about 27 KB a draw at
# n_sim = 100).  With NumPy 2.4 on one Xeon vCPU, blocks of 16 to 256 draws
# cost the same per draw at m = 100 and 1000; 8 cost 13% more, 4 40% more.
SIMEX_BLOCK_DRAWS = 32


def _draw_interval(data, spec, method, simex_config, n_boot, level, job):
    """Bootstrap interval of one draw; ``job`` is its tau2 and its two seeds."""
    tau2, (corrector_seed, interval_seed) = job
    return bootstrap_ci(data, spec, method, ErrorVariance(tau2, source="external"),
                        replace(simex_config, seed=corrector_seed),
                        n_boot=n_boot, level=level, seed=interval_seed)


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
    costs n_boot full simulation-extrapolation runs; with intervals on, an
    ``n_boot`` or ``level`` that ``bootstrap_ci`` would refuse raises before
    any draw.  Infeasible calibration
    draws (tau2 beyond the observed conditional exposure variance) are
    recorded with ``status="infeasible"`` and excluded from the summary; if
    every draw is infeasible the analysis raises instead of returning an
    empty summary.  The tau2-free fits run once, and the draws are corrected
    in one array pass (SIMEX in blocks of ``SIMEX_BLOCK_DRAWS``), each equal
    to a full correction at its tau2 bit for bit; the first SIMEX draw that
    overflows raises its ``ValueError``.  ``threads`` parallelises only the
    bootstrap intervals of the feasible draws.  Deterministic given ``seed``,
    whatever ``threads`` is.
    """
    require_integers(SimpleNamespace(m=m, seed=seed), "m", "seed")
    check_threads(threads)
    if ci is not None and not isinstance(ci, (bool, np.bool_)):
        raise ValueError(f"ci must be True, False or None, got {ci!r}")
    correction_steps(method)  # rejects an unknown method
    ci = method == "rc" if ci is None else ci
    if ci:
        check_bootstrap(n_boot, level)  # before any draw is corrected
    simex_config = simex_config or SimexConfig()

    tau2_draws = sample_tau2(dist, m, seed)
    prepared = prepare_correction(data, spec)  # the tau2-free fits, once
    if method == "simex" or ci:  # draw i's (corrector seed, interval seed), from stream (1, i)
        paths = np.column_stack((np.ones(m, dtype=np.int64), np.arange(m)))
        seeds = [(draw_seed(rng), draw_seed(rng)) for rng in substreams(seed, paths)]
    if method == "rc":
        estimates, _, feasible = (values.tolist() for values in rc_estimates(prepared, tau2_draws))
    else:
        estimates, feasible = [], [True] * m
        for start in range(0, m, SIMEX_BLOCK_DRAWS):
            block = slice(start, start + SIMEX_BLOCK_DRAWS)
            values, _, errors = simex_estimates(prepared, tau2_draws[block], simex_config,
                                                [corrector for corrector, _ in seeds[block]])
            if errors:
                raise errors[min(errors)]
            estimates += values.tolist()
    tau2_draws = tau2_draws.tolist()

    ok = [i for i in range(m) if feasible[i]]
    if not ok:
        raise InfeasibleCorrectionError(
            f"all {m} tau2 draws were infeasible; the assumed error variance distribution lies "
            "entirely at or above the conditional exposure variance")
    jobs = [(tau2_draws[i], seeds[i]) for i in ok] if ci else []  # no jobs, no worker process
    worker = partial(_draw_interval, data, spec, method, simex_config, n_boot, level)
    intervals = dict(zip(ok, parallel_map(worker, jobs, threads=threads)))
    draws = tuple(
        SensitivityDraw(tau2, estimates[i], *intervals.get(i, (None, None)), "ok")
        if feasible[i] else SensitivityDraw(tau2, None, None, None, "infeasible")
        for i, tau2 in enumerate(tau2_draws)
    )
    ok_estimates = [estimates[i] for i in ok]
    summary = {"median": median(ok_estimates), "min": min(ok_estimates),
               "max": max(ok_estimates), "n_ok": len(ok), "n_infeasible": m - len(ok)}
    return SensitivityResult(method=method, distribution=dist, draws=draws, summary=summary)


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
