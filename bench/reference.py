"""Independent reference computations for the benchmark's output checks.

Nothing here calls mecalib.  Deterministic results (uncorrected OLS
coefficients, their standard errors, the replicate-based tau2 and the
regression-calibration estimate) are recomputed with ``numpy.linalg.lstsq``
and compared to the program's output to a relative tolerance of 1e-9.
Random results (bootstrap coverage, SIMEX estimates, prior draws) are
checked in distribution, pooled over a run, with tolerances in Monte Carlo
standard errors (MCSE).
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
# Pooled distribution checks fail only beyond this many MCSEs.  A run makes
# up to ~70 such tests, so 5 keeps a false alarm below 1e-4 per run.
Z_TOL = 5.0

TRUE_EFFECT = 0.2
AGE_MEAN, AGE_VAR = 32.0, 25.0
BP_INTERCEPT, BP_VAR_GIVEN_AGE = 120.0, 50.0
OUTCOME_INTERCEPT, AGE_EFFECT = 30.0, 0.2


def close(actual, expected, rel=REL_TOL, floor=1e-3) -> bool:
    """True when ``actual`` matches ``expected`` to relative tolerance ``rel``.

    Magnitudes below ``floor`` are compared as if they were ``floor``, so a
    mean squared error near zero is not held to digits it cannot have.
    """
    try:
        actual = float(actual)
    except (TypeError, ValueError):
        return False
    return math.isfinite(actual) and abs(actual - expected) <= rel * max(floor, abs(expected))


def study_dataset(seed: int, rep: int, n: int, k: int, tau2: float, sigma2: float,
                  gamma: float) -> np.ndarray:
    """The documented synthetic mechanism, drawn from stream (seed, rep).

    Columns: creatinine, bp_star_1..bp_star_k, age.  The draw order (age, bp
    noise, replicate errors, outcome noise) is the one the study documents,
    so the array equals the dataset the study analyses for that repetition.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))
    age = rng.normal(AGE_MEAN, math.sqrt(AGE_VAR), n)
    bp = BP_INTERCEPT + gamma * age + rng.normal(0.0, math.sqrt(BP_VAR_GIVEN_AGE), n)
    replicate_errors = rng.normal(0.0, math.sqrt(tau2), (n, k))
    creatinine = (OUTCOME_INTERCEPT + TRUE_EFFECT * bp + AGE_EFFECT * age
                  + rng.normal(0.0, math.sqrt(sigma2), n))
    return np.column_stack([creatinine, bp[:, None] + replicate_errors, age])


def ols(X: np.ndarray, y: np.ndarray):
    """(coefficients, standard errors, residual variance) of y on X."""
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    n, p = X.shape
    s2 = float(resid @ resid) / (n - p)
    r_inv = np.linalg.inv(np.linalg.qr(X, mode="r"))
    se = np.sqrt(s2 * np.einsum("ij,ij->i", r_inv, r_inv))
    return coef, se, s2


def analyses(values: np.ndarray, k: int) -> dict:
    """Uncorrected and regression-calibration results on one study array.

    ``values`` has the column layout of :func:`study_dataset`; tau2 is the
    mean within-row replicate variance.  ``rc`` is None when the correction
    is infeasible (tau2 >= V).
    """
    y, x, age = values[:, 0], values[:, 1], values[:, k + 1]
    ones = np.ones(len(y))
    X = np.column_stack([ones, x, age])
    coef, se, s2 = ols(X, y)
    _, _, v = ols(np.column_stack([ones, age]), x)
    reps = values[:, 1:k + 1]
    dev = reps - reps.mean(axis=1, keepdims=True)
    tau2 = float(np.mean(np.sum(dev * dev, axis=1) / (k - 1)))
    naive = float(coef[1])
    rc = naive * v / (v - tau2) if v > tau2 else None
    return {"coef": coef, "se": se, "s2": s2, "naive": naive, "tau2": tau2, "v": v,
            "factor": v / (v - tau2) if v > tau2 else None, "rc": rc}


class Pool:
    """A pooled mean over groups of repetitions.

    Each group adds its size, mean and sample SD (as the study summary
    reports them); the pooled mean and its MCSE are exact for the union of
    all repetitions.
    """

    def __init__(self):
        self.groups = []

    def add(self, count: int, mean: float, sd: float) -> None:
        self.groups.append((count, mean, sd))

    @property
    def count(self) -> int:
        return sum(c for c, _, _ in self.groups)

    def mean(self) -> float:
        return sum(c * m for c, m, _ in self.groups) / self.count

    def mcse(self) -> float:
        n, grand = self.count, self.mean()
        ss = sum((c - 1) * sd * sd + c * (m - grand) ** 2 for c, m, sd in self.groups)
        return math.sqrt(ss / (n - 1) / n) if n > 1 else math.inf


def within(label: str, value: float, lo: float, hi: float, mcse: float, errors: list) -> None:
    """Append an error unless lo - Z*mcse <= value <= hi + Z*mcse."""
    slack = Z_TOL * mcse
    if not (lo - slack <= value <= hi + slack):
        errors.append(f"{label}: {value:.6g} outside [{lo:.6g}, {hi:.6g}] "
                      f"+/- {Z_TOL:g} MCSE ({mcse:.3g})")
