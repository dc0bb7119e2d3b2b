"""Ordinary least squares via one Householder QR (Golub & Van Loan, 5.3).

This is the single fitting engine behind the uncorrected analysis, the
calibration-model residual variance, and every inner refit of the
simulation-extrapolation and bootstrap loops.  One QR of [X | y] yields R,
Q'y and the residual norm; the singular values of R, those of X, are
checked against a relative tolerance, so near-collinear designs degrade
into an explicit rank error rather than silently unstable coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.linalg import lapack

from .errors import InsufficientDataError, SingularDesignError

# Relative singular-value cutoff below which a design counts as rank deficient.
RANK_TOLERANCE = 1e-10
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class FitResult:
    """Coefficients and classical OLS uncertainty summaries.

    ``coefficients`` follow the design-matrix column order (intercept first).
    ``residual_variance`` uses the n - p convention, p counting the intercept,
    so an intercept-only fit reproduces the unbiased sample variance.
    ``r_squared`` is 1 - rss / tss, except for a constant response (tss within
    the rounding noise n (n eps mean(y))^2): 1 if rss is within that cut, else 0.
    """

    coefficients: np.ndarray
    standard_errors: np.ndarray
    residual_variance: float
    r_squared: float
    n: int
    p: int

    def __post_init__(self):
        for name in ("coefficients", "standard_errors"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.coefficients.shape != self.standard_errors.shape:
            raise ValueError("coefficients and standard_errors must align")


def _lapack(routine, *args, **kwargs) -> list:  # outputs without the info code
    *outputs, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} failed with info={info}")
    return outputs


def ols_fit(X: np.ndarray, y: np.ndarray) -> FitResult:
    """Least-squares fit of ``y`` on the columns of ``X``.

    Parameters
    ----------
    X : (n, p) design matrix, full column rank, n > p.
    y : (n,) response vector.

    Raises
    ------
    SingularDesignError
        If the smallest singular value is below ``RANK_TOLERANCE`` times the
        largest.
    InsufficientDataError
        If there are no residual degrees of freedom (n <= p).
    ValueError
        If X or y holds a NaN or an infinity, or a sum of squares, a
        coefficient or a standard error overflows.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D design matrix")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n <= p:
        raise InsufficientDataError(f"n={n} rows cannot identify p={p} parameters")

    augmented = np.empty((n, p + 1), order="F")
    augmented[:, :p] = X
    augmented[:, p] = y
    qr, _, _ = _lapack(lapack.dgeqrf, augmented, overwrite_a=1)
    # Top block: R | Q'y above the residual norm, reflectors below the diagonal.
    top = qr[: p + 1]
    if not np.isfinite(top).all():  # NaN and inf reach R, Q'y or the norm
        if np.isfinite(X).all() and np.isfinite(y).all():
            raise ValueError("a column norm of [X | y] overflows float64; rescale X or y")
        raise ValueError("X and y must hold finite values only")
    for j in range(p):
        top[j + 1 :, j] = 0.0
    r = top[:p, :p]
    _, s, _ = _lapack(lapack.dgesdd, r, compute_uv=0)
    if s[0] <= 0.0 or s[-1] < RANK_TOLERANCE * s[0]:
        raise SingularDesignError(
            f"design matrix is rank deficient (singular value ratio "
            f"{s[-1] / s[0] if s[0] > 0 else 0:.3e} < {RANK_TOLERANCE:g})"
        )
    (r_inv,) = _lapack(lapack.dtrtri, r)
    try:
        rss = float(top[p, p]) ** 2
    except OverflowError:  # the residual norm passed about 1e154
        rss = math.inf
    residual_variance = rss / (n - p)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are reported below
        mean = float(y.sum()) / n
        coef = r_inv @ top[:p, p]
        # diag((X'X)^-1) = diag(R^-1 R^-T): the row sums of squares of R^-1.
        standard_errors = np.sqrt(residual_variance * np.einsum("ij,ij->i", r_inv, r_inv))
    centered = y - mean
    tss = float(np.vdot(centered, centered))  # BLAS: overflows to inf without a warning
    if not (math.isfinite(rss) and math.isfinite(tss)):
        raise ValueError("sum of squares of y overflows float64; rescale y")
    if not all(map(math.isfinite, coef.tolist() + standard_errors.tolist())):  # p is small
        raise ValueError("a coefficient or standard error overflows float64; rescale X or y")
    noise = n * _EPS * mean  # rounding error left in each centred y
    cut = n * noise * noise  # a tss within it: constant y; an rss within it: exact fit
    r_squared = 1.0 - rss / tss if tss > cut else float(rss <= cut)

    return FitResult(
        coefficients=coef,
        standard_errors=standard_errors,
        residual_variance=residual_variance,
        r_squared=r_squared,
        n=n,
        p=p,
    )


def residual_variance_of(X: np.ndarray, v: np.ndarray) -> float:
    """Residual variance of ``v`` regressed on the columns of ``X``.

    With an intercept-only X this is the unbiased sample variance of ``v``;
    with covariates it is the conditional variance of ``v`` given them.
    """
    return ols_fit(X, v).residual_variance


def wald_interval(fit: FitResult, index: int = 1, level: float = 0.95):
    """Normal-theory t interval for one coefficient of an OLS fit."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    half = stats.t.ppf(0.5 + level / 2.0, fit.n - fit.p) * fit.standard_errors[index]
    estimate = fit.coefficients[index]
    return float(estimate - half), float(estimate + half)
