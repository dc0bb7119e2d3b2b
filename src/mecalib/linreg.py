"""Ordinary least squares via one Householder QR (Golub & Van Loan, 5.3).

This is the single fitting engine behind the uncorrected analysis, the
calibration-model residual variance, and every inner refit of the
simulation-extrapolation and bootstrap loops.  One QR of [X | y] yields R,
Q'y and the residual norm.  The singular values of R with each column scaled
to unit norm, those of X so scaled, are checked against a relative
tolerance, so near-collinear designs degrade into an explicit rank error
rather than silently unstable coefficients, whatever units the columns are in.
The inverse of R that the coefficients and standard errors need, one gufunc
call over the whole stack, also bounds that ratio from below; only a design
the bound cannot clear gets the SVD.
Everything runs on NumPy's own LAPACK, so no SciPy module is loaded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg, lapack_lite

from .errors import InsufficientDataError, SingularDesignError
from .util import check_level

# Relative singular-value cutoff, on unit-norm columns, below which a design
# counts as rank deficient.
RANK_TOLERANCE = 1e-10
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class FitResult:
    """Coefficients and classical OLS uncertainty summaries.

    ``coefficients`` follow the design-matrix column order (intercept first).
    ``residual_variance`` uses the n - p convention, p counting the intercept,
    so an intercept-only fit reproduces the unbiased sample variance.  A fit
    of a stack of designs holds arrays with one entry (or row) per design.
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


def _finite(*values) -> bool:
    """Whether every entry of the scalars and small arrays is finite."""
    for value in values:
        if isinstance(value, float):
            if not math.isfinite(value):
                return False
        elif not all(map(math.isfinite, value.ravel().tolist())):
            return False
    return True


def _check_rank(r: np.ndarray, norms: np.ndarray, designs) -> None:
    """Raise ``SingularDesignError`` for the first of ``designs`` whose unit-norm columns fail.

    The exact rank test: the singular values of R with its columns scaled to
    unit norm (those of X so scaled), smallest against largest.  ``designs``
    holds indices into the stack ``r``, in stack order.
    """
    for d in designs:
        ratio = 0.0  # a zero column
        if 0.0 not in norms[d].tolist():  # p is small
            s = np.linalg.svd(r[d] / norms[d], compute_uv=False)
            ratio = s[-1] / s[0]
        if not ratio >= RANK_TOLERANCE:
            raise SingularDesignError(
                f"design matrix is rank deficient (singular value ratio of the "
                f"unit-norm columns {ratio:.3e} < {RANK_TOLERANCE:g})"
            )


def ols_fit(X: np.ndarray, y: np.ndarray) -> FitResult:
    """Least-squares fit of ``y`` on the columns of ``X``, or of each of a stack of designs.

    Parameters
    ----------
    X : (n, p) design matrix, full column rank, n > p, or a stack (..., n, p).
    y : (n,) response vector, or a stack (..., n) with the same leading shape.

    A stack runs the same QR design by design and then everything else once,
    elementwise or matrix by matrix over the stack.  Its ``FitResult`` holds
    arrays: coefficients and standard errors of shape (..., p), residual
    variance and R^2 of shape (...).  Each design's numbers are those of a fit
    on that design alone, bit for bit, whatever the stack holds besides.

    Raises
    ------
    SingularDesignError
        If, with each column of X scaled to unit norm, the smallest singular
        value is below ``RANK_TOLERANCE`` times the largest.
    InsufficientDataError
        If there are no residual degrees of freedom (n <= p).
    ValueError
        If X has no columns, X or y holds a NaN or an infinity, or a sum of
        squares, a coefficient or a standard error overflows.
    A stack raises if any of its designs would.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim < 2 or X.shape[-1] == 0:
        raise ValueError(f"X must be an (n, p) design matrix with p >= 1, got shape {X.shape}")
    *batch, n, p = X.shape
    if y.shape != (*batch, n):
        raise ValueError(f"y has shape {y.shape}, expected {(*batch, n)}")
    if n <= p:
        raise InsufficientDataError(f"n={n} rows cannot identify p={p} parameters")

    # Each design's [X | y] is a C-ordered (p + 1, n) block, LAPACK's column-major
    # (n, p + 1) matrix, so dgeqrf factors it in place.  The minimal workspace
    # keeps the unblocked Householder QR whatever p is.
    block = np.empty((*batch, p + 1, n))
    augmented = block.swapaxes(-1, -2)
    augmented[..., :p] = X
    augmented[..., p] = y
    tau, work = np.empty(p + 1), np.empty(p + 1)
    designs = list(itertools.product(*map(range, batch))) if batch else [()]
    for d in designs:
        info = lapack_lite.dgeqrf(n, p + 1, block[d], n, tau, work, p + 1, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK dgeqrf failed with info={info}")
    # Top block: R | Q'y above the residual norm, reflectors below the diagonal.
    top = augmented[..., : p + 1, :]
    if not _finite(top):  # NaN and inf reach R, Q'y or the norm
        if np.isfinite(X).all() and np.isfinite(y).all():
            raise ValueError("a column norm of [X | y] overflows float64; rescale X or y")
        raise ValueError("X and y must hold finite values only")
    r = top[..., :p, :p]
    for j in range(p - 1):  # the reflectors below R's diagonal; no later step reads row p's
        r[..., j + 1 :, j] = 0.0
    norms = np.hypot.reduce(r, axis=-2)  # those of X's columns; hypot cannot overflow
    residual_norm = top[..., p, p]  # per design: a scalar for one design
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        # The gufunc behind np.linalg.inv, without that wrapper's per-call cost:
        # an exact zero pivot gives its design a NaN inverse, not an exception.
        r_inv = _umath_linalg.inv(r, signature="d->d")
        # sqrt(diag((X'X)^-1)) = sqrt(diag(R^-1 R^-T)): the row norms of R^-1.
        inverse_row_norms = np.hypot.reduce(r_inv, axis=-1)
        inverse_norm = np.hypot.reduce(norms * inverse_row_norms, axis=-1)  # ||D R^-1||_F
        rss = residual_norm * residual_norm
        residual_variance = rss / (n - p)
        coef = (r_inv @ top[..., :p, p:])[..., 0]
        standard_errors = np.sqrt(residual_variance)[..., None] * inverse_row_norms
        mean = np.add.reduce(y, -1) / n
        centered = y - mean[..., None]
        centered *= centered
        tss = np.add.reduce(centered, -1)
        noise = n * _EPS * mean  # rounding error left in each centred y
        cut = n * noise * noise  # a tss within it: constant y; an rss within it: exact fit
        r_squared = 1.0 - rss / tss
        constant = tss <= cut
        if True in constant.ravel().tolist():
            r_squared = np.where(constant, rss <= cut, r_squared)[()]
    # Rank certificate (Golub & Van Loan, 2.3): the unit-norm columns A = R D^-1,
    # D = diag(norms), have sigma_max <= ||A||_F = sqrt(p) and sigma_min >=
    # 1 / ||A^-1||_F = 1 / ||D R^-1||_F.  A ratio bound of twice the tolerance
    # leaves room for rounding; any other design, NaN bound included, gets the
    # exact test.
    certified = (inverse_norm <= 0.5 / (math.sqrt(p) * RANK_TOLERANCE)).ravel().tolist()
    if False in certified:
        _check_rank(r, norms, [d for d, ok in zip(designs, certified) if not ok])
        # A NaN inverse fails the certificate; should the exact test pass its
        # zero pivot, raise what np.linalg.inv raises for it.
        if 0.0 in np.diagonal(r, 0, -2, -1).ravel().tolist():
            raise np.linalg.LinAlgError("Singular matrix")
    if not _finite(rss, tss, coef, standard_errors):
        if not _finite(rss, tss):
            raise ValueError("sum of squares of y overflows float64; rescale y")
        raise ValueError("a coefficient or standard error overflows float64; rescale X or y")
    coef.setflags(write=False)
    standard_errors.setflags(write=False)
    if not batch:
        residual_variance, r_squared = float(residual_variance), float(r_squared)

    # Fresh, aligned, read-only float64 arrays: nothing for __post_init__ to check.
    fit = object.__new__(FitResult)
    fit.__dict__.update(coefficients=coef, standard_errors=standard_errors,
                        residual_variance=residual_variance, r_squared=r_squared, n=n, p=p)
    return fit


def wald_interval(fit: FitResult, index: int = 1, level: float = 0.95):
    """Normal-theory t interval for one coefficient of an OLS fit.

    The quantile is ``stdtrit``, the inverse Student t distribution function
    that ``scipy.stats.t.ppf`` evaluates, called without its argument handling.
    A stacked fit gives arrays of endpoints, one per design.  ``scipy.special``
    is imported here, on the first interval, so ``import mecalib`` does not
    load it.
    """
    from scipy import special

    check_level(level)
    half = special.stdtrit(fit.n - fit.p, 0.5 + level / 2.0) * fit.standard_errors[..., index]
    estimate = fit.coefficients[..., index]
    lower, upper = estimate - half, estimate + half
    if np.ndim(lower):
        return lower, upper
    return float(lower), float(upper)
