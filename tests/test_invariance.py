"""Invariance oracles: transforms of a dataset that the corrections must respect.

RC and SIMEX are equivariant under a rescaling of the exposure, invariant
under a shift of it and under a reordering of the rows (Carroll et al. 2006,
ch. 4-5), and a dataset with repeated rows is a count-weighted fit of its
distinct rows.  Every fast path (batched moments, centring, a weighted
bootstrap) must pass this table unchanged.  Each check runs on the same five
seeded base datasets.
"""

import numpy as np
import pytest

from mecalib import (
    Dataset,
    SimexConfig,
    bootstrap_ci,
    correct_rc,
    correct_simex,
    estimate_tau2_from_replicates,
)
from mecalib.correct import prepare_correction

from conftest import base_scenario_dataset

# (n, k, gamma, repetition): sizes, replicate counts and covariate dependence vary
BASES = [(120, 2, 0.0, 0), (200, 3, 0.0, 1), (200, 3, 4.0, 2), (300, 5, 1.0, 3),
         (150, 3, 8.0, 4)]
SIMEX = SimexConfig(n_sim=20, seed=11)


@pytest.fixture(params=BASES, ids=lambda base: "n{}-k{}-gamma{:g}-rep{}".format(*base))
def base(request):
    n, k, gamma, rep = request.param
    return base_scenario_dataset(n=n, k=k, gamma=gamma, rep_index=rep, seed=23)


def with_replicates(data, spec, transform):
    """``data`` with ``transform`` applied to every replicate column of ``spec``."""
    values = data.values.copy()
    columns = [data.column_index(name) for name in spec.exposure_replicates]
    values[:, columns] = transform(values[:, columns])
    return Dataset(data.column_names, values)


def corrections(data, spec):
    """tau2 from the replicates, and the RC and SIMEX estimates at it."""
    tau2 = estimate_tau2_from_replicates(data, spec)
    return (tau2.tau2, correct_rc(data, spec, tau2).estimate,
            correct_simex(data, spec, tau2, SIMEX).estimate)


@pytest.mark.parametrize("c", [1e-3, 7.0, 1e3])
def test_scaling_the_exposure_scales_estimates_and_rc_interval_inversely(base, c):
    data, spec = base
    scaled = with_replicates(data, spec, lambda block: c * block)
    tau2, rc, simex = corrections(data, spec)
    tau2_c, rc_c, simex_c = corrections(scaled, spec)
    assert tau2_c == pytest.approx(c * c * tau2, rel=1e-12)
    # with the same seeds SIMEX's added noise scales by c as well
    assert rc_c == pytest.approx(rc / c, rel=1e-12)
    assert simex_c == pytest.approx(simex / c, rel=1e-12)
    kwargs = dict(n_boot=50, seed=5)
    lower, upper = bootstrap_ci(data, spec, "rc", estimate_tau2_from_replicates(data, spec),
                                **kwargs)
    lower_c, upper_c = bootstrap_ci(scaled, spec, "rc",
                                    estimate_tau2_from_replicates(scaled, spec), **kwargs)
    assert (lower_c, upper_c) == pytest.approx((lower / c, upper / c), rel=1e-12)


def test_row_order_changes_no_estimate(base):
    data, spec = base
    permuted = data.take_rows(np.random.default_rng(3).permutation(data.n_rows))
    assert corrections(permuted, spec) == pytest.approx(corrections(data, spec), rel=1e-12)


def test_shifting_the_exposure_leaves_rc_unchanged(base):
    data, spec = base
    shift = 100.0 * data.column(spec.exposure).std()
    shifted = with_replicates(data, spec, lambda block: block + shift)
    assert corrections(shifted, spec)[1] == pytest.approx(corrections(data, spec)[1], rel=1e-10)


def weighted_fit(X, y, counts):
    """Slope (column 1) and residual variance of a count-weighted least-squares fit."""
    root = np.sqrt(counts)
    coefficients, *_ = np.linalg.lstsq(X * root[:, None], y * root, rcond=None)
    residuals = y - X @ coefficients
    return coefficients, (counts * residuals**2).sum() / (counts.sum() - X.shape[1])


def test_repeated_rows_are_a_count_weighted_fit(base):
    data, spec = base
    counts = np.random.default_rng(7).integers(1, 5, size=data.n_rows)
    repeated = data.take_rows(np.repeat(np.arange(data.n_rows), counts))
    prepared = prepare_correction(repeated, spec)
    ones = np.ones((data.n_rows, 1))
    covariates = data.columns(spec.covariates)
    naive, residual_variance = weighted_fit(
        np.hstack((ones, data.columns((spec.exposure,)), covariates)),
        data.column(spec.outcome), counts)
    _, v = weighted_fit(np.hstack((ones, covariates)), data.column(spec.exposure), counts)
    assert prepared.n == counts.sum()
    assert (prepared.slope, prepared.residual_variance, prepared.v) == pytest.approx(
        (naive[1], residual_variance, v), rel=1e-10)
