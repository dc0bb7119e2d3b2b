from dataclasses import replace
from typing import Mapping

import numpy as np
import pytest

import mecalib.data
import mecalib.simstudy as simstudy
from mecalib import (
    AnalysisSpec,
    BootstrapError,
    Dataset,
    InfeasibleCorrectionError,
    ScenarioConfig,
    SingularDesignError,
    bootstrap_ci,
    conditional_exposure_variance,
    estimate_tau2_from_replicates,
    fit_uncorrected,
    generate_dataset,
    scenario_spec,
    wald_interval,
)
from mecalib.correct import (
    CORRECTION_METHODS,
    EXTRAPOLANT_DEGREE,
    CorrectionInputs,
    _extrapolation_weights,
    _simex_values,
    _weighted_sum,
    correction_steps,
    prepare_correction,
)
from mecalib.util import draw_seed, substream


@pytest.fixture(autouse=True)
def no_csv_memo(monkeypatch):
    """Each test starts with ``load_csv`` remembering no body."""
    monkeypatch.setattr(mecalib.data, "_last_body", None)


@pytest.fixture
def csv_file(tmp_path):
    """Small well-formed CSV with outcome, two replicates, one covariate."""
    path = tmp_path / "data.csv"
    path.write_text(
        "y,x1,x2,age\n"
        "10.5,5.0,5.4,30\n"
        "12.0,7.0,6.6,40\n"
        "9.25,4.0,4.2,35\n"
    )
    return path


@pytest.fixture
def toy_spec():
    return AnalysisSpec(outcome="y", exposure_replicates=("x1", "x2"), covariates=("age",))


def exact_line_dataset(n=30, slope=2.0, intercept=1.0):
    """y is an exact affine function of x: every OLS refit recovers the line."""
    x = np.linspace(0.0, 9.0, n)
    y = intercept + slope * x
    return Dataset(("y", "x"), np.column_stack([y, x]))


def base_scenario_dataset(n=500, rep_index=0, seed=12, **knobs):
    """One synthetic dataset drawn from the base generating mechanism."""
    cfg = ScenarioConfig(name="test", n=n, n_reps=1, seed=seed, **knobs)
    return generate_dataset(cfg, rep_index), scenario_spec(cfg.k)


def constant_age(generate, held=None):
    """A ``generate_block`` whose repetitions in ``held`` (all by default) have age 30.

    The naive design of such a repetition is rank deficient.  ``generate`` is
    the block generator to wrap, ``simstudy.generate_block`` in the tests
    that replace it with this one.
    """
    def generate_block(cfg, reps):
        values = generate(cfg, reps)
        age = scenario_spec(cfg.k).all_columns().index("age")
        for r, rep in enumerate(reps):
            if held is None or rep in held:
                values[r, :, age] = 30.0
        return values
    return generate_block


def run_repetition(cfg, rep, methods, n_boot, level, simex_config):
    """One simulation repetition analysed on its own, through the public API.

    The reference for ``run_scenario``, which analyses repetitions in blocks.
    Returns method -> (estimate, ci_lower, ci_upper), or the reason the method
    failed (``"infeasible"``, ``"singular"`` or ``"bootstrap"``).  The dataset
    comes from ``simstudy.generate_dataset``, which draws it with
    ``simstudy.generate_block``, so a test that replaces the block generator
    changes this repetition's data too.
    """
    data = simstudy.generate_dataset(cfg, rep)
    spec = scenario_spec(cfg.k)
    tau2 = estimate_tau2_from_replicates(data, spec)
    # seeds in a fixed order: SIMEX, then one bootstrap seed per correction method
    rng = substream(cfg.seed, rep, 1)
    cfg_rep = replace(simex_config, seed=draw_seed(rng))
    boot_seeds = {method: draw_seed(rng) for method in CORRECTION_METHODS}
    try:
        fit = fit_uncorrected(data, spec)
        prepared = CorrectionInputs.from_fit(fit, conditional_exposure_variance(data, spec))
    except SingularDesignError:
        if "uncorrected" in methods:
            raise
        return dict.fromkeys(methods, "singular")
    out = {}
    if "uncorrected" in methods:
        out["uncorrected"] = (float(fit.coefficients[1]), *wald_interval(fit, 1, level))
    for method in CORRECTION_METHODS:
        if method not in methods:
            continue
        try:
            estimate = correction_steps(method)[1](prepared, tau2, cfg_rep).estimate
        except InfeasibleCorrectionError:
            out[method] = "infeasible"
            continue
        lower = upper = np.nan
        if n_boot:
            try:
                lower, upper = bootstrap_ci(data, spec, method, tau2, cfg_rep, n_boot=n_boot,
                                            level=level, seed=boot_seeds[method])
            except BootstrapError:
                out[method] = "bootstrap"
                continue
        out[method] = (estimate, lower, upper)
    return out


def simex_estimates_per_lambda(data, spec, tau2, cfg) -> dict[float, float]:
    """SIMEX simulation step of one dataset: lambda -> mean pseudo estimate, in grid order.

    The lambda = 0 entry is the uncorrected estimate.  Grid entry i draws
    from the RNG sub-stream (cfg.seed, i), as ``correct_simex`` does.  Not an
    oracle: it runs the library's own lambda pass (``_simex_values``) on one
    dataset, so tests can check that pass against independent references.
    """
    values, errors = _simex_values(prepare_correction(data, spec), tau2.tau2, cfg, (cfg.seed,))
    if errors:
        raise errors[0]
    return dict(zip(cfg.lambda_grid, values[0].tolist()))


def extrapolate(points: Mapping[float, float], extrapolant: str = "quadratic"):
    """Extrapolation step on a lambda map: fit estimate ~ polynomial(lambda), evaluate at -1.

    Returns ``(estimate_at_minus_one, coefficients)`` with coefficients in
    ascending degree order.  Not an oracle: it reads the library's cached
    least-squares weights (``_extrapolation_weights``), the ones
    ``correct_simex`` extrapolates with, so tests can check them.
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
    return float(_weighted_sum(values, at_minus_one)), weights @ values
