"""Measurement error correction and sensitivity analysis for linear models.

The package corrects the attenuation that random measurement error in an
exposure variable induces in its regression coefficient, via regression
calibration or simulation-extrapolation, estimates the error variance from
replicate measurements when available, runs prior-based sensitivity analyses
when it is not, and ships a Monte Carlo harness that benchmarks the methods
on synthetic data.

The top level exports the documented analysis API and the exception types;
lower-level pieces (``ols_fit``, ``simex_estimates``, ``correction_fits``, the
samplers, ...) live in their submodules.
"""

from .correct import (
    ErrorVariance,
    SimexConfig,
    bootstrap_ci,
    conditional_exposure_variance,
    correct_rc,
    correct_simex,
    estimate_tau2_from_replicates,
    fit_uncorrected,
)
from .data import AnalysisSpec, Dataset, load_csv
from .errors import (
    BootstrapError,
    DataError,
    InfeasibleCorrectionError,
    InsufficientDataError,
    InsufficientReplicatesError,
    MecalibError,
    SimulationError,
    SingularDesignError,
)
from .linreg import wald_interval
from .sensitivity import ErrorVarianceDistribution, emit_plot_data, run_sensitivity
from .simstudy import (
    ScenarioConfig,
    derive_scenario,
    emit_study_report,
    generate_dataset,
    run_scenario,
    scenario_spec,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisSpec",
    "BootstrapError",
    "DataError",
    "Dataset",
    "ErrorVariance",
    "ErrorVarianceDistribution",
    "InfeasibleCorrectionError",
    "InsufficientDataError",
    "InsufficientReplicatesError",
    "MecalibError",
    "ScenarioConfig",
    "SimexConfig",
    "SimulationError",
    "SingularDesignError",
    "bootstrap_ci",
    "conditional_exposure_variance",
    "correct_rc",
    "correct_simex",
    "derive_scenario",
    "emit_plot_data",
    "emit_study_report",
    "estimate_tau2_from_replicates",
    "fit_uncorrected",
    "generate_dataset",
    "load_csv",
    "run_scenario",
    "run_sensitivity",
    "scenario_spec",
    "wald_interval",
]
