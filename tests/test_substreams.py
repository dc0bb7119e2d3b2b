"""Differential tests of the one-pass replicate seeding against one stream at a time.

``substreams(seed, count)`` re-implements NumPy's SeedSequence hash over
arrays, and ``bootstrap_ci`` pools tau2 from per-row sums of squares; both
are checked bit for bit against the plain per-replicate path.
"""

from dataclasses import replace

import numpy as np
import pytest

from mecalib import (
    ErrorVariance,
    InfeasibleCorrectionError,
    SimexConfig,
    SingularDesignError,
    bootstrap_ci,
    correct_rc,
    correct_simex,
    estimate_tau2_from_replicates,
)
from mecalib.util import Substreams, draw_seed, substream, substreams

from conftest import base_scenario_dataset

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**199 + 0x9E3779B97F4A7C15]


@pytest.mark.parametrize("count", [1, 50, 1000])
@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_equal_substream(seed, count):
    streams = substreams(seed, count)
    assert len(streams) == count
    for index in range(count):
        expected, actual = substream(seed, index), streams[index]
        assert np.array_equal(actual.integers(0, 1000, size=7), expected.integers(0, 1000, size=7))
        assert np.array_equal(actual.standard_normal(5), expected.standard_normal(5))
        assert np.array_equal(actual.chisquare(3.5, 5), expected.chisquare(3.5, 5))


def test_substreams_validate_arguments():
    assert len(substreams(3, 0)) == 0
    with pytest.raises(ValueError, match="seed"):
        substreams(-1, 5)
    with pytest.raises(ValueError, match="count"):
        substreams(3, -1)
    with pytest.raises(IndexError):
        substreams(3, 2)[2]
    with pytest.raises(TypeError):
        substreams(3, 2)[0:1]
    with pytest.raises(ValueError, match="shape"):
        Substreams(np.zeros((3, 2)))


def reference_bootstrap_ci(data, spec, corrector, tau2, cfg, n_boot, level, seed):
    """The bootstrap one replicate at a time: its own stream, resample, tau2 and correction."""
    correct = {"rc": correct_rc, "simex": correct_simex}[corrector]
    estimates = []
    for b in range(n_boot):
        rng = substream(seed, b)
        resample = data.take_rows(rng.integers(0, data.n_rows, size=data.n_rows))
        tau2_b = (estimate_tau2_from_replicates(resample, spec)
                  if tau2.source == "replicates" else tau2)
        cfg_b = None if corrector == "rc" else replace(cfg, seed=draw_seed(rng))
        try:
            estimates.append(correct(resample, spec, tau2_b, cfg_b).estimate)
        except (InfeasibleCorrectionError, SingularDesignError):
            pass
    assert len(estimates) == n_boot  # the compared cases have no failed replicate
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(estimates, [alpha, 1.0 - alpha])
    return float(lower), float(upper)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("source", ["replicates", "external"])
@pytest.mark.parametrize("corrector", ["rc", "simex"])
@pytest.mark.parametrize("k", [2, 3])
def test_bootstrap_equals_per_replicate_reference(corrector, source, threads, k):
    data, spec = base_scenario_dataset(n=150, k=k)
    tau2 = estimate_tau2_from_replicates(data, spec)
    if source == "external":
        tau2 = ErrorVariance(tau2.tau2)
    cfg = SimexConfig(n_sim=4, seed=5) if corrector == "simex" else None
    kwargs = dict(n_boot=60, level=0.9, seed=2**40 + 3)
    expected = reference_bootstrap_ci(data, spec, corrector, tau2, cfg, **kwargs)
    assert bootstrap_ci(data, spec, corrector, tau2, cfg, threads=threads, **kwargs) == expected
