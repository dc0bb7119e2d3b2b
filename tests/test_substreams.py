"""Differential tests of the one-pass stream seeding against one stream at a time.

``substreams(seeds, keys)`` re-implements NumPy's SeedSequence hash over
arrays, and ``bootstrap_ci`` pools tau2 from per-row sums of squares; both
are checked bit for bit against the plain per-stream path.
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
from mecalib.util import _ARRAY_PASS_FROM, _seed_words, draw_seed, substream, substreams

from conftest import base_scenario_dataset

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**199 + 0x9E3779B97F4A7C15]


# Stream counts on both sides of the break-even below which each stream is
# seeded by SeedSequence itself.
COUNTS = [1, _ARRAY_PASS_FROM - 1, _ARRAY_PASS_FROM, 50]


def assert_same_stream(actual, expected):
    assert np.array_equal(actual.integers(0, 1000, size=7), expected.integers(0, 1000, size=7))
    assert np.array_equal(actual.standard_normal(5), expected.standard_normal(5))
    assert np.array_equal(actual.chisquare(3.5, 5), expected.chisquare(3.5, 5))


def assert_same_streams(streams, expected):
    """``streams`` yields, in order, one generator equal to each of ``expected``."""
    streams = list(streams)
    assert len(streams) == len(expected)
    for actual, reference in zip(streams, expected):
        assert_same_stream(actual, reference)


@pytest.mark.parametrize("count", [1, 50, 1000])
@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_equal_substream(seed, count):
    assert_same_streams(substreams(seed, np.arange(count)),
                        [substream(seed, index) for index in range(count)])


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_two_word_paths_equal_substream(seed, count):
    paths = [(3 * i, i % 2) for i in range(count - 1)] + [(2**32 - 1, 2**32 - 1)]
    assert_same_streams(substreams(seed, paths), [substream(seed, *path) for path in paths])


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("count", COUNTS + [300])
def test_a_seed_per_stream_equals_substream(count, width):
    rng = np.random.default_rng(count)
    # the seeds cycle through SEEDS (the 200-bit one among them, past six
    # streams), then random 63-bit seeds
    seeds = [*SEEDS[:count], *(draw_seed(rng) for _ in range(count - len(SEEDS)))]
    paths = rng.integers(0, 2**32, size=(count, width))
    assert_same_streams(substreams(seeds, paths),
                        [substream(seed, *path) for seed, path in zip(seeds, paths.tolist())])
    words64 = [seed % 2**64 for seed in seeds]  # the array pass without the long seed
    assert_same_streams(substreams(words64, paths),
                        [substream(seed, *path) for seed, path in zip(words64, paths.tolist())])
    # the array pass's seed words, at every count
    entropy = np.zeros((4, count), dtype=np.uint32)
    entropy[:2] = np.array(words64, dtype="<u8").view("<u4").reshape(count, 2).T
    words = _seed_words(entropy, paths.astype(np.uint32))
    assert words.shape == (count, 4)
    for row, seed, path in zip(words, words64, paths.tolist()):
        expected = np.random.SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)
        assert np.array_equal(row, expected)


def test_substreams_validate_arguments():
    assert list(substreams(3, np.arange(0))) == []
    assert list(substreams([], np.arange(0))) == []
    for count in (5, 50):
        with pytest.raises(ValueError, match="seed"):
            substreams(-1, np.arange(count))
        with pytest.raises(ValueError, match="seed"):
            substreams([3] * (count - 1) + [-1], np.arange(count))
        with pytest.raises(ValueError, match="2 seeds for"):
            substreams([3, 4], np.arange(count))
        for bad in (-1, 2**32):
            with pytest.raises(ValueError, match="path words"):
                substreams(3, [*range(count - 1), bad])
    with pytest.raises(ValueError, match="paths"):
        substreams(3, np.zeros((4, 3), dtype=int))
    with pytest.raises(ValueError, match="paths"):
        substreams(3, np.arange(4.0))
    with pytest.raises(ValueError, match="paths"):
        substreams(3, 4)


@pytest.mark.parametrize("count", [3, 50])
def test_streams_come_in_order_and_end_after_the_last(count):
    # the last stream is another seed's; it comes last and nothing follows it
    seeds = [7] * (count - 1) + [8]
    streams = substreams(seeds, np.arange(count))
    for index, seed in enumerate(seeds):
        assert_same_stream(next(streams), substream(seed, index))
    assert next(streams, None) is None
    with pytest.raises(ValueError):
        substream(7, -1)


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


@pytest.mark.parametrize("calls", [1, 2])
@pytest.mark.parametrize("source", ["replicates", "external"])
@pytest.mark.parametrize("corrector", ["rc", "simex"])
@pytest.mark.parametrize("k", [2, 3])
def test_bootstrap_equals_per_replicate_reference(corrector, source, calls, k):
    data, spec = base_scenario_dataset(n=150, k=k)
    tau2 = estimate_tau2_from_replicates(data, spec)
    if source == "external":
        tau2 = ErrorVariance(tau2.tau2)
    cfg = SimexConfig(n_sim=4, seed=5) if corrector == "simex" else None
    kwargs = dict(n_boot=60, level=0.9, seed=2**40 + 3)
    expected = reference_bootstrap_ci(data, spec, corrector, tau2, cfg, **kwargs)
    # every call in one process gives the reference: no call leaves state behind for the next
    for _ in range(calls):
        assert bootstrap_ci(data, spec, corrector, tau2, cfg, **kwargs) == expected
