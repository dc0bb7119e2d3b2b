"""Shared plumbing: deterministic RNG sub-streams, atomic CSV and JSON output.

Every randomized operation in this package is a pure function of its inputs
and a single integer seed.  Independent work units (bootstrap replicates,
simulation repetitions, sensitivity draws) each get their own generator via
:func:`substream`, addressed by an index path, so results never depend on
execution order and re-runs are bit-identical.  :func:`substreams` seeds
the streams ``(seed, 0)`` to ``(seed, count - 1)`` in one vectorized pass.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Default seed for every randomized entry point; fixed so that analyses are
# reproducible unless the caller explicitly chooses otherwise.
DEFAULT_SEED = 1729


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a deterministic generator for the stream addressed by ``(seed, *path)``.

    Distinct paths yield statistically independent streams; ``spawn_key`` is
    used instead of entropy tuples because SeedSequence ignores trailing zero
    entropy words, which would make e.g. ``(seed,)`` and ``(seed, 0)`` collide.
    """
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


# The constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value, const: int, mult: int = _MULT_A):
    """One hash step of a word (a Python int or a uint32 array): (hashed value, next constant)."""
    value = value ^ const
    const = (const * mult) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    """SeedSequence's mix of two words, Python ints or uint32 arrays."""
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _words32(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, as SeedSequence splits an integer (0 is one word)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class _SeedWords(ISeedSequence):
    """One stream's four uint64 seed words, handed to PCG64 as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("seed words are held for PCG64: four uint64 words")
        return self.words


class Substreams:
    """The generators ``substream(seed, i)``, each built on demand from its seed words.

    ``words`` is a (count, 4) uint64 array: the words PCG64 seeds stream ``i``
    from, 32 bytes a stream, so a table of streams pickles cheaply.
    """

    def __init__(self, words: np.ndarray):
        words = np.ascontiguousarray(words, dtype=np.uint64)  # PCG64 reads rows by pointer
        if words.ndim != 2 or words.shape[1] != 4:
            raise ValueError(f"seed words must have shape (count, 4), got {words.shape}")
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index) -> np.random.Generator:
        words = self.words[operator.index(index)]
        return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def substreams(seed: int, count: int) -> Substreams:
    """The generators ``substream(seed, i)`` for ``i in range(count)``, bit for bit.

    SeedSequence hashes the entropy words of ``seed`` (padded to its pool of
    four words), then the spawn key ``i``, then draws eight output words.  The
    seed's part is the same for every ``i``, so it is mixed once in Python
    ints; the key and output steps, whose multipliers do not depend on the
    data, run once over uint32 arrays of all ``count`` keys.  PCG64 then runs
    its own seeding step on each stream's words.
    """
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if not 0 <= count <= 2**32:
        raise ValueError(f"count must be in [0, 2**32], got {count}")
    entropy = _words32(int(seed))
    entropy += [0] * (_POOL_SIZE - len(entropy))  # a spawn key follows: pad to the pool
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    keys = np.arange(count, dtype=np.uint32)
    pool = [np.full(count, word, dtype=np.uint32) for word in pool]
    for dst in range(_POOL_SIZE):
        value, const = _hashmix(keys, const)
        pool[dst] = _mix(pool[dst], value)
    state = np.empty((count, 2 * _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for dst in range(2 * _POOL_SIZE):
        state[:, dst], const = _hashmix(pool[dst % _POOL_SIZE], const, _MULT_B)
    # pairs of 32-bit words, low word first, as SeedSequence.generate_state(4, np.uint64)
    return Substreams(state.astype("<u4").view("<u8").astype(np.uint64))


def require_integers(obj, *names: str) -> None:
    """Raise ValueError unless each named attribute of ``obj`` is a non-bool integer."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def draw_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed for a nested randomized operation."""
    return int(rng.integers(0, 2**63))


def parallel_map(fn, jobs, threads: int = 1) -> list:
    """Map ``fn`` over ``jobs``, optionally across a process pool.

    Results come back in job order either way, and every job carries its own
    RNG addressing, so the output is identical for any ``threads`` value.
    ``fn`` and the jobs must be picklable when ``threads > 1``.  The pool
    never has more workers than CPUs or jobs.
    """
    jobs = list(jobs)
    workers = min(threads, os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (workers * 8))))


@contextmanager
def atomic_write(path: str | os.PathLike):
    """Write to a temp file in the target directory, rename into place on success.

    A failure mid-write leaves no partial output at ``path``.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_cell(value) -> str:
    """Render one CSV cell.

    None and non-finite floats become empty cells, booleans ``true``/``false``,
    floats 17 significant digits (a lossless text round trip), and anything
    else (ints, strings) ``str``.
    """
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv_rows(path: str | os.PathLike, header, rows) -> None:
    """Atomically write a header and rows as CSV, cells as in :func:`_format_cell`."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_format_cell(value) for value in row] for row in rows)


def _strict_json(value):
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(path: str | os.PathLike, payload) -> None:
    """Atomically write ``payload`` as indented strict JSON; NaN and inf become null."""
    with atomic_write(path) as handle:
        json.dump(_strict_json(payload), handle, indent=2, allow_nan=False, default=float)
        handle.write("\n")
