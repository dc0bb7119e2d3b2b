"""Shared plumbing: deterministic RNG sub-streams, atomic CSV and JSON output.

Every randomized operation in this package is a pure function of its inputs
and a single integer seed.  Independent work units (bootstrap replicates,
simulation repetitions, sensitivity draws) each get their own generator via
:func:`substream`, addressed by an index path, so results never depend on
execution order and re-runs are bit-identical.  :func:`substreams` seeds
a table of such streams, for one seed or one seed per stream, in one
vectorized pass.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import tempfile
from contextlib import contextmanager
from functools import lru_cache
from types import SimpleNamespace

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
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_SHIFT = np.uint32(16)

# Below this many streams ``substreams`` seeds each stream with SeedSequence
# itself.  Measured with Python 3.11.7 and NumPy 2.4.6 on one vCPU of a
# 2-vCPU Xeon host, in a tight loop: the array pass costs a fixed 68-80 us up
# to 40 streams, SeedSequence 10.5-11.5 us a stream, so they break even at
# 6-7 streams.  Inside a correction the array pass's ~40 NumPy calls are not
# hot in cache and cost more, hence 8.
_ARRAY_PASS_FROM = 8


@lru_cache(maxsize=8)
def _hash_constants(start: int, mult: int, steps: int) -> np.ndarray:
    """The hash constants of ``steps`` hash steps as a read-only (steps + 1, 1) uint32 column.

    Hash step t xors its word with entry t and multiplies it by entry t + 1.
    """
    consts = [start]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    consts.setflags(write=False)  # one array serves every caller
    return consts


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 ``words``, row t with the constants of step t.

    ``consts`` is a slice of :func:`_hash_constants` one longer than the steps
    it serves; uint32 arithmetic wraps as the C code's does.
    """
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ (words >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 words, elementwise."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _SHIFT)


def _words32(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, as SeedSequence splits an integer (0 is one word)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(entropy: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The (count, 4) uint64 words ``SeedSequence.generate_state(4, np.uint64)`` gives each stream.

    ``entropy`` holds the seeds' 32-bit words, zero-padded to at least the
    pool size, one column per seed (a single column serves every stream);
    ``keys`` holds one row of spawn-key words per stream.  The hash steps'
    constants do not depend on the data, so each step runs once over all
    streams, the three or four steps that read one pool word at once.
    """
    extra = [*entropy[_POOL_SIZE:], *keys.T]  # words mixed into the full pool
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + len(extra)))
    pool = _hashmix(entropy[:_POOL_SIZE], consts[:_POOL_SIZE + 1])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        others = [dst for dst in range(_POOL_SIZE) if dst != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], consts[step:step + _POOL_SIZE]))
        step += _POOL_SIZE - 1
    for word in extra:
        pool = _mix(pool, _hashmix(word, consts[step:step + _POOL_SIZE + 1]))
        step += _POOL_SIZE
    # eight output words, pool word i % 4 for word i
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]],
                     _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    # pairs of 32-bit words, low word first
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


class _SeedWords(ISeedSequence):
    """One stream's four uint64 seed words, handed to PCG64 as its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("seed words are held for PCG64: four uint64 words")
        return self.words


class Substreams:
    """A table of generators, each built on demand from its seed words.

    ``words`` is a (count, 4) uint64 array: the words PCG64 seeds stream ``i``
    from, 32 bytes a stream.  No table crosses a process boundary: a job sent
    to a worker process carries seeds, and its streams are seeded there.
    """

    def __init__(self, words: np.ndarray):
        words = np.ascontiguousarray(words, dtype=np.uint64)  # PCG64 reads rows by pointer
        if words.ndim != 2 or words.shape[1] != 4:
            raise ValueError(f"seed words must have shape (count, 4), got {words.shape}")
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index) -> np.random.Generator:
        index = operator.index(index)
        if not 0 <= index < len(self.words):
            raise IndexError(f"stream {index} of a table of {len(self.words)}")
        return np.random.Generator(np.random.PCG64(_SeedWords(self.words[index])))


def _check_path_words(smallest, largest) -> None:
    if smallest < 0 or largest > _MASK32:
        raise ValueError("path words must be in [0, 2**32)")


def substreams(seeds, keys) -> Substreams:
    """The generators ``substream(seeds[i], *keys[i])``, bit for bit, as one table.

    ``keys`` holds one path per stream: a 1-D array of one-word paths or a
    (count, 2) array of two-word paths, each word in [0, 2**32).  ``seeds`` is
    one nonnegative seed for every stream or one per stream.

    SeedSequence hashes the entropy words of a seed, zero-padded to its pool
    of four words, then the path's words, then draws eight output words.  The
    hash steps run over uint32 arrays of all streams at once (the words of a
    shared seed once); PCG64 then runs its own seeding step on each stream's
    words.  Below ``_ARRAY_PASS_FROM`` streams, or with a per-stream seed of
    2**64 or more, SeedSequence itself seeds each stream.
    """
    keys = np.asarray(keys)
    if keys.ndim == 1:
        keys = keys[:, None]
    if keys.ndim != 2 or keys.shape[1] not in (1, 2) or (
            keys.size and keys.dtype.kind not in "iu"):
        raise ValueError(f"keys must be one- or two-word integer paths, got shape {keys.shape}")
    count = len(keys)
    shared = isinstance(seeds, (int, np.integer))
    seeds = [operator.index(seeds)] if shared else [operator.index(s) for s in seeds]
    if not shared and len(seeds) != count:
        raise ValueError(f"{len(seeds)} seeds for {count} streams")
    if seeds and min(seeds) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {min(seeds)}")
    if count < _ARRAY_PASS_FROM or (not shared and max(seeds) > 2**64 - 1):
        # few streams: per-stream SeedSequence calls and plain Python cost less
        # than the array pass's fixed number of NumPy calls
        paths = keys.tolist()
        if paths:
            _check_path_words(min(map(min, paths)), max(map(max, paths)))
        if shared:
            seeds *= count
        # eight 32-bit words a stream, the words of generate_state(4, np.uint64)
        state = [np.random.SeedSequence(seed, spawn_key=path).generate_state(2 * _POOL_SIZE)
                 for seed, path in zip(seeds, paths)]
        return Substreams(np.array(state, dtype="<u4").view("<u8").reshape(count, 4))
    _check_path_words(keys.min(), keys.max())
    if shared:
        words = _words32(seeds[0])
        entropy = np.array(words + [0] * (_POOL_SIZE - len(words)), dtype=np.uint32)[:, None]
    else:
        entropy = np.zeros((_POOL_SIZE, count), dtype=np.uint32)
        entropy[:2] = np.array(seeds, dtype="<u8").view("<u4").reshape(count, 2).T
    return Substreams(_seed_words(entropy, keys.astype(np.uint32)))


def _require(obj, names, kinds, what: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{name} must be {what}, got {value!r}")


def require_integers(obj, *names: str) -> None:
    """Raise ValueError unless each named attribute of ``obj`` is a non-bool integer."""
    _require(obj, names, (int, np.integer), "an integer")


def require_reals(obj, *names: str) -> None:
    """Raise ValueError unless each named attribute of ``obj`` is a non-bool real number."""
    _require(obj, names, (int, float, np.integer, np.floating), "a real number")


def check_threads(threads) -> None:
    """Raise ValueError unless ``threads``, a worker count, is a non-bool integer of at least 1."""
    require_integers(SimpleNamespace(threads=threads), "threads")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def check_level(level) -> None:
    """Raise ValueError unless ``level``, a confidence level, is a non-bool real in (0, 1)."""
    require_reals(SimpleNamespace(level=level), "level")
    if not 0.0 < level < 1.0:  # NaN fails too
        raise ValueError(f"level must be in (0, 1), got {level}")


def draw_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed for a nested randomized operation."""
    return int(rng.integers(0, 2**63))


def ProcessPoolExecutor(max_workers: int):
    """A ``concurrent.futures.ProcessPoolExecutor``, imported on the first pool.

    That import loads ``multiprocessing``, which only a process pool needs, so
    ``import mecalib`` leaves both out.
    """
    from concurrent.futures import ProcessPoolExecutor as Pool

    return Pool(max_workers=max_workers)


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
