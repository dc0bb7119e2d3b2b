"""Shared plumbing: deterministic RNG sub-streams, atomic CSV and JSON output.

Every randomized operation in this package is a pure function of its inputs
and a single integer seed.  Independent work units (bootstrap replicates,
simulation repetitions, sensitivity draws) each get their own generator via
:func:`substream`, addressed by an index path, so results never depend on
execution order and re-runs are bit-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

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
