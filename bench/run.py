"""mecalib benchmark: closed-loop workloads of in-process CLI calls.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sim_rc_boot --seed 1 --seconds 35 --trace 0

One client runs ops back to back for ``--seconds`` (whole op-mix cycles);
each op is one ``mecalib.cli.main(argv)`` call with ``--threads 1`` and BLAS
pinned to one thread.  Every op's output is checked (see workloads.py).
After every op and set-up sample the benchmark times a fixed piece of work
that runs no program code (``HostProbe``); the time metrics are scaled to a
reference host speed (``host_scaled``), with latency percentiles taken per
block of about 30 consecutive ops and averaged over the run
(``block_percentile``).  The unscaled figures are printed beside them.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A trace run
alternates untraced and traced ops, so ``trace.overhead_frac`` compares the
two on the same op mix.  The run record (versions, machine, setup samples,
check results) and the trace spans are written under ``.bench_out/``.
Exit code 0 on a completed run, 2 when the program cannot be imported.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: the library's own parallelism is --threads 1,
# and a second BLAS thread would make CPU time and latency machine dependent.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_ROOT = os.path.join(ROOT, ".bench_run")
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # metric names and units
SETUP_REPEATS = 3
BLOCK_OPS = 30  # at least this many ops per latency block (see block_percentile)
PROBE_WINDOW = 5  # probes around an op that gauge the host speed it ran at
REFERENCE_PROBE_S = 5e-3  # HostProbe() in a typical spell of a 2.1 GHz Xeon vCPU
# Slope of log op time on log probe time across 2-3 s blocks of 20 runs per
# workload on that host: 0.95 sim_rc_boot, 0.56 sim_grid, 0.89 cli_large_csv.
HOST_SENSITIVITY = 0.8
IMPORT_TIMEOUT_S = 60
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mecalib; "
                "print(time.perf_counter() - t)")


class FdCapture:
    """Capture file descriptors 1 and 2 for the duration of a ``with`` block.

    ``contextlib.redirect_stdout`` misses writes through stream objects bound
    before the redirect (the CLI's table printer binds ``sys.stdout`` as a
    default argument), so the descriptors themselves are redirected.
    """

    def __init__(self, directory):
        self.files = {fd: tempfile.TemporaryFile(dir=directory) for fd in (1, 2)}
        self.stdout = self.stderr = ""

    def __enter__(self):
        sys.stdout.flush()
        sys.stderr.flush()
        self.saved = {fd: os.dup(fd) for fd in self.files}
        for fd, handle in self.files.items():
            handle.seek(0)
            handle.truncate()
            os.dup2(handle.fileno(), fd)
        return self

    def __exit__(self, *exc):
        sys.stdout.flush()
        sys.stderr.flush()
        for fd, saved in self.saved.items():
            os.dup2(saved, fd)
            os.close(saved)
        texts = []
        for handle in self.files.values():
            handle.seek(0)
            texts.append(handle.read().decode("utf-8", "replace"))
        self.stdout, self.stderr = texts
        return False

    def close(self):
        for handle in self.files.values():
            handle.close()


@contextmanager
def scratch_dir(prefix):
    """A fresh directory under .bench_run/, removed (with .bench_run if empty) on exit."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


def import_program():
    """Import mecalib from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "mecalib", "__init__.py")):
        print(f"bench: no mecalib package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    mecalib = importlib.import_module("mecalib")
    importlib.import_module("mecalib.cli")
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(mecalib.__file__))) != SRC:
        print(f"bench: imported mecalib from {mecalib.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return mecalib, elapsed


def time_fresh_import() -> float:
    """Seconds to import mecalib (with numpy and scipy) in a fresh interpreter."""
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def blas_info() -> dict:
    """BLAS build and the thread count each loaded OpenBLAS reports."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_pinned": BLAS_THREADS, "threads_reported": threads}


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_facts() -> dict:
    """Line count and content hash of the program's Python sources."""
    lines, digest = 0, hashlib.sha256()
    for directory, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    data = handle.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


class HostProbe:
    """Times a fixed piece of work, run after every op: a gauge of host speed.

    The work mixes what the ops spend their time on: an interpreter loop,
    small NumPy SVDs of resampled rows, and building a dict of lists.  It
    runs no program code, so a change to the program cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.svd = np.linalg.svd
        self.rows = rng.standard_normal((500, 3))
        self.resamples = rng.integers(0, 500, size=(30, 500))

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        for index in self.resamples:
            self.svd(self.rows[index], full_matrices=False)
        table = {}
        for i in range(4_000):
            table[str(i)] = [i, float(i)]
        return time.perf_counter() - start


def run_op(cli, workload, index, capture, tracer=None):
    """One op: returns (wall seconds, CPU seconds, errors)."""
    workload.before_op(index)
    argv = workload.argv(index)
    with capture:
        if tracer is not None:
            tracer.install()
        span = tracer.op_span(index) if tracer is not None else nullcontext()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with span:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op
            code = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    if code != 0:
        return wall, cpu, [f"exit {code!r}: {capture.stderr.strip()[-500:]}"]
    try:
        errors = workload.check(index, capture.stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        errors = [f"output check could not read the output: {exc!r}"]
    return wall, cpu, errors


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def block_size(cycle: int) -> int:
    """Ops per block: the fewest whole op-mix cycles with BLOCK_OPS ops."""
    return cycle * -(-BLOCK_OPS // cycle)


def blocks(count: int, block: int):
    """(start, stop) of consecutive blocks of ``block`` ops among ``count``.

    Blocks (a few seconds each) hold whole op-mix cycles; a last partial
    block joins the one before.
    """
    bounds = [i * block for i in range(max(1, count // block))] + [count]
    return list(zip(bounds, bounds[1:]))


def host_scaled(times, probes):
    """Op or set-up times scaled to the reference host speed.

    The shared host's speed drifts in spells of seconds to minutes (the
    probe's time swings by a third), and op times swing with it, though by
    less than the probe (HOST_SENSITIVITY in log terms).  Each time is
    multiplied by REFERENCE_PROBE_S over the median of the PROBE_WINDOW
    probes centred on the one taken just after it, raised to
    HOST_SENSITIVITY, so a run measures the program more than the spell it
    ran in.
    """
    half = PROBE_WINDOW // 2
    return [t * (REFERENCE_PROBE_S / statistics.median(probes[max(0, i - half):i + half + 1]))
            ** HOST_SENSITIVITY for i, t in enumerate(times)]


def block_percentile(walls, q, block):
    """Mean over consecutive blocks of ``block`` ops of each block's ``q`` quantile.

    A whole-run p90 jumps from the fast to the slow spell's level once slow
    spells fill a tenth of the run; a mean of per-block quantiles moves in
    proportion to the slow share, as throughput does.
    """
    return statistics.fmean(percentile(walls[a:b], q) for a, b in blocks(len(walls), block))


def measure(args, mecalib, workload, workdir, probe, tracer=None):
    """Warm up, then run whole op-mix cycles until ``args.seconds`` have passed.

    With a tracer, every other measured op is traced.  Returns
    (per-op records, warm-up errors) where a record is
    (index, traced, wall s, CPU s, errors, host probe s after the op).
    """
    cli = mecalib.cli
    capture = FdCapture(workdir)
    warm_errors = []
    try:
        for index in range(workload.warmup):
            warm_errors += run_op(cli, workload, index, capture)[2]
        records = []
        period = workload.cycle * (2 if tracer is not None else 1)
        start = time.perf_counter()
        index = workload.warmup
        while True:
            traced = tracer is not None and len(records) % 2 == 1
            wall, cpu, errors = run_op(cli, workload, index, capture,
                                       tracer if traced else None)
            records.append((index, traced, wall, cpu, errors, probe()))
            index += 1
            if time.perf_counter() - start >= args.seconds and len(records) % period == 0:
                break
    finally:
        capture.close()
    return records, warm_errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    mecalib, inprocess_import_s = import_program()
    with open(SPEC) as handle:
        spec = json.load(handle)
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with scratch_dir(f"{args.workload}-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        probe = HostProbe()
        import_samples, import_probes, input_samples, input_probes = [], [], [], []
        for _ in range(SETUP_REPEATS):
            import_samples.append(time_fresh_import())
            import_probes.append(probe())
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.make_inputs()
            input_samples.append(time.perf_counter() - start)
            input_probes.append(probe())
        setup_raw = statistics.median(import_samples) + statistics.median(input_samples)
        setup_s = (statistics.median(host_scaled(import_samples, import_probes))
                   + statistics.median(host_scaled(input_samples, input_probes)))

        tracer = Tracer(mecalib) if args.trace else None
        records, warm_errors = measure(args, mecalib, workload, workdir, probe, tracer)
        pooled_errors = workload.pooled_check()

    # end-to-end figures come from the untraced ops only
    untraced = [r for r in records if not r[1]]
    block = block_size(workload.cycle)
    probes = [r[5] for r in untraced]
    failed = [r for r in records if r[4]]
    attempted = len(records)
    correct = not (warm_errors or pooled_errors or failed)
    ok = sum(1 for r in untraced if not r[4])

    def time_metrics(walls, cpus, prefix=""):
        return {
            prefix + "ops_per_s": ok / sum(walls),
            prefix + "op_p50_ms": block_percentile(walls, 0.5, block) * 1e3,
            prefix + "op_p90_ms": block_percentile(walls, 0.9, block) * 1e3,
            prefix + "cpu_ms_per_op": sum(cpus) / len(cpus) * 1e3,
        }

    walls, cpus = [r[2] for r in untraced], [r[3] for r in untraced]
    e2e = {
        "setup_s": setup_s,
        **time_metrics(host_scaled(walls, probes), host_scaled(cpus, probes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    raw = {"raw.setup_s": setup_raw, **time_metrics(walls, cpus, "raw.")}
    shown = dict(e2e, failed_op_frac=len(failed) / attempted, **raw)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: units[name[4:]] for name in raw}, failed_op_frac="frac")
    if tracer is not None:
        tracer.print_table()
        shown.update(tracer.metrics([r[2] for r in records if r[1]],
                                    [r[2] for r in records if not r[1]]))

    print(f"workload={args.workload} seed={args.seed} ops={attempted} "
          f"untraced={len(walls)} in blocks of {block} (p90 has "
          f"{len(walls) - int(0.9 * len(walls))} beyond it over the run) "
          f"host probe median={statistics.median(probes) * 1e3:.3f} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:g} ms) "
          f"traced={tracer.ops_traced if tracer else 0}")
    for name, value in shown.items():
        print(f"{name:48} {value:14.6g} {units[name]}")
    for label, errors in (("warm-up", warm_errors), ("pooled", pooled_errors),
                          *((f"op {r[0]}", r[4]) for r in failed[:5])):
        for error in errors[:5]:
            print(f"CHECK FAILED [{label}] {error}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seconds": args.seconds, "trace": args.trace, "commit": git_commit(),
        **src_facts(),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "library_threads": 1,
        "setup": {"import_s": import_samples, "inputs_s": input_samples,
                  "import_probe_s": import_probes, "inputs_probe_s": input_probes,
                  "inprocess_import_s": inprocess_import_s},
        "ops": attempted, "ops_failed": len(failed), "latency_block_ops": block,
        "op_wall_s": [r[2] for r in records], "op_traced": [r[1] for r in records],
        "host_probe_s": [r[5] for r in records], "reference_probe_s": REFERENCE_PROBE_S,
        "metrics": shown,
        "check_errors": {"warm-up": warm_errors, "pooled": pooled_errors,
                         "ops": {str(r[0]): r[4] for r in failed}},
        **workload.record(),
    }
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    print(f"run record: {os.path.relpath(stem + '.json', ROOT)}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failed),
        "metrics": {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
