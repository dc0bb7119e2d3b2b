"""Layer spans recorded from outside the program, by patching its bindings.

:class:`Tracer` wraps the public functions of each mecalib module (and
``Dataset.take_rows``) at every module attribute that binds them, so a call
through ``mecalib.correct.ols_fit`` is traced as well as one through
``mecalib.linreg.ols_fit``.  Each call is a span with a name, start, end,
parent and op id.  Spans are aggregated as they close (calls, total time,
self time = duration minus time in child spans), and the full spans of the
first few traced ops are kept in memory and written out at the end of the
run.  ``install``/``uninstall`` are cheap, so a run can trace every other op
and measure the tracing overhead on the same op mix.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYER_MODULES = ("data", "linreg", "correct", "sensitivity", "simstudy", "util")
# Context managers: their span runs from __enter__ to __exit__.
CONTEXT_MANAGERS = {"util.atomic_write"}
# Replicate corrections inside a bootstrap, counted for the useful ratio.
CORRECTORS = {"correct.correct_rc", "correct.correct_simex"}
BOOTSTRAP = "correct.bootstrap_ci"
# Full spans are kept for this many traced ops; the rest are only aggregated.
KEEP_OPS = 2


class Stat:
    __slots__ = ("calls", "total", "self_time", "raised", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0
        self.units = defaultdict(float)  # work counted at this boundary


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _simex_pseudo_datasets(bound) -> int:
    tau2, cfg = bound.arguments["tau2"], bound.arguments["cfg"]
    if tau2.tau2 == 0.0:
        return 0
    return cfg.n_sim * sum(1 for lam in cfg.lambda_grid if lam > 0.0)


# Work counted at a boundary: name -> [(when, unit, f(bound arguments, result))].
UNITS = {
    "data.load_csv": [("enter", "bytes", lambda b, r: _path_bytes(b.arguments["path"]))],
    "util.atomic_write": [("exit", "bytes", lambda b, r: _path_bytes(b.arguments["path"]))],
    "correct.bootstrap_ci": [("enter", "replicates", lambda b, r: b.arguments["n_boot"])],
    "correct.simex_estimates_per_lambda": [
        ("enter", "pseudo_datasets", lambda b, r: _simex_pseudo_datasets(b))],
    "sensitivity.run_sensitivity": [
        ("enter", "draws", lambda b, r: b.arguments["m"]),
        ("exit", "draws_ok", lambda b, r: r.summary["n_ok"])],
    "simstudy.run_scenario": [("enter", "reps", lambda b, r: b.arguments["cfg"].n_reps)],
}


def layer_functions(package) -> dict:
    """Map each traced function object to its span name ``module.function``."""
    targets = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                targets[obj] = f"{short}.{attr}"
    dataset = sys.modules[f"{package.__name__}.data"].Dataset
    targets[dataset.take_rows] = "data.take_rows"
    return targets


class Tracer:
    """Patches the layer bindings of one imported mecalib package."""

    def __init__(self, package):
        self.stats = defaultdict(Stat)
        self.stack = []  # open spans: [name, start, child_time, span_id]
        self.spans = []  # (id, parent, op, name, start, end) of the kept ops
        self.op = None
        self.ops_traced = 0
        self.boot_attempts = 0
        self.boot_returned = 0
        self._next_id = 0
        self._patches = self._find_bindings(package)

    def _find_bindings(self, package):
        """(owner, attribute, original, wrapper) for every binding of a layer function."""
        wrappers = {fn: self._wrap(name, fn) for fn, name in layer_functions(package).items()}
        patches = []
        prefix = package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((module, attr, obj, wrappers[obj]))
        dataset = sys.modules[f"{prefix}.data"].Dataset
        take_rows = dataset.take_rows
        patches.append((dataset, "take_rows", take_rows, wrappers[take_rows]))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- spans ---------------------------------------------------------
    def _open(self, name):
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame, raised):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - child
        stat.raised += raised
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if self.ops_traced <= KEEP_OPS:
            self.spans.append((span_id, parent[3] if parent else None, self.op, name,
                               start, end))
        if name in CORRECTORS and any(f[0] == BOOTSTRAP for f in self.stack):
            self.boot_attempts += 1
            self.boot_returned += not raised

    @contextmanager
    def op_span(self, op_id):
        """Trace one op, recorded as span ``cli.main``."""
        self.op = op_id
        self.ops_traced += 1
        frame = self._open("cli.main")
        try:
            yield
        except BaseException:
            self._close(frame, True)
            raise
        else:
            self._close(frame, False)
        finally:
            self.op = None

    def _wrap(self, name, fn):
        tracer = self
        units = UNITS.get(name, ())
        signature = inspect.signature(fn)

        def count(bound, result, when):
            for at, unit, amount in units:
                if at == when:
                    tracer.stats[name].units[unit] += amount(bound, result)

        if name in CONTEXT_MANAGERS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _TracedContext(tracer, name, fn(*args, **kwargs),
                                      signature.bind(*args, **kwargs), count)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = None
                if units:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(bound, None, "enter")
                frame = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer._close(frame, True)
                    raise
                tracer._close(frame, False)
                if units:
                    count(bound, result, "exit")
                return result

        return wrapper

    # -- results -------------------------------------------------------
    def metrics(self, traced, untraced) -> dict:
        """Per-op layer figures (units in BENCHMARK.json); 0 where a layer did no work.

        ``traced`` and ``untraced`` are the wall times of the ops run with and
        without tracing, the base of ``trace.overhead_frac``.
        """
        ops = max(self.ops_traced, 1)

        def stat(name):
            return self.stats.get(name) or Stat()

        def calls(name):
            return stat(name).calls

        def total(name):
            return stat(name).total

        def self_time(name):
            return stat(name).self_time

        def unit(name, key):
            return stat(name).units.get(key, 0.0)

        def per_call(name, scale):
            return total(name) / calls(name) * scale if calls(name) else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        untraced_rate = ratio(len(untraced), sum(untraced))
        traced_rate = ratio(len(traced), sum(traced))
        op_total = total("cli.main")
        return {
            "cli.main.self_ms": self_time("cli.main") / ops * 1e3,
            "data.load_csv.calls": calls("data.load_csv") / ops,
            "data.load_csv.ms_per_call": per_call("data.load_csv", 1e3),
            "data.load_csv.mb_per_s": ratio(unit("data.load_csv", "bytes") / 1e6,
                                            total("data.load_csv")),
            "data.take_rows.calls_per_op": calls("data.take_rows") / ops,
            "data.take_rows.us_per_call": per_call("data.take_rows", 1e6),
            "data.design_matrix.us_per_call": per_call("data.design_matrix", 1e6),
            "linreg.ols_fit.calls_per_op": calls("linreg.ols_fit") / ops,
            "linreg.ols_fit.us_per_call": per_call("linreg.ols_fit", 1e6),
            "linreg.ols_fit.self_frac": ratio(self_time("linreg.ols_fit"), op_total),
            "correct.bootstrap_ci.self_ms_per_op": self_time("correct.bootstrap_ci") / ops * 1e3,
            "correct.bootstrap.us_per_replicate": ratio(
                total("correct.bootstrap_ci") * 1e6, unit("correct.bootstrap_ci", "replicates")),
            "correct.bootstrap.useful_ratio": ratio(self.boot_returned, self.boot_attempts),
            "correct.estimate_tau2.us_per_call": per_call(
                "correct.estimate_tau2_from_replicates", 1e6),
            "correct.correct_rc.calls_per_op": calls("correct.correct_rc") / ops,
            "correct.correct_rc.us_per_call": per_call("correct.correct_rc", 1e6),
            "correct.simex_estimates_per_lambda.ms_per_call": per_call(
                "correct.simex_estimates_per_lambda", 1e3),
            "correct.simex.us_per_pseudo_dataset": ratio(
                total("correct.simex_estimates_per_lambda") * 1e6,
                unit("correct.simex_estimates_per_lambda", "pseudo_datasets")),
            "correct.extrapolate.us_per_call": per_call("correct.extrapolate", 1e6),
            "sensitivity.run_sensitivity.self_ms_per_call": ratio(
                self_time("sensitivity.run_sensitivity") * 1e3,
                calls("sensitivity.run_sensitivity")),
            "sensitivity.draws_per_s": ratio(unit("sensitivity.run_sensitivity", "draws"),
                                             total("sensitivity.run_sensitivity")),
            "sensitivity.ok_ratio": ratio(unit("sensitivity.run_sensitivity", "draws_ok"),
                                          unit("sensitivity.run_sensitivity", "draws")),
            "sensitivity.emit_plot_data.ms_per_call": per_call("sensitivity.emit_plot_data", 1e3),
            "simstudy.generate_dataset.us_per_call": per_call("simstudy.generate_dataset", 1e6),
            "simstudy.run_scenario.self_ms_per_op": self_time("simstudy.run_scenario") / ops * 1e3,
            "simstudy.reps_per_s": ratio(unit("simstudy.run_scenario", "reps"),
                                         total("simstudy.run_scenario")),
            "simstudy.emit_study_report.ms_per_call": per_call("simstudy.emit_study_report", 1e3),
            "util.substream.calls_per_op": calls("util.substream") / ops,
            "util.substream.us_per_call": per_call("util.substream", 1e6),
            "util.atomic_write.ms_per_call": per_call("util.atomic_write", 1e3),
            "util.atomic_write.kb_per_call": ratio(unit("util.atomic_write", "bytes") / 1e3,
                                                   calls("util.atomic_write")),
            "trace.overhead_frac": 1.0 - ratio(traced_rate, untraced_rate),
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.traced_ops_per_s": traced_rate,
            "trace.covered_frac": 1.0 - ratio(self_time("cli.main"), op_total),
            "trace.spans_per_op": (sum(s.calls for s in self.stats.values())
                                   - calls("cli.main")) / ops,
        }

    def print_table(self):
        """Print calls, total and self time per op for every layer, by self time."""
        ops = max(self.ops_traced, 1)
        print(f"{'layer':44} {'calls/op':>10} {'total ms/op':>12} {'self ms/op':>11}")
        for name, stat in sorted(self.stats.items(), key=lambda kv: -kv[1].self_time):
            print(f"{name:44} {stat.calls / ops:10.1f} {stat.total / ops * 1e3:12.3f} "
                  f"{stat.self_time / ops * 1e3:11.3f}")

    def dump(self, path):
        """Write the aggregated stats and the kept spans as JSON."""
        payload = {
            "ops_traced": self.ops_traced,
            "stats": {
                name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time,
                       "raised": s.raised, "units": dict(s.units)}
                for name, s in sorted(self.stats.items())
            },
            "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")


class _TracedContext:
    def __init__(self, tracer, name, inner, bound, count):
        self.tracer, self.name, self.inner = tracer, name, inner
        self.bound, self.count = bound, count

    def __enter__(self):
        self.frame = self.tracer._open(self.name)
        try:
            return self.inner.__enter__()
        except BaseException:
            self.tracer._close(self.frame, True)
            raise

    def __exit__(self, exc_type, exc, tb):
        try:
            return self.inner.__exit__(exc_type, exc, tb)
        finally:
            self.tracer._close(self.frame, exc_type is not None)
            self.count(self.bound, None, "exit")
