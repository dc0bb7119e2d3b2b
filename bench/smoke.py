"""Smoke test of the benchmark harness itself.

    python3 bench/smoke.py

Runs a few ops of each workload (untraced and traced), asserts that they
pass their output checks, then feeds each check a deliberately wrong result
(a perturbed output file, a perturbed printed table, a biased pooled
sample) and asserts that the check catches it.  Exit code 0 when every
assertion holds.
"""

from __future__ import annotations

import json
import os
import sys

import run
from reference import Pool
from tracing import Tracer
from workloads import WORKLOADS

FAILURES = []


def expect(condition: bool, label: str) -> None:
    print(("ok    " if condition else "FAIL  ") + label)
    if not condition:
        FAILURES.append(label)


def edit_json(path, edit):
    with open(path) as handle:
        data = json.load(handle)
    edit(data)
    with open(path, "w") as handle:
        json.dump(data, handle)


def edit_text(path, old, new):
    with open(path) as handle:
        text = handle.read()
    assert old in text, (old, path)
    with open(path, "w") as handle:
        handle.write(text.replace(old, new, 1))


def nudge(text: str, rel: float = 1e-6) -> str:
    """A number ``rel`` away (relative) from the one in ``text``."""
    return repr(float(text) * (1 + rel))


def run_ops(mecalib, workload, indices, capture, tracer=None):
    """Run ops; return the stdout of each (the output files stay in place)."""
    outputs = {}
    for index in indices:
        _, _, errors = run.run_op(mecalib.cli, workload, index, capture, tracer)
        expect(not errors, f"{workload.name} op {index} passes its checks {errors[:2]}")
        outputs[index] = capture.stdout
    return outputs


def caught(workload, index, stdout, label):
    errors = workload.check(index, stdout)
    expect(bool(errors), f"{workload.name}: check catches {label}")


def simulate_cases(mecalib, cls, workdir, capture):
    workload = cls(7, workdir)
    workload.make_inputs()
    index = 2
    stdout = run_ops(mecalib, workload, [0, 1, index], capture)[index]
    summaries = os.path.join(workload.out_dir, "summaries.json")
    pristine = open(summaries).read()

    def restore():
        with open(summaries, "w") as handle:
            handle.write(pristine)

    def change(method, key, wrong):
        def edit(data):
            data[0]["methods"][method][key] = wrong(data[0]["methods"][method][key])
        return edit

    for method, key, wrong in (("uncorrected", "mean_estimate", lambda v: v * (1 + 1e-6)),
                               ("rc", "mean_estimate", lambda v: v * (1 + 1e-6)),
                               ("rc", "mse", lambda v: v * (1 + 1e-6)),
                               ("uncorrected", "coverage", lambda v: 1.0 - v if v != 0.5 else 0.0)):
        edit_json(summaries, change(method, key, wrong))
        caught(workload, index, stdout, f"{method} {key} off")
        restore()
    edit_json(summaries, lambda data: data[0]["scenario"].update(seed=1))
    caught(workload, index, stdout, "a wrong scenario seed")
    restore()
    printed = stdout.split("uncorrected", 1)[1].split()[0]
    caught(workload, index, stdout.replace(printed, nudge(printed, 1e-4), 1),
           "a wrong printed mean_estimate")
    expect(not workload.check(index, stdout), f"{workload.name}: restored output passes")

    # pooled, in-distribution checks: correct pools pass, biased ones fail
    cfg, derived = workload.scenarios[0]
    expect(not workload.pooled_check(), f"{workload.name}: pooled check passes")
    attenuated = 0.2 * derived.attenuation
    for method, wrong in (("uncorrected", 0.2), ("rc", attenuated),
                          ("simex", 0.2 * (1 + 0.5 * (1 - derived.attenuation)))):
        if method not in workload.methods:
            continue
        saved = workload.pools.get((cfg.name, method))
        pool = Pool()
        pool.add(1000, wrong, 0.02)
        workload.pools[(cfg.name, method)] = pool
        expect(bool(workload.pooled_check()),
               f"{workload.name}: pooled check catches a biased {method} mean")
        workload.pools[(cfg.name, method)] = saved
    if workload.n_boot:
        workload.covered, workload.intervals = 800.0, 1000
        expect(bool(workload.pooled_check()),
               f"{workload.name}: pooled check catches 80% bootstrap coverage")


def cli_cases(mecalib, workdir, capture):
    workload = WORKLOADS["cli_large_csv"](7, workdir)
    workload.make_inputs()
    outputs = run_ops(mecalib, workload, [0, 1, 2], capture)

    with open(workload.fit_out) as handle:
        coef = handle.read().splitlines()[2].split(",")[1]
    edit_text(workload.fit_out, coef, nudge(coef))
    caught(workload, 0, outputs[0], "a wrong fit coefficient")
    printed = outputs[0].split("bp_star_1", 1)[1].split()[0]
    edit_text(workload.fit_out, nudge(coef), coef)
    caught(workload, 0, outputs[0].replace(printed, nudge(printed, 1e-6), 1),
           "a wrong printed coefficient")

    edit_json(workload.correct_out, lambda data: data.update(estimate=data["estimate"] * 1.000001))
    caught(workload, 1, outputs[1], "a wrong RC estimate")
    edit_json(workload.correct_out, lambda data: data.update(estimate=data["estimate"] / 1.000001))
    edit_json(workload.correct_out, lambda data: data.update(tau2=data["tau2"] * 1.000001))
    caught(workload, 1, outputs[1], "a wrong tau2")

    with open(workload.sens_out) as handle:
        estimate = handle.read().splitlines()[1].split(",")[1]
    edit_text(workload.sens_out, estimate, nudge(estimate))
    caught(workload, 2, outputs[2], "a wrong sensitivity estimate")
    edit_text(workload.sens_out, nudge(estimate), estimate)
    edit_json(workload.sens_sidecar, lambda data: data["summary"].update(n_infeasible=1))
    caught(workload, 2, outputs[2], "a wrong sidecar summary")

    expect(not workload.pooled_check(), "cli_large_csv: pooled check passes")
    workload.draw_pool.add(1000, 40.0, 5.0)
    expect(bool(workload.pooled_check()), "cli_large_csv: pooled check catches biased draws")


def traced_cases(mecalib, workdir, capture):
    import mecalib.correct as correct
    import mecalib.linreg as linreg

    original = linreg.ols_fit
    tracer = Tracer(mecalib)
    workload = WORKLOADS["sim_rc_boot"](3, workdir)
    workload.make_inputs()
    run_ops(mecalib, workload, [0, 1], capture, tracer)
    expect(correct.ols_fit is original and linreg.ols_fit is original,
           "tracer restores every binding")
    stats = tracer.stats
    expect(tracer.ops_traced == 2 and stats["cli.main"].calls == 2, "two traced ops")
    expect(stats["correct.bootstrap_ci"].units["replicates"] == 2 * workload.n_boot,
           "bootstrap replicates counted at the boundary")
    expect(stats["data.take_rows"].calls == 2 * workload.n_boot, "take_rows traced")
    expect(stats["linreg.ols_fit"].calls > 4 * workload.n_boot,
           "ols_fit traced through both module bindings")
    expect(tracer.boot_attempts == 2 * workload.n_boot == tracer.boot_returned,
           "bootstrap useful ratio counted")
    self_total = sum(s.self_time for s in stats.values())
    expect(abs(self_total - stats["cli.main"].total) < 1e-6,
           "self times add up to the op time")


def summary_cases() -> None:
    """Host scaling cancels a slow host; block quantiles keep whole blocks."""
    ref = run.REFERENCE_PROBE_S
    half = 0.5 ** run.HOST_SENSITIVITY  # scale when the probe takes twice as long
    walls = [0.1, 0.2, 0.3, 0.4, 0.5]
    slow = run.host_scaled([2 * w for w in walls], [2 * ref] * 5)
    expect(all(abs(a - 2 * half * b) < 1e-12 for a, b in zip(slow, walls)),
           "host scaling shrinks times taken on a slow host")
    spell = run.host_scaled([0.1] * 8, [ref] * 4 + [2 * ref] * 4)
    expect(all(abs(a - b) < 1e-12 for a, b in zip(spell, [0.1] * 4 + [0.1 * half] * 4)),
           "host scaling follows a slow spell")
    outlier = run.host_scaled([0.1] * 3, [ref, 9 * ref, ref])
    expect(all(abs(a - 0.1) < 1e-12 for a in outlier),
           "one outlying probe does not move the scale")
    expect(run.blocks(5, 2) == [(0, 2), (2, 5)], "a partial block joins the one before")
    expect(abs(run.block_percentile(walls, 0.5, 2) - (0.15 + 0.4) / 2) < 1e-12,
           "block quantiles are averaged over blocks")


def main() -> int:
    summary_cases()
    mecalib, _ = run.import_program()
    with run.scratch_dir("smoke-") as workdir:
        capture = run.FdCapture(workdir)
        try:
            for name in ("sim_rc_boot", "sim_grid"):
                simulate_cases(mecalib, WORKLOADS[name], workdir, capture)
            cli_cases(mecalib, workdir, capture)
            traced_cases(mecalib, workdir, capture)
        finally:
            capture.close()
    print(f"{len(FAILURES)} failed" if FAILURES else "all smoke checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
