"""Benchmark the three analyses on a slice of the scenario grid.

Runs the base scenario plus a low-reliability and a high-replicate variant at
a reduced repetition count (about 40 seconds on one core), printing bias /
MSE / coverage per method and writing the report files. The full grid is
available from the command line:
`mecalib simulate --scenario all`.
"""

from dataclasses import replace

import mecalib as m

SEED = 1729
REPS = 100  # desk scale; MCSE columns in the report quantify the precision

base = m.ScenarioConfig(n_reps=REPS, seed=SEED)
scenarios = [
    base,
    replace(base, name="tau2_100", tau2=100.0),  # reliability 1/3
    replace(base, name="k_10", k=10),            # more replicates for tau2_hat
]

summaries = []
for cfg in scenarios:
    derived = m.derive_scenario(cfg)
    print(f"\nscenario {cfg.name}: tau2={cfg.tau2:g} n={cfg.n} k={cfg.k} "
          f"(reliability {derived.reliability:.3f}, attenuation {derived.attenuation:.3f})")
    summary = m.run_scenario(cfg, n_boot=100)
    summaries.append(summary)
    print(f"  {'method':<12} {'mean':>8} {'%bias':>8} {'mse':>9} {'coverage':>9}")
    for perf in summary.methods.values():
        cov = f"{perf.coverage:.3f}" if perf.coverage == perf.coverage else "-"
        print(f"  {perf.method:<12} {perf.mean_estimate:8.4f} {perf.percent_bias:8.2f} "
              f"{perf.mse:9.5f} {cov:>9}")

written = m.emit_study_report(summaries, "benchmark_report")
print("\nwrote " + ", ".join(written))
print("""
Expected pattern: the uncorrected bias tracks the attenuation factor
(-37.5% at reliability 0.625, -66.7% at 1/3), regression calibration is
approximately unbiased with nominal coverage, and SIMEX lands in between,
biased low with the bias growing as reliability drops. Changing the number
of replicates moves none of the biases; it only sharpens the tau2 estimate.
""")
