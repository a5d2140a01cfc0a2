"""Vanishing fragment radius: the two-radius system approaches the limit one.

Runs the two-radius scenario at shrinking fragment radii with identical seeds
and initial data, plus the matched limit-system run.  The fragments' mean
squared slip delta(r2) falls like the relaxation time r2^2, and their mass
density approaches the limit system's added density.

Run:  python demos/demo_r2_sweep.py  [--fast]
"""

import sys

from thinspray import SimConfig, sweep_r2

fast = "--fast" in sys.argv
config = SimConfig(
    dim=2 if fast else 3,
    n=16 if fast else 32,
    dt=2e-3,
    t_final=0.2 if fast else 0.4,
    scenario="bidisperse",
    tau=0.4,
    particle_count=5_000 if fast else 40_000,
    particle_budget=20_000 if fast else 120_000,
    spray_init="offset",
    seed=7,
)

radii = [0.4, 0.2, 0.1]
print(f"sweep over fragment radii {radii} (matched limit run included)")
result = sweep_r2(config, radii)

print(f"\n{'r2':>6s} {'delta (slip)':>14s} {'rho mismatch':>14s}")
for row in result["rows"]:
    print(f"{row['r2']:6.2f} {row['delta']:14.5e} {row['rho_mismatch']:14.5e}")

slope = result["loglog_slope"]
print(f"\nfitted log-log slope of delta vs r2: {'n/a' if slope is None else f'{slope:.3f}'}")
print("(the r2^2 relaxation time suggests a slope near 2; reported, not asserted)")

for name, ok in result["checks"].items():
    print(f"{name}:", "n/a" if ok is None else ok)
