"""Two-radius droplet population with breakup.

Unit-radius parents fragment at rate 1/tau into radius-r2 droplets whose
number weight is amplified by 1/r2^3, so the liquid volume
sum(w1) + r2^3 sum(w2) never changes.  Fragments relax toward the gas on the
fast time scale r2^2; merging keeps the particle count at the budget while
conserving number and momentum exactly.

Run:  python demos/demo_bidisperse_breakup.py  [--fast]
"""

import sys

import numpy as np

from thinspray import SimConfig, run_scenario

fast = "--fast" in sys.argv
config = SimConfig(
    dim=2,
    n=32 if not fast else 16,
    dt=1e-3,
    t_final=0.4 if not fast else 0.02,
    scenario="bidisperse",
    tau=0.2,                    # aggressive breakup
    r2=0.25,
    particle_count=20_000 if not fast else 2_000,
    particle_budget=60_000 if not fast else 4_000,
    spray_init="offset",
    seed=11,
)
print(f"two-radius run: tau={config.tau}, r2={config.r2}, "
      f"budget={config.particle_budget}")

result = run_scenario(config)
cloud = result.cloud
parents, fragments = (rows for rows, _ in cloud.species())

print(f"\nfinal cloud: {cloud.parents} parents, {cloud.count - cloud.parents} fragments "
      f"(count capped at {config.particle_budget})")
print(f"parent number remaining: {cloud.w[parents].sum():.5f} of "
      f"{config.spray_mass} (decay exp(-T/tau) = "
      f"{config.spray_mass * np.exp(-config.t_final / config.tau):.5f})")
print(f"fragment number: {cloud.w[fragments].sum():.2f} "
      f"(amplified by 1/r2^3 = {1 / config.r2**3:.0f})")

vol = result.records[-1].volume
print(f"\nliquid volume: {vol:.12f} vs initial {config.spray_mass:.12f} "
      f"(error {abs(vol - config.spray_mass):.2e})")
print(f"summary liquid-volume flag: {result.summary['liquid_volume']}")
print(f"largest change of the spray's kinetic energy, sum of w r^3 |xi|^2 / 2, "
      f"from a merge pass: {result.summary['merge_m2_max']:.2e} (a run warns above 1%)")

print(f"\nenergy flags: {result.summary['energy']}")
print(f"momentum flags: {result.summary['momentum']}")
