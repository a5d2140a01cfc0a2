"""Small-droplet limit system: droplets absorb into an added fluid density.

A Taylor-Green gas and an offset-mean droplet cloud exchange momentum through
drag with coupling 1 + 1/tau while droplet number converts into the added
density rho at rate 1/tau (tau = 1 here).  The run prints the
conserved/dissipated budget columns the solver tracks and the final PASS/FAIL
summary.

Run:  python demos/demo_limit_system.py  [--fast]
"""

import sys

import numpy as np

from thinspray import SimConfig, momentum_budget, run_scenario

fast = "--fast" in sys.argv
config = SimConfig(
    dim=3 if not fast else 2,
    n=32 if not fast else 16,
    dt=1e-3,
    t_final=0.25 if not fast else 0.05,
    scenario="limit",
    particle_count=100_000 if not fast else 5_000,
    spray_init="offset",        # mean droplet velocity 0.5 along x
    spray_mass=0.3,
    spray_sigma=0.6,
    seed=7,
)
print(f"limit-system run: n={config.n}^{config.dim}, dt={config.dt}, "
      f"T={config.t_final}, {config.particle_count} particles")

result = run_scenario(config)
records = result.records

print(f"\n{'t':>6s} {'E_spray':>9s} {'E_fluid':>9s} {'M0 f':>8s} "
      f"{'int rho':>8s} {'total P_x':>10s}")
for rec in records[:: max(1, len(records) // 8)]:
    print(f"{rec.t:6.3f} {rec.e_kinetic_spray:9.5f} {rec.e_fluid:9.3f} "
          f"{rec.mass_f:8.5f} {rec.mass_rho:8.5f} {rec.total_momentum[0]:10.6f}")

totals = [r.mass_f + r.mass_rho for r in records]
print(f"\ndroplet number + added density: max drift "
      f"{max(abs(v - totals[0]) for v in totals):.2e} (conserved)")

print(f"energy inequality residual at T: "
      f"{result.summary['energy']['final_residual']:+.3e} (first order in dt)")
drift = momentum_budget(records)
print(f"total momentum drift at T: {np.abs(drift[-1]).max():.3e}")

print("\nsummary flags:")
for key in ("divergence", "energy", "momentum", "mass_budget", "lemma1"):
    entry = result.summary[key]
    print(f"  {key:12s} pass={entry['pass']}")
