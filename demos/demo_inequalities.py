"""The estimates behind the solver, run as standalone numerical checks.

* moment interpolation bound  m_a <= ((4/3) pi sup h + 1) m_g^((a+3)/(g+3))
* nonlinear comparison-ODE (Gronwall) domination
* guaranteed life span of the power-law blow-up ODE

Run:  python demos/demo_inequalities.py
"""

import numpy as np

from thinspray import (
    GronwallProblem,
    RadialDensity,
    blowup_time_bound,
    check_moment_bound,
    gronwall_compare,
)

rng = np.random.default_rng(0)

print("moment interpolation bound on random radial densities")
worst = np.inf
for _ in range(2000):
    nshell = int(rng.integers(1, 10))
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 8.0, nshell))])
    h = RadialDensity(edges, rng.uniform(0.0, 5.0, nshell))
    alpha = float(rng.uniform(0.0, 2.5))
    gamma = alpha + float(rng.uniform(0.2, 3.0))
    lhs, rhs, ok = check_moment_bound(h, alpha, gamma)
    if rhs > 0:
        worst = min(worst, rhs / max(lhs, 1e-300))
    assert ok
print(f"  2000/2000 hold; tightest rhs/lhs ratio seen: {worst:.3f}")

ball = RadialDensity(np.array([0.0, 1.0]), np.array([1.0]))
lhs, rhs, _ = check_moment_bound(ball, 0.0, 2.0)
print(f"  unit ball, orders (0,2): m0 = {lhs:.5f} <= {rhs:.5f}")

print("\ncomparison-ODE domination (quartic right-hand side)")
problem = GronwallProblem(a=1.0, gamma=3.0)
ts = np.linspace(0.0, 0.25, 60)
res = gronwall_compare(problem, ts, np.full(ts.shape, 1.0))
print(f"  a(t) = 1 below z' = z^4, z(0) = 1: passed={res.passed}, "
      f"z(0.25) = {res.bound[-1]:.4f}")

print("\nguaranteed life span of z' = A z^(1+g), z(0) = A")
for a, g in ((1.0, 1.0), (1.0, 3.0), (2.0, 1.0), (0.7, 2.0)):
    t_bound, t_numeric = blowup_time_bound(a, g)
    print(f"  A={a:3.1f} g={g:3.1f}: bound {t_bound:.6f}, "
          f"escape to 1e12 at {t_numeric:.6f}")
