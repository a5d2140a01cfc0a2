"""The velocity-moment interpolation bound that every run checks, on its own:

    m_a <= ((4/3) pi sup h + 1) m_g^((a+3)/(g+3))

Run:  python demos/demo_inequalities.py
"""

import numpy as np

from thinspray import RadialDensity, check_moment_bound

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
