"""The regularized run tends to the limit run as eps -> 0.

The paper reaches its weak solutions of the limit system through solutions
of the regularized one, whose mollifier and velocity cutoff both vanish as
eps -> 0.  A regularized run and the limit run of the same seed, n, dt and
cloud must therefore close up as eps halves.  Where the cutoff, |xi| > 1/eps,
reaches no particle, only the mollifier's O(eps^2) acts, so the gaps fall
about fourfold per halving (3.9 to 4.0 measured); the test asks for 3.5.
The gaps are the relative L2 distances of the final u, rho and particle
velocities xi; the remainder is the largest |r1|, |r2|, |r3| over the
records.  The clouds of both scenarios keep their order, since an absorbing
run never merges, so xi compares row by row.
"""

import numpy as np
import pytest

from thinspray.kinetic import velocity_cutoff
from thinspray.scenarios import SimConfig, run_scenario

_BASE = dict(n=16, particle_count=4000, tau=0.5, seed=7, dt=1e-3)


def _gap(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _gaps(config, eps_list):
    """[(u gap, rho gap, xi gap, largest remainder)] of the regularized runs
    at each eps against the limit run, and whether each run's cutoff reaches
    a particle of its final cloud."""
    limit = run_scenario(SimConfig(scenario="limit", **config))
    rows, tails = [], []
    for eps in eps_list:
        run = run_scenario(SimConfig(scenario="regularized", eps=eps, **config))
        tails.append(bool(np.any(velocity_cutoff(run.cloud.xi, eps) < 1.0)))
        remainder = max(max(abs(r.r1), abs(r.r2), abs(r.r3)) for r in run.records)
        rows.append((_gap(run.fluid.u.values, limit.fluid.u.values),
                     _gap(run.fluid.rho.values, limit.fluid.rho.values),
                     _gap(run.cloud.xi, limit.cloud.xi), remainder))
    return np.array(rows), tails


@pytest.mark.parametrize("config", [
    pytest.param(dict(_BASE, dim=2, t_final=0.2), id="2d"),
    pytest.param(dict(_BASE, dim=3, t_final=0.05), id="3d"),
])
def test_gaps_fall_with_eps_squared(config):
    # measured ratios per halving, 0.2 -> 0.1 -> 0.05: 3.94-3.99 (2-D) and
    # 3.91-3.98 (3-D) for the gaps, 3.69-3.96 for the remainder
    gaps, tails = _gaps(config, (0.2, 0.1, 0.05))
    assert not any(tails)  # the mollifier alone
    assert np.all(gaps > 0)
    ratios = gaps[:-1] / gaps[1:]
    assert np.all(ratios >= 3.5), ratios


def test_gaps_fall_where_the_cutoff_bites():
    # a wide spray (sigma 3) reaches past 1/eps at eps = 0.4 and 0.2; the
    # measured ratios are 3.8 (u), 7.9 (rho), 3.8 (xi) and 8.0 (remainder)
    gaps, tails = _gaps(dict(_BASE, dim=2, t_final=0.05, spray_sigma=3.0), (0.4, 0.2))
    assert all(tails)
    assert np.all(gaps[1] < gaps[0]), gaps
