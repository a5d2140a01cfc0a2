"""A spatially uniform state: the coupled run against its exact ODE.

The gas starts at rest and the particles sit at the same point of every
cell with one velocity xi0 = (1, 0).  Then the drag deposit is uniform,
interpolation is exact, and convection, viscosity and the projection leave
the mean mode alone, so a run integrates an ODE in time.  With N the
parents' number density, N = N0 exp(-t/tau) and N0 = spray_mass / (2π)^dim:

* limit:       u' = (1 + 1/tau) N (xi - u) / (1 + rho), xi' = u - xi,
               rho = N0 - N;
* regularized: the limit with the velocity cutoff c(xi) on the gas's drag
               and on the source of rho, rho' = c(xi) N / tau;
* bidisperse:  u' = N (xi - u) + r2 (Q - F u), xi' = u - xi,
               F' = N / (tau r2^3), Q' = N xi / (tau r2^3) + (F u - Q) / r2^2,
               with F and Q the fragments' number and momentum densities.

The state has no spatial error, so what a run misses is the splitting's
error in time, which must be first order in dt.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from thinspray import scenarios
from thinspray.kinetic import ParticleCloud, velocity_cutoff
from thinspray.scenarios import SimConfig, run_scenario

TAU, MASS, T = 0.5, 0.3, 0.2
XI0 = np.array([1.0, 0.0])
OFFSET = 0.3          # the particles' place in their cell, in cells
EPS = 1.5             # cutoff ramp 1/eps < |xi| < 2/eps: the cutoff acts on xi0
N0 = MASS / (2 * np.pi) ** 2


def _lattice_cloud(config: SimConfig, per_cell: int) -> ParticleCloud:
    """per_cell parents at the same point of every cell, at velocity XI0;
    with two, cell j holds the particles of index 2j and 2j + 1, so the
    fragmenting turns by index parity take one particle of every cell."""
    grid = config.grid
    cells = np.indices(grid.shape).reshape(grid.dim, -1).T
    x = np.repeat((cells + OFFSET) * grid.h, per_cell, axis=0)
    count = len(x)
    return ParticleCloud(x, np.tile(XI0, (count, 1)), np.full(count, MASS / count),
                         count, config.r2)


def _run(monkeypatch, scenario, dt, **kw):
    per_cell = 2 if scenario == "bidisperse" else 1
    monkeypatch.setattr(scenarios, "initial_cloud",
                        lambda config: _lattice_cloud(config, per_cell))
    config = SimConfig(dim=2, n=8, dt=dt, t_final=T, scenario=scenario, tau=TAU,
                       fluid_init="zero", spray_mass=MASS, particle_budget=10**7, **kw)
    return run_scenario(config).fluid


def _limit_rhs(eps=None):
    """(u, xi, rho)' of the limit, and with eps of the regularized system."""
    def rhs(t, y):
        u, xi, rho = y
        c = velocity_cutoff(np.array([[xi, 0.0]]), eps)[0] if eps else 1.0
        source = c * N0 * np.exp(-t / TAU)
        return [(1 + 1 / TAU) * source * (xi - u) / (1 + rho), u - xi, source / TAU]
    return rhs


def _bidisperse_rhs(r2):
    """(u, xi, F, Q)' of the two-radius system; rho stays zero."""
    def rhs(t, y):
        u, xi, f, q = y
        n = N0 * np.exp(-t / TAU)
        return [n * (xi - u) + r2 * (q - f * u), u - xi, n / (TAU * r2**3),
                n * xi / (TAU * r2**3) + (f * u - q) / r2**2]
    return rhs


CASES = [  # scenario, config keywords, the ODE and its initial state, the dts
    ("limit", dict(), _limit_rhs(), [0.0, XI0[0], 0.0], (4e-3, 2e-3, 1e-3, 5e-4)),
    ("regularized", dict(eps=EPS), _limit_rhs(EPS), [0.0, XI0[0], 0.0],
     (4e-3, 2e-3, 1e-3, 5e-4)),
    ("bidisperse", dict(r2=0.2), _bidisperse_rhs(0.2), [0.0, XI0[0], 0.0, 0.0],
     (2e-3, 1e-3, 5e-4)),
]


@pytest.mark.parametrize("scenario, kw, rhs, y0, dts", CASES, ids=[c[0] for c in CASES])
def test_uniform_state_first_order_in_dt(monkeypatch, scenario, kw, rhs, y0, dts):
    # measured ratios per halving of dt: limit 2.00 2.00 2.00, regularized
    # 2.55 2.32 2.18 (u) and 2.00 (rho), bidisperse 2.00 2.00
    exact = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-13, atol=1e-16).y[:, -1]
    errors = []  # relative errors of u, and of rho where the ODE moves it
    for dt in dts:
        fluid = _run(monkeypatch, scenario, dt, **kw)
        u, rho = fluid.u.values, fluid.rho.values
        mean = u.mean(axis=(1, 2))
        assert np.abs(u - mean[:, None, None]).max() <= 1e-15  # uniform
        error = [np.hypot(mean[0] - exact[0], mean[1]) / abs(exact[0])]
        if scenario == "limit":  # rho = N0 - N, exactly
            assert np.abs(rho - N0 * -np.expm1(-T / TAU)).max() <= 1e-15
        elif scenario == "regularized":
            error.append(np.abs(rho - exact[2]).max() / exact[2])
        else:
            assert not rho.any()
        errors.append(error)
    errors = np.array(errors)
    assert np.all(errors[:-1] / errors[1:] >= 1.9), errors
