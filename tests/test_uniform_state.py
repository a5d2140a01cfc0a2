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
               with F and Q the fragments' number and momentum densities;

and in each the parents' displacement X along x follows X' = xi.  The state
has no spatial error, so what a run misses is the splitting's error in time,
which must be first order in dt.  No budget sees the positions, so this is
the check that a push which leaves x in place fails.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from thinspray import scenarios
from thinspray.grid import TWO_PI
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
    """The run's final fluid, and its parents' displacement from the start."""
    per_cell = 2 if scenario == "bidisperse" else 1
    start = {}

    def initial_cloud(config):
        cloud = _lattice_cloud(config, per_cell)
        start["x"] = cloud.x.copy()
        return cloud
    monkeypatch.setattr(scenarios, "initial_cloud", initial_cloud)
    config = SimConfig(dim=2, n=8, dt=dt, t_final=T, scenario=scenario, tau=TAU,
                       fluid_init="zero", spray_mass=MASS, particle_budget=10**7, **kw)
    result = run_scenario(config)
    cloud = result.cloud
    shift = cloud.x[:cloud.parents] - start["x"][:cloud.parents]
    return result.fluid, np.remainder(shift + 0.5 * TWO_PI, TWO_PI) - 0.5 * TWO_PI


def _limit_rhs(eps=None):
    """(u, xi, rho, X)' of the limit, and with eps of the regularized system."""
    def rhs(t, y):
        u, xi, rho, _ = y
        c = velocity_cutoff(np.array([[xi, 0.0]]), eps)[0] if eps else 1.0
        source = c * N0 * np.exp(-t / TAU)
        return [(1 + 1 / TAU) * source * (xi - u) / (1 + rho), u - xi, source / TAU, xi]
    return rhs


def _bidisperse_rhs(r2):
    """(u, xi, F, Q, X)' of the two-radius system; rho stays zero."""
    def rhs(t, y):
        u, xi, f, q, _ = y
        n = N0 * np.exp(-t / TAU)
        return [n * (xi - u) + r2 * (q - f * u), u - xi, n / (TAU * r2**3),
                n * xi / (TAU * r2**3) + (f * u - q) / r2**2, xi]
    return rhs


CASES = [  # scenario, config keywords, the ODE and its initial state, the dts
    ("limit", dict(), _limit_rhs(), [0.0, XI0[0], 0.0, 0.0], (4e-3, 2e-3, 1e-3, 5e-4)),
    ("regularized", dict(eps=EPS), _limit_rhs(EPS), [0.0, XI0[0], 0.0, 0.0],
     (4e-3, 2e-3, 1e-3, 5e-4)),
    ("bidisperse", dict(r2=0.2), _bidisperse_rhs(0.2), [0.0, XI0[0], 0.0, 0.0, 0.0],
     (2e-3, 1e-3, 5e-4)),
]


def _errors(monkeypatch, scenario, kw, rhs, y0, dts) -> np.ndarray:
    """Per dt, the relative errors of u, of rho where the ODE moves it, and of
    the parents' displacement."""
    exact = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-13, atol=1e-16).y[:, -1]
    errors = []
    for dt in dts:
        fluid, shift = _run(monkeypatch, scenario, dt, **kw)
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
        error.append(np.abs(shift - [exact[-1], 0.0]).max() / exact[-1])
        errors.append(error)
    return np.array(errors)


def _first_order(errors) -> bool:
    return bool(np.all(errors[:-1] / errors[1:] >= 1.9))


@pytest.mark.parametrize("scenario, kw, rhs, y0, dts", CASES, ids=[c[0] for c in CASES])
def test_uniform_state_first_order_in_dt(monkeypatch, scenario, kw, rhs, y0, dts):
    # measured ratios per halving of dt: limit 2.00 2.00 2.00, regularized
    # 2.55 2.32 2.18 (u) and 2.00 (rho), bidisperse 2.00 2.00; the
    # displacement (X(T) = 0.1813) 2.0 in each, limit 3.045e-6 ... 3.799e-7
    errors = _errors(monkeypatch, scenario, kw, rhs, y0, dts)
    assert _first_order(errors), errors


def test_a_push_that_leaves_x_fails_the_check(monkeypatch):
    # the displacement's relative error then reads 1.0 at every dt
    def push(cloud, u_at_x, dt, _real=scenarios.advance_particles):
        return replace(_real(cloud, u_at_x, dt), x=cloud.x)
    monkeypatch.setattr(scenarios, "advance_particles", push)
    scenario, kw, rhs, y0, dts = CASES[0]
    errors = _errors(monkeypatch, scenario, kw, rhs, y0, dts[:2])
    assert not _first_order(errors), errors
