import tracemalloc

import numpy as np
import pytest
from conftest import leray, meshgrid

from thinspray.density import density_step
from thinspray.errors import StepRejectedError
from thinspray.fluid import FluidState, check_cfl
from thinspray.grid import GridSpec, ScalarField, VectorField, fft, integral, mollify
from thinspray.transfer import cic_gather


def cellular_flow(grid):
    """Divergence-free rotation cells from the stream surface -(cos x + cos y)."""
    x = meshgrid(grid)
    return VectorField.from_components(grid, -np.sin(x[1]), np.sin(x[0]))


def gaussian_blob(grid, center, sigma):
    x = meshgrid(grid)
    r2 = sum((xi - c) ** 2 for xi, c in zip(x, center))
    return ScalarField(grid, np.exp(-r2 / (2 * sigma**2)))


def random_flow(grid, rng):
    """A Leray-projected random velocity with unit maximum speed."""
    u = leray(VectorField(grid, rng.normal(size=(grid.dim,) + grid.shape)))
    return VectorField(grid, u.values / np.abs(u.values).max())


def outflow_speeds(u):
    """Summed outflow face speeds of each cell, faces at the mean of two nodes."""
    total = np.zeros(u.grid.shape)
    for a, ua in enumerate(u.values):
        face = 0.5 * (ua + np.roll(ua, -1, axis=a))
        total += np.maximum(face, 0.0) + np.maximum(-np.roll(face, 1, axis=a), 0.0)
    return total


def roll_step(rho, u, source, dt):
    """density_step's arithmetic, operation by operation, with np.roll copies."""
    r, c = rho.values, dt / rho.grid.h
    out, inflow = np.zeros(r.shape), np.zeros(r.shape)
    for a, ua in enumerate(u.values):
        face = (ua + np.roll(ua, -1, axis=a)) * 0.5
        right, left = np.maximum(face, 0.0), np.maximum(-face, 0.0)
        out += np.roll(left, 1, axis=a) + right
        inflow += np.roll(right * r, 1, axis=a) + left * np.roll(r, -1, axis=a)
    return (1.0 - out * c) * r + inflow * c + dt * source.values


def semi_lagrangian_step(rho, u, source, dt):
    """The step this scheme replaced: midpoint feet, gathers, mass rescale."""
    g = u.grid
    nodes = np.stack([m.ravel() for m in meshgrid(g)], axis=-1)
    v_node = np.moveaxis(u.values.reshape(g.dim, -1), 0, 1)
    feet = nodes - dt * cic_gather(u, nodes - 0.5 * dt * v_node)
    advected = np.maximum(cic_gather(rho, feet), 0.0).reshape(g.shape)
    advected *= rho.values.sum() / advected.sum()
    return advected + dt * source.values


@pytest.mark.parametrize("dim, axis, sign", [(2, 0, 1.0), (2, 1, -1.0), (3, 2, 1.0)])
def test_constant_axis_flow_matches_semi_lagrangian(dim, axis, sign):
    # for a constant velocity along one axis both schemes give
    # (1 - c) rho_i + c rho_upwind, c = |u| dt / h
    g = GridSpec(dim, 16)
    rng = np.random.default_rng(4)
    rho = ScalarField(g, rng.uniform(0, 1, g.shape))
    src = ScalarField(g, rng.uniform(0, 0.5, g.shape))
    dt = 1e-2
    values = np.zeros((dim,) + g.shape)
    values[axis] = sign * 0.37 * g.h / dt
    u = VectorField(g, values)
    out = density_step(rho, u, src, dt)
    assert np.abs(out.values - semi_lagrangian_step(rho, u, src, dt)).max() <= 1e-14


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_matches_the_roll_form_bit_for_bit(dim, n):
    # the shifted terms are written by slices, in the roll form's order
    g = GridSpec(dim, n)
    rng = np.random.default_rng(11)
    rho = ScalarField(g, rng.uniform(0, 1, g.shape))
    src = ScalarField(g, rng.uniform(0, 0.5, g.shape))
    u = VectorField(g, rng.normal(size=(dim,) + g.shape))
    dt = 0.5 * g.h / outflow_speeds(u).max()
    out = density_step(rho, u, src, dt)
    assert out.values.tobytes() == roll_step(rho, u, src, dt).tobytes()


def test_transient_memory_below_seven_fields():
    g = GridSpec(3, 32)
    rng = np.random.default_rng(12)
    rho, src = (ScalarField(g, rng.uniform(0, 1, g.shape)) for _ in range(2))
    u = random_flow(g, rng)
    density_step(rho, u, src, 1e-3)  # warm up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        density_step(rho, u, src, 1e-3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 7 * rho.values.nbytes


def test_no_flow_no_source_identity():
    g = GridSpec(2, 32)
    rho = gaussian_blob(g, (np.pi, np.pi), 1.0)
    out = density_step(rho, VectorField.zeros(g), ScalarField.zeros(g), 1e-3)
    assert np.abs(out.values - rho.values).max() < 1e-14


def test_constant_source_exact():
    g = GridSpec(2, 32)
    rho = gaussian_blob(g, (np.pi, np.pi), 1.0)
    src = ScalarField(g, np.full(g.shape, 0.7))
    out = density_step(rho, VectorField.zeros(g), src, 1e-3)
    assert np.abs(out.values - (rho.values + 0.7e-3)).max() < 1e-15


def test_zero_dt_identity():
    g = GridSpec(2, 16)
    rho = gaussian_blob(g, (np.pi, np.pi), 0.8)
    out = density_step(rho, cellular_flow(g), ScalarField(g, np.full(g.shape, 1.0)), 0.0)
    assert np.array_equal(out.values, rho.values)


def test_rotation_reversal_error_small():
    # carry a blob along the cellular flow and back by reversing the velocity;
    # the exact answer is the initial blob, so the L2 error measures the
    # scheme's numerical diffusion (a 1/12 turn keeps it under 2%)
    g = GridSpec(2, 64)
    u = cellular_flow(g)
    u_back = VectorField(g, -u.values)
    rho0 = gaussian_blob(g, (np.pi, np.pi), 1.3)
    rho = rho0
    dt = 1e-3
    steps = int(round(np.pi / 12 / dt))
    for _ in range(steps):
        rho = density_step(rho, u, ScalarField.zeros(g), dt)
    for _ in range(steps):
        rho = density_step(rho, u_back, ScalarField.zeros(g), dt)
    err = np.linalg.norm(rho.values - rho0.values) / np.linalg.norm(rho0.values)
    assert err <= 0.02


def test_positivity_preserved():
    g = GridSpec(2, 32)
    rng = np.random.default_rng(0)
    rho = ScalarField(g, rng.uniform(0, 1, g.shape))
    out = density_step(rho, cellular_flow(g), ScalarField.zeros(g), 5e-3)
    assert out.values.min() >= 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_mass_budget_closes_without_rescale(dim):
    # every face flux leaves one cell and enters the next: the sum telescopes
    g = GridSpec(dim, 16)
    rng = np.random.default_rng(2)
    rho = ScalarField(g, rng.uniform(0.1, 1, g.shape))
    src = ScalarField(g, rng.uniform(0, 0.5, g.shape))
    u = random_flow(g, rng)
    dt = 0.9 * g.h / outflow_speeds(u).max()
    out = density_step(rho, u, src, dt)
    budget = integral(out) - integral(rho) - dt * integral(src)
    assert abs(budget) < 1e-13 * integral(rho)


@pytest.mark.parametrize("dim", [2, 3])
def test_step_at_the_outflow_bound_stays_nonnegative(dim):
    # the largest dt the step accepts empties the worst cell to rounding; the
    # update is a sum of nonnegative terms there, also where rho = 0
    g = GridSpec(dim, 16)
    rng = np.random.default_rng(7)
    values = rng.uniform(0, 1, g.shape) * (rng.uniform(size=g.shape) < 0.5)
    rho = ScalarField(g, values)
    u = random_flow(g, rng)
    dt = g.h / outflow_speeds(u).max()
    for _ in range(8):
        try:
            out = density_step(rho, u, ScalarField.zeros(g), dt)
            break
        except StepRejectedError:
            dt = np.nextafter(dt, 0.0)
    else:
        pytest.fail("no dt within 8 ulp of the outflow bound was accepted")
    assert (values == 0).any() and out.values.min() >= 0.0
    assert dt * outflow_speeds(u).max() / g.h > 1 - 1e-14


def test_outflow_bound_stricter_than_cfl():
    # u = (U, U, U) with U dt/h = 0.5 empties 1.5 cells' worth per step
    g = GridSpec(3, 8)
    dt = 1e-2
    u = VectorField(g, np.full((3,) + g.shape, 0.5 * g.h / dt))
    check_cfl(u, dt)
    rho = ScalarField(g, np.full(g.shape, 1.0))
    with pytest.raises(StepRejectedError, match="outflow bound"):
        density_step(rho, u, ScalarField.zeros(g), dt)


def test_mollified_advection_same_for_uniform_density():
    g = GridSpec(2, 32)
    rho = ScalarField(g, np.full(g.shape, 0.4))
    u = cellular_flow(g)
    a = density_step(rho, u, ScalarField.zeros(g), 1e-3)
    b = density_step(rho, VectorField(g, mollify(g, 0.5, fft(g, u.values))),
                     ScalarField.zeros(g), 1e-3)
    assert np.abs(a.values - b.values).max() < 1e-12


def test_cfl_advisory_rejects():
    g = GridSpec(2, 16)
    u = VectorField(g, np.full((2,) + g.shape, 50.0))
    rho = ScalarField(g, np.full(g.shape, 1.0))
    with pytest.raises(StepRejectedError):
        density_step(rho, u, ScalarField.zeros(g), 0.1)


def test_negative_inputs_rejected():
    g = GridSpec(2, 16)
    with pytest.raises(ValueError, match="nonnegative"):
        FluidState(VectorField.zeros(g), ScalarField(g, np.full(g.shape, -0.1)))
    rho = ScalarField(g, np.full(g.shape, 0.1))
    with pytest.raises(ValueError):
        density_step(rho, VectorField.zeros(g), ScalarField(g, np.full(g.shape, -1.0)), 1e-3)
