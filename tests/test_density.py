import numpy as np
import pytest

from thinspray.density import DensityField, density_step
from thinspray.errors import StepRejectedError
from thinspray.grid import GridSpec, ScalarField, VectorField, integral, mollify


def cellular_flow(grid):
    """Divergence-free rotation cells from the stream surface -(cos x + cos y)."""
    x = grid.meshgrid()
    return VectorField.from_components(grid, -np.sin(x[1]), np.sin(x[0]))


def gaussian_blob(grid, center, sigma):
    x = grid.meshgrid()
    r2 = sum((xi - c) ** 2 for xi, c in zip(x, center))
    return ScalarField(grid, np.exp(-r2 / (2 * sigma**2)))


def test_no_flow_no_source_identity():
    g = GridSpec(2, 32)
    rho = DensityField(gaussian_blob(g, (np.pi, np.pi), 1.0))
    out = density_step(rho, VectorField.zeros(g), ScalarField.zeros(g), 1e-3)
    assert np.abs(out.rho.values - rho.rho.values).max() < 1e-14


def test_constant_source_exact():
    g = GridSpec(2, 32)
    rho = DensityField(gaussian_blob(g, (np.pi, np.pi), 1.0))
    src = ScalarField(g, np.full(g.shape, 0.7))
    out = density_step(rho, VectorField.zeros(g), src, 1e-3)
    assert np.abs(out.rho.values - (rho.rho.values + 0.7e-3)).max() < 1e-15


def test_zero_dt_identity():
    g = GridSpec(2, 16)
    rho = DensityField(gaussian_blob(g, (np.pi, np.pi), 0.8))
    out = density_step(rho, cellular_flow(g), ScalarField(g, np.full(g.shape, 1.0)), 0.0)
    assert np.array_equal(out.rho.values, rho.rho.values)


def test_rotation_reversal_error_small():
    # carry a blob along the cellular flow and back by reversing the velocity;
    # the exact answer is the initial blob, so the L2 error measures the
    # scheme's interpolation diffusion (a 1/12 turn keeps it under 2%)
    g = GridSpec(2, 64)
    u = cellular_flow(g)
    u_back = VectorField(g, -u.values)
    rho0 = gaussian_blob(g, (np.pi, np.pi), 1.3)
    rho = DensityField(rho0.copy())
    dt = 1e-3
    steps = int(round(np.pi / 12 / dt))
    for _ in range(steps):
        rho = density_step(rho, u, ScalarField.zeros(g), dt)
    for _ in range(steps):
        rho = density_step(rho, u_back, ScalarField.zeros(g), dt)
    err = np.linalg.norm(rho.rho.values - rho0.values) / np.linalg.norm(rho0.values)
    assert err <= 0.02


def test_positivity_preserved():
    g = GridSpec(2, 32)
    rng = np.random.default_rng(0)
    rho = DensityField(ScalarField(g, rng.uniform(0, 1, g.shape)))
    out = density_step(rho, cellular_flow(g), ScalarField.zeros(g), 5e-3)
    assert out.rho.values.min() >= 0.0


def test_mass_budget_exact_with_fixer():
    g = GridSpec(2, 32)
    rng = np.random.default_rng(2)
    rho = DensityField(ScalarField(g, rng.uniform(0.1, 1, g.shape)))
    src = ScalarField(g, rng.uniform(0, 0.5, g.shape))
    u = cellular_flow(g)
    dt = 2e-3
    out = density_step(rho, u, src, dt)
    budget = integral(out.rho) - integral(rho.rho) - dt * integral(src)
    assert abs(budget) < 1e-12 * integral(rho.rho)


def test_mollified_advection_same_for_uniform_density():
    g = GridSpec(2, 32)
    rho = DensityField(ScalarField(g, np.full(g.shape, 0.4)))
    u = cellular_flow(g)
    a = density_step(rho, u, ScalarField.zeros(g), 1e-3)
    b = density_step(rho, mollify(u, 0.5), ScalarField.zeros(g), 1e-3)
    assert np.abs(a.rho.values - b.rho.values).max() < 1e-12


def test_cfl_advisory_rejects():
    g = GridSpec(2, 16)
    u = VectorField(g, np.full((2,) + g.shape, 50.0))
    rho = DensityField(ScalarField(g, np.full(g.shape, 1.0)))
    with pytest.raises(StepRejectedError):
        density_step(rho, u, ScalarField.zeros(g), 0.1)


def test_negative_inputs_rejected():
    g = GridSpec(2, 16)
    with pytest.raises(ValueError):
        DensityField(ScalarField(g, np.full(g.shape, -0.1)))
    rho = DensityField(ScalarField(g, np.full(g.shape, 0.1)))
    with pytest.raises(ValueError):
        density_step(rho, VectorField.zeros(g), ScalarField(g, np.full(g.shape, -1.0)), 1e-3)
