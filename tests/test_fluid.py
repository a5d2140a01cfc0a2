import numpy as np
import pytest
from scipy.integrate import solve_ivp

from thinspray.errors import GridMismatchError, StepRejectedError
from thinspray.fluid import DragField, FluidState, drag_force, ns_step
from thinspray.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _spectral_tables,
    divergence_residual,
    fft,
    ifft_like,
    leray_project,
    mollify,
)


def no_coupling(grid):
    """The rho and drag arguments of a step without added density or droplets."""
    return ScalarField.zeros(grid), DragField.zeros(grid)


def band_limited(v):
    """v with every mode outside the 2/3-rule band of the fluid step removed."""
    return VectorField(v.grid, ifft_like(v, _spectral_tables(v.grid).mask * fft(v)))


def shear_state(grid):
    x = grid.meshgrid()
    comps = [np.sin(x[1])] + [np.zeros(grid.shape)] * (grid.dim - 1)
    return FluidState(VectorField.from_components(grid, *comps), 0.0)


class TestDragForce:
    def test_equilibrated_spray_zero_force(self):
        g = GridSpec(3, 16)
        rng = np.random.default_rng(0)
        u = VectorField(g, rng.standard_normal((3,) + g.shape))
        m0 = ScalarField(g, rng.uniform(0.5, 1.5, g.shape))
        m1 = VectorField(g, u.values * m0.values[None])
        force = drag_force(u, DragField(m0, m1), coupling=2.0)
        assert np.abs(force.values).max() < 1e-13

    def test_unit_example(self):
        g = GridSpec(3, 16)
        u = VectorField.zeros(g)
        m0 = ScalarField.full(g, 1.0)
        m1 = VectorField.from_components(
            g, np.ones(g.shape), np.zeros(g.shape), np.zeros(g.shape))
        force = drag_force(u, DragField(m0, m1), coupling=2.0)
        assert np.abs(force.values[0] - 2.0).max() < 1e-14
        assert np.abs(force.values[1:]).max() < 1e-14

    def test_matches_pointwise_loop(self):
        g = GridSpec(2, 16)
        rng = np.random.default_rng(1)
        u = VectorField(g, rng.standard_normal((2,) + g.shape))
        m0 = ScalarField(g, rng.uniform(0, 1, g.shape))
        m1 = VectorField(g, rng.standard_normal((2,) + g.shape))
        coupling = 1.7
        force = drag_force(u, DragField(m0, m1), coupling)
        expected = np.empty_like(force.values)
        for i in range(g.n):
            for j in range(g.n):
                for c in range(2):
                    expected[c, i, j] = coupling * (
                        m1.values[c, i, j] - u.values[c, i, j] * m0.values[i, j])
        assert np.abs(force.values - expected).max() < 1e-14

    def test_grid_mismatch(self):
        u = VectorField.zeros(GridSpec(2, 16))
        drag = DragField.zeros(GridSpec(2, 32))
        with pytest.raises(GridMismatchError):
            drag_force(u, drag, 1.0)


class TestNsStep:
    def test_shear_mode_decay(self):
        # convection vanishes identically: pure Stokes mode, exact e^{-2t} energy decay
        g = GridSpec(3, 32)
        state = shear_state(g)
        e0 = np.linalg.norm(state.u.values) ** 2
        for _ in range(100):
            state = ns_step(state, state.u, *no_coupling(g), 1e-3, coupling=1.0)
        ratio = np.linalg.norm(state.u.values) ** 2 / e0
        assert ratio == pytest.approx(np.exp(-0.2), abs=1e-3)

    def test_zero_dt_identity(self):
        g = GridSpec(2, 32)
        state = shear_state(g)
        out = ns_step(state, state.u, *no_coupling(g), 0.0, coupling=1.0)
        assert np.abs(out.u.values - state.u.values).max() < 1e-14
        assert out.t == state.t

    def test_cfl_rejection(self):
        g = GridSpec(2, 32)
        u = VectorField(g, np.full((2,) + g.shape, 30.0))
        state = FluidState(leray_project(u))
        with pytest.raises(StepRejectedError, match="reduce dt"):
            ns_step(state, state.u, *no_coupling(g), 0.05, coupling=1.0)

    def test_homogeneous_drag_ode(self):
        # uniform u, frozen uniform drag: (1+rho) du/dt = 2 c (v - u)
        g = GridSpec(3, 16)
        c, v, rho_c = 0.8, np.array([0.4, -0.2, 0.1]), 0.35
        u0 = np.array([1.0, 0.5, -0.3])
        state = FluidState(VectorField.from_components(
            g, *[np.full(g.shape, val) for val in u0]))
        rho = ScalarField.full(g, rho_c)
        drag = DragField(
            ScalarField.full(g, c),
            VectorField.from_components(g, *[np.full(g.shape, c * val) for val in v]),
        )
        dt, t_end = 2e-5, 0.05
        for _ in range(int(round(t_end / dt))):
            state = ns_step(state, state.u, rho, drag, dt, coupling=2.0)

        sol = solve_ivp(lambda t, y: 2.0 * c * (v - y) / (1.0 + rho_c),
                        (0.0, t_end), u0, method="DOP853", rtol=1e-12, atol=1e-14)
        assert np.abs(state.u.values.reshape(3, -1)[:, 0] - sol.y[:, -1]).max() < 1e-4

    def test_divergence_after_steps(self):
        g = GridSpec(2, 32)
        rng = np.random.default_rng(2)
        u = leray_project(band_limited(
            VectorField(g, 0.5 * rng.standard_normal((2,) + g.shape))))
        state = FluidState(u)
        rho = ScalarField(g, rng.uniform(0, 0.5, g.shape))
        drag = DragField(
            ScalarField(g, rng.uniform(0, 0.3, g.shape)),
            VectorField(g, 0.1 * rng.standard_normal((2,) + g.shape)),
        )
        for _ in range(20):
            state = ns_step(state, state.u, rho, drag, 1e-3, coupling=2.0)
            assert divergence_residual(g, fft(state.u)) <= 1e-10
            # the carried spectrum is that of the returned velocity
            assert np.abs(state.u_hat - fft(state.u)).max() <= 1e-12 * np.abs(state.u_hat).max()

    def test_energy_nonincreasing_unforced(self):
        # 100 random draws: no spray, no added density, viscous decay must win
        g = GridSpec(2, 32)
        rng = np.random.default_rng(3)
        for _ in range(100):
            raw = VectorField(g, rng.standard_normal((2,) + g.shape))
            u = leray_project(band_limited(raw))
            u.values -= u.values.mean(axis=(1, 2), keepdims=True)
            state = FluidState(u)
            e0 = np.linalg.norm(state.u.values)
            out = ns_step(state, state.u, *no_coupling(g), 1e-3, coupling=1.0)
            assert np.linalg.norm(out.u.values) <= e0 * (1 + 1e-13)

    def test_negative_density_rejected(self):
        g = GridSpec(2, 16)
        state = shear_state(g)
        with pytest.raises(ValueError):
            ns_step(state, state.u, ScalarField.full(g, -0.5), DragField.zeros(g), 1e-3,
                    coupling=1.0)

    def test_mollified_convection_matches_plain_for_uniform(self):
        # uniform fields are fixed points of the mollifier
        g = GridSpec(2, 16)
        state = FluidState(VectorField.from_components(
            g, np.full(g.shape, 0.3), np.full(g.shape, -0.2)))
        a = ns_step(state, state.u, *no_coupling(g), 1e-3, coupling=1.0)
        b = ns_step(state, mollify(state.u, 0.5), *no_coupling(g), 1e-3, coupling=1.0)
        assert np.abs(a.u.values - b.u.values).max() < 1e-14
