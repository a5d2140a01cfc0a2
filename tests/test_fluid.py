import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import count_transforms, leray, meshgrid, transient_peak
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp

from thinspray.errors import FieldError, GridMismatchError, StepRejectedError
from thinspray.fluid import DragField, FluidState, check_cfl, drag_force, ns_step
from thinspray.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _spectral_tables,
    divergence_residual,
    fft,
    ifft,
    mollify,
    project_spectrum,
)


def no_drag(grid):
    """The drag argument of a step without droplets."""
    return DragField(ScalarField.zeros(grid), VectorField.zeros(grid))


def fluid_state(u, rho=None):
    """The fluid state of u, with the added density rho (zero if not given)."""
    return FluidState(u, ScalarField.zeros(u.grid) if rho is None else rho)


def band_limited(v):
    """v with every mode outside the 2/3-rule band of the fluid step removed."""
    return VectorField(v.grid, ifft(v.grid, fft(v.grid, v.values)))


def force_field(u, drag, coupling):
    """Every component of drag_force, stacked."""
    return np.stack([drag_force(u, drag, coupling, i) for i in range(u.grid.dim)])


def shear_state(grid):
    x = meshgrid(grid)
    comps = [np.sin(x[1])] + [np.zeros(grid.shape)] * (grid.dim - 1)
    return fluid_state(VectorField.from_components(grid, *comps))


class TestDragForce:
    def test_equilibrated_spray_zero_force(self):
        g = GridSpec(3, 16)
        rng = np.random.default_rng(0)
        u = VectorField(g, rng.standard_normal((3,) + g.shape))
        m0 = ScalarField(g, rng.uniform(0.5, 1.5, g.shape))
        m1 = VectorField(g, u.values * m0.values[None])
        force = force_field(u, DragField(m0, m1), coupling=2.0)
        assert np.abs(force).max() < 1e-13

    def test_unit_example(self):
        g = GridSpec(3, 16)
        u = VectorField.zeros(g)
        m0 = ScalarField(g, np.full(g.shape, 1.0))
        m1 = VectorField.from_components(
            g, np.ones(g.shape), np.zeros(g.shape), np.zeros(g.shape))
        force = force_field(u, DragField(m0, m1), coupling=2.0)
        assert np.abs(force[0] - 2.0).max() < 1e-14
        assert np.abs(force[1:]).max() < 1e-14

    def test_matches_pointwise_loop(self):
        g = GridSpec(2, 16)
        rng = np.random.default_rng(1)
        u = VectorField(g, rng.standard_normal((2,) + g.shape))
        m0 = ScalarField(g, rng.uniform(0, 1, g.shape))
        m1 = VectorField(g, rng.standard_normal((2,) + g.shape))
        coupling = 1.7
        force = force_field(u, DragField(m0, m1), coupling)
        expected = np.empty_like(force)
        for i in range(g.n):
            for j in range(g.n):
                for c in range(2):
                    expected[c, i, j] = coupling * (
                        m1.values[c, i, j] - u.values[c, i, j] * m0.values[i, j])
        assert np.abs(force - expected).max() < 1e-14

    def test_grid_mismatch(self):
        u = VectorField.zeros(GridSpec(2, 16))
        fine = GridSpec(2, 32)
        drag = DragField(ScalarField.zeros(fine), VectorField.zeros(fine))
        with pytest.raises(GridMismatchError):
            drag_force(u, drag, 1.0, 0)


class TestNsStep:
    def test_shear_mode_decay(self):
        # convection vanishes identically: pure Stokes mode, exact e^{-2t} energy decay
        g = GridSpec(3, 32)
        state = shear_state(g)
        e0 = np.linalg.norm(state.u.values) ** 2
        for _ in range(100):
            state = ns_step(state, state.u, no_drag(g), 1e-3, coupling=1.0)
        ratio = np.linalg.norm(state.u.values) ** 2 / e0
        assert ratio == pytest.approx(np.exp(-0.2), abs=1e-3)

    def test_zero_dt_identity(self):
        g = GridSpec(2, 32)
        state = shear_state(g)
        out = ns_step(state, state.u, no_drag(g), 0.0, coupling=1.0)
        assert np.abs(out.u.values - state.u.values).max() < 1e-14

    def test_cfl_rejection(self):
        g = GridSpec(2, 32)
        u = VectorField(g, np.full((2,) + g.shape, 30.0))
        state = fluid_state(leray(u))
        with pytest.raises(StepRejectedError, match="reduce dt"):
            ns_step(state, state.u, no_drag(g), 0.05, coupling=1.0)

    def test_cfl_reads_the_largest_speed_of_either_sign(self):
        # max|u| is max(u.max(), -u.min()): a fast negative velocity counts
        g = GridSpec(2, 32)
        u = VectorField.zeros(g)
        u.values[1, 4, 7] = -2.0
        u.values[0, 9, 9] = 1.0
        dt = g.h / 1.5  # max|u| dt/h = 4/3 from the negative entry, 2/3 from the positive
        with pytest.raises(StepRejectedError, match="1.33"):
            check_cfl(u, dt)
        u.values[1, 4, 7] = -1.0
        check_cfl(u, dt)

    def test_homogeneous_drag_ode(self):
        # uniform u, frozen uniform drag: (1+rho) du/dt = 2 c (v - u)
        g = GridSpec(3, 16)
        c, v, rho_c = 0.8, np.array([0.4, -0.2, 0.1]), 0.35
        u0 = np.array([1.0, 0.5, -0.3])
        rho = ScalarField(g, np.full(g.shape, rho_c))
        state = fluid_state(VectorField.from_components(
            g, *[np.full(g.shape, val) for val in u0]), rho)
        drag = DragField(
            ScalarField(g, np.full(g.shape, c)),
            VectorField.from_components(g, *[np.full(g.shape, c * val) for val in v]),
        )
        dt, t_end = 2e-5, 0.05
        for _ in range(int(round(t_end / dt))):
            state = ns_step(state, state.u, drag, dt, coupling=2.0)

        sol = solve_ivp(lambda t, y: 2.0 * c * (v - y) / (1.0 + rho_c),
                        (0.0, t_end), u0, method="DOP853", rtol=1e-12, atol=1e-14)
        assert np.abs(state.u.values.reshape(3, -1)[:, 0] - sol.y[:, -1]).max() < 1e-4

    def test_divergence_after_steps(self):
        g = GridSpec(2, 32)
        rng = np.random.default_rng(2)
        u = leray(band_limited(
            VectorField(g, 0.5 * rng.standard_normal((2,) + g.shape))))
        rho = ScalarField(g, rng.uniform(0, 0.5, g.shape))
        state = fluid_state(u, rho)
        drag = DragField(
            ScalarField(g, rng.uniform(0, 0.3, g.shape)),
            VectorField(g, 0.1 * rng.standard_normal((2,) + g.shape)),
        )
        for _ in range(20):
            state = ns_step(state, state.u, drag, 1e-3, coupling=2.0)
            assert state.rho is rho  # a step hands the added density on as it is
            assert divergence_residual(g, fft(g, state.u.values)) <= 1e-10
            # the carried spectrum is that of the returned velocity
            assert np.abs(state.u_hat - fft(g, state.u.values)).max() <= 1e-12 * np.abs(state.u_hat).max()

    def test_energy_nonincreasing_unforced(self):
        # 100 random draws: no spray, no added density, viscous decay must win
        g = GridSpec(2, 32)
        rng = np.random.default_rng(3)
        for _ in range(100):
            raw = VectorField(g, rng.standard_normal((2,) + g.shape))
            u = leray(band_limited(raw))
            u.values -= u.values.mean(axis=(1, 2), keepdims=True)
            state = fluid_state(u)
            e0 = np.linalg.norm(state.u.values)
            out = ns_step(state, state.u, no_drag(g), 1e-3, coupling=1.0)
            assert np.linalg.norm(out.u.values) <= e0 * (1 + 1e-13)

    def test_negative_density_rejected(self):
        # the state checks rho >= 0 strictly, with no slack below zero
        g = GridSpec(2, 16)
        u = shear_state(g).u
        with pytest.raises(ValueError, match="nonnegative"):
            FluidState(u, ScalarField(g, np.full(g.shape, -0.5)))
        values = np.zeros(g.shape)
        values[3, 5] = -1e-300
        with pytest.raises(ValueError, match="nonnegative"):
            FluidState(u, ScalarField(g, values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_rejected(self, bad):
        # NaN is not below 0, so a check of rho < 0 alone lets it through
        g = GridSpec(2, 16)
        values = np.zeros(g.shape)
        values[3, 3] = bad
        with pytest.raises(FieldError, match="finite"):
            FluidState(VectorField.zeros(g), ScalarField(g, values))

    def test_non_finite_velocity_rejected(self):
        g = GridSpec(2, 16)
        u = VectorField.zeros(g)
        u.values[1, 3, 3] = np.nan
        with pytest.raises(FieldError, match="non-finite"):
            FluidState(u, ScalarField.zeros(g))

    def test_overflowing_spectrum_rejected(self):
        # u is finite, but the sums of its transform pass the float limit;
        # the FieldError is the one report, with no overflow warning
        g = GridSpec(2, 16)
        u = VectorField(g, np.full((2,) + g.shape, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldError, match="spectrum is non-finite"):
                FluidState(u, ScalarField.zeros(g))

    def test_density_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            FluidState(shear_state(GridSpec(2, 16)).u, ScalarField.zeros(GridSpec(2, 32)))

    def test_mollified_convection_matches_plain_for_uniform(self):
        # uniform fields are fixed points of the mollifier
        g = GridSpec(2, 16)
        state = fluid_state(VectorField.from_components(
            g, np.full(g.shape, 0.3), np.full(g.shape, -0.2)))
        a = ns_step(state, state.u, no_drag(g), 1e-3, coupling=1.0)
        u_adv = VectorField(g, mollify(g, 0.5, state.u_hat))
        b = ns_step(state, u_adv, no_drag(g), 1e-3, coupling=1.0)
        assert np.abs(a.u.values - b.u.values).max() < 1e-14


def random_step_inputs(g, seed):
    """A band-limited random state with random non-uniform rho, and random drag."""
    rng = np.random.default_rng(seed)
    shape = (g.dim,) + g.shape
    state = fluid_state(band_limited(VectorField(g, rng.standard_normal(shape))),
                        ScalarField(g, rng.random(g.shape)))
    drag = DragField(ScalarField(g, rng.random(g.shape)),
                     VectorField(g, rng.standard_normal(shape)))
    return state, drag


def _update(state, t_hat, dt, nu, rho_bar):
    """The end of a step from its transformed tendency t_hat, shared by the
    references below."""
    grid = state.u.grid
    tab = _spectral_tables(grid)
    t_hat *= dt
    t_hat += state.u_hat
    t_hat *= np.exp(-nu / (1.0 + rho_bar) * tab.k2 * dt)
    u_hat = project_spectrum(grid, t_hat)
    return VectorField(grid, ifft(grid, u_hat)), u_hat


def vector_ns_step(state, u_adv, drag, dt, *, coupling, nu=1.0):
    """ns_step in flux form, formed on every component at once: the
    reference of the component-by-component step."""
    u, grid = state.u, state.u.grid
    tab = _spectral_tables(grid)
    denom = 1.0 + state.rho.values
    rho_bar = float(state.rho.values.mean())
    tendency = u.values * drag.m0.values[None]
    np.subtract(drag.m1.values, tendency, out=tendency)
    tendency *= coupling
    tendency /= denom
    viscous = ifft(grid, -tab.k2 * state.u_hat)
    viscous *= nu * (1.0 / denom - 1.0 / (1.0 + rho_bar))
    tendency += viscous
    t_hat = fft(grid, tendency)
    for kj, adv in zip(tab.k, u_adv.values):
        t_hat -= 1j * kj * fft(grid, adv * u.values)
    return _update(state, t_hat, dt, nu, rho_bar)


def advective_ns_step(state, u_adv, drag, dt, *, coupling, nu=1.0):
    """ns_step with the convection in advective form, -(u_adv . grad) u from
    the inverse transforms of the derivatives of u: the reference of the flux
    form on band-limited, divergence-free u and u_adv."""
    u, grid = state.u, state.u.grid
    tab = _spectral_tables(grid)
    denom = 1.0 + state.rho.values
    rho_bar = float(state.rho.values.mean())
    tendency = sum(ifft(grid, -1j * kj * state.u_hat) * adv
                   for kj, adv in zip(tab.k, u_adv.values))
    viscous = ifft(grid, -tab.k2 * state.u_hat)
    viscous *= nu
    viscous *= 1.0 / denom - 1.0 / (1.0 + rho_bar)
    tendency += viscous
    tendency += force_field(u, drag, coupling) / denom
    return _update(state, fft(grid, tendency), dt, nu, rho_bar)


def test_step_matches_the_vector_form_bit_for_bit():
    # one component at a time, each per-element operation in the same order:
    # the same bytes as the step formed on all three components at once
    g = GridSpec(3, 16)
    state, drag = random_step_inputs(g, 4)
    u_adv = VectorField(g, mollify(g, 0.3, state.u_hat))
    assert not np.array_equal(u_adv.values, state.u.values)
    out = ns_step(state, u_adv, drag, 1e-3, coupling=2.0)
    u_ref, u_hat_ref = vector_ns_step(state, u_adv, drag, 1e-3, coupling=2.0)
    assert out.u.values.tobytes() == u_ref.values.tobytes()
    assert out.u_hat.tobytes() == u_hat_ref.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("dense", [False, True])
def test_six_products_give_the_nine_products_bytes(dim, dense):
    # u* = u transforms each product u_j u_i, j >= i, once; a copy of u is
    # not u, so it takes the nine-product path: the two give the same bytes
    g = GridSpec(dim, 16)
    state, drag = random_step_inputs(g, 6)
    if not dense:
        state = replace(state, rho=ScalarField.zeros(g))
    out = ns_step(state, state.u, drag, 1e-3, coupling=2.0)
    ref = ns_step(state, VectorField(g, state.u.values.copy()), drag, 1e-3, coupling=2.0)
    assert out.u.values.tobytes() == ref.u.values.tobytes()
    assert out.u_hat.tobytes() == ref.u_hat.tobytes()


@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.05, 2.0), dense=st.booleans(), mollified=st.booleans())
def test_flux_form_matches_the_advective_form(dim, seed, amplitude, dense, mollified):
    # on band-limited, divergence-free u and u*, div(u* u) = (u* . grad) u:
    # the flux-form step gives the advective step's increment to rounding
    g = GridSpec(dim, 16)
    rng = np.random.default_rng(seed)
    u = leray(VectorField(g, amplitude * rng.standard_normal((dim,) + g.shape)))
    rho = ScalarField(g, rng.random(g.shape) if dense else np.zeros(g.shape))
    state = fluid_state(u, rho)
    drag = DragField(ScalarField(g, rng.random(g.shape)),
                     VectorField(g, rng.standard_normal((dim,) + g.shape)))
    u_adv = VectorField(g, mollify(g, 0.3, state.u_hat)) if mollified else state.u
    # dt = 1e-2 makes the increment large beside the rounding of u + increment
    out = ns_step(state, u_adv, drag, 1e-2, coupling=2.0)
    u_ref, _ = advective_ns_step(state, u_adv, drag, 1e-2, coupling=2.0)
    increment = np.abs(u_ref.values - u.values).max()
    assert np.abs(out.u.values - u_ref.values).max() <= 1e-13 * increment


def test_only_a_nonzero_density_runs_the_laplacian(monkeypatch):
    # rho == 0 leaves no viscous share explicit: the step skips the inverse
    # transform of each component's Laplacian, 3 of the 6 inverses a step
    # with rho nonzero at one node runs, and gives the vector form's bytes;
    # u* is u, so the 9 forward transforms are the 3 tendencies and the 6
    # products u_j u_i, j >= i
    g = GridSpec(3, 16)
    state, drag = random_step_inputs(g, 5)
    calls = count_transforms(monkeypatch)
    one = np.zeros(g.shape)
    one[3, 1, 4] = 0.5
    counts = []
    for rho in (np.zeros(g.shape), one):
        dense = replace(state, rho=ScalarField(g, rho))
        calls.clear()
        out = ns_step(dense, state.u, drag, 1e-3, coupling=2.0)
        counts.append((calls.count("rfft"), calls.count("irfft")))
        u_ref, u_hat_ref = vector_ns_step(dense, state.u, drag, 1e-3, coupling=2.0)
        assert out.u.values.tobytes() == u_ref.values.tobytes()
        assert out.u_hat.tobytes() == u_hat_ref.tobytes()
    assert counts == [(9, 3), (9, 6)]


def test_transient_memory_of_one_step():
    # each component's tendency is transformed before the next is formed,
    # each flux product is dropped before the next is made, and the transforms
    # and the tendency run in place: in fields the size of u, one step holds
    # at most 2.25 at once (the new u among them), the mollifier at most 1.75
    g = GridSpec(3, 32)
    state, drag = random_step_inputs(g, 9)
    size = state.u.values.nbytes
    step = transient_peak(lambda: ns_step(state, state.u, drag, 1e-4, coupling=2.0))
    assert step <= 2.25 * size
    assert transient_peak(lambda: mollify(g, 0.1, state.u_hat)) <= 1.75 * size
