from dataclasses import fields as dataclass_fields, replace
from unittest import mock

import numpy as np
import pytest
from conftest import transient_peak
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.spatial import cKDTree

from thinspray import kinetic, scenarios
from thinspray.diagnostics import liquid_volume
from thinspray.grid import TWO_PI, GridSpec, ScalarField, VectorField, integral
from thinspray.kinetic import (
    ParticleCloud,
    absorb_and_fragment,
    advance_particles,
    deposit_moments,
    merge_particles,
    sample_gaussian_spray,
    velocity_cutoff,
)
from thinspray.transfer import _CHUNK, cic_gather, cic_scatter

R2 = 0.3  # the fragment radius of the clouds below


def uniform_velocity(grid, vec):
    comps = [np.full(grid.shape, v) for v in vec]
    return VectorField.from_components(grid, *comps)


def push(cloud, u, dt):
    """advance_particles in the field u, gathered at the cloud as a run's pass gathers it."""
    return advance_particles(cloud, cic_gather(u, cloud.x), dt)


def deposit(cloud, grid, eps=None):
    """The drag deposit of a pass that gathers a zero field."""
    return deposit_moments(cloud, VectorField.zeros(grid), eps)[0]


def random_cloud(rng, n, dim=3, parents=None):
    """n particles, the first `parents` of them parents (every one by
    default), the others fragments of radius R2."""
    return ParticleCloud(
        rng.uniform(0, 2 * np.pi, (n, dim)),
        rng.standard_normal((n, dim)),
        rng.uniform(0.1, 2.0, n),
        n if parents is None else parents,
        R2,
    )


def radii(cloud):
    """Each row's droplet radius, 1 for the parents and the cloud's radius after them."""
    return np.where(np.arange(cloud.count) < cloud.parents, 1.0, cloud.radius)


def relax_time(r, dt=0.01):
    """Relaxation time a droplet of radius r shows in one push through still fluid."""
    g = GridSpec(2, 16)
    cloud = ParticleCloud(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]),
                          np.array([1.0]), 0, r)
    out = push(cloud, uniform_velocity(g, (0.0, 0.0)), dt)
    return -dt / np.log(out.xi[0, 0])


class TestStokesRelaxTime:
    # a droplet of radius r relaxes toward the fluid velocity in time r^2
    def test_unit_radius(self):
        assert relax_time(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_half_radius(self):
        assert relax_time(0.5) == pytest.approx(0.25, rel=1e-12)

    def test_vanishing_radius_monotone(self):
        radii = [0.4, 0.2, 0.1, 0.05]
        times = [relax_time(r, dt=1e-4) for r in radii]
        assert all(b < a for a, b in zip(times, times[1:]))
        assert times[-1] == pytest.approx(0.0025, rel=1e-9)

    def test_nonpositive_rejected(self):
        # the cloud refuses a radius that no push could relax with
        for r in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius must be positive"):
                ParticleCloud(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2), 1, r)

    @pytest.mark.parametrize("parents", [-1, 3, 1.5])
    def test_parent_count_outside_the_cloud_rejected(self, parents):
        with pytest.raises(ValueError, match="cannot hold"):
            ParticleCloud(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2), parents, R2)


def test_the_cloud_keeps_one_radius_per_species():
    # no radius per particle: the parents come first, and the fragments
    # after them share one radius
    assert tuple(f.name for f in dataclass_fields(ParticleCloud)) == (
        "x", "xi", "w", "parents", "radius")
    cloud = random_cloud(np.random.default_rng(0), 5, parents=3)
    assert cloud.species() == ((slice(0, 3), 1.0), (slice(3, 5), R2))


class TestVelocityCutoff:
    def test_inside_ball_is_one(self):
        assert velocity_cutoff(np.array([[0.5, 0.0, 0.0]]), 1.0)[0] == 1.0

    def test_outside_support_is_zero(self):
        assert velocity_cutoff(np.array([[3.0, 0.0, 0.0]]), 1.0)[0] == 0.0

    def test_transition_monotone(self):
        eps = 0.5
        radii = np.linspace(1.0 / eps, 2.0 / eps, 30)
        vals = velocity_cutoff(np.stack([radii, 0 * radii, 0 * radii], axis=1), eps)
        assert vals[0] == pytest.approx(1.0)
        assert vals[-1] == pytest.approx(0.0)
        assert np.all(np.diff(vals) <= 1e-12)
        mid = velocity_cutoff(np.array([[1.5 / eps, 0.0, 0.0]]), eps)[0]
        assert 0.0 < mid < 1.0

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            velocity_cutoff(np.zeros((1, 3)), 0.0)
        cloud = random_cloud(np.random.default_rng(0), 5)
        with pytest.raises(ValueError):
            deposit(cloud, GridSpec(3, 8), -1.0)


class TestAdvanceParticles:
    def test_equilibrium_characteristic(self):
        g = GridSpec(3, 16)
        u = uniform_velocity(g, (0.3, -0.1, 0.2))
        x0 = np.array([[1.0, 2.0, 3.0]])
        cloud = ParticleCloud(x0, np.array([[0.3, -0.1, 0.2]]), np.array([1.0]), 1)
        out = push(cloud, u, 0.25)
        assert np.abs(out.xi[0] - cloud.xi[0]).max() < 1e-14
        assert np.abs(out.x[0] - (x0[0] + 0.25 * cloud.xi[0])).max() < 1e-13

    def test_full_relaxation_limit(self):
        g = GridSpec(3, 16)
        u = uniform_velocity(g, (1.0, 0.0, 0.0))
        cloud = ParticleCloud(np.array([[0.0, 0.0, 0.0]]), np.array([[5.0, 5.0, 5.0]]),
                              np.array([1.0]), 0, 0.01)
        out = push(cloud, u, 1.0)  # dt/r^2 = 1e4
        assert np.abs(out.xi[0] - np.array([1.0, 0.0, 0.0])).max() < 1e-12

    def test_matches_ode_oracle(self):
        # uniform u makes the frozen-velocity assumption exact
        g = GridSpec(3, 16)
        uvec = np.array([0.3, -0.2, 0.1])
        u = uniform_velocity(g, uvec)
        r = 0.3
        x0 = np.array([1.0, 2.0, 3.0])
        xi0 = np.array([0.5, -1.0, 2.0])
        cloud = ParticleCloud(x0[None], xi0[None], np.array([1.0]), 0, r)
        out = push(cloud, u, 0.1)

        def rhs(t, y):
            return np.concatenate([y[3:], (uvec - y[3:]) / r**2])

        sol = solve_ivp(rhs, (0.0, 0.1), np.concatenate([x0, xi0]),
                        method="DOP853", rtol=1e-12, atol=1e-14)
        assert np.abs(out.x[0] - sol.y[:3, -1]).max() < 1e-10
        assert np.abs(out.xi[0] - sol.y[3:, -1]).max() < 1e-10

    def test_positions_wrapped(self):
        g = GridSpec(2, 16)
        u = uniform_velocity(g, (10.0, 0.0))
        cloud = ParticleCloud(np.array([[6.0, 1.0]]), np.array([[10.0, 0.0]]),
                              np.array([1.0]), 1)
        out = push(cloud, u, 0.1)
        assert 0 <= out.x[0, 0] < g.length

    def test_tiny_negative_position_wraps_below_length(self):
        # x = -1e-17 after the push: np.mod alone rounds it up to exactly L
        g = GridSpec(2, 16)
        cloud = ParticleCloud(np.array([[0.0, 1.0]]), np.array([[-1e-14, 0.0]]),
                              np.array([1.0]), 1)
        out = push(cloud, uniform_velocity(g, (0.0, 0.0)), 1e-3)
        assert np.all((out.x >= 0.0) & (out.x < g.length))

    def test_chunks_match_the_whole_array_update(self):
        # two chunks and three rows, pushed chunk by chunk in each species,
        # give bit for bit the docstring's closed form on whole arrays, with
        # a radius per row, wrapped back to [0, 2π); the species split inside
        # the first chunk
        g = GridSpec(3, 16)
        rng = np.random.default_rng(27)
        n = 2 * _CHUNK + 3
        cloud = random_cloud(rng, n, parents=_CHUNK // 2)
        cloud.xi *= 20.0  # fast enough that some particles cross the seam
        cloud.x[-2:, 0], cloud.xi[-2:, 0] = [TWO_PI - 1e-3, 1e-3], [20.0, -20.0]
        u = VectorField(g, rng.standard_normal((3,) + g.shape))
        dt = 0.02
        out = push(cloud, u, dt)
        up = cic_gather(u, cloud.x)
        tau = radii(cloud)[:, None] ** 2
        decay = np.exp(-dt / tau)
        xi_new = up + (cloud.xi - up) * decay
        x_new = cloud.x + dt * up + tau * (1.0 - decay) * (cloud.xi - up)
        crossed = (x_new < 0.0) | (x_new >= TWO_PI)
        assert crossed[:_CHUNK].any() and crossed[2 * _CHUNK:].any()
        assert np.any(radii(cloud)[crossed.any(axis=1)] == R2)
        x_new = np.mod(x_new, TWO_PI)
        x_new[x_new == TWO_PI] = 0.0
        assert out.xi.tobytes() == xi_new.tobytes()
        assert out.x.tobytes() == x_new.tobytes()

    def test_transient_memory_of_one_push(self):
        # the gathered u becomes x' in place and the update runs chunk by
        # chunk: beyond xi' a push holds small chunks (1.15 times x in all);
        # a push that made x' anew would hold 2.15
        g = GridSpec(3, 32)
        rng = np.random.default_rng(28)
        n = 200_000
        cloud = random_cloud(rng, n, parents=n // 2)
        u = VectorField(g, rng.standard_normal((3,) + g.shape))
        u_at_x = cic_gather(u, cloud.x)  # the second call pushes from the first's x'
        peak = transient_peak(lambda: advance_particles(cloud, u_at_x, 1e-3))
        assert peak <= 1.25 * cloud.x.nbytes

    def test_gathered_velocity_becomes_x(self):
        g = GridSpec(2, 16)
        cloud = random_cloud(np.random.default_rng(29), 10, dim=2)
        u_at_x = cic_gather(VectorField.zeros(g), cloud.x)
        assert advance_particles(cloud, u_at_x, 0.1).x is u_at_x

    @pytest.mark.parametrize("bad", [np.zeros((9, 2)), np.zeros((10, 3)),
                                     np.zeros((2, 10)).T, np.zeros((10, 2), dtype=int)])
    def test_gathered_velocity_must_fit_x(self, bad):
        # the chunk update writes x' through views of u_at_x's rows
        cloud = random_cloud(np.random.default_rng(30), 10, dim=2)
        with pytest.raises(ValueError, match="u_at_x"):
            advance_particles(cloud, bad, 0.1)


def _old_absorb(cloud, dt, tau, breaks=None):
    """The decay as it was before the breakup was one call: the parents that
    the caller's mask selects, every parent by default, keep exp(-dt/tau)."""
    decays = radii(cloud) == 1.0
    if breaks is not None:
        decays &= breaks
    w_new = np.where(decays, cloud.w * np.exp(-dt / tau), cloud.w)
    return ParticleCloud(cloud.x, cloud.xi, w_new, cloud.parents, cloud.radius)


def _old_spawn(cloud, decayed):
    """The spawn as it was: decayed, then one fragment of the cloud's radius
    per particle that lost weight, at its x and xi with weight lost / radius^3."""
    lost = cloud.w - decayed.w
    spawn = lost > 0
    spawned = (decayed.x[spawn], decayed.xi[spawn], lost[spawn] / cloud.radius**3)
    kept = (decayed.x, decayed.xi, decayed.w)
    return ParticleCloud(*map(np.concatenate, zip(kept, spawned)), cloud.parents,
                         cloud.radius)


def _old_breakup(cloud, dt, tau, step):
    """The run loop's breakup as it composed the two: absorbing, every parent
    on every step; fragmenting, the parents of the step's parity over 2 dt."""
    if step is None:
        return _old_absorb(cloud, dt, tau)
    turn = np.arange(cloud.count) % 2 == step % 2
    return _old_spawn(cloud, _old_absorb(cloud, 2 * dt, tau, turn))


def _assert_clouds_equal(a, b):
    for name in ("x", "xi", "w", "parents", "radius"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFragmentation:
    """The breakup, absorbing (no step) and fragmenting (with one)."""

    def test_zero_dt_identity(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, 20, parents=10)
        for step in (None, 0, 1):
            out = absorb_and_fragment(cloud, 0.0, 1.0, step=step)
            _assert_clouds_equal(out, cloud)  # no weight lost, so no fragment spawned

    def test_half_life_closed_form(self):
        cloud = ParticleCloud(np.full((1, 3), 1.0), np.zeros((1, 3)), np.array([1.0]), 1, 0.5)
        tau = 0.7
        out = absorb_and_fragment(cloud, tau * np.log(2.0), tau)
        lost = cloud.w - out.w
        assert out.w[0] == pytest.approx(0.5, rel=1e-14)
        assert lost[0] == pytest.approx(0.5, rel=1e-14)
        # fragmenting, the parent's turn spans two steps: half over half the dt
        out = absorb_and_fragment(cloud, tau * np.log(2.0) / 2, tau, step=0)
        assert out.count == 2 and out.parents == 1 and out.radius == 0.5
        assert out.w[0] == pytest.approx(0.5, rel=1e-14)
        assert out.w[1] == pytest.approx(0.5 / 0.5**3, rel=1e-14)

    def test_fragments_pass_through(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 200, parents=100)
        n = cloud.count
        frag = np.arange(n) >= cloud.parents
        for step, turn in ((None, np.ones(n, dtype=bool)), (1, np.arange(n) % 2 == 1)):
            out = absorb_and_fragment(cloud, 0.05, 0.3, step=step)
            lost = cloud.w - out.w[:n]
            assert np.array_equal(out.w[:n][frag], cloud.w[frag])
            assert not lost[frag].any()
            assert (lost[~frag & turn] > 0).all()
            assert out.parents == cloud.parents and out.radius == cloud.radius

    def test_infinite_tau_loses_nothing(self):
        cloud = random_cloud(np.random.default_rng(7), 50)
        for step in (None, 0, 1):
            out = absorb_and_fragment(cloud, 0.1, np.inf, step=step)
            _assert_clouds_equal(out, cloud)

    def test_shares_positions_and_velocities(self):
        cloud = random_cloud(np.random.default_rng(8), 30)
        out = absorb_and_fragment(cloud, 0.01, 1.0)
        assert np.shares_memory(out.x, cloud.x)
        assert np.shares_memory(out.xi, cloud.xi)
        assert not np.shares_memory(out.w, cloud.w)

    def test_liquid_volume_conserved(self):
        rng = np.random.default_rng(1)
        cloud = replace(random_cloud(rng, 500, parents=350), radius=0.31)
        before = liquid_volume(cloud)
        for step in (0, 1):
            merged = absorb_and_fragment(cloud, 0.013, 0.4, step=step)
            assert merged.count > cloud.count
            assert liquid_volume(merged) == pytest.approx(before, rel=1e-14)

    def test_mass_weighted_momentum_conserved(self):
        rng = np.random.default_rng(2)
        cloud = replace(random_cloud(rng, 300), radius=0.17)
        before = np.sum(cloud.w[:, None] * cloud.xi, axis=0)
        for step in (0, 1):
            merged = absorb_and_fragment(cloud, 0.05, 0.5, step=step)
            mass = radii(merged)**3
            after = np.sum((merged.w * mass)[:, None] * merged.xi, axis=0)
            assert merged.count > cloud.count
            assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max()

    def test_turns_break_up_only_the_parents_of_the_step_parity(self):
        rng = np.random.default_rng(9)
        n = 301  # odd, so the two parities differ in size
        cloud = random_cloud(rng, n, parents=181)
        for step in range(4):
            out = absorb_and_fragment(cloud, 0.02, 0.3, step=step)
            hit = (np.arange(n) % 2 == step % 2) & (np.arange(n) < cloud.parents)
            assert np.array_equal(out.w[:n][hit], cloud.w[hit] * np.exp(-0.04 / 0.3))
            assert np.array_equal(out.w[:n][~hit], cloud.w[~hit])
            for name in ("x", "xi"):
                assert np.array_equal(getattr(out, name)[:n], getattr(cloud, name))
            # one fragment per parent hit, in parent order, at its x and xi,
            # after the cloud's fragments
            lost = cloud.w[hit] - out.w[:n][hit]
            assert (lost > 0).all()
            assert out.parents == cloud.parents and out.radius == R2
            assert np.array_equal(out.x[n:], cloud.x[hit])
            assert np.array_equal(out.xi[n:], cloud.xi[hit])
            assert np.array_equal(out.w[n:], lost / R2**3)

    def test_two_turns_break_up_every_parent_once(self):
        rng = np.random.default_rng(10)
        cloud = random_cloud(rng, 100, parents=50)
        parent = np.arange(100) < cloud.parents
        hit = [absorb_and_fragment(cloud, 0.01, 0.7, step=step).w[:100] != cloud.w
               for step in (4, 5)]
        assert not (hit[0] & hit[1]).any()
        assert np.array_equal(hit[0] | hit[1], parent)
        # the absorbing breakup: every parent on every step, and the weight
        # lost against its closed form
        default = absorb_and_fragment(cloud, 0.02, 0.7)
        lost = cloud.w - default.w
        expected = -cloud.w[parent] * np.expm1(-0.02 / 0.7)
        np.testing.assert_allclose(lost[parent], expected, rtol=1e-14, atol=0.0)
        assert not lost[~parent].any()

    @pytest.mark.parametrize("radius", [None, R2])
    def test_one_cloud_per_breakup(self, monkeypatch, radius):
        # absorbing, or fragmenting into the given radius
        built = []

        class Counted(ParticleCloud):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()
        monkeypatch.setattr(kinetic, "ParticleCloud", Counted)
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, 400, parents=201)
        out = absorb_and_fragment(cloud, 0.05, 0.3, step=None if radius is None else 1)
        assert len(built) == 1 and built[0] is out
        assert out.count == (400 if radius is None else 400 + 100)

    def test_bad_parameters(self):
        cloud = random_cloud(np.random.default_rng(3), 5)
        for step in (None, 0):
            with pytest.raises(ValueError):
                absorb_and_fragment(cloud, 0.1, 0.0, step=step)
            with pytest.raises(ValueError):
                absorb_and_fragment(cloud, 0.1, -1.0, step=step)
            with pytest.raises(ValueError):
                absorb_and_fragment(cloud, -0.1, 1.0, step=step)


@given(
    n=st.integers(0, 60),
    dim=st.sampled_from([2, 3]),
    parents=st.floats(0.0, 1.0),
    radius=st.sampled_from([0.1, R2, 0.9]),
    step=st.none() | st.integers(0, 7),
    dt=st.sampled_from([0.0, 1e-3, 0.05]),
    tau=st.sampled_from([0.01, 0.3, np.inf]),
    zero_weights=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_breakup_is_the_old_composition(n, dim, parents, radius, step, dt, tau,
                                                 zero_weights, seed):
    # the one call is the decay under the turn mask and the spawn from the
    # lost weight, as the run loop composed them, bit for bit; a parent of
    # zero weight loses nothing and spawns no fragment
    rng = np.random.default_rng(seed)
    cloud = replace(random_cloud(rng, n, dim=dim, parents=int(parents * n)), radius=radius)
    if zero_weights:
        w = np.where(rng.uniform(size=n) < 0.3, 0.0, cloud.w)
        cloud = replace(cloud, w=w)
    _assert_clouds_equal(absorb_and_fragment(cloud, dt, tau, step=step),
                         _old_breakup(cloud, dt, tau, step))


class TestAbsorbToDensity:
    """The absorbing limit's use of the lost weight: deposited into the added density."""

    def test_zero_dt_identity(self):
        g = GridSpec(3, 16)
        cloud = random_cloud(np.random.default_rng(4), 20)
        out = absorb_and_fragment(cloud, 0.0, 1.0)
        lost = cloud.w - out.w
        assert np.array_equal(out.w, cloud.w)
        assert np.abs(cic_scatter(g, cloud.x, lost)).max() == 0.0

    def test_half_life_closed_form(self):
        g = GridSpec(3, 16)
        cloud = ParticleCloud(np.full((1, 3), 1.0), np.zeros((1, 3)), np.array([1.0]), 1)
        out = absorb_and_fragment(cloud, np.log(2.0), 1.0)
        lost = cloud.w - out.w
        released = ScalarField(g, cic_scatter(g, out.x, lost))
        assert out.w[0] == pytest.approx(0.5, rel=1e-14)
        assert integral(released) == pytest.approx(0.5, rel=1e-12)

    def test_released_mass_matches_weight_loss(self):
        g = GridSpec(2, 32)
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, 5000, dim=2)
        out = absorb_and_fragment(cloud, 0.02, 1.0)
        lost = cloud.w - out.w
        released = ScalarField(g, cic_scatter(g, out.x, lost))
        # the weight lost, against its closed form, formed without out
        expected = -cloud.w * np.expm1(-0.02 / 1.0)
        np.testing.assert_allclose(lost, expected, rtol=1e-14, atol=0.0)
        assert integral(released) == pytest.approx(lost.sum(), rel=1e-12)


class TestDepositMoments:
    def test_single_particle_on_node(self):
        g = GridSpec(3, 16)
        xi = np.array([[0.5, -1.0, 2.0]])
        cloud = ParticleCloud(np.array([[g.h, 2 * g.h, 3 * g.h]]), xi, np.array([2.0]), 1)
        drag = deposit(cloud, g)
        assert integral(drag.m0) == pytest.approx(2.0, rel=1e-13)
        assert np.asarray(integral(drag.m1)) == pytest.approx(2.0 * xi[0], rel=1e-13)

    def test_truncation_scales_weight(self):
        g = GridSpec(3, 16)
        eps = 0.5
        xi = np.array([[1.5 / eps, 0.0, 0.0]])
        cloud = ParticleCloud(np.array([[1.0, 1.0, 1.0]]), xi, np.array([1.0]), 1)
        cut = velocity_cutoff(xi, eps)[0]
        assert 0.0 < cut < 1.0
        drag = deposit(cloud, g, eps)
        assert integral(drag.m0) == pytest.approx(cut, rel=1e-12)

    def test_total_matches_weighted_sum(self):
        g = GridSpec(3, 16)
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 20000)
        eps = 0.8
        drag = deposit(cloud, g, eps)
        expected = np.sum(cloud.w * velocity_cutoff(cloud.xi, eps))
        assert integral(drag.m0) == pytest.approx(expected, rel=1e-12)

    def test_empty_cloud(self):
        g = GridSpec(2, 16)
        drag = deposit(ParticleCloud.empty(2), g)
        assert np.abs(drag.m0.values).max() == 0.0

    @pytest.mark.parametrize("eps", [None, 0.25])
    def test_transient_memory_of_one_deposit(self, eps):
        # the charges w xi_j are formed chunk by chunk: a deposit of parents
        # holds the cutoff's temporaries, the 1 + dim densities and the
        # gathered u, the size of x (2.28 times x with the cutoff, 1.94
        # without); an (N, 1 + dim) charge array would add 1.33 times x
        g = GridSpec(3, 32)
        cloud = sample_gaussian_spray(g, 200_000, 1.0, 0.0, 1.0, seed=5)
        u = VectorField.zeros(g)
        peak = transient_peak(lambda: deposit_moments(cloud, u, eps))
        assert peak <= 2.5 * cloud.x.nbytes

    def test_transient_memory_of_one_deposit_on_a_64_grid(self):
        # the regularized-grid shape: its 20,000 particles are one chunk of
        # at most (n/2)^3 = 32,768 (transfer._chunks).  In scalar 64^3 fields
        # of 2 MiB: the 1 + dim deposit rows (4), the gathered u (0.23), one
        # table of 8 x 20,000 entries of an 8 B index and an 8 B weight
        # (1.22), its charges (0.61) and one bincount row (1) make 7.06; the
        # cutoff's and the table's count-sized temporaries bring it to 7.4
        g = GridSpec(3, 64)
        cloud = sample_gaussian_spray(g, 20_000, 1.0, 0.0, 1.0, seed=5)
        u = VectorField.zeros(g)
        peak = transient_peak(lambda: deposit_moments(cloud, u, 0.25))
        assert peak <= 8 * ScalarField.zeros(g).values.nbytes


class TestMerge:
    def test_under_budget_identity(self):
        cloud = random_cloud(np.random.default_rng(9), 50)
        out, err = merge_particles(cloud, 100)
        assert out.count == 50
        assert err == 0.0

    def test_two_equal_particles(self):
        cloud = ParticleCloud(
            np.array([[1.0, 1.0, 1.0], [1.1, 1.0, 1.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([0.5, 0.5]),
            0,
        )
        out, _ = merge_particles(cloud, 1)
        assert out.count == 1
        assert out.w[0] == pytest.approx(1.0, rel=1e-14)
        assert np.abs(out.xi[0] - np.array([0.5, 0.5, 0.0])).max() < 1e-14
        assert np.abs(out.x[0] - np.array([1.05, 1.0, 1.0])).max() < 1e-12

    def test_conserves_number_and_momentum(self):
        rng = np.random.default_rng(10)
        cloud = random_cloud(rng, 4000, parents=2100)
        w0 = cloud.w.sum()
        p0 = np.sum(cloud.w[:, None] * cloud.xi, axis=0)
        counts0 = [cloud.w[rows].sum() for rows, _ in cloud.species()]
        out, err = merge_particles(cloud, 2500)
        assert out.count <= 2500
        assert out.w.sum() == pytest.approx(w0, rel=1e-13)
        assert np.abs(np.sum(out.w[:, None] * out.xi, axis=0) - p0).max() \
            <= 1e-12 * max(np.abs(p0).max(), 1.0)
        for (rows, _), count0 in zip(out.species(), counts0):  # nor across species
            assert out.w[rows].sum() == pytest.approx(count0, rel=1e-13)
        assert err < 0.05

    def test_reports_the_mass_weighted_energy_change(self):
        # fragments of radius 0.1 carry 1000 times the number weight per unit
        # liquid, so they dominate sum(w |xi|^2); the merge takes fragments,
        # and reports the change of the spray's energy, r^3 weighing each
        # species, of which the untouched parents hold about two thirds
        rng = np.random.default_rng(11)
        cloud = replace(random_cloud(rng, 600, parents=400), radius=0.1)
        cloud = replace(cloud, w=cloud.w / radii(cloud) ** 3)

        def energy(c, mass):
            return 0.5 * np.sum(c.w * radii(c) ** (3 * mass) * np.sum(c.xi**2, axis=1))

        out, rel = merge_particles(cloud, 450)
        assert out.parents == cloud.parents and out.count == 450
        want = abs(energy(out, True) - energy(cloud, True)) / energy(cloud, True)
        assert rel == pytest.approx(want, rel=1e-9)
        number = abs(energy(out, False) - energy(cloud, False)) / energy(cloud, False)
        assert rel < 0.5 * number

    def test_merges_across_the_seam_of_the_given_period(self):
        # on the 2π torus, 2π - 0.05 and 0.05 are 0.1 apart across the seam
        cloud = ParticleCloud(
            np.array([[TWO_PI - 0.05, 0.5], [0.05, 0.5]]), np.zeros((2, 2)),
            np.array([1.0, 1.0]), 0,
        )
        out, _ = merge_particles(cloud, 1)
        x = out.x[0, 0]
        assert 0.0 <= x < TWO_PI
        assert min(x, TWO_PI - x) < 1e-12

    def test_coincident_particles_merge_with_each_other(self):
        # the tree may return a coincident point before the query point itself
        cloud = ParticleCloud(np.zeros((4, 2)), np.zeros((4, 2)), np.ones(4), 0)
        out, _ = merge_particles(cloud, 1)
        assert out.count == 1 and out.w[0] == 4.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            merge_particles(ParticleCloud.empty(3), 0)


# the sampler's row order in 2-D and 3-D, for even and odd counts
ORDER_CASES = pytest.mark.parametrize("dim, count", [(2, 3000), (2, 3001), (3, 3000), (3, 3001)])


class TestSampler:
    @pytest.mark.parametrize("mean", [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)])
    def test_moments_match_exactly(self, mean):
        g = GridSpec(3, 16)
        cloud = sample_gaussian_spray(g, 5000, 0.3, mean, 0.6, seed=11)
        assert cloud.w.sum() == pytest.approx(0.3, rel=1e-13)
        m1 = np.sum(cloud.w[:, None] * cloud.xi, axis=0)
        assert np.abs(m1 - 0.3 * np.array(mean)).max() < 1e-13
        m2 = np.sum(cloud.w * np.sum(cloud.xi**2, axis=1))
        target = 0.3 * (3 * 0.6**2 + np.dot(mean, mean))
        assert m2 == pytest.approx(target, rel=1e-12)

    def test_deterministic(self):
        g = GridSpec(2, 16)
        a = sample_gaussian_spray(g, 1000, 1.0, (0.0, 0.0), 1.0, seed=12)
        b = sample_gaussian_spray(g, 1000, 1.0, (0.0, 0.0), 1.0, seed=12)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.xi, b.xi)

    def test_seed_moves_positions(self, monkeypatch):
        # the seed reaches x only through the lattice's shift: every point moves by
        # the same vector on the torus; each seed's sample holds its lattice-order
        # sample's (x, xi) rows in its own block order
        a = kinetic._kronecker_points(1000, 3, 12)
        b = kinetic._kronecker_points(1000, 3, 13)
        shift = np.remainder(b - a, TWO_PI)
        assert np.abs(shift - shift[0]).max() < 1e-9
        assert shift[0].min() > 1e-6
        g = GridSpec(3, 16)
        for seed in (12, 13):
            sampled = sample_gaussian_spray(g, 1000, 1.0, (0.0, 0.0, 0.0), 1.0, seed=seed)
            lattice = lattice_order_sample(monkeypatch, g, 1000, seed)
            assert np.array_equal(sorted_rows(sampled), sorted_rows(lattice))

    def test_positions_inside_domain(self):
        g = GridSpec(2, 16)
        cloud = sample_gaussian_spray(g, 500, 1.0, (0.0, 0.0), 1.0, seed=13)
        assert np.all(cloud.x >= 0) and np.all(cloud.x < g.length)
        g = GridSpec(3, 16)
        for count in (2, 3, 200_000):
            cloud = sample_gaussian_spray(g, count, 1.0, (0.0, 0.0, 0.0), 1.0, seed=13)
            assert np.all(cloud.x >= 0) and np.all(cloud.x < g.length), count

    @pytest.mark.parametrize("seed", range(5))
    def test_deposit_noise(self, seed):
        # the lattice reads 2.67e-2 on every seed, a scrambled Halton cloud
        # 7.2e-2 to 7.7e-2 and a uniform random one 2.2e-1
        g = GridSpec(3, 32)
        cloud = sample_gaussian_spray(g, 200_000, 1.0, (0.0, 0.0, 0.0), 1.0, seed=seed)
        dens = cic_scatter(g, cloud.x, cloud.w)
        assert dens.std() / dens.mean() < 4e-2

    def test_transient_memory_of_sampling(self):
        # the lattice x, the drawn xi and xi**2 of its moment match (3x) and the
        # int64 row order, 1/3 of x in 3-D: 3.33x; a block key built from whole
        # (N, dim) float and int64 arrays (cells, then blocks) read 4.00x
        g = GridSpec(3, 32)
        cloud = sample_gaussian_spray(g, 200_000, 1.0, 0.0, 1.0, seed=5)
        peak = transient_peak(lambda: sample_gaussian_spray(g, 200_000, 1.0, 0.0, 1.0, seed=5))
        assert peak <= 3.4 * cloud.x.nbytes

    @ORDER_CASES
    def test_block_keys_rise_within_each_parity(self, dim, count):
        keys = block_keys(order_sample(dim, count).x)
        for parity in (0, 1):
            assert np.all(np.diff(keys[parity::2]) >= 0)
        assert len(np.unique(keys)) > kinetic._BLOCKS ** dim // 2

    @ORDER_CASES
    def test_rows_hold_lattice_points_of_their_parity(self, dim, count):
        lattice = kinetic._kronecker_points(count, dim, 3)
        order = kinetic._block_order(lattice)
        assert np.array_equal(np.sort(order), np.arange(count))
        assert np.array_equal(order % 2, np.arange(count) % 2)
        assert np.array_equal(order_sample(dim, count).x, lattice[order])

    @ORDER_CASES
    def test_pairs_are_the_lattice_order_samples(self, monkeypatch, dim, count):
        sampled = order_sample(dim, count)
        lattice = lattice_order_sample(monkeypatch, GridSpec(dim, 16), count, 3, 0.5, 0.8)
        order = kinetic._block_order(lattice.x)
        assert np.array_equal(sampled.x, lattice.x[order])
        assert np.array_equal(sampled.xi, lattice.xi[order])
        assert np.array_equal(sampled.w, lattice.w)
        assert sampled.parents == lattice.parents == count

    @ORDER_CASES
    def test_block_order_keeps_the_moments_exact(self, dim, count):
        cloud = order_sample(dim, count)
        assert cloud.w.sum() == pytest.approx(1.0, rel=1e-13)
        m1 = np.sum(cloud.w[:, None] * cloud.xi, axis=0)
        assert np.abs(m1 - 0.5).max() < 1e-13
        m2 = np.sum(cloud.w * np.sum(cloud.xi**2, axis=1))
        assert m2 == pytest.approx(dim * 0.8**2 + dim * 0.5**2, rel=1e-12)

    @ORDER_CASES
    def test_one_seed_gives_the_same_bytes(self, dim, count):
        a, b = order_sample(dim, count), order_sample(dim, count)
        for name in ("x", "xi", "w"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_lattice_makes_no_count_sized_temporaries(self):
        # the lattice is formed in its output: the call holds the index column
        # beside it, 1.39x the output (2x when scaled out of place)
        out = kinetic._kronecker_points(100_000, 3, 9)
        assert transient_peak(lambda: kinetic._kronecker_points(100_000, 3, 9)) <= 1.6 * out.nbytes


def order_sample(dim, count, seed=3):
    """The sample that the row-order tests read."""
    return sample_gaussian_spray(GridSpec(dim, 16), count, 1.0, 0.5, 0.8, seed)


def lattice_order_sample(monkeypatch, grid, count, seed, mean=0.0, sigma=1.0):
    """sample_gaussian_spray with its rows left in lattice order."""
    with monkeypatch.context() as m:
        m.setattr(kinetic, "_block_order", lambda x: np.arange(len(x)))
        return sample_gaussian_spray(grid, count, 1.0, mean, sigma, seed)


def sorted_rows(cloud):
    """The cloud's (x, xi) rows, sorted."""
    rows = np.hstack([cloud.x, cloud.xi])
    return rows[np.lexsort(rows.T[::-1])]


def block_keys(x):
    """Each row's block of the row-major _BLOCKS^dim partition of the torus."""
    blocks = np.minimum(np.floor(x * (kinetic._BLOCKS / TWO_PI)), kinetic._BLOCKS - 1)
    return np.ravel_multi_index(tuple(blocks.astype(np.int64).T),
                                (kinetic._BLOCKS,) * x.shape[1])


def _cloud(x, w):
    """Fragments at x, of weights w."""
    x = np.asarray(x, dtype=float)
    return ParticleCloud(x, np.ones_like(x), w, 0)


@st.composite
def _merge_cases(draw):
    """A cloud on the 2π torus and a budget it may exceed."""
    dim = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(2, 40))
    x = draw(arrays(np.float64, (count, dim),
                    elements=st.floats(0.0, TWO_PI, exclude_max=True)))
    xi = draw(arrays(np.float64, (count, dim), elements=st.floats(-5.0, 5.0)))
    # zero weights make zero-weight pairs, which merge by the unweighted mean
    w = draw(arrays(np.float64, count, elements=st.just(0.0)
                    | st.floats(0.0, 10.0, allow_subnormal=False)))
    parents = draw(st.integers(0, count))
    budget = draw(st.integers(1, count))
    return ParticleCloud(x, xi, w, parents, R2), budget


# a zero-weight pair, coincident particles, a pair 0.1 apart across the
# seam, and a pair whose weighted mean lands a rounding error below 0
# (np.remainder maps that to the period itself)
@example((_cloud([[0.5, 0.5], [0.6, 0.5], [0.1, 0.9]], [0.0, 0.0, 1.0]), 1))
@example((_cloud(np.zeros((3, 2)), [1.0, 2.0, 3.0]), 1))
@example((_cloud([[TWO_PI - 0.05, 1.0], [0.05, 1.0]], [1.0, 3.0]), 1))
@example((_cloud([[0.0, 1.0], [TWO_PI - 2e-15, 1.0]], [0.8, 0.2]), 1))
@given(_merge_cases())
def test_property_merge(case):
    cloud, budget = case
    out, _ = merge_particles(cloud, budget)
    # merging takes only fragments: the parents keep their rows, byte for byte
    assert out.parents == cloud.parents
    for name in ("x", "xi", "w"):
        assert getattr(out, name)[:out.parents].tobytes() == \
            getattr(cloud, name)[:cloud.parents].tobytes(), name
    # and it never moves weight or momentum across species
    for (before, _), (after, _) in zip(cloud.species(), out.species()):
        w_before = cloud.w[before]
        assert abs(out.w[after].sum() - w_before.sum()) <= 1e-13 * w_before.sum()
        p_before = w_before @ cloud.xi[before]
        p_after = out.w[after] @ out.xi[after]
        p_scale = w_before @ np.abs(cloud.xi[before])
        assert np.all(np.abs(p_after - p_before) <= 1e-12 * p_scale)
    assert np.all((out.x >= 0.0) & (out.x < TWO_PI))
    assert out.radius == cloud.radius
    if out.count > budget:  # merging stopped only for want of fragment pairs
        assert out.count - out.parents < 2


@st.composite
def _species_histories(draw):
    """A cloud of parents and radius-R2 fragments, and a sequence of
    fragmenting breakups (at a step) and merges (to a budget)."""
    dim = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cloud = random_cloud(rng, count, dim, draw(st.integers(0, count)))
    ops = st.tuples(st.just("breakup"), st.integers(0, 7)) | st.tuples(
        st.just("merge"), st.integers(1, 90))
    return cloud, draw(st.lists(ops, min_size=1, max_size=6))


def _species_sums(cloud):
    """Each species' sum of w and of w xi, and of w |xi|, their scale."""
    return [(cloud.w[rows].sum(), cloud.w[rows] @ cloud.xi[rows],
             cloud.w[rows] @ np.abs(cloud.xi[rows])) for rows, _ in cloud.species()]


@given(_species_histories())
def test_property_species_survive_breakups_and_merges(history):
    # a spawn keeps the liquid volume and appends fragments; a merge keeps
    # each species' sum w and sum w xi; a merge pass takes only fragments and
    # leaves the parents' rows as they were, byte for byte
    cloud, ops = history
    merge_pass = kinetic._merge_pass

    def checked_pass(cloud, max_merges):
        out = merge_pass(cloud, max_merges)
        assert out.parents == cloud.parents
        for name in ("x", "xi", "w"):
            before, after = (getattr(c, name)[:c.parents] for c in (cloud, out))
            assert before.tobytes() == after.tobytes(), name
        return out

    with mock.patch.object(kinetic, "_merge_pass", checked_pass):
        for op, arg in ops:
            if op == "breakup":
                out = absorb_and_fragment(cloud, 0.05, 0.3, step=arg)
                assert out.parents == cloud.parents and out.radius == cloud.radius
                assert out.x[:cloud.count].tobytes() == cloud.x.tobytes()
                assert liquid_volume(out) == pytest.approx(liquid_volume(cloud), rel=1e-13)
            else:
                out, _ = merge_particles(cloud, arg)
                for (w0, p0, scale), (w1, p1, _) in zip(_species_sums(cloud),
                                                        _species_sums(out)):
                    assert abs(w1 - w0) <= 1e-13 * w0
                    assert np.all(np.abs(p1 - p0) <= 1e-12 * scale)
            cloud = out


def _phase_space(cloud, group):
    """The merge's metric: positions and velocities scaled by their spreads."""
    x, xi = cloud.x[group], cloud.xi[group]
    return np.concatenate([x / max(x.std(), 1e-12), xi / max(xi.std(), 1e-12)], axis=1)


# all coincident, coincident in fours, and a Kronecker lattice, whose
# neighbour distances are nearly equal, as on the spray's merge inputs
@example((_cloud(np.zeros((3, 2)), [1.0, 2.0, 3.0]), 1))
@example((_cloud(kinetic._kronecker_points(2000, 3, 1), np.ones(2000)), 1))
@example((_cloud(np.repeat([[0.1, 0.2], [0.3, 0.9], [0.5, 0.5]], 4, axis=0), np.ones(12)), 1))
@given(_merge_cases())
def test_property_edges_are_within_the_approximation(case):
    # every edge joins two particles and is at most (1 + eps) times as long
    # as the exact nearest-neighbour distance of its source
    cloud, _ = case
    for rows, _ in cloud.species():
        group = np.arange(cloud.count)[rows]
        if group.size < 2:
            continue
        z = _phase_space(cloud, group)
        nn, length = kinetic._nearest_edges(z)
        assert np.all(nn != np.arange(group.size))
        assert np.allclose(length, np.linalg.norm(z - z[nn], axis=1), rtol=1e-12, atol=1e-12)
        exact = cKDTree(z).query(z, k=2)[0][:, 1]
        assert np.all(length <= (1.0 + kinetic._NN_EPS) * exact + 1e-12)


@pytest.mark.parametrize("dim", [1, 6])
def test_edges_stay_in_range_with_a_lone_point_in_a_leaf(dim):
    # 16 duplicates fill one leaf and the 17th point sits alone in another:
    # at eps = inf (or 1e300) its query returns the missing index 17
    z = np.concatenate([np.zeros((16, dim)), np.ones((1, dim))])
    assert np.isfinite(kinetic._NN_EPS)
    nn, length = kinetic._nearest_edges(z)
    assert np.all(nn < len(z)) and np.all(np.isfinite(length))
    assert nn[16] < 16 and length[16] == np.sqrt(dim)


def _pair_shifts(cloud, group, max_merges):
    """Mean squared position and velocity shift of the pairs one merge pass
    takes in group, each weighted by the pair's reduced mass: merging a and
    b into their weighted mean moves them by w_a w_b / (w_a + w_b) |b - a|^2
    in total."""
    nn, dist = kinetic._nearest_edges(_phase_space(cloud, group))
    src = kinetic._greedy_pairs(nn, dist)[:max_merges]
    a, b = group[src], group[nn[src]]
    mu = cloud.w[a] * cloud.w[b] / (cloud.w[a] + cloud.w[b])
    dx = np.remainder(cloud.x[b] - cloud.x[a] + 0.5 * TWO_PI, TWO_PI) - 0.5 * TWO_PI
    dxi = cloud.xi[b] - cloud.xi[a]
    return np.array([np.mean(mu * np.sum(d**2, axis=1)) for d in (dx, dxi)])


def test_approximate_pairs_shift_little_more_than_exact_ones(monkeypatch):
    # Every merge input of the golden-size 3-D bidisperse run (seed 5), run
    # with exact merges so the clouds do not depend on _NN_EPS: fragments
    # that trail their parents, thinned by earlier merges.  The pooled
    # position/velocity shift ratios against an exact query (eps = 0),
    # measured on these clouds with the sliding-midpoint tree: 1.015/0.999,
    # 1.023/1.006, 1.052/1.030, 1.099/1.078, 1.199/1.162 at eps = 1/2/3/4/6,
    # and 2.051/1.803 for leaf-local partners (eps = 1e3).
    inputs, merge = [], scenarios.merge_particles

    def captured(cloud, budget):
        inputs.append((cloud, budget))
        return merge(cloud, budget)

    def pooled():
        return sum(_pair_shifts(cloud, np.arange(cloud.parents, cloud.count),
                                cloud.count - budget)
                   for cloud, budget in inputs)

    eps = kinetic._NN_EPS
    monkeypatch.setattr(scenarios, "merge_particles", captured)
    monkeypatch.setattr(kinetic, "_NN_EPS", 0.0)
    scenarios.run_scenario(scenarios.SimConfig(
        dim=3, n=8, dt=2e-3, t_final=0.02, scenario="bidisperse", tau=0.05, r2=0.3,
        particle_count=1_000, particle_budget=1_200, seed=5))
    assert len(inputs) == 10
    exact = pooled()
    monkeypatch.setattr(kinetic, "_NN_EPS", eps)
    ratio = pooled() / exact
    assert np.all(ratio <= 1.3), ratio


def _nn_edges(z):
    """Each point's edge to an approximate nearest other point, its length
    and the stable order of the lengths, built as the merge builds them, on
    the same sliding-midpoint tree, but queried in input order: an
    approximate query does not depend on the query order."""
    tree = cKDTree(z, balanced_tree=False, compact_nodes=False)
    dist, nn = tree.query(z, k=2, eps=kinetic._NN_EPS)
    nn = np.where(nn[:, 1] == np.arange(len(z)), nn[:, 0], nn[:, 1])
    return nn, dist[:, 1], np.argsort(dist[:, 1], kind="stable")


def _sequential_greedy(nn, order, max_merges):
    """Sources of the greedy matching, one edge at a time in key order."""
    used = np.zeros(nn.size, dtype=bool)
    pairs = []
    for i in order:
        j = nn[i]
        if used[i] or used[j]:
            continue
        used[i] = used[j] = True
        pairs.append(i)
        if len(pairs) >= max_merges:
            break
    return np.array(pairs, dtype=np.int64)


@st.composite
def _edge_cases(draw):
    """2 to 3000 points in 1 to 6 dimensions, some of them duplicated (zero
    lengths): uniform, or rounded to 1 to 3 decimals (tied lengths).  Or a
    chain of ever-longer gaps, which the rounds take one pair at a time."""
    kind = draw(st.sampled_from(["uniform", "rounded", "chain"]))
    n = draw(st.integers(2, 3000))
    if kind == "chain":
        return np.cumsum(1.01 ** np.arange(n))[:, None]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(size=(n, draw(st.integers(1, 6))))
    if kind == "rounded":
        z = np.round(z, draw(st.integers(1, 3)))
    dups = draw(st.integers(0, n // 2))
    z[rng.integers(0, n, dups)] = z[rng.integers(0, n, dups)]
    return z


# exact mutual pairs only, of four distinct lengths; and a centre with three
# leaves at length 1, whose three edges kept after the mutual pair tie
@example(np.array([[0.0], [1.0], [10.0], [12.0], [30.0], [33.0], [60.0], [64.0]]))
@example(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
@example(np.zeros((5, 2)))
@example(np.round(np.random.default_rng(0).uniform(size=(3000, 6)), 1))
@example(np.array([[0.0], [1.0]]))
@given(_edge_cases())
def test_property_greedy_rounds_match_the_sequential_greedy(z):
    # over every edge, the later edge of each mutual pair included: by the
    # ranks (distinct), and by the raw lengths, whose ties the rounded and
    # duplicated clouds send to the stable sort
    nn, length, order = _nn_edges(z)
    key = np.empty(nn.size, dtype=np.int64)
    key[order] = np.arange(nn.size)
    want = _sequential_greedy(nn, order, nn.size)
    for lengths in (key, length):
        src = kinetic._greedy_pairs(nn, lengths)
        assert np.array_equal(src, want)
    ends = np.concatenate([src, nn[src]])
    assert np.unique(ends).size == ends.size  # the pairs are disjoint
    assert np.all(np.diff(key[src]) > 0)


def _reference_pairs(cloud, group, max_merges):
    """The ends a and b of the pairs of one merge pass in group, found one
    pair at a time, with the tree queried in input order."""
    nn, _, order = _nn_edges(_phase_space(cloud, group))
    src = _sequential_greedy(nn, order, max_merges)
    return group[src], group[nn[src]]


def _reference_merge_pass(cloud, max_merges):
    """The merge pass over the fragments as a loop over the pairs, with the
    tree queried in input order; the merged rows end the cloud."""
    a, b = _reference_pairs(cloud, np.arange(cloud.parents, cloud.count), max_merges)
    wa, wb = cloud.w[a], cloud.w[b]
    wsum = wa + wb
    safe = np.where(wsum > 0, wsum, 1.0)
    frac_b = np.where(wsum > 0, wb / safe, 0.5)
    xi_m = np.where(
        (wsum > 0)[:, None],
        (wa[:, None] * cloud.xi[a] + wb[:, None] * cloud.xi[b]) / safe[:, None],
        0.5 * (cloud.xi[a] + cloud.xi[b]),
    )
    delta = np.remainder(cloud.x[b] - cloud.x[a] + 0.5 * TWO_PI, TWO_PI) - 0.5 * TWO_PI
    x_m = np.remainder(cloud.x[a] + frac_b[:, None] * delta, TWO_PI)
    x_m[x_m == TWO_PI] = 0.0
    keep = np.ones(cloud.count, dtype=bool)
    keep[a] = False
    keep[b] = False
    return ParticleCloud(
        *(np.concatenate([arr[keep], merged])
          for arr, merged in ((cloud.x, x_m), (cloud.xi, xi_m), (cloud.w, wsum))),
        cloud.parents, cloud.radius)


def _merges_like_the_reference(monkeypatch, cloud, budget, passes):
    """merge_particles gives the same bytes as with the loop reference pass,
    which runs `passes` times."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _reference_merge_pass(*args)

    got, got_m2 = merge_particles(cloud, budget)
    monkeypatch.setattr(kinetic, "_merge_pass", counted)
    want, want_m2 = merge_particles(cloud, budget)
    assert len(calls) == passes
    for name in ("x", "xi", "w"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.parents, got.radius) == (want.parents, want.radius)
    assert got_m2 == want_m2


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("budget, passes, two_radii", [
    (380, 1, False), (200, 2, False), (150, 3, False), (200, 4, True)])
def test_merge_matches_the_loop_reference(monkeypatch, dim, budget, passes, two_radii):
    # 400 fragments, or 150 parents before 250 fragments, which the passes
    # take down to 50
    rng = np.random.default_rng(40 + dim)
    cloud = random_cloud(rng, 400, dim, 150 if two_radii else 0)
    _merges_like_the_reference(monkeypatch, cloud, budget, passes)


@pytest.mark.parametrize("dim", [2, 3])
def test_a_merge_leaves_the_parents_as_they_are(monkeypatch, dim):
    # the parents outnumber the fragments, yet only fragments merge: the
    # parents keep their count and their rows, byte for byte
    rng = np.random.default_rng(60 + dim)
    cloud = random_cloud(rng, 400, dim, 250)
    out, _ = merge_particles(cloud, 300)
    assert out.count == 300 and out.parents == cloud.parents
    for name in ("x", "xi", "w"):
        assert getattr(out, name)[:250].tobytes() == getattr(cloud, name)[:250].tobytes()
    _merges_like_the_reference(monkeypatch, cloud, 300, 3)


@pytest.mark.parametrize("dim", [2, 3])
def test_merge_matches_the_loop_reference_with_zero_weights(monkeypatch, dim):
    # half the weights are 0, so that pairs of two zero weights form and take
    # the unweighted mean, a branch that weights in [0.1, 2] never reach
    rng = np.random.default_rng(50 + dim)
    cloud = random_cloud(rng, 400, dim, 0)
    cloud = replace(cloud, w=np.where(rng.uniform(size=400) < 0.5, 0.0, cloud.w))
    a, b = _reference_pairs(cloud, np.arange(400), 100)
    assert np.any(cloud.w[a] + cloud.w[b] == 0) and np.any(cloud.w[a] + cloud.w[b] > 0)
    _merges_like_the_reference(monkeypatch, cloud, 300, 1)


@st.composite
def _pass_cases(draw):
    """A cloud with positions two periods below and above the box, possibly
    empty, and a cutoff width or none."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([8, 16]))
    count = draw(st.integers(0, 40))
    x = draw(arrays(np.float64, (count, dim),
                    elements=st.floats(-2 * TWO_PI, 3 * TWO_PI, exclude_max=True)))
    xi = draw(arrays(np.float64, (count, dim), elements=st.floats(-5.0, 5.0)))
    weights = arrays(np.float64, count, elements=st.floats(0.0, 10.0, allow_subnormal=False))
    cloud = ParticleCloud(x, xi, draw(weights), draw(st.integers(0, count)), R2)
    eps = draw(st.none() | st.sampled_from([0.3, 1.0]))
    return GridSpec(dim, n), cloud, eps, draw(st.integers(0, 2**32 - 1))


@given(_pass_cases())
def test_property_pass_matches_one_sided_kernels(case):
    # the one pass of a step against scalar scatters of w and of each w xi_j,
    # with w formed as deposit_moments forms it, and against the gather of u
    g, cloud, eps, seed = case
    u = VectorField(g, np.random.default_rng(seed).standard_normal((g.dim,) + g.shape))
    drag, u_at_x = deposit_moments(cloud, u, eps)
    w = cloud.w if eps is None else cloud.w * velocity_cutoff(cloud.xi, eps)
    w = w * radii(cloud)
    ref = [cic_scatter(g, cloud.x, w),
           *(cic_scatter(g, cloud.x, w * xi_j) for xi_j in cloud.xi.T)]
    assert np.array_equal(np.stack([drag.m0.values, *drag.m1.values]), np.stack(ref))
    assert np.array_equal(u_at_x, cic_gather(u, cloud.x))
