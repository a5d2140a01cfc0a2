import numpy as np
import pytest

from thinspray.diagnostics import (
    DiagnosticsRecord,
    RadialDensity,
    blowup_time_bound,
    check_moment_bound,
    energy_budget,
    gronwall_compare,
    momentum_budget,
    radial_histogram,
    regularization_remainders,
)
from thinspray.errors import FieldError
from thinspray.grid import GridSpec, ScalarField, VectorField, mollify
from thinspray.kinetic import PARENT_SPECIES, ParticleCloud, deposit_moments

BALL_FACTOR = 4.0 * np.pi / 3.0


def make_cloud(x, xi, w):
    return ParticleCloud(x, xi, w, np.full(len(w), PARENT_SPECIES))


class TestRadialDensity:
    def test_unit_ball_moments(self):
        ball = RadialDensity(np.array([0.0, 1.0]), np.array([1.0]))
        assert ball.moment(0.0) == pytest.approx(BALL_FACTOR, rel=1e-14)
        assert ball.moment(2.0) == pytest.approx(4.0 * np.pi / 5.0, rel=1e-14)
        assert ball.sup() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialDensity(np.array([0.5, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            RadialDensity(np.array([0.0, 1.0]), np.array([-1.0]))

    def test_histogram_matches_cloud_moments(self):
        rng = np.random.default_rng(3)
        cloud = make_cloud(rng.uniform(0, 6, (50_000, 3)),
                           0.8 * rng.standard_normal((50_000, 3)),
                           rng.uniform(0, 1, 50_000))
        vol = (2 * np.pi) ** 3
        hist = radial_histogram(cloud, vol, nbins=64)
        # zeroth moment is binned exactly; higher moments only approximately
        assert hist.moment(0.0) * vol == pytest.approx(cloud.w.sum(), rel=1e-12)


class TestMomentBound:
    def test_unit_ball_case(self):
        ball = RadialDensity(np.array([0.0, 1.0]), np.array([1.0]))
        lhs, rhs, ok = check_moment_bound(ball, 0.0, 2.0)
        assert lhs == pytest.approx(BALL_FACTOR, rel=1e-12)
        assert rhs == pytest.approx((BALL_FACTOR + 1.0) * (4 * np.pi / 5) ** 0.6,
                                    rel=1e-12)
        assert ok

    def test_zero_density(self):
        zero = RadialDensity(np.array([0.0, 1.0]), np.array([0.0]))
        lhs, rhs, ok = check_moment_bound(zero, 0.0, 2.0)
        assert lhs == 0.0 and rhs == 0.0 and ok

    def test_thousand_random_densities(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            nshell = int(rng.integers(1, 10))
            edges = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 8.0, nshell))])
            h = RadialDensity(edges, rng.uniform(0, 5, nshell))
            alpha = float(rng.uniform(0, 2.5))
            gamma = alpha + float(rng.uniform(0.2, 3.0))
            lhs, rhs, ok = check_moment_bound(h, alpha, gamma)
            assert ok, (edges, alpha, gamma, lhs, rhs)

    def test_order_validation(self):
        ball = RadialDensity(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            check_moment_bound(ball, 2.0, 1.0)
        with pytest.raises(ValueError):
            check_moment_bound(ball, -0.5, 1.0)


def make_records(t, energies, visc, drag):
    recs = []
    for k in range(len(t)):
        recs.append(DiagnosticsRecord(
            t=t[k], e_kinetic_spray=0.0, e_fluid=energies[k],
            dissipation_visc=visc[k], dissipation_drag=drag[k],
            m0=1.0, m1=np.zeros(3), m2=0.0, total_momentum=np.zeros(3),
            mass_f=0.0, mass_rho=0.0, div_residual=0.0))
    return recs


class TestBudgets:
    def test_zero_at_initial_time(self):
        recs = make_records([0.0, 0.1], [1.0, 0.9], [1.0, 1.0], [0.0, 0.0])
        res = energy_budget(recs)
        assert res[0] == 0.0

    def test_exact_exponential_balance(self):
        # E(t) = e^{-2t}, dissipation 2 e^{-2t}: residual is pure quadrature error
        t = np.linspace(0.0, 1.0, 2001)
        recs = make_records(t, np.exp(-2 * t), 2 * np.exp(-2 * t), np.zeros_like(t))
        res = energy_budget(recs, 1.5)
        assert np.abs(res).max() < 1e-6

    def test_drag_coefficient_applied(self):
        t = np.array([0.0, 1.0])
        recs = make_records(t, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        res_limit = energy_budget(recs, 1.5)
        res_two_radius = energy_budget(recs, 1.0)
        assert res_limit[-1] == pytest.approx(1.5)
        assert res_two_radius[-1] == pytest.approx(1.0)

    def test_momentum_drift(self):
        recs = make_records([0.0, 0.5], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        recs[1].total_momentum = np.array([0.1, 0.0, -0.2])
        drift = momentum_budget(recs)
        assert np.abs(drift[0]).max() == 0.0
        assert drift[1][0] == pytest.approx(0.1)

    def test_nonmonotone_times_rejected(self):
        recs = make_records([0.0, 0.2, 0.1], [1, 1, 1], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            energy_budget(recs)


class TestGronwall:
    def test_constant_function_dominated(self):
        t = np.linspace(0, 0.1, 20)
        res = gronwall_compare(2.0, 1.0, t, np.full(20, 2.0))
        assert res.passed and res.checked == 20

    def test_solution_itself_passes_with_equality(self):
        t = np.linspace(0, 0.9, 50)
        res = gronwall_compare(1.0, 1.0, t, 1.0 / (1.0 - t))  # z = 1/(1-t)
        assert res.passed

    def test_violating_function_fails(self):
        t = np.linspace(0, 0.5, 20)
        res = gronwall_compare(1.0, 1.0, t, 10.0 + 0.0 * t)
        assert not res.passed

    def test_blowup_before_sample_end_reported(self):
        t = np.linspace(0, 2.0, 30)
        res = gronwall_compare(1.0, 1.0, t, np.zeros(30))  # z blows up at t=1
        assert res.blowup_reported
        assert res.passed  # zeros stay below the bound on the overlap
        assert res.checked < 30

    def test_validation(self):
        t = np.linspace(0, 0.1, 5)
        with pytest.raises(ValueError):
            gronwall_compare(0.0, 1.0, t, np.zeros(5))
        with pytest.raises(ValueError):
            gronwall_compare(1.0, -1.0, t, np.zeros(5))


class TestBlowupBound:
    @pytest.mark.parametrize("a,gamma,expected", [
        (1.0, 1.0, 1.0),
        (1.0, 3.0, 1.0 / 3.0),
        (2.0, 1.0, 0.25),
    ])
    def test_closed_forms(self, a, gamma, expected):
        assert blowup_time_bound(a, gamma) == pytest.approx(expected, rel=1e-12)

    def test_comparison_bound_finite_exactly_before_blowup(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = float(rng.uniform(0.3, 3.0))
            gamma = float(rng.uniform(0.75, 3.0))
            t_blowup = blowup_time_bound(a, gamma)
            t = np.sort(np.append(np.linspace(0.0, 2.0 * t_blowup, 40), t_blowup))
            res = gronwall_compare(a, gamma, t, np.zeros_like(t))
            inside = t < t_blowup
            assert np.array_equal(np.isfinite(res.bound), inside)
            assert res.checked == inside.sum() and res.blowup_reported
            closed_form = (a**-gamma - a * gamma * t[inside]) ** (-1.0 / gamma)
            assert res.bound[inside] == pytest.approx(closed_form, rel=1e-10)

    def test_closed_form_solution_verifies_ode(self):
        # (a^-g - a g t)^(-1/g) solves z' = a z^(1+g): check by residual
        a, gamma = 1.3, 0.9
        t = np.linspace(0, 0.3, 100)
        z = (a**-gamma - a * gamma * t) ** (-1.0 / gamma)
        dz = np.gradient(z, t)
        mid = slice(5, -5)
        assert np.abs(dz[mid] - a * z[mid] ** (1 + gamma)).max() \
            < 1e-2 * np.abs(dz[mid]).max()


def record_fields(u, u_mollified=None):
    """What the pass of a step gathers for its record: u, |u|^2 (and u_star)."""
    u_sq = ScalarField(u.grid, np.sum(u.values**2, axis=0))
    return [u, u_sq] + ([] if u_mollified is None else [u_mollified])


def remainders(cloud, u, u_mollified, eps):
    """The remainders of a regularized record, from the gathers of its pass."""
    gathered = deposit_moments(cloud, u.grid, eps, gather=record_fields(u, u_mollified)).gathered
    return regularization_remainders(cloud, gathered, eps)


class TestRemainders:
    def test_zero_velocity_all_vanish(self):
        g = GridSpec(3, 16)
        rng = np.random.default_rng(6)
        cloud = make_cloud(rng.uniform(0, g.length, (500, 3)),
                           rng.standard_normal((500, 3)), rng.uniform(0, 1, 500))
        zero = VectorField.zeros(g)
        r1, r2, r3 = remainders(cloud, zero, zero, 0.5)
        assert r1 == 0.0 and r2 == 0.0 and r3 == 0.0

    def test_inactive_cutoff_kills_first_two(self):
        g = GridSpec(3, 16)
        rng = np.random.default_rng(7)
        xi = 0.5 * rng.standard_normal((500, 3))  # speeds well under 1/eps
        cloud = make_cloud(rng.uniform(0, g.length, (500, 3)), xi,
                           rng.uniform(0, 1, 500))
        x = g.meshgrid()
        u = VectorField.from_components(
            g, np.sin(x[0]), np.zeros(g.shape), np.zeros(g.shape))
        eps = 0.05  # cutoff radius 20: every sampled velocity inside
        r1, r2, r3 = remainders(cloud, u, mollify(u, eps), eps)
        assert r1 == 0.0 and r2 == 0.0
        assert r3 != 0.0  # the mollifier still acts on u

    def test_empty_cloud(self):
        g = GridSpec(2, 16)
        zero = VectorField.zeros(g)
        out = remainders(ParticleCloud.empty(2), zero, zero, 0.5)
        assert out == (0.0, 0.0, 0.0)


class TestNonFiniteVelocity:
    """A NaN in u next to a droplet is a typed error of the pass that gathers
    for the record, not a NaN budget."""

    @staticmethod
    def _case():
        g = GridSpec(2, 16)
        u = VectorField.zeros(g)
        u.values[0, 3, 5] = np.nan
        x = np.array([[3.5 * g.h, 5.5 * g.h], [1.0, 1.0]])
        return g, u, make_cloud(x, np.zeros((2, 2)), np.ones(2))

    def test_collect_record_raises(self):
        g, u, cloud = self._case()
        with pytest.raises(FieldError, match="non-finite"):
            deposit_moments(cloud, g, gather=record_fields(u))

    def test_remainders_raise(self):
        _, u, cloud = self._case()
        with pytest.raises(FieldError, match="non-finite"):
            remainders(cloud, u, u, 0.5)
