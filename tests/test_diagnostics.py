import numpy as np
import pytest
from hypothesis import given, strategies as st
from conftest import meshgrid, transient_peak
from hypothesis.extra.numpy import arrays

from thinspray.diagnostics import (
    DiagnosticsRecord,
    RadialDensity,
    _cumulative_trapezoid,
    check_moment_bound,
    collect_record,
    energy_budget,
    liquid_volume,
    momentum_budget,
    momentum_tolerance,
    radial_histogram,
    record_terms,
    regularization_remainders,
)
from thinspray.fluid import FluidState
from thinspray.grid import TWO_PI, GridSpec, ScalarField, VectorField, fft, mollify
from thinspray.kinetic import ParticleCloud, deposit_moments, velocity_cutoff
from thinspray.transfer import cic_gather

BALL_FACTOR = 4.0 * np.pi / 3.0


def make_cloud(x, xi, w):
    return ParticleCloud(x, xi, w, len(w))


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

    @pytest.mark.parametrize("edges, values", [
        ([0.0, 1.0], [np.nan]), ([0.0, 1.0], [np.inf]),
        ([0.0, np.nan, 2.0], [1.0, 1.0]), ([0.0, np.inf], [1.0])])
    def test_non_finite_rejected(self, edges, values):
        # NaN passes the tests `< 0` and `<= 0`; it is an error here, not a
        # failed bound of check_moment_bound
        with pytest.raises(ValueError, match="finite"):
            RadialDensity(np.array(edges), np.array(values))

    def test_histogram_matches_cloud_moments(self):
        rng = np.random.default_rng(3)
        cloud = make_cloud(rng.uniform(0, 6, (50_000, 3)),
                           0.8 * rng.standard_normal((50_000, 3)),
                           rng.uniform(0, 1, 50_000))
        vol = (2 * np.pi) ** 3  # the torus the histogram averages over
        hist = radial_histogram(cloud, nbins=64)
        # zeroth moment is binned exactly; higher moments only approximately
        assert hist.moment(0.0) * vol == pytest.approx(cloud.w.sum(), rel=1e-12)

    def test_uniform_bins_match_explicit_edges(self):
        rng = np.random.default_rng(9)
        cloud = make_cloud(rng.uniform(0, 6, (20_000, 3)),
                           1.3 * rng.standard_normal((20_000, 3)),
                           rng.uniform(0, 1, 20_000))
        vol, nbins = (2 * np.pi) ** 3, 32
        hist = radial_histogram(cloud, nbins=nbins)
        top = hist.edges[-1]
        assert np.array_equal(hist.edges, np.linspace(0.0, top, nbins + 1))
        speed = np.sqrt(np.sum(cloud.xi**2, axis=1))
        want, _ = np.histogram(speed, bins=hist.edges, weights=cloud.w)
        shell_vol = BALL_FACTOR * np.diff(hist.edges**3)
        got = hist.values * vol * shell_vol
        assert np.abs(got - want).max() <= 1e-12 * want.max()


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
            volume=0.0, mass_rho=0.0, div_residual=0.0, r1=0.0, r2=0.0, r3=0.0,
            cut_weight=0.0))
    return recs


class TestBudgets:
    def test_zero_at_initial_time(self):
        recs = make_records([0.0, 0.1], [1.0, 0.9], [1.0, 1.0], [0.0, 0.0])
        res = energy_budget(recs, 1.0)
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

    def test_remainders_booked(self):
        # constant remainders, with a constant energy and no dissipation,
        # leave the residual -int (r1 + r2 + r3)
        t = np.array([0.0, 0.1, 0.3, 0.35])
        recs = make_records(t, [1.0] * 4, [0.0] * 4, [0.0] * 4)
        for rec in recs:
            rec.r1, rec.r2, rec.r3 = 0.5, -0.25, 2.0
        assert energy_budget(recs, 1.5) == pytest.approx(-2.25 * t, rel=1e-15)

    def test_momentum_tolerance(self):
        # constant m0 and D_drag: tol = 4 dt 2 sqrt(m0 D) T + 1e-14
        t, dt = np.array([0.0, 0.1, 0.3]), 1e-3
        recs = make_records(t, [1.0] * 3, [0.0] * 3, [9.0] * 3)
        for rec in recs:
            rec.m0 = 4.0
        assert momentum_tolerance(recs, dt) == pytest.approx(4 * dt * 12.0 * 0.3 + 1e-14,
                                                             rel=1e-15)
        # a negative m0 or D_drag counts as 0, also when their product is positive
        for m0, drag in ((-4.0, 9.0), (4.0, -9.0), (-4.0, -9.0)):
            for rec in recs:
                rec.m0, rec.dissipation_drag = m0, drag
            assert momentum_tolerance(recs, dt) == 1e-14, (m0, drag)

    def test_momentum_drift(self):
        recs = make_records([0.0, 0.5], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        recs[1].total_momentum = np.array([0.1, 0.0, -0.2])
        drift = momentum_budget(recs)
        assert np.abs(drift[0]).max() == 0.0
        assert drift[1][0] == pytest.approx(0.1)

    def test_trapezoid_is_scipys(self):
        from scipy.integrate import cumulative_trapezoid

        rng = np.random.default_rng(4)
        for size in (1, 2, 3, 50, 1001):
            t = np.cumsum(rng.uniform(1e-4, 0.1, size)) - 0.5
            y = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
            assert np.array_equal(_cumulative_trapezoid(y, t),
                                  cumulative_trapezoid(y, t, initial=0.0)), size

    def test_nonmonotone_times_rejected(self):
        recs = make_records([0.0, 0.2, 0.1], [1, 1, 1], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            energy_budget(recs, 1.0)


def remainders(cloud, u, u_mollified, eps):
    """The remainders of a regularized record at tau = 1, paired with its drag
    deposit."""
    drag, u_mollified_at_x = deposit_moments(cloud, u_mollified, eps)
    terms = record_terms(cloud, u, drag, eps)
    return regularization_remainders(cloud, drag, terms, u_mollified, u_mollified_at_x,
                                     coupling=2.0, drag_coefficient=1.5)


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
        x = meshgrid(g)
        u = VectorField.from_components(
            g, np.sin(x[0]), np.zeros(g.shape), np.zeros(g.shape))
        eps = 0.05  # cutoff radius 20: every sampled velocity inside
        r1, r2, r3 = remainders(cloud, u, VectorField(g, mollify(g, eps, fft(g, u.values))), eps)
        assert r1 == 0.0 and r2 == 0.0
        assert r3 != 0.0  # the mollifier still acts on u

    def test_empty_cloud(self):
        g = GridSpec(2, 16)
        zero = VectorField.zeros(g)
        out = remainders(ParticleCloud.empty(2), zero, zero, 0.5)
        assert out == (0.0, 0.0, 0.0)

    def test_mixed_cloud_with_a_cutoff(self):
        # parents and radius-0.3 fragments, some of each beyond 1/eps: the
        # remainders weigh each particle by q = w r (1 - cutoff), r its radius
        g = GridSpec(2, 16)
        rng = np.random.default_rng(8)
        count, parents, radius, eps = 600, 400, 0.3, 0.5
        xi = 1.5 * rng.standard_normal((count, 2))
        cloud = ParticleCloud(rng.uniform(0, g.length, (count, 2)), xi,
                              rng.uniform(0, 1, count), parents, radius)
        u, u_star = (VectorField(g, rng.standard_normal((2,) + g.shape)) for _ in range(2))
        r1, r2, r3 = remainders(cloud, u, u_star, eps)
        r = np.where(np.arange(count) < parents, 1.0, radius)
        defect = 1.0 - velocity_cutoff(xi, eps)
        assert np.any(defect[:parents] > 0) and np.any(defect[parents:] > 0)
        q = cloud.w * r * defect
        up = cic_gather(u, cloud.x)
        u_sq = cic_gather(ScalarField(g, np.sum(u.values**2, axis=0)), cloud.x)
        xi_up = np.sum(xi * up, axis=1)
        _assert_sum_matches(r1, [1.5 * q * u_sq])
        _assert_sum_matches(r2, [-2.0 * q * xi_up])
        _assert_sum_matches(r3, [cloud.w * r * np.sum(xi * cic_gather(u_star, cloud.x), axis=1),
                                 -cloud.w * r * xi_up])


@pytest.mark.parametrize("eps", [None, 0.5])
def test_transient_memory_of_one_record(eps):
    # |u|^2 and the momentum of the gas are summed component by component:
    # in fields the size of u, record_terms holds at most 0.75 at once (its
    # |u|^2 among them), collect_record at most 1.0
    g = GridSpec(3, 32)
    rng = np.random.default_rng(3)
    u = VectorField(g, rng.standard_normal((3,) + g.shape))
    fluid = FluidState(u, ScalarField(g, rng.random(g.shape)))
    cloud = make_cloud(rng.uniform(0, g.length, (500, 3)), 2.0 * rng.standard_normal((500, 3)),
                       rng.random(500))
    drag = deposit_moments(cloud, u, eps)[0]
    terms = record_terms(cloud, u, drag, eps)
    liquid = liquid_volume(cloud)
    size = u.values.nbytes
    assert transient_peak(lambda: record_terms(cloud, u, drag, eps)) <= 0.75 * size
    assert transient_peak(lambda: collect_record(0.0, fluid, cloud, drag, terms, liquid=liquid,
                                                 remainders=(0.0, 0.0, 0.0),
                                                 nu=1.0)) <= 1.0 * size


@st.composite
def _record_cases(draw):
    """A cloud with positions two periods below and above the box, possibly
    empty, of parents or of parents mixed with radius-r2 fragments, a
    cutoff width or none, possibly with every speed beyond 1/eps (a tail
    that holds every particle), and a field seed."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([8, 16]))
    count = draw(st.integers(0, 40))
    x = draw(arrays(np.float64, (count, dim),
                    elements=st.floats(-2 * TWO_PI, 3 * TWO_PI, exclude_max=True)))
    xi = draw(arrays(np.float64, (count, dim), elements=st.floats(-5.0, 5.0)))
    w = draw(arrays(np.float64, count, elements=st.floats(0.0, 10.0, allow_subnormal=False)))
    eps = draw(st.sampled_from([None, 0.3, 1.0]))
    if eps is not None and draw(st.booleans()):
        xi[:, 0] = np.copysign(1.0 / eps + 0.5 + np.abs(xi[:, 0]), xi[:, 0])
    parents = draw(st.integers(0, count)) if draw(st.booleans()) else count
    cloud = ParticleCloud(x, xi, w, parents, 0.3)
    return GridSpec(dim, n), cloud, eps, draw(st.integers(0, 2**32 - 1))


def _assert_sum_matches(got, terms):
    """got equals the sum of the term arrays to 1e-12 of the sum of their sizes."""
    total = sum(float(np.sum(t)) for t in terms)
    scale = sum(float(np.sum(np.abs(t))) for t in terms)
    assert abs(got - total) <= 1e-12 * scale + 1e-300


@given(_record_cases())
def test_property_paired_record_matches_gathered_sums(case):
    # the record pairs grid fields with the drag deposit; the reference is the
    # particle sum of the interpolated fields, with every particle gathered
    g, cloud, eps, seed = case
    rng = np.random.default_rng(seed)
    u, u_star = (VectorField(g, rng.standard_normal((g.dim,) + g.shape)) for _ in range(2))
    drag, u_star_at_x = deposit_moments(cloud, u_star, eps)
    terms = record_terms(cloud, u, drag, eps)
    coupling, drag_coeff = 3.5, 2.25  # tau = 0.4
    r1, r2, r3 = regularization_remainders(cloud, drag, terms, u_star, u_star_at_x,
                                           coupling=coupling, drag_coefficient=drag_coeff)
    record = collect_record(0.0, FluidState(u, ScalarField.zeros(g)), cloud, drag, terms,
                            liquid=liquid_volume(cloud), remainders=(r1, r2, r3), nu=1.0)
    up = cic_gather(u, cloud.x)
    u_sq = cic_gather(ScalarField(g, np.sum(u.values**2, axis=0)), cloud.x)
    xi, w = cloud.xi, cloud.w
    xi_up = np.sum(xi * up, axis=1)
    r = np.where(np.arange(cloud.count) < cloud.parents, 1.0, cloud.radius)
    q, xi_sq = w * r, np.sum(xi**2, axis=1)
    _assert_sum_matches(record.dissipation_drag, [q * u_sq, -2.0 * q * xi_up, q * xi_sq])
    # the per-species sums, weighed by 1 and by r^3, against per-particle ones
    for got, want in ((record.m0, w), (record.m2, w * xi_sq), *zip(record.m1, (w * xi.T)),
                      (record.volume, w * r**3), (2.0 * record.e_kinetic_spray,
                                                 w * r**3 * xi_sq)):
        _assert_sum_matches(got, [want])
    # the deposit weight that the cutoff left out, and the remainders, on any cloud
    cut = 1.0 if eps is None else velocity_cutoff(xi, eps)
    _assert_sum_matches(record.cut_weight, [q * (1.0 - cut)])
    assert (record.r1, record.r2, record.r3) == (r1, r2, r3)
    _assert_sum_matches(r1, [drag_coeff * q * u_sq * (1.0 - cut)])
    _assert_sum_matches(r2, [coupling * q * xi_up * (cut - 1.0)])
    _assert_sum_matches(r3, [q * np.sum(xi * cic_gather(u_star, cloud.x), axis=1),
                             -q * xi_up])
