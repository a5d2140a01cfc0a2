import numpy as np
import pytest

from thinspray.errors import FieldError
from thinspray.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _spectral_tables,
    divergence_residual,
    fft,
    grad_l2_norm_sq,
    ifft_like,
    integral,
    leray_project,
    mollify,
)


def random_scalar(grid, rng):
    return ScalarField(grid, rng.standard_normal(grid.shape))


def random_vector(grid, rng):
    return VectorField(grid, rng.standard_normal((grid.dim,) + grid.shape))


def l2_scale(field):
    """The L2 norm of a field over the torus."""
    return np.linalg.norm(field.values) * np.sqrt(field.grid.cell_volume)


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(3, 32)
        assert g.shape == (32, 32, 32)
        assert g.h == pytest.approx(2 * np.pi / 32)
        assert g.volume == pytest.approx((2 * np.pi) ** 3)

    @pytest.mark.parametrize("dim,n,length", [(1, 32, 1.0), (4, 32, 1.0),
                                              (3, 7, 1.0), (3, 24, 1.0),
                                              (3, 4, 1.0), (3, 32, 0.0),
                                              (3, 32, -1.0)])
    def test_invalid(self, dim, n, length):
        with pytest.raises(ValueError):
            GridSpec(dim, n, length)

    def test_field_shape_checked(self):
        g = GridSpec(2, 16)
        with pytest.raises(FieldError):
            ScalarField(g, np.zeros((16, 8)))
        with pytest.raises(FieldError):
            VectorField(g, np.zeros((3, 16, 16)))


class TestTransforms:
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_round_trip(self, dim, n):
        rng = np.random.default_rng(0)
        g = GridSpec(dim, n)
        s = random_scalar(g, rng)
        back = ifft_like(s, fft(s))
        assert np.abs(back - s.values).max() <= 1e-12 * np.abs(s.values).max()

    def test_gradient_norm_matches_real_space(self):
        g = GridSpec(3, 16)
        x, y, z = g.meshgrid()
        s = ScalarField(g, np.sin(x) * np.cos(2 * y) + 0.5 * np.cos(3 * z - x))
        grad = [np.cos(x) * np.cos(2 * y) + 0.5 * np.sin(3 * z - x),
                -2.0 * np.sin(x) * np.sin(2 * y),
                -1.5 * np.sin(3 * z - x)]
        real = float(sum(np.sum(c**2) for c in grad)) * g.cell_volume
        assert grad_l2_norm_sq(g, fft(s)) == pytest.approx(real, rel=1e-12)

    def test_dealias_removes_high_modes(self):
        g = GridSpec(2, 32)
        x = g.meshgrid()
        mask = _spectral_tables(g).mask
        high = ScalarField(g, np.cos(14 * x[0]))
        low = ScalarField(g, np.cos(3 * x[0]))
        assert np.abs(ifft_like(high, mask * fft(high))).max() < 1e-13
        assert np.abs(ifft_like(low, mask * fft(low)) - low.values).max() < 1e-13


class TestLeray:
    def test_constant_field_unchanged(self):
        g = GridSpec(3, 16)
        v = VectorField(g, np.stack([np.full(g.shape, 1.0),
                                     np.zeros(g.shape), np.zeros(g.shape)]))
        pv = leray_project(v)
        assert np.abs(pv.values - v.values).max() < 1e-13

    def test_pure_gradient_annihilated(self):
        # grad of sin(x) cos(2y) cos(z)
        g = GridSpec(3, 16)
        x, y, z = g.meshgrid()
        grad = VectorField.from_components(
            g, np.cos(x) * np.cos(2 * y) * np.cos(z),
            -2.0 * np.sin(x) * np.sin(2 * y) * np.cos(z),
            -np.sin(x) * np.cos(2 * y) * np.sin(z))
        pv = leray_project(grad)
        assert np.abs(pv.values).max() < 1e-13

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_projection_properties(self, dim, n):
        rng = np.random.default_rng(3)
        g = GridSpec(dim, n)
        v = random_vector(g, rng)
        pv = leray_project(v)
        scale = l2_scale(v)
        ratio = np.linalg.norm(v.values) / np.linalg.norm(pv.values)
        assert divergence_residual(g, fft(pv)) <= 1e-12 * ratio
        ppv = leray_project(pv)
        assert np.abs(ppv.values - pv.values).max() <= 1e-12 * scale
        w = random_vector(g, rng)
        assert np.vdot(pv.values, w.values) == pytest.approx(
            np.vdot(v.values, leray_project(w).values), rel=1e-12)
        assert np.abs(integral(pv) - integral(v)).max() < 1e-13 * g.volume

    def test_nonfinite_rejected(self):
        g = GridSpec(2, 16)
        bad = VectorField.zeros(g)
        bad.values[0, 0, 0] = np.nan
        with pytest.raises(FieldError):
            leray_project(bad)


class TestMollify:
    def test_constant_preserved(self):
        g = GridSpec(3, 16)
        c = ScalarField.full(g, 2.5)
        out = mollify(c, 0.7)
        assert np.abs(out.values - 2.5).max() < 1e-13

    def test_single_mode_damping(self):
        g = GridSpec(3, 16)
        x = g.meshgrid()
        f = ScalarField(g, np.cos(x[0]))
        out = mollify(f, 1.0)
        assert out.values.max() == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_vanishing_width_monotone(self):
        rng = np.random.default_rng(4)
        g = GridSpec(2, 32)
        v = random_scalar(g, rng)
        errs = []
        for eps in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.004):
            diff = mollify(v, eps).values - v.values
            errs.append(np.sqrt(np.sum(diff**2)))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-2 * errs[0]

    def test_norm_nonexpansive_mean_preserved(self):
        rng = np.random.default_rng(5)
        g = GridSpec(3, 16)
        v = random_vector(g, rng)
        out = mollify(v, 0.4)
        assert np.linalg.norm(out.values) <= np.linalg.norm(v.values) * (1 + 1e-14)
        assert np.abs(integral(out) - integral(v)).max() < 1e-13 * g.volume

    def test_commutes_with_projection(self):
        rng = np.random.default_rng(6)
        g = GridSpec(3, 16)
        v = random_vector(g, rng)
        a = mollify(leray_project(v), 0.3)
        b = leray_project(mollify(v, 0.3))
        assert np.abs(a.values - b.values).max() <= 1e-12 * l2_scale(v)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_bad_width_rejected(self, eps):
        g = GridSpec(2, 16)
        with pytest.raises(ValueError):
            mollify(ScalarField.zeros(g), eps)


def test_integral_and_norms():
    g = GridSpec(2, 16)
    one = ScalarField.full(g, 1.0)
    assert integral(one) == pytest.approx(g.volume, rel=1e-14)
    assert divergence_residual(g, fft(VectorField.zeros(g))) == 0.0
