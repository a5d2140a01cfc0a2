import numpy as np
import pytest
from conftest import leray, meshgrid
from hypothesis import given, strategies as st

from thinspray.errors import FieldError
from thinspray.grid import (
    TWO_PI,
    GridSpec,
    ScalarField,
    VectorField,
    _mollifier,
    _spectral_tables,
    divergence_residual,
    fft,
    grad_l2_norm_sq,
    ifft,
    integral,
    mollify,
    wrap_to_torus,
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

    @pytest.mark.parametrize("dim,n", [(1, 32), (4, 32), (3, 7), (3, 24), (3, 4)])
    def test_invalid(self, dim, n):
        with pytest.raises(ValueError):
            GridSpec(dim, n)

    def test_field_shape_checked(self):
        g = GridSpec(2, 16)
        with pytest.raises(FieldError):
            ScalarField(g, np.zeros((16, 8)))
        with pytest.raises(FieldError):
            VectorField(g, np.zeros((3, 16, 16)))


def resolved_index(grid):
    """rfftn index of the modes the 2/3 rule keeps: |k_j| < n/3 on every axis."""
    n = grid.n
    full = np.flatnonzero(np.abs(np.fft.fftfreq(n, 1 / n)) < n / 3)
    half = np.flatnonzero(np.fft.rfftfreq(n, 1 / n) < n / 3)
    return (...,) + np.ix_(*[full] * (grid.dim - 1), half)


def band_limited_part(field):
    """The field's values with every mode outside the resolved block zeroed."""
    axes = tuple(range(-field.grid.dim, 0))
    spectrum = np.fft.rfftn(field.values, axes=axes)
    kept = np.zeros_like(spectrum)
    kept[resolved_index(field.grid)] = spectrum[resolved_index(field.grid)]
    return np.fft.irfftn(kept, s=field.grid.shape, axes=axes)


class TestTransforms:
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_round_trip(self, dim, n):
        rng = np.random.default_rng(0)
        g = GridSpec(dim, n)
        s = ScalarField(g, band_limited_part(random_scalar(g, rng)))
        back = ifft(g, fft(g, s.values))
        assert np.abs(back - s.values).max() <= 1e-12 * np.abs(s.values).max()

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_round_trip_keeps_the_band_limited_part(self, dim, n):
        g = GridSpec(dim, n)
        v = random_vector(g, np.random.default_rng(1))
        expected = band_limited_part(v)
        back = ifft(g, fft(g, v.values))
        assert np.abs(back - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(back - v.values).max() > 0.1  # random fields are not band-limited

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 8), (3, 16)])
    @pytest.mark.parametrize("make", [random_scalar, random_vector])
    def test_match_numpy_bit_for_bit(self, dim, n, make):
        # fft is the resolved block of np.fft.rfftn, and ifft is
        # np.fft.irfftn of the block zero-padded: numpy's own passes, in
        # numpy's order, run on the lines that are kept or not all zero
        g = GridSpec(dim, n)
        f = make(g, np.random.default_rng(7))
        axes = tuple(range(-dim, 0))
        spectrum = fft(g, f.values)
        expected = np.fft.rfftn(f.values, axes=axes)[resolved_index(g)]
        assert spectrum.shape == expected.shape
        assert spectrum.tobytes() == expected.tobytes()
        padded = np.zeros(f.values.shape[:-1] + (n // 2 + 1,), dtype=complex)
        padded[resolved_index(g)] = spectrum
        expected = np.fft.irfftn(padded, s=g.shape, axes=axes)
        kept = spectrum.copy()
        back = ifft(g, spectrum)
        assert back.shape == expected.shape
        assert back.tobytes() == expected.tobytes()
        assert spectrum.tobytes() == kept.tobytes()  # the inverse leaves its input

    @given(dim=st.sampled_from([2, 3]), lead=st.sampled_from([(), (3,)]),
           kind=st.sampled_from(["number", "k2", "ik"]), axis=st.integers(0, 2),
           eps=st.floats(0.01, 2.0), seed=st.integers(0, 2**16))
    def test_multiplier_is_the_product_bit_for_bit(self, dim, lead, kind, axis, eps, seed):
        # ifft multiplies each corner of the block as it pads it: the bytes
        # of the product formed first, for a number or an array multiplier,
        # the broadcastable derivative multipliers among them; mollify is
        # ifft of the Gaussian multiplier
        g = GridSpec(dim, 16 if dim == 2 else 8)
        rng = np.random.default_rng(seed)
        spectrum = fft(g, rng.standard_normal(lead + g.shape))
        tab = _spectral_tables(g)
        m = {"number": rng.standard_normal(), "k2": -tab.k2,
             "ik": -1j * tab.k[axis % dim]}[kind]
        kept = spectrum.copy()
        assert ifft(g, spectrum, m).tobytes() == ifft(g, m * spectrum).tobytes()
        assert (mollify(g, eps, spectrum).tobytes()
                == ifft(g, _mollifier(g, eps) * spectrum).tobytes())
        assert spectrum.tobytes() == kept.tobytes()

    def test_gradient_norm_matches_real_space(self):
        g = GridSpec(3, 16)
        x, y, z = meshgrid(g)
        s = ScalarField(g, np.sin(x) * np.cos(2 * y) + 0.5 * np.cos(3 * z - x))
        grad = [np.cos(x) * np.cos(2 * y) + 0.5 * np.sin(3 * z - x),
                -2.0 * np.sin(x) * np.sin(2 * y),
                -1.5 * np.sin(3 * z - x)]
        real = float(sum(np.sum(c**2) for c in grad)) * g.cell_volume
        assert grad_l2_norm_sq(g, fft(g, s.values)) == pytest.approx(real, rel=1e-12)

    def test_dealias_removes_high_modes(self):
        # the 2/3 rule at n = 32 keeps |k| <= 10
        g = GridSpec(2, 32)
        x = meshgrid(g)
        high = ScalarField(g, np.cos(11 * x[0]))
        low = ScalarField(g, np.cos(10 * x[0]) * np.sin(3 * x[1]))
        assert fft(g, high.values).shape == fft(g, low.values).shape == (21, 11)
        assert np.abs(ifft(g, fft(g, high.values))).max() < 1e-13
        assert np.abs(ifft(g, fft(g, low.values)) - low.values).max() < 1e-13


class TestLeray:  # grid.project_spectrum, through conftest.leray
    def test_constant_field_unchanged(self):
        g = GridSpec(3, 16)
        v = VectorField(g, np.stack([np.full(g.shape, 1.0),
                                     np.zeros(g.shape), np.zeros(g.shape)]))
        pv = leray(v)
        assert np.abs(pv.values - v.values).max() < 1e-13

    def test_pure_gradient_annihilated(self):
        # grad of sin(x) cos(2y) cos(z)
        g = GridSpec(3, 16)
        x, y, z = meshgrid(g)
        grad = VectorField.from_components(
            g, np.cos(x) * np.cos(2 * y) * np.cos(z),
            -2.0 * np.sin(x) * np.sin(2 * y) * np.cos(z),
            -np.sin(x) * np.cos(2 * y) * np.sin(z))
        pv = leray(grad)
        assert np.abs(pv.values).max() < 1e-13

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_projection_properties(self, dim, n):
        rng = np.random.default_rng(3)
        g = GridSpec(dim, n)
        v = random_vector(g, rng)
        pv = leray(v)
        scale = l2_scale(v)
        ratio = np.linalg.norm(v.values) / np.linalg.norm(pv.values)
        assert divergence_residual(g, fft(g, pv.values)) <= 1e-12 * ratio
        ppv = leray(pv)
        assert np.abs(ppv.values - pv.values).max() <= 1e-12 * scale
        w = random_vector(g, rng)
        assert np.vdot(pv.values, w.values) == pytest.approx(
            np.vdot(v.values, leray(w).values), rel=1e-12)
        assert np.abs(integral(pv) - integral(v)).max() < 1e-13 * g.volume


class TestMollify:
    def test_constant_preserved(self):
        g = GridSpec(3, 16)
        c = ScalarField(g, np.full(g.shape, 2.5))
        out = mollify(g, 0.7, fft(g, c.values))
        assert np.abs(out - 2.5).max() < 1e-13

    def test_single_mode_damping(self):
        g = GridSpec(3, 16)
        x = meshgrid(g)
        f = ScalarField(g, np.cos(x[0]))
        out = mollify(g, 1.0, fft(g, f.values))
        assert out.max() == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_vanishing_width_monotone(self):
        rng = np.random.default_rng(4)
        g = GridSpec(2, 32)
        v = ScalarField(g, band_limited_part(random_scalar(g, rng)))
        errs = []
        for eps in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.004):
            diff = mollify(g, eps, fft(g, v.values)) - v.values
            errs.append(np.sqrt(np.sum(diff**2)))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-2 * errs[0]

    def test_norm_nonexpansive_mean_preserved(self):
        rng = np.random.default_rng(5)
        g = GridSpec(3, 16)
        v = random_vector(g, rng)
        out = VectorField(g, mollify(g, 0.4, fft(g, v.values)))
        assert np.linalg.norm(out.values) <= np.linalg.norm(v.values) * (1 + 1e-14)
        assert np.abs(integral(out) - integral(v)).max() < 1e-13 * g.volume

    def test_commutes_with_projection(self):
        rng = np.random.default_rng(6)
        g = GridSpec(3, 16)
        v = random_vector(g, rng)
        pv = leray(v)
        a = mollify(g, 0.3, fft(g, pv.values))
        b = leray(VectorField(g, mollify(g, 0.3, fft(g, v.values))))
        assert np.abs(a - b.values).max() <= 1e-12 * l2_scale(v)

    def test_given_spectrum_left_as_it_is(self):
        # a caller hands in the spectrum it keeps (FluidState.u_hat)
        g = GridSpec(3, 16)
        v = random_vector(g, np.random.default_rng(8))
        spectrum = fft(g, v.values)
        kept = spectrum.copy()
        mollify(g, 0.3, spectrum)
        assert spectrum.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_bad_width_rejected(self, eps):
        g = GridSpec(2, 16)
        with pytest.raises(ValueError):
            mollify(g, eps, fft(g, np.zeros(g.shape)))


def test_integral_and_norms():
    g = GridSpec(2, 16)
    one = ScalarField(g, np.full(g.shape, 1.0))
    assert integral(one) == pytest.approx(g.volume, rel=1e-14)
    assert divergence_residual(g, fft(g, np.zeros((2,) + g.shape))) == 0.0


def test_wrap_to_torus_at_the_seam():
    # the remainder of -1e-17 rounds up to 2π, which the torus holds as 0
    x = np.array([-1e-17, TWO_PI, 2 * TWO_PI - np.spacing(2 * TWO_PI), -2 * TWO_PI])
    got = wrap_to_torus(x)
    assert np.array_equal(got, [0.0, 0.0, TWO_PI - np.spacing(2 * TWO_PI), 0.0])
    assert not np.signbit(got).any()
    assert np.all((got >= 0.0) & (got < TWO_PI))
    # the two rules it replaces, the push's and the merge's, agree bit for bit
    push = np.mod(x, TWO_PI)
    push = np.where(push == TWO_PI, 0.0, push)
    merge = np.remainder(x, TWO_PI)
    merge[merge == TWO_PI] = 0.0
    assert got.tobytes() == push.tobytes() == merge.tobytes()
