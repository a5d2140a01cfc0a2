import numpy as np
import pytest
from conftest import meshgrid
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from thinspray.grid import GridSpec, ScalarField, VectorField, integral
from thinspray.transfer import _CHUNK, _corner_flats_weights, cic_gather, cic_scatter


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_wrap_positions_into_period():
    g = GridSpec(2, 16)
    x = np.array([[-0.1, 7.0], [2 * np.pi, 100.0]])
    wrapped = np.mod(x, g.length)
    assert np.all(wrapped >= 0) and np.all(wrapped < g.length)


def test_scatter_mass_exact(rng):
    g = GridSpec(3, 16)
    x = rng.uniform(0, g.length, (40_000, 3))
    w = rng.uniform(0, 2, 40_000)
    dens = cic_scatter(g, x, w)
    assert integral(ScalarField(g, dens)) == pytest.approx(w.sum(), rel=1e-13)


def test_scatter_gather_adjoint(rng):
    g = GridSpec(3, 16)
    x = rng.uniform(0, g.length, (5_000, 3))
    q = rng.uniform(0, 1, 5_000)
    f = ScalarField(g, rng.standard_normal(g.shape))
    lhs = float(np.sum(cic_scatter(g, x, q) * f.values)) * g.cell_volume
    rhs = float(np.sum(q * cic_gather(f, x)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gather_constant_field(rng):
    g = GridSpec(2, 16)
    x = rng.uniform(0, g.length, (1_000, 2))
    c = ScalarField(g, np.full(g.shape, -1.75))
    assert np.abs(cic_gather(c, x) + 1.75).max() < 1e-13


def test_gather_vector_shape(rng):
    g = GridSpec(3, 16)
    x = rng.uniform(0, g.length, (100, 3))
    v = VectorField(g, np.stack([np.full(g.shape, i + 1.0) for i in range(3)]))
    out = cic_gather(v, x)
    assert out.shape == (100, 3)
    assert np.abs(out - np.array([1.0, 2.0, 3.0])).max() < 1e-13


def test_gather_multilinear_exact_inside_cell():
    # a field linear in each coordinate is reproduced exactly away from the seam
    g = GridSpec(2, 16)
    mesh = meshgrid(g)
    f = ScalarField(g, 2.0 * mesh[0] - 0.5 * mesh[1])
    pts = np.array([[1.234, 2.345], [0.5, 0.5], [3.0, 1.7]])
    exact = 2.0 * pts[:, 0] - 0.5 * pts[:, 1]
    assert np.abs(cic_gather(f, pts) - exact).max() < 1e-12


def test_gather_second_order_convergence(rng):
    pts = rng.uniform(0, 2 * np.pi, (500, 2))
    exact = np.sin(pts[:, 0]) * np.cos(pts[:, 1])
    errs = []
    for n in (16, 32, 64):
        g = GridSpec(2, n)
        mesh = meshgrid(g)
        f = ScalarField(g, np.sin(mesh[0]) * np.cos(mesh[1]))
        errs.append(np.abs(cic_gather(f, pts) - exact).max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def _assert_stacks_scalar_scatters(g, x, w, v):
    """cic_scatter(g, x, w, v) is, bit for bit, the scalar scatter of w
    followed by the scalar scatters of the whole-array charges w * v[:, j]."""
    out = cic_scatter(g, x, w, v)
    assert out.shape == (1 + v.shape[1],) + g.shape
    assert np.array_equal(out[0], cic_scatter(g, x, w))
    for j in range(v.shape[1]):
        assert np.array_equal(out[1 + j], cic_scatter(g, x, w * v[:, j]))
    return out


def test_scatter_multicolumn_consistent(rng):
    g = GridSpec(2, 16)
    count = 2 * _CHUNK + 500  # three chunks
    x = rng.uniform(0, g.length, (count, 2))
    w = rng.uniform(0, 1, count)
    v = np.column_stack([np.full(count, 3.0), rng.standard_normal(count)])
    out = _assert_stacks_scalar_scatters(g, x, w, v)
    assert np.abs(out[1] - 3.0 * out[0]).max() < 1e-12


def test_scatter_deterministic(rng):
    g = GridSpec(3, 16)
    x = rng.uniform(0, g.length, (10_000, 3))
    w = rng.uniform(0, 1, 10_000)
    a = cic_scatter(g, x, w)
    b = cic_scatter(g, x, w)
    assert np.array_equal(a, b)


def test_particle_on_node_hits_single_cell():
    g = GridSpec(2, 16)
    x = np.array([[g.h * 3, g.h * 5]])
    dens = cic_scatter(g, x, np.array([2.0]))
    assert dens[3, 5] == pytest.approx(2.0 / g.cell_volume, rel=1e-14)
    assert np.count_nonzero(dens) == 1


def _reference_corner_table(grid, x):
    """The corner table built by re-wrapping x in floating point and fancy
    indexing per-axis pairs with the corner code bits; the kernel must
    reproduce it bit for bit on [0, length)."""
    s = np.mod(x, grid.length) / grid.h
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    np.mod(i0, grid.n, out=i0)
    w = flat = None
    for ax in range(grid.dim):
        stride = grid.n ** (grid.dim - 1 - ax)
        pair_w = np.stack([1.0 - frac[:, ax], frac[:, ax]])
        pair_f = np.stack([i0[:, ax] * stride, ((i0[:, ax] + 1) % grid.n) * stride])
        bits = np.array([(code >> ax) & 1 for code in range(2**grid.dim)])
        if w is None:
            w, flat = pair_w[bits], pair_f[bits]
        else:
            w *= pair_w[bits]
            flat += pair_f[bits]
    return flat, w


@pytest.mark.parametrize("dim", [2, 3])
def test_corner_table_matches_reference_kernel(rng, dim):
    g = GridSpec(dim, 16)
    x = rng.uniform(0, g.length, (3_000, dim))
    x[:dim, :] = g.axis_points()[[0, 5, 15]][:dim, None]  # points on nodes
    flat, w = _corner_flats_weights(g, x)
    ref_flat, ref_w = _reference_corner_table(g, x)
    assert np.array_equal(flat, ref_flat) and np.array_equal(w, ref_w)


@pytest.mark.parametrize("periods", [1.0, -3.0])
def test_positions_outside_the_period_match_wrapped(rng, periods):
    g = GridSpec(3, 16)
    x = rng.uniform(0, g.length, (3_000, 3)) + periods * g.length
    wrapped = np.mod(x, g.length)
    u = VectorField(g, rng.standard_normal((3,) + g.shape))
    w = rng.uniform(0, 1, 3_000)
    v = rng.standard_normal((3_000, 3))
    assert np.abs(cic_gather(u, x) - cic_gather(u, wrapped)).max() < 1e-13
    dens, dens_wrapped = cic_scatter(g, x, w, v), cic_scatter(g, wrapped, w, v)
    assert np.abs(dens - dens_wrapped).max() < 1e-13 * np.abs(dens_wrapped).max()


@pytest.mark.parametrize("coord", [-1e-17, 2 * np.pi])
def test_positions_at_the_seam_match_zero(rng, coord):
    # both wrap to 0: -1e-17 lies below the seam, 2*pi is the period itself
    g = GridSpec(2, 16)
    f = ScalarField(g, rng.standard_normal(g.shape))
    x = np.array([[coord, 1.0], [2.5, coord]])
    at_zero = np.array([[0.0, 1.0], [2.5, 0.0]])
    assert np.abs(cic_gather(f, x) - cic_gather(f, at_zero)).max() < 1e-13
    q = np.array([1.0, 2.0])
    assert np.abs(cic_scatter(g, x, q) - cic_scatter(g, at_zero, q)).max() < 1e-13


def test_chunk_charges_equal_array_charges(rng):
    # the charges w * v_j formed chunk by chunk make the same sums as the
    # whole-array charges, positions outside the period included
    g = GridSpec(3, 16)
    x = rng.uniform(-g.length, 2 * g.length, (20_000, 3))  # several chunks
    w = rng.uniform(0, 1, 20_000)
    _assert_stacks_scalar_scatters(g, x, w, rng.standard_normal((20_000, 3)))


def _fixed_chunks(grid, x):
    """The chunks of _CHUNK rows whatever the grid, as transfer._chunks cuts
    a cloud on a grid of at most 2 * _CHUNK^(1/dim) nodes per axis."""
    for start in range(0, x.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        yield (sl, *_corner_flats_weights(grid, x[sl]))


@pytest.mark.parametrize("count, tables", [(32_768, [32_768]), (32_769, [32_768, 1])],
                         ids=["one-chunk", "two-chunks"])
def test_chunks_are_sized_from_the_grid(monkeypatch, rng, count, tables):
    # on a 64^3 grid a chunk holds (n/2)^3 = 32,768 particles, one table
    # entry per grid cell, so each deposit row's grid-sized bincount output
    # costs no more than the entries it sums
    import thinspray.transfer as tr

    g = GridSpec(3, 64)
    x = rng.uniform(0, g.length, (count, 3))
    w = rng.uniform(0, 1, count)
    v = rng.standard_normal((count, 3))
    field = VectorField(g, rng.standard_normal((3,) + g.shape))
    built = []

    def counted(grid, x, _real=tr._corner_flats_weights):
        built.append(x.shape[0])
        return _real(grid, x)
    monkeypatch.setattr(tr, "_corner_flats_weights", counted)
    dens, at_x = cic_scatter(g, x, w, v, gather=field)
    assert built == tables
    monkeypatch.undo()
    assert np.array_equal(dens, cic_scatter(g, x, w, v))
    assert np.array_equal(at_x, cic_gather(field, x))
    monkeypatch.setattr(tr, "_chunks", _fixed_chunks)
    small_dens, small_at_x = cic_scatter(g, x, w, v, gather=field)
    for row, small_row in zip(dens, small_dens):
        assert np.abs(row - small_row).max() <= 1e-12 * np.abs(small_row).max()
    assert np.array_equal(at_x, small_at_x)


@pytest.mark.parametrize("n", [32, 64], ids=["several-chunks", "one-chunk"])
def test_pass_does_not_depend_on_row_order(rng, n):
    # a row-permuted cloud, as the sampler's block order is, deposits the
    # same densities up to summation rounding and gathers the same rows,
    # permuted, bit for bit: 20k rows are three chunks at n=32 and one at n=64
    g = GridSpec(3, n)
    count = 20_000
    x = rng.uniform(0, g.length, (count, 3))
    w = rng.uniform(0, 1, count)
    v = rng.standard_normal((count, 3))
    field = VectorField(g, rng.standard_normal((3,) + g.shape))
    perm = rng.permutation(count)
    dens, at_x = cic_scatter(g, x, w, v, gather=field)
    moved_dens, moved_at_x = cic_scatter(g, x[perm], w[perm], v[perm], gather=field)
    for row, moved_row in zip(dens, moved_dens):
        assert np.abs(moved_row - row).max() <= 1e-12 * np.abs(row).max()
    assert np.array_equal(moved_at_x, at_x[perm])


_LENGTH = 2 * np.pi


def _positions(count, dim):
    """Positions drawn from [-2L, 3L): two periods below and above the box."""
    return arrays(np.float64, (count, dim),
                  elements=st.floats(-2 * _LENGTH, 3 * _LENGTH, exclude_max=True))


@st.composite
def _transfer_cases(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([8, 16]))
    count = draw(st.integers(1, 40))
    x = draw(_positions(count, dim))
    q = draw(arrays(np.float64, count, elements=st.floats(0.0, 10.0, allow_subnormal=False)))
    seed = draw(st.integers(0, 2**32 - 1))
    return GridSpec(dim, n), x, q, seed


@given(_transfer_cases())
def test_property_scatter_gather_adjoint(case):
    g, x, q, seed = case
    f = ScalarField(g, np.random.default_rng(seed).standard_normal(g.shape))
    lhs = float(np.sum(cic_scatter(g, x, q) * f.values)) * g.cell_volume
    rhs = float(np.sum(q * cic_gather(f, x)))
    scale = float(np.sum(q)) * float(np.abs(f.values).max())
    assert abs(lhs - rhs) <= 1e-12 * scale + 1e-300


@given(_transfer_cases())
def test_property_scatter_conserves_mass(case):
    g, x, q, _ = case
    total = integral(ScalarField(g, cic_scatter(g, x, q)))
    assert abs(total - float(np.sum(q))) <= 1e-13 * float(np.sum(q))


@st.composite
def _gather_cases(draw):
    """A scalar or vector field of any magnitude, Gaussian or of two levels
    (whose cells often hold one level at every corner), and positions near
    the box or up to 1e6 away from it."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([8, 16]))
    count = draw(st.integers(1, 40))
    bound = draw(st.sampled_from([3 * _LENGTH, 1e6]))
    x = draw(arrays(np.float64, (count, dim), elements=st.floats(-bound, bound)))
    scale = draw(st.floats(0.0, 1e6))
    vector, two_level = draw(st.booleans()), draw(st.booleans())
    return GridSpec(dim, n), x, scale, vector, two_level, draw(st.integers(0, 2**32 - 1))


@given(_gather_cases())
def test_property_gather_is_a_convex_combination(case):
    # every gathered value lies between the field's extremes, per component:
    # the discrete maximum principle of the density transport rests on this
    g, x, scale, vector, two_level, seed = case
    shape = ((g.dim,) if vector else ()) + g.shape
    rng = np.random.default_rng(seed)
    unit = rng.integers(0, 2, shape) - 0.5 if two_level else rng.standard_normal(shape)
    values = scale * unit
    field = VectorField(g, values) if vector else ScalarField(g, values)
    comps = values.reshape(-1, g.n**g.dim)
    got = cic_gather(field, x).reshape(len(x), -1)
    tol = 1e-14 * float(np.abs(values).max())
    assert np.all(got >= comps.min(axis=1) - tol)
    assert np.all(got <= comps.max(axis=1) + tol)


@st.composite
def _pass_cases(draw):
    """Positions up to two periods below and above the box, half of them on
    grid nodes, for an empty cloud, a few particles or one chunk give or
    take one, velocities or none, and a vector field to gather."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([8, 16]))
    count = draw(st.sampled_from([0, 1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-2 * _LENGTH, 3 * _LENGTH, (count, dim))
    x[:count // 2] = np.floor(x[:count // 2] / (_LENGTH / n)) * (_LENGTH / n)  # on nodes
    w = rng.uniform(0.0, 2.0, count)
    v = rng.standard_normal((count, dim)) if draw(st.booleans()) else None
    g = GridSpec(dim, n)
    return g, x, w, v, VectorField(g, rng.standard_normal((dim,) + g.shape))


@given(_pass_cases())
def test_property_pass_matches_one_sided_calls(case):
    # a scatter that also gathers returns, bit for bit, the deposit alone
    # and the gather alone
    g, x, w, v, field = case
    dens, gathered = cic_scatter(g, x, w, v, gather=field)
    assert np.array_equal(dens, cic_scatter(g, x, w, v))
    assert np.array_equal(gathered, cic_gather(field, x))
    assert gathered.shape == (len(x), g.dim)
