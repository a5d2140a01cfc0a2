import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from thinspray.diagnostics import DiagnosticsRecord
from thinspray.errors import FieldError
from thinspray.fluid import FluidState
from thinspray.grid import GridSpec, ScalarField, VectorField
from thinspray.kinetic import ParticleCloud
from thinspray.snapshots import (
    read_diagnostics_csv,
    read_state,
    write_diagnostics_csv,
    write_state,
    write_summary_json,
)


@st.composite
def _states(draw):
    """Any valid (t, fluid, cloud) of 2-D or 3-D, empty clouds included, at
    any finite time t: u finite, rho finite and nonnegative, any parent
    count, the fragment radius positive."""
    dim = draw(st.sampled_from([2, 3]))
    grid = GridSpec(dim, 8)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    # the spectrum FluidState takes of u overflows near the float limit
    u = draw(arrays(np.float64, (dim,) + grid.shape, elements=st.floats(-1e300, 1e300)))
    rho = draw(arrays(np.float64, grid.shape, elements=st.floats(0.0, allow_infinity=False)))
    count = draw(st.integers(0, 30))
    x = draw(arrays(np.float64, (count, dim), elements=finite))
    xi = draw(arrays(np.float64, (count, dim), elements=finite))
    w = draw(arrays(np.float64, count, elements=st.floats(0.0, allow_infinity=False)))
    parents = draw(st.integers(0, count))
    radius = draw(st.floats(0.0, allow_infinity=False, exclude_min=True))
    fluid = FluidState(VectorField(grid, u), ScalarField(grid, rho))
    return draw(finite), fluid, ParticleCloud(x, xi, w, parents, radius)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _run_state(dim=2, count=5, t=0.25):
    grid = GridSpec(dim, 8)
    rng = np.random.default_rng(dim)
    fluid = FluidState(VectorField(grid, rng.standard_normal((dim,) + grid.shape)),
                       ScalarField(grid, rng.uniform(0, 1, grid.shape)))
    cloud = ParticleCloud(rng.uniform(0, 2 * np.pi, (count, dim)),
                          rng.standard_normal((count, dim)), rng.uniform(0, 1, count),
                          count // 2, 0.3)
    return t, fluid, cloud


@example(_run_state(3, count=0, t=0.0))
@given(_states())
def test_property_state_round_trip_bit_exact(tmp_path_factory, state):
    t, fluid, cloud = state
    path = tmp_path_factory.mktemp("round_trip") / "state.npz"
    write_state(path, t, fluid, cloud)
    back_t, back_fluid, back_cloud = read_state(path)
    assert back_fluid.u.grid == fluid.u.grid
    assert np.float64(back_t).tobytes() == np.float64(t).tobytes()
    assert _same_bytes(back_fluid.u.values, fluid.u.values)
    assert _same_bytes(back_fluid.rho.values, fluid.rho.values)
    for name in ("x", "xi", "w"):
        assert _same_bytes(getattr(back_cloud, name), getattr(cloud, name)), name
    assert type(back_cloud.parents) is int and back_cloud.parents == cloud.parents
    assert type(back_cloud.radius) is float
    assert np.float64(back_cloud.radius).tobytes() == np.float64(cloud.radius).tobytes()


def test_state_file_layout(tmp_path):
    # a plain .npz: NumPy alone reads it, one array per key of the state
    path = tmp_path / "state.npz"
    write_state(path, *_run_state(dim=3, count=4, t=1.5))
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == ["parents", "radius", "rho", "t", "u", "w", "x", "xi"]
        assert data["t"].shape == () and data["t"] == 1.5
        assert data["u"].shape == (3, 8, 8, 8) and data["rho"].shape == (8, 8, 8)
        assert data["x"].shape == data["xi"].shape == (4, 3)
        assert data["w"].shape == (4,)
        assert data["parents"].shape == data["radius"].shape == ()
        assert data["parents"] == 2 and data["radius"] == 0.3


def _rewritten(path, **changes):
    """The state file at path with keys replaced, or dropped when None."""
    with np.load(path, allow_pickle=False) as data:
        arrays_ = {key: data[key] for key in data.files}
    arrays_.update(changes)
    np.savez(path, **{k: v for k, v in arrays_.items() if v is not None})


@pytest.mark.parametrize("changes, error", [
    pytest.param(dict(w=None), KeyError, id="missing-key"),
    pytest.param(dict(rho=np.zeros((8, 4))), FieldError, id="rho-shape"),
    pytest.param(dict(rho=np.full((8, 8), -1.0)), FieldError, id="negative-rho"),
    pytest.param(dict(radius=np.float64(0.0)), ValueError, id="zero-radius"),
    pytest.param(dict(parents=np.int64(6)), ValueError, id="parents-beyond-the-cloud"),
    pytest.param(dict(parents=np.float64(1.5)), ValueError, id="fractional-parents"),
    pytest.param(dict(xi=np.zeros((5, 3))), ValueError, id="xi-shape"),
    pytest.param(dict(x=np.ones((5, 3)), xi=np.zeros((5, 3))), ValueError, id="cloud-dim"),
    pytest.param(dict(x=np.full((5, 2), np.nan)), FieldError, id="nan-x"),
    pytest.param(dict(xi=np.full((5, 2), np.inf)), FieldError, id="inf-xi"),
    pytest.param(dict(w=np.array([1.0, np.nan, 1.0, 1.0, 1.0])), FieldError, id="nan-w"),
    pytest.param(dict(w=np.array([1.0, 1.0, np.inf, 1.0, 1.0])), FieldError, id="inf-w"),
    pytest.param(dict(radius=np.float64(np.inf)), FieldError, id="inf-radius"),
    pytest.param(dict(t=np.float64(np.nan)), FieldError, id="nan-t"),
    pytest.param(dict(t=np.float64(-np.inf)), FieldError, id="inf-t"),
])
def test_malformed_state_rejected(tmp_path, changes, error):
    path = tmp_path / "state.npz"
    write_state(path, *_run_state(dim=2, count=5))
    _rewritten(path, **changes)
    with pytest.raises(error):
        read_state(path)


@given(_states(), st.data())
def test_property_non_finite_entry_rejected(tmp_path_factory, state, data):
    # the constructors are the one check of the state: a NaN or ±inf at any
    # entry of any of its arrays is a FieldError; no constructor holds the
    # time, so read_state rejects a non-finite t itself
    t, fluid, cloud = state
    parts = {"u": fluid.u.values, "rho": fluid.rho.values, "t": np.array(t),
             "x": cloud.x, "xi": cloud.xi, "w": cloud.w, "radius": np.array(cloud.radius)}
    name = data.draw(st.sampled_from([k for k, v in parts.items() if v.size]))
    parts[name] = bad = parts[name].copy()
    bad.flat[data.draw(st.integers(0, bad.size - 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    grid = fluid.u.grid
    with pytest.raises(FieldError):
        if name == "t":
            path = tmp_path_factory.mktemp("non_finite_t") / "state.npz"
            write_state(path, float(parts["t"]), fluid, cloud)
            read_state(path)
        elif name in ("u", "rho"):
            FluidState(VectorField(grid, parts["u"]), ScalarField(grid, parts["rho"]))
        else:
            ParticleCloud(parts["x"], parts["xi"], parts["w"], cloud.parents, parts["radius"])


def test_particles_of_another_layout_rejected(tmp_path):
    # a state of a species layout: tags 1 and 2 under "species", no counts
    path = tmp_path / "old.npz"
    write_state(path, *_run_state(dim=2, count=2))
    _rewritten(path, parents=None, radius=None, species=np.array([1.0, 2.0]))
    with pytest.raises(KeyError, match="parents is not a file"):
        read_state(path)


def test_state_with_a_radius_per_particle_rejected(tmp_path):
    # the older layout, a radius r per particle, says which layout it is
    path = tmp_path / "old.npz"
    write_state(path, *_run_state(dim=2, count=3))
    _rewritten(path, parents=None, radius=None, r=np.array([1.0, 0.3, 0.3]))
    with pytest.raises(ValueError, match="radius r per particle"):
        read_state(path)


def make_record(t):
    return DiagnosticsRecord(
        t=t, e_kinetic_spray=0.1, e_fluid=1.0, dissipation_visc=2.0,
        dissipation_drag=0.3, m0=0.5, m1=np.array([0.1, 0.2, 0.3]), m2=0.7,
        total_momentum=np.array([1.0, -1.0, 0.0]), volume=0.5, mass_rho=0.2,
        div_residual=1e-15, r1=0.0, r2=0.0, r3=0.0, cut_weight=0.0)


def test_diagnostics_csv_round_trip(tmp_path):
    records = [make_record(0.0), make_record(0.1)]
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, records)
    data = read_diagnostics_csv(path)
    assert list(data["t"]) == [0.0, 0.1]
    assert data["m1_y"][0] == 0.2
    assert data["total_momentum_z"][1] == 0.0
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert "e_kinetic_spray" in header and "div_residual" in header


def test_summary_json(tmp_path):
    path = tmp_path / "summary.json"
    write_summary_json(path, {"b": 1, "a": {"pass": True}})
    loaded = json.loads(path.read_text())
    assert loaded == {"b": 1, "a": {"pass": True}}


def test_summary_json_rejects_nan(tmp_path):
    # NaN is not JSON: a strict parser would reject the file
    with pytest.raises(ValueError, match="JSON"):
        write_summary_json(tmp_path / "summary.json", {"slope": float("nan")})


def test_empty_records_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_diagnostics_csv(tmp_path / "x.csv", [])
