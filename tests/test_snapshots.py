import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from thinspray.diagnostics import DiagnosticsRecord
from thinspray.grid import GridSpec, ScalarField, VectorField
from thinspray.kinetic import ParticleCloud
from thinspray.snapshots import (
    read_diagnostics_csv,
    read_field,
    read_particles,
    write_diagnostics_csv,
    write_field,
    write_particles,
    write_summary_json,
)


def test_scalar_field_round_trip(tmp_path):
    g = GridSpec(3, 16)
    rng = np.random.default_rng(0)
    field = ScalarField(g, rng.standard_normal(g.shape))
    path = tmp_path / "scalar.field"
    write_field(path, field, time=1.25)
    back, t = read_field(path)
    assert isinstance(back, ScalarField)
    assert back.grid == g
    assert t == 1.25
    assert np.array_equal(back.values, field.values)


def test_vector_field_round_trip(tmp_path):
    g = GridSpec(2, 32)
    rng = np.random.default_rng(1)
    field = VectorField(g, rng.standard_normal((2,) + g.shape))
    path = tmp_path / "vector.field"
    write_field(path, field, time=0.5)
    back, t = read_field(path)
    assert isinstance(back, VectorField)
    assert np.array_equal(back.values, field.values)


def test_field_header_layout(tmp_path):
    g = GridSpec(2, 16)
    path = tmp_path / "layout.field"
    write_field(path, ScalarField.full(g, 2.0), time=0.0)
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    assert header == {"dim": 2, "n": 16, "length": g.length,
                      "components": 1, "time": 0.0}
    body = np.frombuffer(raw[newline + 1:], dtype="<f8")
    assert body.size == 16 * 16
    assert np.all(body == 2.0)


def test_particle_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    cloud = ParticleCloud(
        rng.uniform(0, 2 * np.pi, (100, 3)),
        rng.standard_normal((100, 3)),
        rng.uniform(0, 1, 100),
        rng.choice([1.0, 0.3], 100),
    )
    path = tmp_path / "cloud.particles"
    write_particles(path, cloud, time=0.75)
    back, t = read_particles(path)
    assert t == 0.75
    assert np.array_equal(back.x, cloud.x)
    assert np.array_equal(back.xi, cloud.xi)
    assert np.array_equal(back.w, cloud.w)
    assert np.array_equal(back.r, cloud.r)


def test_particles_of_another_layout_rejected(tmp_path):
    # a file of the species layout: its last column holds tags 1 and 2, not radii
    header = {"dim": 2, "count": 2, "columns": ["x0", "x1", "xi0", "xi1", "w", "species"],
              "time": 0.0}
    table = np.array([[0.5, 0.5, 0.0, 0.0, 1.0, 1.0], [1.5, 1.5, 0.0, 0.0, 1.0, 2.0]])
    path = tmp_path / "old.particles"
    path.write_bytes((json.dumps(header) + "\n").encode("ascii") + table.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="species"):
        read_particles(path)


@st.composite
def _clouds(draw):
    """Any finite cloud, empty ones included, with a finite snapshot time."""
    dim = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(0, 30))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    x = draw(arrays(np.float64, (count, dim), elements=finite))
    xi = draw(arrays(np.float64, (count, dim), elements=finite))
    w = draw(arrays(np.float64, count, elements=st.floats(0.0, allow_infinity=False)))
    r = draw(arrays(np.float64, count, elements=st.floats(0.0, allow_infinity=False,
                                                          exclude_min=True)))
    return ParticleCloud(x, xi, w, r), draw(finite)


@example((ParticleCloud.empty(3), 0.0))
@given(_clouds())
def test_property_particle_round_trip_bit_exact(tmp_path_factory, case):
    cloud, time = case
    path = tmp_path_factory.mktemp("round_trip") / "cloud.particles"
    write_particles(path, cloud, time=time)
    back, t = read_particles(path)
    assert np.float64(t).tobytes() == np.float64(time).tobytes()
    for name in ("x", "xi", "w", "r"):
        a, b = getattr(back, name), getattr(cloud, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_record(t):
    return DiagnosticsRecord(
        t=t, e_kinetic_spray=0.1, e_fluid=1.0, dissipation_visc=2.0,
        dissipation_drag=0.3, m0=0.5, m1=np.array([0.1, 0.2, 0.3]), m2=0.7,
        total_momentum=np.array([1.0, -1.0, 0.0]), mass_f=0.5, mass_rho=0.2,
        div_residual=1e-15)


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


def test_empty_records_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_diagnostics_csv(tmp_path / "x.csv", [])
