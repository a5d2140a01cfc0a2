"""On-disk formats: binary field/particle snapshots, diagnostics CSV, summaries.

A snapshot file is one line of JSON (terminated by a newline) followed by the
raw array data as little-endian 64-bit floats in row-major order.  Field
headers carry {dim, n, length, components, time}; particle headers carry
{dim, count, columns, time} with columns x|xi|w|r (r the droplet radius); a
particle file whose columns differ is rejected.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import DiagnosticsRecord
from .grid import GridSpec, ScalarField, VectorField
from .kinetic import ParticleCloud


def write_field(path, field: ScalarField | VectorField, time: float = 0.0):
    grid = field.grid
    components = grid.dim if isinstance(field, VectorField) else 1
    header = {
        "dim": grid.dim,
        "n": grid.n,
        "length": grid.length,
        "components": components,
        "time": float(time),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path) -> tuple[ScalarField | VectorField, float]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    grid = GridSpec(int(header["dim"]), int(header["n"]), float(header["length"]))
    components = int(header["components"])
    if components == 1:
        field = ScalarField(grid, raw.reshape(grid.shape).copy())
    else:
        field = VectorField(grid, raw.reshape((components,) + grid.shape).copy())
    return field, float(header["time"])


def _particle_columns(dim: int) -> list[str]:
    return [f"x{ax}" for ax in range(dim)] + [f"xi{ax}" for ax in range(dim)] + ["w", "r"]


def write_particles(path, cloud: ParticleCloud, time: float = 0.0):
    header = {"dim": cloud.dim, "count": cloud.count,
              "columns": _particle_columns(cloud.dim), "time": float(time)}
    table = np.concatenate([cloud.x, cloud.xi, cloud.w[:, None], cloud.r[:, None]], axis=1)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(table, dtype="<f8").tobytes())


def read_particles(path) -> tuple[ParticleCloud, float]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    dim, count = int(header["dim"]), int(header["count"])
    columns = _particle_columns(dim)
    if header.get("columns") != columns:
        raise ValueError(f"{path}: particle columns {header.get('columns')} are not {columns}")
    table = raw.reshape(count, 2 * dim + 2)
    cloud = ParticleCloud(
        table[:, :dim].copy(),
        table[:, dim:2 * dim].copy(),
        table[:, 2 * dim].copy(),
        table[:, 2 * dim + 1].copy(),
    )
    return cloud, float(header["time"])


def diagnostics_columns(records: Sequence[DiagnosticsRecord]) -> list[str]:
    return list(records[0].scalars().keys())


def write_diagnostics_csv(path, records: Sequence[DiagnosticsRecord]):
    if not records:
        raise ValueError("no records to write")
    columns = diagnostics_columns(records)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for rec in records:
            writer.writerow({k: repr(v) for k, v in rec.scalars().items()})


def read_diagnostics_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return {k: np.array([float(r[k]) for r in rows]) for k in reader.fieldnames}


def write_summary_json(path, summary: dict):
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
