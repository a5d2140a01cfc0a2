"""On-disk formats: run-state snapshots, diagnostics CSV, summaries.

A snapshot is the run state, one NumPy .npz per snapshot with the keys t
(the run's time, step * dt, as its diagnostics record holds it), u and rho
(the gas velocity and added density, grid-shaped), x, xi and w (the particle
positions, velocities and number weights, one row per particle), parents
and radius (how many rows lead as parents, and the fragments' radius).
read_state rebuilds the FluidState and the ParticleCloud from them, so a file
is checked by the same constructors as a state of a run, the one check of
each half.  Neither carries the time, so read_state checks t itself.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import DiagnosticsRecord
from .errors import FieldError
from .fluid import FluidState
from .grid import GridSpec, ScalarField, VectorField
from .kinetic import ParticleCloud


def write_state(path, t: float, fluid: FluidState, cloud: ParticleCloud):
    """Write the run state (t, fluid, cloud) as one .npz; see the module docstring."""
    np.savez(path, t=t, u=fluid.u.values, rho=fluid.rho.values,
             x=cloud.x, xi=cloud.xi, w=cloud.w, parents=cloud.parents, radius=cloud.radius)


def read_state(path) -> tuple[float, FluidState, ParticleCloud]:
    """Rebuild the (t, fluid, cloud) that write_state wrote; the grid is read
    off u's shape, and a non-finite t, u, rho, x, xi, w or radius raises FieldError."""
    with np.load(path, allow_pickle=False) as data:
        if "r" in data.files:
            raise ValueError(f"{path}: the old snapshot layout, with a radius r per particle")
        t = float(data["t"])
        if not np.isfinite(t):
            raise FieldError(f"{path}: time must be finite, got {t}")
        u = data["u"]
        grid = GridSpec(u.ndim - 1, u.shape[-1])
        fluid = FluidState(VectorField(grid, u), ScalarField(grid, data["rho"]))
        cloud = ParticleCloud(*(data[key] for key in ("x", "xi", "w", "parents", "radius")))
    if cloud.dim != grid.dim:
        raise ValueError(f"{path}: {cloud.dim}-D particles on a {grid.dim}-D grid")
    return t, fluid, cloud


def write_diagnostics_csv(path, records: Sequence[DiagnosticsRecord]):
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(records[0].scalars()))
        writer.writeheader()
        for rec in records:
            writer.writerow({k: repr(v) for k, v in rec.scalars().items()})


def read_diagnostics_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return {k: np.array([float(r[k]) for r in rows]) for k in reader.fieldnames}


def write_summary_json(path, summary: dict):
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
                          + "\n")
