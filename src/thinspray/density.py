"""Transport of the added carrier density by the fluid velocity.

Semi-Lagrangian update: backtrack the characteristic foot with one midpoint
iteration, gather the old density with clamped multilinear interpolation
(a convex combination, so nonnegativity holds by construction), rescale the
advected field to the old total mass, which interpolation alone does not
keep, then add dt * source.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fluid import check_cfl
from .grid import GridSpec, ScalarField, VectorField, require_same_grid
from .transfer import cic_gather


@dataclass
class DensityField:
    rho: ScalarField

    def __post_init__(self):
        if self.rho.values.min() < 0:
            raise ValueError("added density must be nonnegative")


@lru_cache(maxsize=16)
def _grid_nodes(grid: GridSpec) -> np.ndarray:
    return grid.nodes()


def density_step(density: DensityField, u: VectorField, source: ScalarField,
                 dt: float) -> DensityField:
    """One semi-Lagrangian transport step with a nonnegative source.

    source is the density added per unit time; a source-free step passes
    zeros.  u is the advecting velocity the feet are traced
    with; a caller that advects with a mollified velocity passes the
    mollified field.  The CFL check applies to that same field.
    The advected field is rescaled by the ratio of old to interpolated total
    mass, a factor that deviates from 1 only by the interpolation defect, so
    the mass budget integral(rho') - integral(rho) - dt * integral(source) is
    exact to rounding.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    rho = density.rho
    grid = rho.grid
    require_same_grid(rho, u)
    require_same_grid(rho, source)
    if source.values.min() < 0:
        raise ValueError("density source must be nonnegative")
    if dt == 0:
        return DensityField(rho.copy())
    check_cfl(u, dt)

    nodes = _grid_nodes(grid)
    v_node = np.moveaxis(u.values.reshape(grid.dim, -1), 0, 1)
    # the gathers take unwrapped feet: cic_gather accepts any finite position
    v_mid = cic_gather(u, nodes - 0.5 * dt * v_node)
    feet = nodes - dt * v_mid
    advected = np.maximum(cic_gather(rho, feet), 0.0).reshape(grid.shape)

    total_new = advected.sum()
    if total_new > 0.0:
        advected *= rho.values.sum() / total_new

    return DensityField(ScalarField(grid, advected + dt * source.values))
