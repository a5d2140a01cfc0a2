"""Transport of the added density rho, a variable of the fluid state, by the
fluid velocity.

Donor-cell upwind step in flux form (LeVeque, Finite Volume Methods for
Hyperbolic Problems, 2002): the face velocity at i+1/2 is the mean of its two
node values, and each face carries rho from its upwind cell.  Every face flux
leaves one cell and enters the next, so the total mass telescopes to rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import StepRejectedError
from .grid import ScalarField, VectorField, require_same_grid


def _rolled(op, x: np.ndarray, shift: int, y: np.ndarray, a: int, out: np.ndarray):
    """out = op(np.roll(x, shift, axis=a), y) for shift = +1 or -1, without the
    rolled copy: one operation on the bulk of axis a, one on its wrapped end."""
    lead = (slice(None),) * a
    for src, dst in ((slice(None, -1), slice(1, None)), (slice(-1, None), slice(None, 1))):
        src, dst = (src, dst) if shift == 1 else (dst, src)
        op(x[lead + (src,)], y[lead + (dst,)], out=out[lead + (dst,)])


def density_step(rho: ScalarField, u: VectorField, source: ScalarField,
                 dt: float) -> ScalarField:
    """One donor-cell transport step of rho with a nonnegative source.

    rho is FluidState.rho, and the caller stores the returned field there.
    source is the density added per unit time; u is the advecting velocity
    on the grid nodes (the mollified one where the caller advects with it).
    With c = dt/h, out_i the summed outflow face speeds of cell i and in_i
    its upwinded inflow, rho_i' = rho_i (1 - c out_i) + c in_i + dt source_i
    is nonnegative term by term while c out_i <= 1, an outflow bound up to
    2 * dim times stricter than the advective CFL; a step past it raises
    StepRejectedError.  The budget integral(rho') - integral(rho) -
    dt * integral(source) closes to rounding without a rescale.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    grid = rho.grid
    require_same_grid(rho, u)
    require_same_grid(rho, source)
    if source.values.min() < 0:
        raise ValueError("density source must be nonnegative")
    r = rho.values
    out, inflow = np.zeros(grid.shape), np.zeros(grid.shape)
    face, right, left = np.empty(grid.shape), np.empty(grid.shape), np.empty(grid.shape)
    for a, ua in enumerate(u.values):
        _rolled(np.add, ua, -1, ua, a, out=face)  # twice the face velocity at i+1/2
        np.maximum(face, 0.0, out=right)
        np.subtract(right, face, out=left)  # max(-face, 0)
        _rolled(np.add, left, 1, right, a, out=face)
        out += face  # right + roll(left, 1): the faces cell i flows out through
        right *= r
        _rolled(np.multiply, r, -1, left, a, out=left)
        _rolled(np.add, right, 1, left, a, out=face)
        inflow += face  # roll(right r, 1) + left roll(r, -1): the upwinded inflow
    c = 0.5 * dt / grid.h  # the face speeds above are doubled
    keep = out  # the share of rho_i a cell keeps, 1 - c out_i, in out's array
    keep *= c
    np.subtract(1.0, keep, out=keep)
    if keep.min() < 0.0:
        raise StepRejectedError(f"density outflow bound violated: dt/h * max cell outflow "
                                f"face speed = {1.0 - keep.min():.3g} > 1; reduce dt")
    keep *= r  # rho_i', summed term by term in keep's array
    inflow *= c
    keep += inflow
    keep += np.multiply(dt, source.values, out=inflow)
    return ScalarField(grid, keep)
