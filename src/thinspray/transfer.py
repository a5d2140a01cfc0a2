"""Multilinear (cloud-in-cell) particle <-> grid transfer on the torus.

Scatter and gather share one kernel so the discrete drag exchange between
particles and grid is adjoint:  sum_p q_p * gather(g)(x_p)  equals the grid
inner product of g with scatter(q) times the cell volume.  Any finite
position is accepted: the cell index is wrapped as an integer, so positions
are never re-wrapped in floating point.  Scatter uses bincount, which is
deterministic for a fixed particle order.  Both loop over particle chunks
and build the corner index/weight tables per chunk, small enough to stay
cache resident; a gather of several stacked fields shares one table per
chunk among all their components.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import Field, GridSpec, ScalarField, VectorField, require_same_grid

_CHUNK = 8192


def wrap_positions(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """Map positions into [0, length); handles any finite input."""
    return np.mod(x, grid.length)


def _corner_flats_weights(grid: GridSpec, x: np.ndarray):
    """Flat cell indices and weights for all 2^dim corners of each particle.

    Returns (flat, w) of shape (2^dim, N): row-major flat index of each
    corner node and the matching multilinear weight (weights sum to 1).
    Corner c takes the upper node along axis a when bit a of c is set.
    """
    n, dim, npart = grid.n, grid.dim, x.shape[0]
    mask = n - 1  # n is a power of two, so i & mask is i mod n for either sign
    s = x / grid.h
    cell = np.floor(s)
    frac = s - cell
    lo = cell.astype(np.int64)
    lo &= mask  # wraps any finite x; also s == n from rounding at the seam
    w = flat = None
    for ax in range(dim):
        # axis ax is bit ax of the corner code: dimension dim-1-ax of the table
        shape = (1,) * (dim - 1 - ax) + (2,) + (1,) * ax + (npart,)
        pair_w = np.empty((2, npart))
        pair_w[1] = frac[:, ax]
        np.subtract(1.0, pair_w[1], out=pair_w[0])
        pair_f = np.empty((2, npart), dtype=np.int64)
        pair_f[0] = lo[:, ax]
        np.add(pair_f[0], 1, out=pair_f[1])
        pair_f[1] &= mask
        pair_f *= n ** (dim - 1 - ax)
        w = pair_w.reshape(shape) if w is None else w * pair_w.reshape(shape)
        flat = pair_f.reshape(shape) if flat is None else flat + pair_f.reshape(shape)
    return flat.reshape(2**dim, npart), w.reshape(2**dim, npart)


def cic_gather(field: Field | Sequence[Field], x: np.ndarray) -> np.ndarray:
    """Interpolate a grid field, or several stacked fields, at positions x.

    Returns (N,) for a scalar field, (N, dim) for a vector field, and
    (N, m) for a sequence of fields on one grid, whose m components are
    stacked in order (dim columns per vector field, one per scalar field).
    All components share one corner table per chunk and are gathered one at
    a time, each bit-identical to its own gather.  x may hold any finite
    positions.  Exact for fields multilinear within each cell; O(h^2) for
    smooth fields.
    """
    fields = [field] if isinstance(field, (ScalarField, VectorField)) else list(field)
    grid = fields[0].grid
    for f in fields[1:]:
        require_same_grid(fields[0], f)
    comps = [c for f in fields for c in f.values.reshape(-1, grid.n**grid.dim)]
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    npart = x.shape[0]
    out = np.empty((npart, len(comps)))
    for start in range(0, npart, _CHUNK):
        sl = slice(start, min(start + _CHUNK, npart))
        flat, w = _corner_flats_weights(grid, x[sl])
        for col, comp in enumerate(comps):
            out[sl, col] = np.einsum("cn,cn->n", w, comp[flat])
    return out[:, 0] if isinstance(field, ScalarField) else out


def cic_scatter(grid: GridSpec, x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Deposit per-particle charges q as a density array (divided by cell volume).

    The array integrates (cell_volume * sum) back to sum(q) up to rounding.
    q may be (N,) or (N, m); the result has the grid shape (+ trailing axis m).
    x may hold any finite positions.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    q = np.asarray(q, dtype=np.float64)
    multi = q.ndim == 2
    qcols = q if multi else q[:, None]
    ncols = qcols.shape[1]
    ncells = grid.n**grid.dim
    npart = x.shape[0]
    acc = np.zeros((ncells, ncols))
    for start in range(0, npart, _CHUNK):
        sl = slice(start, min(start + _CHUNK, npart))
        flat, w = _corner_flats_weights(grid, x[sl])
        raveled = flat.ravel()
        for col in range(ncols):
            acc[:, col] += np.bincount(raveled, weights=(w * qcols[sl, col]).ravel(),
                                       minlength=ncells)
    acc /= grid.cell_volume
    out = acc.reshape(grid.shape + (ncols,))
    return out if multi else out[..., 0]
