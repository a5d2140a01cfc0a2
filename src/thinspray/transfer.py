"""Multilinear (cloud-in-cell) particle <-> grid transfer on the torus.

Scatter and gather share one kernel so the discrete drag exchange between
particles and grid is adjoint:  sum_p q_p * gather(g)(x_p)  equals the grid
inner product of g with scatter(q) times the cell volume.  Any finite
position is accepted: the cell index is wrapped as an integer, so positions
are never re-wrapped in floating point.  Scatter uses bincount, which is
deterministic for a fixed particle order.  Both loop over particle chunks
and build one corner index/weight table per chunk, small enough to stay cache
resident; cic_gather reads every field component through it, and
cic_scatter deposits through it the weights w and, given velocities v, the
charges w * v_j, component first.  Given a field to gather, cic_scatter
also reads it through the same table: a run's one particle-grid pass per
step deposits the drag and gathers the next push's velocity with one table
per particle.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, GridSpec, ScalarField, VectorField

_CHUNK = 8192


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


def _chunks(grid: GridSpec, x: np.ndarray):
    """(rows, flat, w) of each chunk of x: its slice and its corner table."""
    for start in range(0, x.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        yield (sl, *_corner_flats_weights(grid, x[sl]))


def _interpolate(comps, flat, w, out):
    """Each component read through one chunk's corner table into out's columns."""
    for col, comp in enumerate(comps):
        out[:, col] = np.einsum("cn,cn->n", w, comp[flat])


def cic_gather(field: Field, x: np.ndarray) -> np.ndarray:
    """Interpolate a grid field at positions x: (N,) for a scalar field,
    (N, dim) for a vector field.  x may hold any finite positions.  Exact for
    fields multilinear within each cell; O(h^2) for smooth fields.
    """
    grid = field.grid
    comps = field.values.reshape(-1, grid.n**grid.dim)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = np.empty((x.shape[0], len(comps)))
    for sl, flat, w in _chunks(grid, x):
        _interpolate(comps, flat, w, out[sl])
    return out[:, 0] if isinstance(field, ScalarField) else out


def cic_scatter(grid: GridSpec, x: np.ndarray, w: np.ndarray,
                v: np.ndarray | None = None, gather: VectorField | None = None):
    """Deposit per-particle weights w as a density array (divided by cell volume).

    Without v the result has the grid shape and integrates (cell_volume * sum)
    back to sum(w) up to rounding.  With v of shape (N, k) it is the
    (1 + k,) + grid.shape stack of the densities of w, then of w * v[:, j]
    for each column j; those charges are formed chunk by chunk, so no
    (N, 1 + k) array is built.  x may hold any finite positions.  Given a
    vector field `gather` on the same grid, each chunk's corner table also
    interpolates it, and the call returns (density, cic_gather(gather, x)),
    both bit for bit what the two one-sided calls return.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    cols = () if v is None else v.T
    ncells = grid.n**grid.dim
    acc = np.zeros((1 + len(cols), ncells))
    if gather is not None:
        comps = gather.values.reshape(-1, ncells)
        out = np.empty((x.shape[0], len(comps)))
    for sl, flat, corner_w in _chunks(grid, x):
        raveled = flat.ravel()
        ws = w[sl]
        for row, qs in zip(acc, [ws, *(ws * col[sl] for col in cols)]):
            row += np.bincount(raveled, weights=(corner_w * qs).ravel(), minlength=ncells)
        if gather is not None:
            _interpolate(comps, flat, corner_w, out[sl])
    acc /= grid.cell_volume
    dens = acc.reshape((len(acc),) + grid.shape)
    dens = dens[0] if v is None else dens
    return dens if gather is None else (dens, out)
