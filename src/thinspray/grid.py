"""Periodic-torus grid bookkeeping and spectral operators.

Fields live on a uniform n^dim grid over the torus [0, 2π)^dim, with periodic
boundary conditions.  The period is fixed: `GridSpec.length` is a class
constant, not a field.

A spectrum is the resolved block of the real FFT: the modes the 2/3 rule
keeps (Orszag 1971), |k_j| <= kk - 1 on every axis with kk = ceil(n/3), in
the rfftn order, shape (..., 2kk-1, ..., 2kk-1, kk): k = 0..kk-1, 1-kk..-1 on
each full axis, 0..kk-1 on the halved last one.  No resolved mode is a
Nyquist mode, so every multiplier maps real fields to real fields as it
stands, and the one projection, the Leray projector P (`project_spectrum`),
obeys div(P v) == 0 and P P == P to rounding.  An operator that transforms a
field back band-limits it.

Every spectral operator takes the grid first and arrays after it.  `fft`
runs NumPy's passes in np.fft.rfftn's order, each only on the kept lines:
rfft on the last axis, fft on axis -2, then (3-D) on axis -3.  `ifft` forms
multiplier * spectrum corner by corner of the block as it zero-pads it, so
that no block-sized product is made first, runs ifft in np.fft.irfftn's
order on the lines that are not all zero (axis -3 where axis -2 is kept,
then axis -2), and ends with irfft, which pads the halved axis itself.  So
`fft(grid, f)` is the resolved block of np.fft.rfftn(f), and
`ifft(grid, s, m)` np.fft.irfftn of m * s zero-padded, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import FieldError, GridMismatchError

TWO_PI = 2.0 * np.pi


def wrap_to_torus(x: np.ndarray) -> np.ndarray:
    """x mod 2π in [0, 2π): the 2π that a tiny negative's remainder rounds to is 0."""
    wrapped = np.mod(x, TWO_PI)
    return np.where(wrapped == TWO_PI, 0.0, wrapped)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, 2π)^dim: dim axes, n points per axis."""

    dim: int
    n: int
    length: ClassVar[float] = TWO_PI  # the period of every axis

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def h(self) -> float:
        """Grid spacing."""
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    @property
    def volume(self) -> float:
        return self.length**self.dim

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * self.h


@dataclass
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise FieldError(
                f"scalar values shape {self.values.shape} != grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))


@dataclass
class VectorField:
    grid: GridSpec
    values: np.ndarray  # shape (dim,) + grid.shape

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.grid.dim,) + self.grid.shape
        if self.values.shape != expected:
            raise FieldError(
                f"vector values shape {self.values.shape} != expected {expected}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VectorField":
        return cls(grid, np.zeros((grid.dim,) + grid.shape))

    @classmethod
    def from_components(cls, grid: GridSpec, *components: np.ndarray) -> "VectorField":
        return cls(grid, np.stack(components, axis=0))


Field = ScalarField | VectorField


class SpectralTables(NamedTuple):
    k: tuple          # dim broadcastable wavenumber arrays of the resolved block
    k2: np.ndarray    # |k|^2
    k_inv_k2: tuple   # k_j / k2 per axis, 0 where k2 == 0: the Leray projector
    weights: np.ndarray  # Parseval weights (2 off the zero plane of the halved axis)


def _kept(n: int) -> int:
    """kk = ceil(n/3): the 2/3 rule keeps the modes with |k_j| <= kk - 1."""
    return -(-n // 3)  # 3 (kk - 1) < n: cubic products alias-free


@lru_cache(maxsize=64)
def _spectral_tables(grid: GridSpec) -> SpectralTables:
    """Wavenumber/multiplier tables of the resolved block (see `fft`)."""
    kk, dim = _kept(grid.n), grid.dim
    # on the 2π torus the wavenumbers are the integer frequencies
    full = np.concatenate([np.arange(kk), np.arange(1 - kk, 0)]).astype(float)
    freqs = [full] * (dim - 1) + [np.arange(kk, dtype=float)]
    k = tuple(f.reshape([-1 if ax == a else 1 for ax in range(dim)])
              for a, f in enumerate(freqs))
    k2 = sum(kj**2 for kj in k)
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    weights = np.where(k[-1] == 0, 1.0, 2.0)
    return SpectralTables(k, k2, tuple(kj * inv_k2 for kj in k), weights)


@lru_cache(maxsize=64)
def _mollifier(grid: GridSpec, eps: float) -> np.ndarray:
    """The Gaussian multiplier exp(-eps^2 |k|^2 / 2) of `mollify`, read-only."""
    multiplier = np.exp(-0.5 * eps**2 * _spectral_tables(grid).k2)
    multiplier.flags.writeable = False
    return multiplier


def _kept_ranges(n: int) -> tuple:
    """The two kept ranges of a full axis, as (full-axis slice, block slice) pairs."""
    kk = _kept(n)
    return (slice(0, kk),) * 2, (slice(n - kk + 1, n), slice(kk, 2 * kk - 1))


def _corners(grid: GridSpec) -> list:
    """(index in the full axes, index in the block) of each of the 2^(dim-1)
    corners that the kept ranges of the full axes make."""
    return [tuple((...,) + s + (slice(None),) for s in zip(*corner))
            for corner in product(_kept_ranges(grid.n), repeat=grid.dim - 1)]


def fft(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """The resolved block of the rfftn spectrum of values on grid, over its
    last grid.dim axes (see the module docstring)."""
    kk = _kept(grid.n)
    spectrum = np.fft.rfft(values, axis=-1)[..., :kk]
    np.fft.fft(spectrum, axis=-2, out=spectrum)
    if grid.dim == 3:  # axis -3 on the lines that axis -2 keeps
        for lines, _ in _kept_ranges(grid.n):
            np.fft.fft(spectrum[..., lines, :], axis=-3, out=spectrum[..., lines, :])
    block = np.empty(spectrum.shape[:-grid.dim] + (2 * kk - 1,) * (grid.dim - 1) + (kk,),
                     dtype=complex)
    for full, part in _corners(grid):
        block[part] = spectrum[full]
    return block


def ifft(grid: GridSpec, spectrum: np.ndarray, multiplier=1.0,
         out: np.ndarray | None = None) -> np.ndarray:
    """The real values on grid whose resolved block is multiplier * spectrum,
    every mode outside it zero, written into `out` if given.  multiplier is a
    number or an array that broadcasts to spectrum's shape; each corner's
    product is written straight into the padded block, and `spectrum` is
    left as it is."""
    padded = np.zeros(spectrum.shape[:-grid.dim] + grid.shape[1:] + (_kept(grid.n),),
                      dtype=complex)
    multiplier = np.broadcast_to(multiplier, spectrum.shape)
    for full, part in _corners(grid):
        np.multiply(multiplier[part], spectrum[part], out=padded[full])
    if grid.dim == 3:  # axis -3 on the lines that axis -2 keeps
        for lines, _ in _kept_ranges(grid.n):
            np.fft.ifft(padded[..., lines, :], axis=-3, out=padded[..., lines, :])
    np.fft.ifft(padded, axis=-2, out=padded)
    return np.fft.irfft(padded, grid.n, axis=-1, out=out)


def require_same_grid(a: Field, b: Field):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def project_spectrum(grid: GridSpec, v_hat: np.ndarray) -> np.ndarray:
    """Leray-project a vector spectrum in place, mode by mode, and return it;
    the mean (k=0) mode passes through unchanged."""
    tab = _spectral_tables(grid)
    k_dot_v = sum(kj * v_hat[j] for j, kj in enumerate(tab.k))
    for j, kj_inv_k2 in enumerate(tab.k_inv_k2):
        v_hat[j] -= kj_inv_k2 * k_dot_v
    return v_hat


def mollify(grid: GridSpec, eps: float, spectrum: np.ndarray) -> np.ndarray:
    """Smooth with the periodic Gaussian multiplier exp(-eps^2 |k|^2 / 2).

    Reads the caller's `spectrum`, the resolved block of a field on grid (a
    FluidState's u_hat), and returns the values of the smoothed field,
    transformed back once.  Mean preserving, L2 non-expansive, commutes
    with every other spectral operator here.  The output is band-limited.
    """
    if not eps > 0:
        raise ValueError(f"mollifier width must be positive, got {eps}")
    return ifft(grid, spectrum, _mollifier(grid, eps))


def integral(field: Field) -> float | np.ndarray:
    """Integral over the torus (trapezoid = spectral for periodic fields)."""
    return field.values.sum(axis=tuple(range(-field.grid.dim, 0))) * field.grid.cell_volume


def grad_l2_norm_sq(grid: GridSpec, spectrum: np.ndarray) -> float:
    """Integral of |grad f|^2 by Parseval from the spectrum of f (all components)."""
    tab = _spectral_tables(grid)
    total = float(np.sum(tab.weights * tab.k2 * np.abs(spectrum) ** 2))
    return total * grid.volume / grid.n ** (2 * grid.dim)


def divergence_residual(grid: GridSpec, v_hat: np.ndarray) -> float:
    """Relative divergence ||div v||_2 / max(||v||_2, tiny), by Parseval from v_hat."""
    tab = _spectral_tables(grid)
    div_hat = sum(kj * v_hat[j] for j, kj in enumerate(tab.k))
    div_norm = np.sqrt(np.sum(tab.weights * np.abs(div_hat) ** 2))
    v_norm = np.sqrt(np.sum(tab.weights * np.abs(v_hat) ** 2))
    return float(div_norm / max(v_norm, 1e-300))
