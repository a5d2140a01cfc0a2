"""Periodic-torus grid bookkeeping and spectral operators.

Fields live on a uniform n^dim grid over [0, length)^dim with periodic
boundary conditions.  All spectral operators act through the real FFT;
first-derivative multipliers zero the Nyquist frequency so that every
operator maps real fields to real fields and the Leray projector P obeys
div(P v) == 0 and P P == P to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import FieldError, GridMismatchError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: dim axes, n points per axis, period `length`."""

    dim: int
    n: int
    length: float = TWO_PI

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

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

    def meshgrid(self) -> list[np.ndarray]:
        """Coordinate arrays of shape `self.shape` (ij indexing)."""
        x = self.axis_points()
        return list(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (n^dim, dim) array, C order."""
        mesh = self.meshgrid()
        return np.stack([m.ravel() for m in mesh], axis=-1)


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

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


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
    k: tuple          # dim broadcastable wavenumber arrays, Nyquist zeroed
    k2: np.ndarray    # sum of squares of the Nyquist-zeroed wavenumbers
    inv_k2: np.ndarray  # 1/k2 with zero entries (mean mode, pure Nyquist) set to 0
    k2_full: np.ndarray  # |k|^2 with the true Nyquist magnitude (mollifier)
    mask: np.ndarray  # 2/3-rule dealias mask (True = keep)
    weights: np.ndarray  # Parseval weights (2 for interior modes of the halved axis)


@lru_cache(maxsize=64)
def _spectral_tables(grid: GridSpec) -> SpectralTables:
    """Wavenumber/multiplier tables in the rfftn layout (last axis halved)."""
    n, dim, length = grid.n, grid.dim, grid.length
    scale = TWO_PI / length
    full = np.fft.fftfreq(n, d=1.0 / n)  # 0..n/2-1, -n/2..-1 (integers)
    half = np.fft.rfftfreq(n, d=1.0 / n)  # 0..n/2

    freqs = [full.copy() for _ in range(dim - 1)] + [half.copy()]
    k_full = []
    k = []
    for ax, f in enumerate(freqs):
        shape = [1] * dim
        shape[ax] = f.size
        kf = (f * scale).reshape(shape)
        k_full.append(kf)
        kt = kf.copy()
        kt[np.abs(f).reshape(shape) == n // 2] = 0.0  # Nyquist has no sign partner
        k.append(kt)

    k2 = sum(kt**2 for kt in k)
    inv_k2 = np.zeros_like(k2)
    nonzero = k2 > 0
    inv_k2[nonzero] = 1.0 / k2[nonzero]
    k2_full = sum(kf**2 for kf in k_full)

    kmax_keep = int(np.ceil(n / 3)) - 1  # 3*kmax_keep < n: cubic products alias-free
    mask = np.ones(k2.shape, dtype=bool)
    for ax, f in enumerate(freqs):
        shape = [1] * dim
        shape[ax] = f.size
        mask &= np.abs(f).reshape(shape) <= kmax_keep

    weights = np.full(half.size, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    wshape = [1] * dim
    wshape[-1] = half.size
    weights = weights.reshape(wshape)

    return SpectralTables(tuple(k), k2, inv_k2, k2_full, mask, weights)


def _fft_axes(grid: GridSpec) -> tuple[int, ...]:
    return tuple(range(-grid.dim, 0))


def fft(field: Field) -> np.ndarray:
    return np.fft.rfftn(field.values, axes=_fft_axes(field.grid))


def ifft_like(field: Field, spectrum: np.ndarray) -> np.ndarray:
    return np.fft.irfftn(spectrum, s=field.grid.shape, axes=_fft_axes(field.grid))


def require_finite(field: Field, what: str = "field"):
    if not np.isfinite(field.values).all():
        raise FieldError(f"{what} contains non-finite values")


def require_same_grid(a: Field, b: Field):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def project_spectrum(grid: GridSpec, v_hat: np.ndarray) -> np.ndarray:
    """Leray-project a vector spectrum in place, mode by mode, and return it."""
    tab = _spectral_tables(grid)
    k_dot_v = sum(kj * v_hat[j] for j, kj in enumerate(tab.k))
    for j, kj in enumerate(tab.k):
        v_hat[j] -= kj * tab.inv_k2 * k_dot_v
    return v_hat


def leray_project(v: VectorField) -> VectorField:
    """Project onto divergence-free fields: v - grad(inv_lap(div v)).

    Acts mode by mode in Fourier space; the mean (k=0) mode passes through
    unchanged, which fixes the zero-mean gauge of the inverse Laplacian.
    """
    require_finite(v, "leray_project input")
    return VectorField(v.grid, ifft_like(v, project_spectrum(v.grid, fft(v))))


def mollify(field: Field, eps: float, spectrum: np.ndarray | None = None) -> Field:
    """Smooth with the periodic Gaussian multiplier exp(-eps^2 |k|^2 / 2).

    Mean preserving, L2 non-expansive, commutes with every other spectral
    operator here.  A caller that holds the rfftn spectrum of the field
    passes it, and the field is not transformed forward again.
    """
    if not eps > 0:
        raise ValueError(f"mollifier width must be positive, got {eps}")
    require_finite(field)
    multiplier = np.exp(-0.5 * eps**2 * _spectral_tables(field.grid).k2_full)
    spectrum = fft(field) if spectrum is None else spectrum
    return type(field)(field.grid, ifft_like(field, multiplier * spectrum))


def integral(field: Field) -> float | np.ndarray:
    """Integral over the torus (trapezoid = spectral for periodic fields)."""
    axes = _fft_axes(field.grid)
    return field.values.sum(axis=axes) * field.grid.cell_volume


def grad_l2_norm_sq(grid: GridSpec, spectrum: np.ndarray) -> float:
    """Integral of |grad f|^2 by Parseval from the rfftn spectrum of f (all components)."""
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
