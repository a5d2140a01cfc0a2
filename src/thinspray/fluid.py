"""Variable-density incompressible Navier-Stokes step with drag retroaction.

The momentum equation advanced here is the non-conservative form

    (1 + rho) [du/dt + (u* . grad) u] - nu lap u = coupling (m1 - u m0),

with u* the (optionally mollified) advecting velocity, closed by the Leray
projection of the end-of-step velocity.  One step is first-order Lie
splitting: explicit dealiased convection, drag and the spatially varying part
of the viscous term divided pointwise by (1 + rho), and an exact spectral
integrating factor for the mean-coefficient diffusion nu lap u / (1 + mean rho),
which keeps the step stable for any dt at the resolved wavenumbers.

A step transforms u once: the convection derivatives, the Laplacian, the
mollified advecting velocity, the update and the Leray projection all act on
that one spectrum, and the projected spectrum is transformed back once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepRejectedError
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _spectral_tables,
    fft,
    ifft_like,
    mollifier_multiplier,
    project_spectrum,
    require_finite,
    require_same_grid,
)


@dataclass
class FluidState:
    u: VectorField
    t: float = 0.0


@dataclass
class DragField:
    """Velocity moments of the droplet phase seen by the fluid."""

    m0: ScalarField   # number density
    m1: VectorField   # momentum density

    def __post_init__(self):
        require_same_grid(self.m0, self.m1)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "DragField":
        return cls(ScalarField.zeros(grid), VectorField.zeros(grid))


def drag_force(u: VectorField, drag: DragField, coupling: float) -> VectorField:
    """Force density the droplets exert on the fluid: coupling (m1 - u m0)."""
    require_same_grid(u, drag.m0)
    force = coupling * (drag.m1.values - u.values * drag.m0.values[None])
    return VectorField(u.grid, force)


def check_cfl(u: VectorField, dt: float):
    umax = float(np.abs(u.values).max(initial=0.0))
    if umax * dt / u.grid.h > 1.0:
        raise StepRejectedError(
            f"advective CFL violated: max|u|*dt/h = {umax * dt / u.grid.h:.3g} > 1; "
            f"reduce dt below {u.grid.h / max(umax, 1e-300):.3g}"
        )


def _convection(u_adv: np.ndarray, u: VectorField, u_hat: np.ndarray) -> np.ndarray:
    """(u_adv . grad) u, pseudo-spectral, gradient from the spectrum u_hat of u."""
    tab = _spectral_tables(u.grid)
    out = np.zeros_like(u.values)
    for j, kj in enumerate(tab.k):
        du_j = ifft_like(u, 1j * kj * u_hat)  # d u / d x_j for all components
        out += u_adv[j] * du_j
    return out


def ns_step(state: FluidState, rho: ScalarField | None, drag: DragField | None,
            dt: float, nu: float = 1.0, mollifier_eps: float | None = None,
            coupling: float = 2.0) -> FluidState:
    """Advance the fluid one step.

    rho is the added density (None means zero), drag holds the droplet
    moments (None means no spray).  With mollifier_eps set, the advecting
    velocity in the convection term is the mollified u.  The returned
    velocity is Leray-projected; the whole explicit tendency is dealiased by
    the 2/3 rule, so a band-limited u stays band-limited.  u is transformed
    once; every spectral operator of the step reuses that spectrum.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    u = state.u
    require_finite(u, "fluid velocity")
    grid = u.grid
    check_cfl(u, dt)

    rho_vals = np.zeros(grid.shape) if rho is None else rho.values
    if rho is not None:
        require_same_grid(u, rho)
        if rho_vals.min() < -1e-12:
            raise ValueError("added density must be nonnegative")
    denom = 1.0 + rho_vals
    rho_bar = float(rho_vals.mean())
    nu_bar = nu / (1.0 + rho_bar)

    tab = _spectral_tables(grid)
    u_hat = fft(u)
    if mollifier_eps:
        u_adv = ifft_like(u, mollifier_multiplier(grid, mollifier_eps) * u_hat)
    else:
        u_adv = u.values
    tendency = -_convection(u_adv, u, u_hat)

    # spatially varying share of the viscous coefficient, explicit
    lap_u = ifft_like(u, -tab.k2 * u_hat)
    tendency += nu * lap_u * (1.0 / denom - 1.0 / (1.0 + rho_bar))

    if drag is not None:
        tendency += drag_force(u, drag, coupling).values / denom

    t_hat = tab.mask * np.fft.rfftn(tendency, axes=tuple(range(-grid.dim, 0)))
    u_hat = np.exp(-nu_bar * tab.k2 * dt) * (u_hat + dt * t_hat)
    u_new = VectorField(grid, ifft_like(u, project_spectrum(grid, u_hat)))
    require_finite(u_new, "fluid velocity after step")
    return FluidState(u_new, state.t + dt)
