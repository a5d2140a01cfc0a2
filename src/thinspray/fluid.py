"""Variable-density incompressible Navier-Stokes step with drag retroaction.

The momentum equation advanced here is the non-conservative form

    (1 + rho) [du/dt + (u* . grad) u] - nu lap u = coupling (m1 - u m0),

with u* the advecting velocity (u, or the mollified u), closed by the Leray
projection of the end-of-step velocity.  The coupling is 1 for droplets that
keep their momentum, and 1 + 1/tau for droplets that break up at rate 1/tau
and join the gas at its velocity, handing it their slip as well.  One step
is first-order Lie splitting: explicit dealiased convection, drag and the
spatially varying part of the viscous term divided pointwise by (1 + rho),
and an exact spectral integrating factor for the mean-coefficient diffusion
nu lap u / (1 + mean rho), which keeps the step stable for any dt at the
resolved wavenumbers.

A FluidState carries the rfftn spectrum u_hat of u.  A step reads it for the
convection derivatives, the Laplacian, the update and the Leray projection,
transforms the projected spectrum back once and hands it on with the new u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StepRejectedError
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    _spectral_tables,
    fft,
    ifft_like,
    project_spectrum,
    require_finite,
    require_same_grid,
)


@dataclass
class FluidState:
    """Velocity u at time t and its rfftn spectrum u_hat, computed if not given."""

    u: VectorField
    t: float = 0.0
    u_hat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.u_hat is None:
            self.u_hat = fft(self.u)


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


def ns_step(state: FluidState, u_adv: VectorField, rho: ScalarField,
            drag: DragField, dt: float, *, coupling: float,
            nu: float = 1.0) -> FluidState:
    """Advance the fluid one step.

    u_adv is the advecting velocity: state.u, or its mollification in the
    regularized system.  rho is the added density and drag holds the droplet
    moments, which act on the gas with the given coupling; a caller without
    either passes ScalarField.zeros or DragField.zeros.  The step reads
    state.u_hat; the returned velocity is Leray-projected and carries its
    projected spectrum.  The whole explicit tendency is dealiased by the 2/3
    rule, so a band-limited u stays band-limited.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    u = state.u
    require_finite(u, "fluid velocity")
    grid = u.grid
    check_cfl(u, dt)

    require_same_grid(u, u_adv)
    require_same_grid(u, rho)
    if rho.values.min() < -1e-12:
        raise ValueError("added density must be nonnegative")
    denom = 1.0 + rho.values
    rho_bar = float(rho.values.mean())
    nu_bar = nu / (1.0 + rho_bar)

    tab = _spectral_tables(grid)
    tendency = -_convection(u_adv.values, u, state.u_hat)

    # spatially varying share of the viscous coefficient, explicit
    lap_u = ifft_like(u, -tab.k2 * state.u_hat)
    tendency += nu * lap_u * (1.0 / denom - 1.0 / (1.0 + rho_bar))

    tendency += drag_force(u, drag, coupling).values / denom

    t_hat = tab.mask * np.fft.rfftn(tendency, axes=tuple(range(-grid.dim, 0)))
    u_hat = np.exp(-nu_bar * tab.k2 * dt) * (state.u_hat + dt * t_hat)
    u_hat = project_spectrum(grid, u_hat)
    u_new = VectorField(grid, ifft_like(u, u_hat))
    require_finite(u_new, "fluid velocity after step")
    return FluidState(u_new, state.t + dt, u_hat)
