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

The added density rho, the broken-up droplets carried as part of the fluid,
is a variable of the FluidState; a step reads it and hands it on unchanged
(density.density_step transports it).  A FluidState also carries u_hat, the
spectrum of u in grid's resolved layout: only the modes the 2/3 rule keeps.
A step reads u_hat for the convection derivatives, the Laplacian, the update
and the Leray projection, transforms the projected spectrum back once and
hands it on with the new, band-limited u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, StepRejectedError
from .grid import (
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
    """Velocity u and added density rho >= 0 on u's grid, and the spectrum
    u_hat of u, computed if not given.  It carries no time: the run loop's
    step * dt is the one clock.  u_hat carries only the resolved modes: a u
    with modes above the band keeps them in its values, and its first step
    drops them.  A state is valid by construction: a non-finite u, or a
    negative or non-finite rho, raises FieldError, also through
    dataclasses.replace, and so does a u whose computed spectrum overflows;
    no other code checks it."""

    u: VectorField
    rho: ScalarField
    u_hat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        require_same_grid(self.u, self.rho)
        require_finite(self.u, "fluid velocity")
        rho = self.rho.values
        if not (rho.min() >= 0 and rho.max() < np.inf):  # NaN fails both
            raise FieldError("added density must be finite and nonnegative")
        if self.u_hat is None:
            # a finite u near the float limit can overflow its spectrum
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                self.u_hat = fft(self.u)
            if not np.isfinite(self.u_hat).all():
                raise FieldError("fluid velocity spectrum is non-finite")


@dataclass
class DragField:
    """Velocity moments of the droplet phase seen by the fluid."""

    m0: ScalarField   # number density
    m1: VectorField   # momentum density

    def __post_init__(self):
        require_same_grid(self.m0, self.m1)


def drag_force(u: VectorField, drag: DragField, coupling: float) -> VectorField:
    """Force density the droplets exert on the fluid: coupling (m1 - u m0)."""
    require_same_grid(u, drag.m0)
    force = u.values * drag.m0.values[None]
    np.subtract(drag.m1.values, force, out=force)
    force *= coupling
    return VectorField(u.grid, force)


def check_cfl(u: VectorField, dt: float):
    umax = float(max(u.values.max(), -u.values.min()))  # max|u|, without a temporary
    if umax * dt / u.grid.h > 1.0:
        raise StepRejectedError(
            f"advective CFL violated: max|u|*dt/h = {umax * dt / u.grid.h:.3g} > 1; "
            f"reduce dt below {u.grid.h / max(umax, 1e-300):.3g}"
        )


def _convection(u_adv: np.ndarray, u: VectorField, u_hat: np.ndarray) -> np.ndarray:
    """(u_adv . grad) u, pseudo-spectral, gradient from the spectrum u_hat of u.

    The sum accumulates in the array of its first term.
    """
    tab = _spectral_tables(u.grid)
    out = None
    for j, kj in enumerate(tab.k):
        du_j = ifft_like(u, 1j * kj * u_hat)  # d u / d x_j for all components
        du_j *= u_adv[j]
        if out is None:
            out = du_j
        else:
            out += du_j
        del du_j  # so that the next derivative is made with one field fewer alive
    return out


def ns_step(state: FluidState, u_adv: VectorField, drag: DragField, dt: float, *,
            coupling: float, nu: float = 1.0) -> FluidState:
    """Advance the fluid one step.

    u_adv is the advecting velocity: state.u, or its mollification in the
    regularized system.  state.rho weighs the inertia and is handed on as it
    is.  drag holds the droplet moments, which act on the gas with the given
    coupling; a caller without droplets passes zero fields.  The step reads
    state.u_hat; the returned velocity is Leray-projected and carries its
    projected spectrum.  The state carries only resolved modes, so the
    explicit tendency is dealiased by the 2/3 rule as it is transformed, and
    the returned velocity is band-limited.  The step keeps no clock: the
    caller knows which step it is.  A step that makes a non-finite
    velocity raises FieldError, from the FluidState it returns.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    u = state.u
    grid = u.grid
    check_cfl(u, dt)

    require_same_grid(u, u_adv)
    denom = 1.0 + state.rho.values
    rho_bar = float(state.rho.values.mean())
    nu_bar = nu / (1.0 + rho_bar)

    # the tendency is built in place, and each term is dropped once added,
    # so that at most four fields of u's size are alive at once
    tab = _spectral_tables(grid)
    tendency = _convection(u_adv.values, u, state.u_hat)
    np.negative(tendency, out=tendency)

    # spatially varying share of the viscous coefficient, explicit
    viscous = ifft_like(u, -tab.k2 * state.u_hat)  # lap u
    viscous *= nu
    viscous *= 1.0 / denom - 1.0 / (1.0 + rho_bar)
    tendency += viscous
    del viscous

    force = drag_force(u, drag, coupling).values
    force /= denom
    tendency += force
    del force

    t_hat = fft(VectorField(grid, tendency))
    del tendency
    t_hat *= dt
    t_hat += state.u_hat
    t_hat *= np.exp(-nu_bar * tab.k2 * dt)
    u_hat = project_spectrum(grid, t_hat)
    u_new = VectorField(grid, ifft_like(u, u_hat))
    return FluidState(u_new, state.rho, u_hat)
