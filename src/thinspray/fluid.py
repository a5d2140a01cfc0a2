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

The convection is in flux form, div(u* u) from the transforms of the grid
products u*_j u_i (Canuto, Hussaini, Quarteroni & Zang, Spectral Methods:
Evolution to Complex Geometries, Springer 2007; Zang, Appl. Numer. Math. 7
(1991) 27-40).  It equals (u* . grad) u to rounding when u and u* are
band-limited and divergence-free, as every state of a run is: the
Taylor-Green or zero start, every projected step and every mollification.

The added density rho, the broken-up droplets carried as part of the fluid,
is a variable of the FluidState; a step reads it and hands it on unchanged
(density.density_step transports it).  A FluidState also carries u_hat, the
spectrum of u in grid's resolved layout: only the modes the 2/3 rule keeps.
A step reads u_hat for the Laplacian, the update and the Leray projection,
transforms the projected spectrum back once and hands it on with the new,
band-limited u.  It forms and transforms each component's tendency in turn,
then, in one loop, the flux products u*_j u_i, only those with j >= i when
u* is u.  It holds at most 2.25 fields of u's size beyond its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import FieldError, StepRejectedError
from .grid import (
    ScalarField,
    VectorField,
    _spectral_tables,
    fft,
    ifft,
    project_spectrum,
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
        if not np.isfinite(self.u.values).all():
            raise FieldError("fluid velocity contains non-finite values")
        rho = self.rho.values
        if not (rho.min() >= 0 and rho.max() < np.inf):  # NaN fails both
            raise FieldError("added density must be finite and nonnegative")
        if self.u_hat is None:
            # a finite u near the float limit can overflow its spectrum
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                self.u_hat = fft(self.u.grid, self.u.values)
            if not np.isfinite(self.u_hat).all():
                raise FieldError("fluid velocity spectrum is non-finite")


@dataclass
class DragField:
    """Velocity moments of the droplet phase seen by the fluid."""

    m0: ScalarField   # number density
    m1: VectorField   # momentum density

    def __post_init__(self):
        require_same_grid(self.m0, self.m1)


def drag_force(u: VectorField, drag: DragField, coupling: float, i: int) -> np.ndarray:
    """Component i of the force density the droplets exert on the fluid,
    coupling (m1_i - u_i m0), as a new array of the grid's shape."""
    require_same_grid(u, drag.m0)
    force = u.values[i] * drag.m0.values
    np.subtract(drag.m1.values[i], force, out=force)
    force *= coupling
    return force


def check_cfl(u: VectorField, dt: float):
    umax = float(max(u.values.max(), -u.values.min()))  # max|u|, without a temporary
    if umax * dt / u.grid.h > 1.0:
        raise StepRejectedError(
            f"advective CFL violated: max|u|*dt/h = {umax * dt / u.grid.h:.3g} > 1; "
            f"reduce dt below {u.grid.h / max(umax, 1e-300):.3g}"
        )


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
    the returned velocity is band-limited.  The convection is the flux form
    -sum_j i k_j fft(u_adv_j u_i), equal to -(u_adv . grad) u_i for
    band-limited, divergence-free u and u_adv (see the module docstring).
    Each component's tendency is formed, transformed and dropped before the
    next one starts.  Then one loop transforms the products: every u_adv_j u_i,
    or, when u_adv is state.u (the limit and bidisperse systems), each
    u_j u_i = u_i u_j with j >= i once, subtracted from rows i and j.  Either
    way row i takes its terms in increasing j.
    When state.rho is zero everywhere, as on every bidisperse step and the
    first step of an absorbing run, the viscous share left explicit is
    exactly 0 and the inertia exactly 1: the step then skips that share's
    Laplacian transform and both divisions.  The step keeps no clock: the
    caller knows which step it is.  A step that makes a non-finite velocity
    raises FieldError from the FluidState it returns.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    u = state.u
    grid = u.grid
    check_cfl(u, dt)

    require_same_grid(u, u_adv)
    rho_bar = float(state.rho.values.mean())
    nu_bar = nu / (1.0 + rho_bar)
    dense = state.rho.values.any()  # else varying is 0 and denom 1 (see above)
    if dense:
        denom = 1.0 + state.rho.values
        varying = nu * (1.0 / denom - 1.0 / (1.0 + rho_bar))  # the viscous share left explicit

    # each component's tendency is formed and transformed before the next
    # one starts: at most 2.25 fields of u's size are alive at once, the new
    # u among them
    tab = _spectral_tables(grid)
    t_hat = np.empty_like(state.u_hat)
    for i, u_hat_i in enumerate(state.u_hat):
        tendency = drag_force(u, drag, coupling, i)
        if dense:
            tendency /= denom
            viscous = ifft(grid, u_hat_i, -tab.k2)  # lap u_i
            viscous *= varying
            tendency += viscous
            del viscous
        t_hat[i] = fft(grid, tendency)
        del tendency
    if dense:
        del denom, varying
    symmetric = u_adv is u  # then u_j u_i = u_i u_j serves rows i and j
    dims = range(grid.dim)
    for i, j in combinations_with_replacement(dims, 2) if symmetric else product(dims, dims):
        flux = fft(grid, u_adv.values[j] * u.values[i])
        t_hat[i] -= 1j * tab.k[j] * flux
        if symmetric and j != i:
            t_hat[j] -= 1j * tab.k[i] * flux
        del flux  # else it lives on while the next one is transformed

    t_hat *= dt
    t_hat += state.u_hat
    t_hat *= np.exp(-nu_bar * tab.k2 * dt)
    u_hat = project_spectrum(grid, t_hat)
    u_new = np.empty_like(u.values)
    for i, u_hat_i in enumerate(u_hat):
        ifft(grid, u_hat_i, out=u_new[i])
    return FluidState(VectorField(grid, u_new), state.rho, u_hat)
