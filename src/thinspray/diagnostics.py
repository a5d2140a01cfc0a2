"""Per-step records, conservation budgets, and inequality checks.

Kinetic integrals are particle sums (the cloud is the quadrature), or
grid fields paired with the step's drag deposit, which equals them; grid
integrals use the trapezoid rule, which is spectrally exact for periodic
fields.  The budget helpers reconstruct the continuous
identities satisfied by the coupled system and report their discrete
residuals, which scale first order in dt for the splitting used here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import NamedTuple, Sequence

import numpy as np

from .fluid import DragField, FluidState
from .grid import (
    TWO_PI,
    ScalarField,
    VectorField,
    divergence_residual,
    grad_l2_norm_sq,
    integral,
)
from .kinetic import ParticleCloud, rowwise_dot, velocity_cutoff
from .transfer import cic_gather

BALL_VOLUME_FACTOR = 4.0 * np.pi / 3.0


@dataclass
class DiagnosticsRecord:
    """One row of per-step diagnostics: every budget input of one step.

    Spray kinetic energy weighs each species by its liquid volume r^3 (1 for
    parents, r2^3 for fragments); the drag dissipation weighs it by its
    radius r, so the energy budget closes with a single scenario coefficient.
    volume + mass_rho is the liquid every scenario conserves once cut_weight,
    what a cutoff leaves out of rho's source, is booked; r1, r2, r3 are the
    regularization_remainders, which energy_budget books.  All four are 0.0
    without a cutoff.
    """

    t: float
    e_kinetic_spray: float   # 0.5 * mass-weighted M2 of the spray
    e_fluid: float           # 0.5 * integral (1 + rho) |u|^2
    dissipation_visc: float  # nu * integral |grad u|^2
    dissipation_drag: float  # radius-weighted integral |u - xi|^2 f
    m0: float
    m1: np.ndarray           # (dim,) number-weighted momentum of the spray
    m2: float
    total_momentum: np.ndarray  # (dim,) mass-weighted spray + (1+rho) fluid
    volume: float            # liquid volume of the spray, liquid_volume
    mass_rho: float          # integral of the added density
    div_residual: float
    r1: float
    r2: float
    r3: float
    cut_weight: float        # sum w r (1 - cutoff) over the tail, the deposit left out

    def scalars(self) -> dict:
        """Flatten to plain floats with stable per-axis column names."""
        out = {}
        for f in dataclass_fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                for ax, comp in enumerate(v):
                    out[f"{f.name}_{'xyz'[ax]}"] = float(comp)
            else:
                out[f.name] = float(v)
        return out


def _moments(w: np.ndarray, xi: np.ndarray, xi_sq: np.ndarray) -> np.ndarray:
    """(M0, M1 by component, M2) of weights w as one array, given xi and |xi|^2."""
    return np.array([w.sum(), *(_pair(w, v) for v in xi.T), _pair(w, xi_sq)])


def _pair(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b over every entry, with no temporary of their size.

    Every particle sum (M1 by component, M2, the remainders) uses it, not
    w @ v: einsum runs on one thread, while a threaded BLAS dot waits when a
    core is taken.  On a 2-core host at 200k x 3, w @ xi took 0.16 ms on two
    BLAS threads and 0.30 ms on one with the host idle, but 3 to 8 ms when the
    second core was busy; the three einsum component sums take about 1 ms."""
    return float(np.einsum(a, list(range(a.ndim)), b, list(range(b.ndim)), []))


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Trapezoid integral of the samples y(t) from t[0] to each t, as
    scipy.integrate.cumulative_trapezoid(y, t, initial=0.0) sums it."""
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])


class RecordTerms(NamedTuple):
    """What one record forms once and reads twice: the fluid's |u|^2 on the
    grid, its pairing <u, m1> with the drag deposit, and the cutoff tail,
    the particles the velocity cutoff reaches, |xi| > 1/eps, with their
    left-out drag weights q = w r (1 - cutoff) and u and |u|^2 gathered there."""

    grid_u_sq: np.ndarray  # the grid's shape
    u_m1: float          # sum of u m1 over the grid, without the cell volume
    index: np.ndarray    # (k,) rows of the cloud, sorted
    q: np.ndarray        # (k,)
    u: np.ndarray        # (k, dim)
    u_sq: np.ndarray     # (k,)


def record_terms(cloud: ParticleCloud, u: VectorField, drag: DragField,
                 eps: float | None) -> RecordTerms:
    """The record terms of the cloud and its deposit drag in the field u,
    with an empty tail without a cutoff.

    collect_record and regularization_remainders read every term, q among
    them.  |u|^2 is one einsum over the components, which builds no
    temporary the size of u."""
    grid_u_sq = np.einsum("i...,i...->...", u.values, u.values)
    u_m1 = _pair(u.values, drag.m1.values)
    if eps is None:
        return RecordTerms(grid_u_sq, u_m1, np.zeros(0, dtype=np.int64), np.zeros(0),
                           np.zeros((0, cloud.dim)), np.zeros(0))
    defect = 1.0 - velocity_cutoff(cloud.xi, eps)
    index = np.flatnonzero(defect > 0.0)
    q = cloud.w[index] * defect[index]
    q[np.searchsorted(index, cloud.parents):] *= cloud.radius
    x = cloud.x[index]
    return RecordTerms(grid_u_sq, u_m1, index, q, cic_gather(u, x),
                       cic_gather(ScalarField(u.grid, grid_u_sq), x))


def collect_record(t: float, fluid: FluidState, cloud: ParticleCloud,
                   drag: DragField, terms: RecordTerms, *, liquid: float,
                   remainders: tuple[float, float, float], nu: float) -> DiagnosticsRecord:
    """Measure every budget ingredient for the current coupled state.

    fluid.rho, the added density, weighs the fluid's energy and momentum.
    drag is the cloud's drag deposit of weights w r, times the velocity
    cutoff of width eps if it has one; terms is record_terms(cloud,
    fluid.u, drag, eps) with that eps (None without a cutoff), whose tail
    weights q sum to the record's cut_weight.  Each species' (M0, M1, M2)
    are summed once and weighed by 1, by r (the Stokes drag weight, for
    |u - xi|^2 f in the drag dissipation) and by r^3 (the mass); liquid,
    the cloud's liquid_volume, is the record's volume; remainders, of
    regularization_remainders, are stored for energy_budget to book, and nu,
    the viscosity, weighs dissipation_visc.
    The gas's momentum is summed component by component, with no temporary
    the size of u.  The gas is finite: FluidState rejects a non-finite u or
    rho.
    """
    u, rho = fluid.u, fluid.rho
    grid = u.grid
    u_sq = terms.grid_u_sq

    # an empty cloud or species needs no branch: its particle sums are zero
    w, xi = cloud.w, cloud.xi
    xi_sq = rowwise_dot(xi, xi)
    species = [(_moments(w[rows], xi[rows], xi_sq[rows]), r) for rows, r in cloud.species()]
    number = sum(moments for moments, _ in species)
    mass = sum(r**3 * moments for moments, r in species)
    # Deposit S and interpolation I share one kernel, cv <g, S(v)> = sum v I(g),
    # so pairing |u|^2 and u with S(w r c), S(w r c xi) gives sum w r c
    # (I|u|^2 - 2 I u . xi); only the tail, c < 1, is gathered, with its
    # weights q = w r (1 - c).  I|u|^2 (not |I u|^2) cancels the drag work
    # from the energy budget and stays >= 0 (Jensen).
    slip_tail = terms.u_sq - 2.0 * rowwise_dot(terms.u, xi[terms.index])
    dissipation_drag = (
        grid.cell_volume * (_pair(u_sq, drag.m0.values) - 2.0 * terms.u_m1)
        + sum(r * moments[-1] for moments, r in species) + _pair(terms.q, slip_tail))

    weight = 1.0 + rho.values  # the gas's inertia
    fluid_momentum = np.array([np.sum(weight * comp) for comp in u.values]) * grid.cell_volume
    e_fluid = 0.5 * float(np.sum(weight * u_sq)) * grid.cell_volume

    return DiagnosticsRecord(
        t=t,
        e_kinetic_spray=0.5 * mass[-1],
        e_fluid=e_fluid,
        dissipation_visc=nu * grad_l2_norm_sq(grid, fluid.u_hat),
        dissipation_drag=dissipation_drag,
        m0=number[0],
        m1=number[1:-1],
        m2=number[-1],
        total_momentum=mass[1:-1] + fluid_momentum,
        volume=liquid,
        mass_rho=float(integral(rho)),
        div_residual=divergence_residual(grid, fluid.u_hat),
        r1=remainders[0], r2=remainders[1], r3=remainders[2],
        cut_weight=float(terms.q.sum()),
    )


def energy_budget(records: Sequence[DiagnosticsRecord],
                  drag_coefficient: float) -> np.ndarray:
    """Residual of the energy identity at each record time.

    residual(t) = E(t) + int_0^t [dissipation_visc + c * dissipation_drag
                                  - (r1 + r2 + r3)] - E(0),

    with E = e_kinetic_spray + e_fluid, c the scenario drag coefficient
    (1 + 1/(2 tau) for parents absorbed into the gas at rate 1/tau, 1 for the
    two-radius system, whose radius weights already sit inside
    dissipation_drag) and r1, r2, r3 the record's regularization_remainders,
    +0.0 without a cutoff.  Zero for the exact dynamics; first order in dt
    for the discrete splitting of every scenario.
    """
    t = np.array([r.t for r in records])
    if not np.all(np.diff(t) > 0):
        raise ValueError("record times must be strictly increasing")
    energy = np.array([r.e_kinetic_spray + r.e_fluid for r in records])
    dissipation = np.array([r.dissipation_visc + drag_coefficient * r.dissipation_drag
                            - (r.r1 + r.r2 + r.r3) for r in records])
    return energy + _cumulative_trapezoid(dissipation, t) - energy[0]


def momentum_budget(records: Sequence[DiagnosticsRecord]) -> np.ndarray:
    """Drift of the conserved total momentum, (num_records, dim)."""
    p = np.stack([r.total_momentum for r in records])
    return p - p[0]


def momentum_tolerance(records: Sequence[DiagnosticsRecord], dt: float) -> float:
    """First-order splitting tolerance for the momentum drift.

    The drag impulse exchanged up to time T is bounded by
    int 2 sqrt(M0 * dissipation_drag) (Cauchy-Schwarz); the splitting error
    is that impulse times O(dt), allowed here with the constant 4.  The
    fluid-only benchmark cannot calibrate this budget (its drift is
    identically zero), so the tolerance scales with the run's own exchange
    magnitude.
    """
    t = np.array([r.t for r in records])
    rate = np.array([2.0 * np.sqrt(max(r.m0, 0.0) * max(r.dissipation_drag, 0.0))
                     for r in records])
    return 4.0 * dt * float(_cumulative_trapezoid(rate, t)[-1]) + 1e-14


def liquid_volume(cloud: ParticleCloud) -> float:
    """The spray's liquid volume, sum w r^3, from each species' sum of w."""
    return sum(r**3 * cloud.w[rows].sum() for rows, r in cloud.species())


@dataclass
class RadialDensity:
    """Piecewise-constant radial velocity-space density on [0, edges[-1]].

    edges are increasing shell boundaries starting at 0; values[j] is the
    density on [edges[j], edges[j+1]).  Moments integrate exactly:
    m_alpha = 4 pi sum_j values[j] (edges[j+1]^(a+3) - edges[j]^(a+3)) / (a+3).
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        # NaN fails every comparison, so a non-finite edge or value is rejected too
        if self.edges[0] != 0.0 or not (np.all(np.diff(self.edges) > 0)
                                        and self.edges[-1] < np.inf):
            raise ValueError("edges must increase from 0 to a finite end")
        if self.values.size != self.edges.size - 1:
            raise ValueError("need one value per shell")
        if self.values.size and not (self.values.min() >= 0 and self.values.max() < np.inf):
            raise ValueError("radial density must be nonnegative and finite")

    def moment(self, alpha: float) -> float:
        p = alpha + 3.0
        shells = (self.edges[1:] ** p - self.edges[:-1] ** p) / p
        return float(4.0 * np.pi * np.sum(self.values * shells))

    def sup(self) -> float:
        return float(self.values.max(initial=0.0))


def radial_histogram(cloud: ParticleCloud, nbins: int = 32) -> RadialDensity:
    """Space-averaged radial phase density reconstructed from a cloud.

    Bins sum(w) into speed shells and divides by (torus volume (2π)^dim x
    shell volume), yielding a bounded nonnegative radial density whose exact
    shell moments approximate the cloud's.
    """
    speed = np.sqrt(rowwise_dot(cloud.xi, cloud.xi))
    top = max(float(speed.max(initial=0.0)) * 1.0001, 1e-12)
    # uniform bins take numpy's fast path; the edges are linspace(0, top, nbins + 1)
    counts, edges = np.histogram(speed, bins=nbins, range=(0.0, top), weights=cloud.w)
    shell_vol = BALL_VOLUME_FACTOR * (edges[1:] ** 3 - edges[:-1] ** 3)
    return RadialDensity(edges, counts / (TWO_PI**cloud.dim * shell_vol))


def check_moment_bound(h: RadialDensity, alpha: float,
                       gamma: float) -> tuple[float, float, bool]:
    """Interpolation bound between velocity moments of a bounded density.

    For 0 <= alpha < gamma the moments of any bounded nonnegative h satisfy

        m_alpha <= ((4/3) pi sup h + 1) * m_gamma ^ ((alpha+3)/(gamma+3))

    (split the integral at R = m_gamma^(1/(gamma+3)) and bound each part).
    Returns (lhs, rhs, lhs <= rhs within 1e-9 relative slack).
    """
    if not 0 <= alpha < gamma:
        raise ValueError("need 0 <= alpha < gamma")
    lhs = h.moment(alpha)
    m_gamma = h.moment(gamma)
    rhs = (BALL_VOLUME_FACTOR * h.sup() + 1.0) * m_gamma ** ((alpha + 3.0) / (gamma + 3.0))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9)


def regularization_remainders(cloud: ParticleCloud, drag: DragField, terms: RecordTerms,
                              u_mollified: VectorField, u_mollified_at_x: np.ndarray, *,
                              coupling: float,
                              drag_coefficient: float) -> tuple[float, float, float]:
    """Energy-budget defect terms introduced by the velocity cutoff and mollifier.

    r1 = c sum q |u|^2(x)
    r2 = -C sum q xi . u(x)
    r3 = sum w r xi . (mollified u - u)(x)

    with q = w r (1 - cutoff(xi)) the drag weight that the deposit left out,
    C the coupling of the fluid step and c the drag coefficient of
    energy_budget, whose residual rate they close: r1 + r2 + r3.  u(x) and
    |u|^2(x) are interpolated at the particles: r1 interpolates |u|^2, not
    u, as collect_record's drag dissipation does.  drag, the deposit of the
    weights w r cutoff(xi), is paired with u_mollified - u, and r3 adds the
    tail |xi| > 1/eps, over which r1 and r2 sum.  terms is
    record_terms(cloud, u, drag, eps), the record's: it carries q, u gathered
    on the tail and its pairing <u, m1>, so u is no argument.  u_mollified,
    on u's grid, is paired here, and u_mollified_at_x is it gathered at
    every particle, as the pass that deposited drag returns it
    (`kinetic.deposit_moments`); only its tail rows are read, so nothing is
    gathered here.  All three are +0.0 without a cutoff (an empty tail, and
    u_mollified is u) and vanish as eps -> 0 (1/eps swallows the velocities).
    """
    xi_tail = cloud.xi[terms.index]
    r1 = drag_coefficient * _pair(terms.q, terms.u_sq)
    # the dot, not the coupling, is negated: an empty tail gives r2 = +0.0
    r2 = coupling * _pair(terms.q, -rowwise_dot(xi_tail, terms.u))
    u_star = u_mollified_at_x[terms.index]
    dv = u_mollified.grid.cell_volume
    r3 = (dv * (_pair(u_mollified.values, drag.m1.values) - terms.u_m1)
          + _pair(terms.q, rowwise_dot(xi_tail, u_star - terms.u)))
    return r1, r2, r3
