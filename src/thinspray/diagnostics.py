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
    ScalarField,
    VectorField,
    divergence_residual,
    grad_l2_norm_sq,
    integral,
    require_finite,
)
from .kinetic import ParticleCloud, rowwise_dot, velocity_cutoff
from .transfer import cic_gather

BALL_VOLUME_FACTOR = 4.0 * np.pi / 3.0


@dataclass
class DiagnosticsRecord:
    """One row of per-step diagnostics.

    Spray kinetic energy weighs each droplet by its liquid volume r^3 (1 for
    parents, r2^3 for fragments); the drag dissipation weighs it by its
    radius r, so the energy budget closes with a single scenario coefficient.
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
    mass_f: float            # number of droplets (sum of weights)
    mass_rho: float          # integral of the added density
    div_residual: float

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


def _moments(w: np.ndarray, xi: np.ndarray, xi_sq: np.ndarray):
    """(M0, M1, M2) of weights w, given the velocities and their squares."""
    return float(w.sum()), w @ xi, _pair(w, xi_sq)


def _pair(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b over every entry, with no temporary of their size.

    The particle sums use it too, not w @ v: with several BLAS threads one
    such dot of 200k entries took 8 ms on a 2-core host, against 0.16 ms on
    one thread or through einsum."""
    return float(np.einsum(a, list(range(a.ndim)), b, list(range(b.ndim)), []))


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Trapezoid integral of the samples y(t) from t[0] to each t, as
    scipy.integrate.cumulative_trapezoid(y, t, initial=0.0) sums it."""
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])


class CutoffTail(NamedTuple):
    """The particles the velocity cutoff reaches, |xi| > 1/eps, with their
    weight defect 1 - cutoff and the fluid's u and |u|^2 gathered there."""

    index: np.ndarray    # (k,) rows of the cloud
    defect: np.ndarray   # (k,)
    u: np.ndarray        # (k, dim)
    u_sq: np.ndarray     # (k,)


def cutoff_tail(cloud: ParticleCloud, u: VectorField, eps: float | None) -> CutoffTail:
    """The cutoff tail of the cloud in the field u, empty without a cutoff.

    A record gathers it once; collect_record and regularization_remainders
    both read it."""
    if eps is None:
        return CutoffTail(np.zeros(0, dtype=np.int64), np.zeros(0),
                          np.zeros((0, cloud.dim)), np.zeros(0))
    defect = 1.0 - velocity_cutoff(cloud.xi, eps)
    index = np.flatnonzero(defect > 0.0)
    x = cloud.x[index]
    u_sq = ScalarField(u.grid, np.sum(u.values**2, axis=0))
    return CutoffTail(index, defect[index], cic_gather(u, x), cic_gather(u_sq, x))


def collect_record(t: float, fluid: FluidState, cloud: ParticleCloud,
                   rho: ScalarField, drag: DragField, tail: CutoffTail, *,
                   nu: float = 1.0) -> DiagnosticsRecord:
    """Measure every budget ingredient for the current coupled state.

    rho is the added density; a run without one passes ScalarField.zeros.
    drag is the cloud's drag deposit of weights w r, times the velocity
    cutoff of width eps if it has one; tail is cutoff_tail(cloud, fluid.u,
    eps) with that eps (None without a cutoff).  The radius r, the Stokes
    drag weight, also weighs |u - xi|^2 f in the drag dissipation.  A
    non-finite u raises FieldError.
    """
    u = fluid.u
    grid = u.grid
    require_finite(u, "fluid velocity")
    u_sq = np.sum(u.values**2, axis=0)

    # an empty cloud needs no branch: every particle sum below is then zero
    w, xi = cloud.w, cloud.xi
    xi_sq = rowwise_dot(xi, xi)
    m0, m1, m2 = _moments(w, xi, xi_sq)
    _, m1_mass, m2_mass = _moments(w * cloud.r**3, xi, xi_sq)
    # Deposit S and interpolation I share one kernel, cv <g, S(v)> = sum v I(g),
    # so pairing |u|^2 and u with S(q c), S(q c xi) gives sum q c (I|u|^2 -
    # 2 I u . xi); only the tail, c < 1, is gathered.  I|u|^2 (not |I u|^2)
    # cancels the drag work from the energy budget and stays >= 0 (Jensen).
    q = w * cloud.r
    slip_tail = tail.u_sq - 2.0 * rowwise_dot(tail.u, xi[tail.index])
    dissipation_drag = (
        grid.cell_volume * (_pair(u_sq, drag.m0.values) - 2.0 * _pair(u.values, drag.m1.values))
        + _pair(q, xi_sq) + _pair(q[tail.index] * tail.defect, slip_tail))

    fluid_momentum = integral(VectorField(grid, (1.0 + rho.values) * u.values))
    e_fluid = 0.5 * float(np.sum((1.0 + rho.values) * u_sq)) * grid.cell_volume

    return DiagnosticsRecord(
        t=t,
        e_kinetic_spray=0.5 * m2_mass,
        e_fluid=e_fluid,
        dissipation_visc=nu * grad_l2_norm_sq(grid, fluid.u_hat),
        dissipation_drag=dissipation_drag,
        m0=m0,
        m1=np.asarray(m1, dtype=float),
        m2=m2,
        total_momentum=np.asarray(m1_mass + fluid_momentum, dtype=float),
        mass_f=m0,
        mass_rho=float(integral(rho)),
        div_residual=divergence_residual(grid, fluid.u_hat),
    )


def energy_budget(records: Sequence[DiagnosticsRecord],
                  drag_coefficient: float) -> np.ndarray:
    """Residual of the energy identity at each record time.

    residual(t) = E(t) + int_0^t [dissipation_visc + c * dissipation_drag]
                  - E(0),

    with E = e_kinetic_spray + e_fluid and c the scenario drag coefficient
    (1 + 1/(2 tau) for parents absorbed into the gas at rate 1/tau, 1 for the
    two-radius system, whose radius weights already sit inside
    dissipation_drag).  Zero for the exact dynamics; first order in dt for
    the discrete splitting.
    """
    t = np.array([r.t for r in records])
    if not np.all(np.diff(t) > 0):
        raise ValueError("record times must be strictly increasing")
    energy = np.array([r.e_kinetic_spray + r.e_fluid for r in records])
    dissipation = np.array(
        [r.dissipation_visc + drag_coefficient * r.dissipation_drag for r in records]
    )
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
    """Total liquid volume: sum of weights times radius cubed."""
    return float(np.sum(cloud.w * cloud.r**3))


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
        if self.edges[0] != 0.0 or np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must increase from 0")
        if self.values.size != self.edges.size - 1:
            raise ValueError("need one value per shell")
        if self.values.size and self.values.min() < 0:
            raise ValueError("radial density must be nonnegative")

    def moment(self, alpha: float) -> float:
        p = alpha + 3.0
        shells = (self.edges[1:] ** p - self.edges[:-1] ** p) / p
        return float(4.0 * np.pi * np.sum(self.values * shells))

    def sup(self) -> float:
        return float(self.values.max(initial=0.0))


def radial_histogram(cloud: ParticleCloud, volume_x: float,
                     nbins: int = 32) -> RadialDensity:
    """Space-averaged radial phase density reconstructed from a cloud.

    Bins sum(w) into speed shells and divides by (spatial volume x shell
    volume), yielding a bounded nonnegative radial density whose exact shell
    moments approximate the cloud's.
    """
    speed = np.sqrt(rowwise_dot(cloud.xi, cloud.xi))
    top = max(float(speed.max(initial=0.0)) * 1.0001, 1e-12)
    # uniform bins take numpy's fast path; the edges are linspace(0, top, nbins + 1)
    counts, edges = np.histogram(speed, bins=nbins, range=(0.0, top), weights=cloud.w)
    shell_vol = BALL_VOLUME_FACTOR * (edges[1:] ** 3 - edges[:-1] ** 3)
    return RadialDensity(edges, counts / (volume_x * shell_vol))


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


def regularization_remainders(cloud: ParticleCloud, drag: DragField, tail: CutoffTail,
                              u: VectorField, u_mollified: VectorField, *, coupling: float,
                              drag_coefficient: float) -> tuple[float, float, float]:
    """Energy-budget defect terms introduced by the velocity cutoff and mollifier.

    r1 = c sum w |u|^2(x) (1 - cutoff(xi))
    r2 = C sum w (xi . u(x)) (cutoff(xi) - 1)
    r3 = sum w xi . (mollified u - u)(x)

    C is the coupling of the fluid step and c the drag coefficient of
    energy_budget, whose residual rate they close: r1 + r2 + r3.
    u(x) and |u|^2(x) are interpolated at the particles: r1 interpolates
    |u|^2, not u, as collect_record's drag dissipation does.  The cloud must
    hold parents alone, so that drag, its deposit with the cutoff of width
    eps, has the weights w cutoff(xi): r3 pairs it with u_mollified - u and
    adds the tail |xi| > 1/eps, over which r1 and r2 sum.  tail is
    cutoff_tail(cloud, u, eps), the record's, so only u_mollified is
    gathered here.  A non-finite u or u_mollified raises FieldError.  All
    three vanish as eps -> 0 (the cutoff radius 1/eps swallows the sampled
    velocities).
    """
    if np.any(cloud.r != 1.0):
        raise ValueError("the remainders need a cloud of parents only")
    require_finite(u, "fluid velocity")
    require_finite(u_mollified, "mollified velocity")
    xi_tail, w_tail = cloud.xi[tail.index], cloud.w[tail.index] * tail.defect
    r1 = drag_coefficient * _pair(w_tail, tail.u_sq)
    r2 = -coupling * _pair(w_tail, rowwise_dot(xi_tail, tail.u))
    m1 = drag.m1.values
    u_star = cic_gather(u_mollified, cloud.x[tail.index])
    r3 = (u.grid.cell_volume * (_pair(u_mollified.values, m1) - _pair(u.values, m1))
          + _pair(w_tail, rowwise_dot(xi_tail, u_star - tail.u)))
    return r1, r2, r3
