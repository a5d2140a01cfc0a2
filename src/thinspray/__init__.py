"""thinspray: torus-periodic kinetic-fluid solver for thin sprays.

A pseudo-spectral incompressible Navier-Stokes solver coupled to a particle
(characteristics) discretization of a Vlasov droplet phase, with droplet
fragmentation, an added-density small-droplet limit, a mollified/truncated
regularization, and diagnostics that check the conservation budgets, energy
inequality, moment bounds and Gronwall-type estimates satisfied by the
continuous system.
"""

from .density import DensityField, density_step
from .diagnostics import (
    DiagnosticsRecord,
    GronwallProblem,
    RadialDensity,
    blowup_time_bound,
    check_moment_bound,
    cloud_moments,
    collect_record,
    energy_budget,
    gronwall_compare,
    momentum_budget,
    radial_histogram,
    regularization_remainders,
)
from .errors import ConfigError, FieldError, GridMismatchError, StepRejectedError
from .fluid import DragField, FluidState, drag_force, ns_step
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    dealias,
    divergence,
    divergence_residual,
    gradient,
    inner,
    integral,
    l2_norm,
    laplacian,
    leray_project,
    mean,
    mollify,
)
from .kinetic import (
    ParticleCloud,
    TruncationSpec,
    absorb_and_fragment,
    absorb_to_density,
    advance_particles,
    deposit_moments,
    interpolate_velocity,
    merge_particles,
    sample_gaussian_spray,
    velocity_cutoff,
)
from .scenarios import RunResult, SimConfig, SweepResult, load_config, run_scenario, sweep_r2

__all__ = [
    "ConfigError",
    "DensityField",
    "DiagnosticsRecord",
    "DragField",
    "FieldError",
    "FluidState",
    "GridMismatchError",
    "GridSpec",
    "GronwallProblem",
    "ParticleCloud",
    "RadialDensity",
    "RunResult",
    "ScalarField",
    "SimConfig",
    "StepRejectedError",
    "SweepResult",
    "TruncationSpec",
    "VectorField",
    "absorb_and_fragment",
    "absorb_to_density",
    "advance_particles",
    "blowup_time_bound",
    "check_moment_bound",
    "cloud_moments",
    "collect_record",
    "dealias",
    "density_step",
    "deposit_moments",
    "divergence",
    "divergence_residual",
    "drag_force",
    "energy_budget",
    "gradient",
    "gronwall_compare",
    "inner",
    "integral",
    "interpolate_velocity",
    "l2_norm",
    "laplacian",
    "leray_project",
    "load_config",
    "mean",
    "merge_particles",
    "mollify",
    "momentum_budget",
    "ns_step",
    "radial_histogram",
    "regularization_remainders",
    "run_scenario",
    "sample_gaussian_spray",
    "sweep_r2",
    "velocity_cutoff",
]
