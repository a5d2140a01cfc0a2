"""thinspray: torus-periodic kinetic-fluid solver for thin sprays.

A pseudo-spectral incompressible Navier-Stokes solver coupled to a particle
(characteristics) discretization of a Vlasov droplet phase, with droplet
fragmentation, an added-density small-droplet limit, a mollified/truncated
regularization, and diagnostics that check the conservation budgets, energy
inequality, moment bounds and Gronwall-type estimates satisfied by the
continuous system.

The package re-exports the run entry points, the grid types and operators,
the inequality checks and the error types.  Every layer is importable as a
submodule for the rest: ``thinspray.grid``, ``thinspray.transfer``,
``thinspray.fluid``, ``thinspray.kinetic``, ``thinspray.density``,
``thinspray.diagnostics``, ``thinspray.scenarios`` and
``thinspray.snapshots``.
"""

from .diagnostics import (
    RadialDensity,
    blowup_time_bound,
    check_moment_bound,
    energy_budget,
    gronwall_compare,
    momentum_budget,
)
from .errors import ConfigError, FieldError, GridMismatchError, StepRejectedError
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    divergence,
    gradient,
    inner,
    l2_norm,
    laplacian,
    leray_project,
    mollify,
)
from .scenarios import SimConfig, load_config, run_scenario, sweep_r2

__all__ = [
    "ConfigError",
    "FieldError",
    "GridMismatchError",
    "GridSpec",
    "RadialDensity",
    "ScalarField",
    "SimConfig",
    "StepRejectedError",
    "VectorField",
    "blowup_time_bound",
    "check_moment_bound",
    "divergence",
    "energy_budget",
    "gradient",
    "gronwall_compare",
    "inner",
    "l2_norm",
    "laplacian",
    "leray_project",
    "load_config",
    "momentum_budget",
    "mollify",
    "run_scenario",
    "sweep_r2",
]
