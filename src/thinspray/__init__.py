"""thinspray: torus-periodic kinetic-fluid solver for thin sprays.

A pseudo-spectral incompressible Navier-Stokes solver coupled to a particle
(characteristics) discretization of a Vlasov droplet phase, with droplet
fragmentation, an added-density small-droplet limit, and a mollified/truncated
regularization.  Every run checks the divergence of the gas velocity, the
energy budget, the total momentum, the mass or liquid-volume budget of its
scenario, and the velocity-moment bound of the droplet density.

The package re-exports the run entry points, the grid types, the momentum
budget, the moment-bound check and the error types; a run's summary holds
every budget it checks.  Every layer is importable as a submodule for the
rest: ``thinspray.grid``, ``thinspray.transfer``,
``thinspray.fluid``, ``thinspray.kinetic``, ``thinspray.density``,
``thinspray.diagnostics``, ``thinspray.scenarios`` and
``thinspray.snapshots``.
"""

from .diagnostics import RadialDensity, check_moment_bound, momentum_budget
from .errors import ConfigError, FieldError, GridMismatchError, StepRejectedError
from .grid import GridSpec, ScalarField, VectorField
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
    "check_moment_bound",
    "load_config",
    "momentum_budget",
    "run_scenario",
    "sweep_r2",
]
