"""Scenario orchestration: configuration, time loops, budget summaries, sweeps.

Three scenarios share one splitting (fluid step, particle push, breakup,
density transport, diagnostics):

* ``limit``       - unit-radius parents break up at rate 1/tau into the added
                    density rho, which multiplies the fluid inertia; drag
                    coupling coefficient 1 + 1/tau.
* ``bidisperse``  - unit-radius parents break up at rate 1/tau into radius-r2
                    fragments; no added density (rho stays zero); coupling 1.
* ``regularized`` - the limit dynamics with a mollified advecting velocity
                    and a smooth velocity-space cutoff on the deposited
                    moments; records the cutoff/mollifier energy remainders.

All three run one step path.  Under Stokes drag a droplet of radius r pulls
on the gas with weight r and relaxes in time r^2, so the drag deposit, the
particle push and the drag dissipation weigh each particle by its species
radius; the scenarios differ in the step only by the coupling constant and
the drag coefficient of the energy budget.  A parent absorbed into rho joins
the gas at the gas velocity u: breakup at rate 1/tau hands the gas the
impulse (w/tau)(xi - u) on top of the drag w (xi - u) and dissipates
(w/2tau)|xi - u|^2, so the limit-like scenarios couple with 1 + 1/tau and
weigh the drag dissipation with 1 + 1/(2 tau).
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .density import DensityField, density_step
from .diagnostics import (
    check_moment_bound,
    collect_record,
    energy_budget,
    liquid_volume,
    momentum_budget,
    momentum_tolerance,
    radial_histogram,
    regularization_remainders,
)
from .errors import ConfigError, FieldError, StepRejectedError
from .fluid import FluidState, ns_step
from .grid import GridSpec, ScalarField, VectorField, leray_project, mollify
from .kinetic import (
    FRAGMENT_SPECIES,
    ParticleCloud,
    absorb_and_fragment,
    advance_particles,
    deposit_moments,
    interpolate_velocity,
    merge_particles,
    sample_gaussian_spray,
    species_radius,
)
from .snapshots import (
    write_diagnostics_csv,
    write_field,
    write_particles,
    write_summary_json,
)
from .transfer import cic_scatter

log = logging.getLogger(__name__)

SCENARIOS = ("limit", "bidisperse", "regularized")
FLUID_PRESETS = ("taylor-green", "zero")
SPRAY_PRESETS = ("gaussian", "offset", "none")

# Energy gate: a run passes when |residual(t)| <= RATE * dt * t at every
# record, the first-order splitting error allowed per unit dt and time.  The
# rate was measured on the drag-free benchmark (taylor-green, n=32, dt=1e-3).
DEFAULT_ENERGY_RATE = 250.0
DIV_TOLERANCE = 1e-10
MASS_TOLERANCE = 1e-10
VOLUME_TOLERANCE = 1e-12


@dataclass
class SimConfig:
    """All physical and numerical parameters of one run."""

    dim: int = 3
    n: int = 32
    dt: float = 1e-3
    t_final: float = 0.5
    scenario: str = "limit"
    r2: float = 0.1
    tau: float = 1.0              # breakup time of the parents; inf disables breakup
    eps: float = 0.0              # mollifier/cutoff width; regularized runs only
    particle_count: int = 200_000
    particle_budget: int = 400_000
    seed: int = 0
    fluid_init: str = "taylor-green"
    spray_init: str = "offset"
    spray_mass: float = 0.3       # total droplet number of the initial cloud
    spray_sigma: float = 0.6      # velocity spread of the initial cloud
    spray_mean_speed: float = 0.5  # offset preset: mean velocity along x
    rho0: float = 0.0             # uniform initial added density; not bidisperse
    nu: float = 1.0
    diag_stride: int = 1
    snapshot_stride: int = 0      # 0 = no snapshots
    output_dir: str = ""

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick from {SCENARIOS}")
        if self.fluid_init not in FLUID_PRESETS:
            raise ConfigError(f"unknown fluid preset {self.fluid_init!r}")
        if self.spray_init not in SPRAY_PRESETS:
            raise ConfigError(f"unknown spray preset {self.spray_init!r}")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.t_final > 0:
            raise ConfigError("t_final must be positive")
        if not 0 < self.r2 < 1:
            raise ConfigError("r2 must lie in (0, 1)")
        if not self.tau > 0:
            raise ConfigError("tau must be positive (inf disables breakup)")
        if self.eps < 0:
            raise ConfigError("eps must be nonnegative")
        if self.scenario == "regularized" and not self.eps > 0:
            raise ConfigError("regularized scenario needs eps > 0")
        if self.scenario != "regularized" and self.eps > 0:
            raise ConfigError(f"the {self.scenario} scenario ignores eps; set eps = 0")
        if self.particle_count < 2 and self.spray_init != "none":
            raise ConfigError("particle_count must be at least 2")
        if self.particle_budget < 1:
            raise ConfigError("particle_budget must be positive")
        if self.spray_mass < 0 or self.spray_sigma < 0:
            raise ConfigError("spray mass and sigma must be nonnegative")
        if self.rho0 < 0:
            raise ConfigError("rho0 must be nonnegative")
        if self.scenario == "bidisperse" and self.rho0 > 0:
            raise ConfigError("the bidisperse scenario has no added density; set rho0 = 0")
        if not self.nu > 0:
            raise ConfigError("nu must be positive")
        if self.diag_stride < 1 or self.snapshot_stride < 0:
            raise ConfigError("strides must be positive (snapshot_stride may be 0)")
        h = self.grid.h  # GridSpec validates n and dim
        u_scale = 1.0 if self.fluid_init == "taylor-green" else 0.0
        if self.spray_init != "none" and self.spray_mass > 0:  # as initial_cloud
            mean = self.spray_mean_speed if self.spray_init == "offset" else 0.0
            u_scale += abs(mean) + 3.0 * self.spray_sigma
        if u_scale > 0 and self.dt > h / u_scale:
            warnings.warn(
                f"dt={self.dt} exceeds the advective scale h/|u| ~ {h / u_scale:.2e}; "
                "steps may be rejected",
                stacklevel=2,
            )

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.dim, self.n)

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


def load_config(path, overrides: dict | None = None) -> SimConfig:
    """Read a flat key=value file; later assignments and overrides win.

    A "#" starts a comment anywhere on a line, so no value can contain one.
    Only the syntax and the keys are checked here; run_scenario validates.
    """
    types = {name: type(value) for name, value in vars(SimConfig()).items()}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = types[key](text)  # float accepts "inf"
        except ValueError as err:
            raise ConfigError(f"cannot parse {key}={text!r}: {err}") from None
    if overrides:
        values.update(overrides)
    return SimConfig(**values)


def taylor_green_velocity(grid: GridSpec) -> VectorField:
    """Divergence-free cellular vortex initial velocity of unit amplitude."""
    mesh = grid.meshgrid()
    if grid.dim == 2:
        comps = [
            np.sin(mesh[0]) * np.cos(mesh[1]),
            -np.cos(mesh[0]) * np.sin(mesh[1]),
        ]
    else:
        comps = [
            np.sin(mesh[0]) * np.cos(mesh[1]) * np.cos(mesh[2]),
            -np.cos(mesh[0]) * np.sin(mesh[1]) * np.cos(mesh[2]),
            np.zeros(grid.shape),
        ]
    return VectorField.from_components(grid, *comps)


def initial_fluid(config: SimConfig) -> FluidState:
    grid = config.grid
    if config.fluid_init == "zero":
        u = VectorField.zeros(grid)
    else:
        u = leray_project(taylor_green_velocity(grid))
    return FluidState(u, 0.0)


def initial_cloud(config: SimConfig) -> ParticleCloud:
    grid = config.grid
    if config.spray_init == "none" or config.spray_mass == 0:
        return ParticleCloud.empty(grid.dim)
    mean = np.zeros(grid.dim)
    if config.spray_init == "offset":
        mean[0] = config.spray_mean_speed
    return sample_gaussian_spray(
        grid, config.particle_count, config.spray_mass, mean,
        config.spray_sigma, config.seed,
    )


@dataclass
class RunResult:
    config: SimConfig
    records: list
    summary: dict
    fluid: FluidState
    cloud: ParticleCloud
    density: DensityField
    remainders: list = field(default_factory=list)  # (t, r1, r2, r3) when regularized


def _write_snapshots(config: SimConfig, tag: str, fluid: FluidState,
                     cloud: ParticleCloud, density: DensityField):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_field(out / f"velocity_{tag}.field", fluid.u, fluid.t)
    write_field(out / f"density_{tag}.field", density.rho, fluid.t)
    if cloud.count:
        write_particles(out / f"particles_{tag}.particles", cloud, fluid.t)


def run_scenario(config: SimConfig) -> RunResult:
    """Integrate one scenario and summarize every budget.

    Step layout: fluid step -> particle push -> breakup (parent weights
    decay by exp(-dt/tau); the lost weight spawns fragments in bidisperse,
    merged over budget, and feeds the density source otherwise) -> one
    particle-grid pass at the new positions: the next step's drag deposit
    and the limit's lost-weight density -> density transport -> diagnostics,
    which pair grid fields with that deposit (see collect_record).  The regularized
    scenario mollifies u once per step, from its carried spectrum; that
    field advects the particles, the density and, in the next step, the gas.
    A step is rejected when it violates the advective CFL condition (in the
    fluid or the density step) or produces a non-finite field.  Either cause
    raises one StepRejectedError that names the step, t and the cause, after
    writing the last healthy state as the "last_good" snapshot when an
    output directory is set.
    """
    config.validate()
    t_start = time.perf_counter()
    grid = config.grid
    is_limit_like = config.scenario != "bidisperse"
    regularized = config.scenario == "regularized"
    eps = config.eps if regularized else None
    # drag coupling of the fluid step and drag coefficient of the energy budget
    coupling, drag_coeff = ((1.0 + 1.0 / config.tau, 1.0 + 0.5 / config.tau)
                            if is_limit_like else (1.0, 1.0))

    fluid = initial_fluid(config)
    cloud = initial_cloud(config)
    density = DensityField.uniform(grid, config.rho0)
    u_star = mollify(fluid.u, eps, fluid.u_hat) if eps else fluid.u  # the advecting velocity
    records, volumes, remainders = [], [], []

    def grid_pass(cloud, lost=None):
        radius = species_radius(cloud.species, config.r2)
        return deposit_moments(cloud, grid, eps, radius, lost=lost)

    def record(t, drag):  # of the current fluid, cloud and density, and the cloud's deposit
        records.append(collect_record(t, fluid, cloud, density.rho, drag,
                                      r2=config.r2, nu=config.nu, eps=eps))
        volumes.append(liquid_volume(cloud, config.r2))
        if regularized:
            remainders.append((t, *regularization_remainders(
                cloud, drag, fluid.u, u_star, eps, coupling=coupling,
                drag_coefficient=drag_coeff)))

    drag, _ = grid_pass(cloud)
    record(0.0, drag)
    lemma_checks, merge_m2_max = [], 0.0
    last_good = (fluid, cloud, density)
    lemma_stride = max(1, config.steps // 10)

    for step in range(1, config.steps + 1):
        t = step * config.dt
        try:
            fluid = ns_step(fluid, u_star, density.rho, drag, config.dt, nu=config.nu,
                            coupling=coupling)
            # regularized: the cut-off number density breaks up at rate 1/tau
            source = drag.m0.values / config.tau if regularized else None
            del drag  # so one drag field is alive when the pass below makes the next
            if not np.isfinite(fluid.u.values).all():
                raise StepRejectedError("non-finite field")
            u_star = mollify(fluid.u, eps, fluid.u_hat) if eps else fluid.u
            cloud = advance_particles(cloud, u_star, config.dt, r2=config.r2)
            cloud, lost = absorb_and_fragment(cloud, config.dt, config.tau)
            if not is_limit_like:
                spawn = lost > 0
                if spawn.any():
                    cloud = ParticleCloud.concatenate([cloud, ParticleCloud(
                        cloud.x[spawn], cloud.xi[spawn], lost[spawn] / config.r2**3,
                        np.full(spawn.sum(), FRAGMENT_SPECIES, dtype=np.int64))])
                if cloud.count > config.particle_budget:
                    cloud, m2_err = merge_particles(cloud, config.particle_budget,
                                                    length=grid.length)
                    merge_m2_max = max(merge_m2_max, m2_err)
                    if m2_err > 0.01:
                        log.warning("merge pass changed spray energy by %.2e", m2_err)
            drag, lost_density = grid_pass(cloud, lost if config.scenario == "limit" else None)
            del lost  # held through the next push, it adds ~5 MB of peak RSS (200k particles)
            if is_limit_like:
                if not regularized:
                    source = lost_density / config.dt
                density = density_step(density, u_star, ScalarField(grid, source), config.dt)
            if not np.isfinite(density.rho.values).all():
                raise StepRejectedError("non-finite field")
        except (StepRejectedError, FieldError) as err:
            snapshot = "not requested"
            if config.output_dir:
                _write_snapshots(config, "last_good", *last_good)
                snapshot = f"written to {config.output_dir}"
            raise StepRejectedError(f"step {step} (t={t:.4g}) rejected: {err}; "
                                    f"last-good snapshot {snapshot}") from err
        last_good = (fluid, cloud, density)

        if step % config.diag_stride == 0 or step == config.steps:
            record(t, drag)
        if step % lemma_stride == 0 and cloud.count:
            hist = radial_histogram(cloud, grid.volume)
            for alpha, gamma in ((0.0, 2.0), (1.0, 2.0)):
                lemma_checks.append(check_moment_bound(hist, alpha, gamma)[2])
        if config.snapshot_stride and step % config.snapshot_stride == 0:
            _write_snapshots(config, f"{step:06d}", fluid, cloud, density)

    summary = _summarize(config, records, volumes, lemma_checks, merge_m2_max,
                         drag_coeff, time.perf_counter() - t_start)
    result = RunResult(config, records, summary, fluid, cloud, density, remainders)
    if config.output_dir:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_diagnostics_csv(out / "diagnostics.csv", records)
        write_summary_json(out / "summary.json", summary)
        _write_snapshots(config, "final", fluid, cloud, density)
    return result


def _summarize(config: SimConfig, records, volumes, lemma_checks, merge_m2_max,
               drag_coeff, wall_time) -> dict:
    t = np.array([r.t for r in records])
    div_max = max(r.div_residual for r in records)

    energy_res = energy_budget(records, drag_coeff)
    energy_tol = np.maximum(DEFAULT_ENERGY_RATE * config.dt * t, 1e-12)
    energy_pass = bool(np.all(np.abs(energy_res) <= energy_tol))

    drift = momentum_budget(records)
    drift_max = float(np.abs(drift).max())
    mom_tol = momentum_tolerance(records, config.dt)
    mom_pass = bool(drift_max <= mom_tol)

    summary = {
        "scenario": config.scenario,
        "steps": config.steps,
        "wall_time": wall_time,
        "divergence": {
            "max": div_max, "tol": DIV_TOLERANCE, "pass": div_max <= DIV_TOLERANCE,
        },
        "energy": {
            "max_residual": float(np.abs(energy_res).max()),
            "final_residual": float(energy_res[-1]),
            "tol_rate": DEFAULT_ENERGY_RATE,
            "pass": energy_pass,
        },
        "momentum": {
            "max_drift": drift_max, "tol": mom_tol, "pass": mom_pass,
        },
        "lemma1": {
            "checked": len(lemma_checks),
            "pass": bool(all(lemma_checks)) if lemma_checks else None,
        },
        "merge_m2_max": merge_m2_max,
    }

    if config.scenario == "bidisperse":
        vols = np.asarray(volumes)
        vol_err = float(np.abs(vols - vols[0]).max())
        vol_tol = VOLUME_TOLERANCE * max(1.0, abs(vols[0]))
        summary["liquid_volume"] = {
            "max_error": vol_err, "tol": vol_tol, "pass": vol_err <= vol_tol,
        }
        summary["mass_budget"] = {"max_error": None, "tol": None, "pass": None}
        return summary

    totals = np.array([r.mass_f + r.mass_rho for r in records])
    scale = max(1.0, abs(totals[0]))
    mass_err = float(np.abs(totals - totals[0]).max())
    if config.scenario == "limit":
        summary["mass_budget"] = {
            "max_error": mass_err, "tol": MASS_TOLERANCE * scale,
            "pass": mass_err <= MASS_TOLERANCE * scale,
        }
    else:
        # the velocity cutoff removes droplet number on purpose; report only
        summary["mass_budget"] = {"max_error": mass_err, "tol": None, "pass": None}
    summary["liquid_volume"] = {"max_error": None, "tol": None, "pass": None}
    return summary


@dataclass
class SweepRow:
    r2: float
    delta: float          # mass-weighted mean squared slip of the fragments
    rho_mismatch: float   # L2 distance between fragment mass density and rho


@dataclass
class SweepResult:
    rows: list            # sorted by r2 descending
    slope: float          # fitted log-log slope of delta vs r2
    limit_summary: dict
    run_summaries: dict   # r2 -> summary

    def as_dict(self) -> dict:
        return {
            "rows": [{"r2": r.r2, "delta": r.delta, "rho_mismatch": r.rho_mismatch}
                     for r in self.rows],
            "loglog_slope": self.slope,
            "limit_summary": self.limit_summary,
            "run_summaries": self.run_summaries,
        }


def fragment_slip(result: RunResult) -> float:
    """Mass-weighted mean |xi - u(x)|^2 over the fragment species."""
    cloud = result.cloud
    fragments = cloud.select(cloud.species == FRAGMENT_SPECIES)
    if fragments.count == 0:
        return 0.0
    up = interpolate_velocity(result.fluid.u, fragments.x)
    slip = np.sum((fragments.xi - up) ** 2, axis=1)
    # the r2^3 mass factor is common to numerator and denominator
    return float(np.sum(fragments.w * slip) / fragments.w.sum())


def fragment_mass_density(result: RunResult) -> ScalarField:
    """Mass density r2^3 m0 of the fragment species on the grid."""
    cloud = result.cloud
    grid = result.config.grid
    fragments = cloud.select(cloud.species == FRAGMENT_SPECIES)
    m0 = cic_scatter(grid, fragments.x, fragments.w)
    return ScalarField(grid, result.config.r2**3 * m0)


def sweep_r2(config: SimConfig, r2_list) -> SweepResult:
    """Compare two-radius runs against the matched limit-system run.

    All members share the seed, the initial data and the breakup time tau,
    so the matched limit run absorbs into rho at the rate at which the
    bidisperse members fragment; r2_list must be strictly decreasing.
    delta(r2) is the fragments' velocity-relaxation metric at the final
    time; rho_mismatch compares their mass density against the limit run's
    added density.  The fitted log-log slope of delta is reported (the r2^2
    relaxation time suggests a slope near 2).
    """
    r2_list = [float(v) for v in r2_list]
    if any(b >= a for a, b in zip(r2_list, r2_list[1:])):
        raise ConfigError("r2_list must be strictly decreasing")
    if any(not 0 < v < 1 for v in r2_list):
        raise ConfigError("every r2 must lie in (0, 1)")

    limit_cfg = replace(config, scenario="limit", eps=0.0, output_dir="")
    log.info("sweep: running matched limit-system member")
    limit_run = run_scenario(limit_cfg)
    rho_limit = limit_run.density.rho

    rows = []
    summaries = {}
    for r2 in r2_list:
        member = replace(config, scenario="bidisperse", r2=r2, eps=0.0, rho0=0.0,
                         output_dir="")
        log.info("sweep: running bidisperse member r2=%g", r2)
        run = run_scenario(member)
        mismatch_field = fragment_mass_density(run).values - rho_limit.values
        mismatch = float(np.sqrt(np.sum(mismatch_field**2) * config.grid.cell_volume))
        rows.append(SweepRow(r2, fragment_slip(run), mismatch))
        summaries[f"{r2:g}"] = run.summary

    rows.sort(key=lambda r: -r.r2)
    deltas = np.array([r.delta for r in rows])
    r2s = np.array([r.r2 for r in rows])
    if np.all(deltas > 0) and len(rows) > 1:
        slope = float(np.polyfit(np.log(r2s), np.log(deltas), 1)[0])
    else:
        slope = float("nan")
    result = SweepResult(rows, slope, limit_run.summary, summaries)
    if config.output_dir:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_summary_json(out / "sweep.json", result.as_dict())
    return result
