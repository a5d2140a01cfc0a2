"""Scenario orchestration: configuration, time loops, budget summaries, sweeps.

Three scenarios share one step path (fluid step, particle push, breakup,
one particle-grid pass, density transport, diagnostics).  Unit-radius
parents break up at rate 1/tau, and ``SimConfig.absorbs`` decides where
their lost weight goes:

* ``limit``       - absorbs it into the added density rho, which multiplies
                    the fluid inertia.
* ``regularized`` - absorbs it as the limit does; eps > 0 mollifies the
                    advecting velocity, cuts the deposited moments off in
                    velocity and adds the energy remainders to the records.
* ``bidisperse``  - keeps it as radius-r2 fragments, merged when the cloud
                    outgrows its budget; rho stays zero.

A fragmenting run breaks each parent up on every second step only, taking
turns by index parity: on step k the parents of index i = k (mod 2) keep
exp(-2 dt/tau) of their weight and each spawns one fragment with the lost
volume, at its x and xi.  The rate stays 1/tau, the liquid volume exact,
and a step spawns half as many fragments for the merge to take back.

Every absorbing run breaks every parent up on every step and takes one
source rule: a parent keeps exp(-dt/tau) of its weight, so the source of
rho is expm1(dt/tau) m0 / dt, with m0 the number density of the step's
(cut-off) drag deposit.  Under Stokes drag a droplet of radius r pulls on
the gas with weight r and relaxes in time r^2, so the deposit, the push
and the drag dissipation read each particle's radius off the cloud.  A
parent absorbed into rho joins the gas at velocity u: breakup hands the
gas the impulse (w/tau)(xi - u) on top of the drag w (xi - u) and
dissipates (w/2tau)|xi - u|^2, so an absorbing run couples with 1 + 1/tau
and weighs the drag dissipation with 1 + 1/(2 tau), a fragmenting one with
1 and 1.  The summary gates the mass budget of an absorbing run without a
cutoff, and the liquid volume of a fragmenting one.
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
    cutoff_tail,
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
    ParticleCloud,
    absorb_and_fragment,
    advance_particles,
    deposit_moments,
    interpolate_velocity,
    merge_particles,
    sample_gaussian_spray,
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
# a fragmenting run breaks each parent up on every _SPAWN_PERIOD-th step
_SPAWN_PERIOD = 2
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
        sampled = self.spray_init != "none" and self.spray_mass > 0  # as initial_cloud
        if sampled and self.particle_count < 2:
            raise ConfigError("particle_count must be at least 2")
        if self.particle_budget < 1:
            raise ConfigError("particle_budget must be positive")
        if sampled and self.particle_count > self.particle_budget:
            raise ConfigError("particle_count must not exceed particle_budget")
        if self.spray_mass < 0 or self.spray_sigma < 0:
            raise ConfigError("spray mass and sigma must be nonnegative")
        if not self.nu > 0:
            raise ConfigError("nu must be positive")
        if self.diag_stride < 1 or self.snapshot_stride < 0:
            raise ConfigError("strides must be positive (snapshot_stride may be 0)")
        h = self.grid.h  # GridSpec validates n and dim
        u_scale = 1.0 if self.fluid_init == "taylor-green" else 0.0
        if sampled:
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

    @property
    def absorbs(self) -> bool:
        """Whether breakup feeds rho; else the lost weight becomes fragments."""
        return self.scenario != "bidisperse"


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

    Step layout: fluid step -> particle push -> breakup (when
    config.absorbs, every parent's weight decays by exp(-dt/tau); else only
    the parents whose index has the step's parity decay, by
    exp(-2 dt/tau), and each spawns one radius-r2 fragment with the lost
    volume) -> merge, whenever the cloud exceeds its budget ->
    one particle-grid pass at the new positions: the next step's drag
    deposit -> when config.absorbs, density transport with the one source
    expm1(dt/tau) m0 / dt, m0 read off that deposit -> diagnostics, which
    pair grid fields with that deposit (see collect_record).  Every
    scenario-dependent constant comes from config.absorbs and config.eps.
    With eps > 0 the deposit is cut off in velocity, and u is mollified
    once per step, from its carried spectrum; that field advects the
    particles, the density and, in the next step, the gas.
    A step is rejected when it violates the advective CFL condition (in the
    fluid or the density step) or produces a non-finite field.  Either cause
    raises one StepRejectedError that names the step, t and the cause, after
    writing the last healthy state as the "last_good" snapshot when an
    output directory is set.
    """
    config.validate()
    t_start = time.perf_counter()
    grid = config.grid
    eps = config.eps or None  # the mollifier and cutoff width, when there is one
    # drag coupling of the fluid step and drag coefficient of the energy budget
    absorb_rate = config.absorbs / config.tau
    coupling, drag_coeff = 1.0 + absorb_rate, 1.0 + 0.5 * absorb_rate
    # a parent keeps exp(-dt/tau) of its weight: the source of rho per unit m0
    gain = np.expm1(config.dt / config.tau) / config.dt

    fluid = initial_fluid(config)
    cloud = initial_cloud(config)
    density = DensityField(ScalarField.zeros(grid))
    u_star = mollify(fluid.u, eps, fluid.u_hat) if eps else fluid.u  # the advecting velocity
    records, volumes, remainders = [], [], []

    def record(t, drag):  # of the current fluid, cloud and density, and the cloud's deposit
        tail = cutoff_tail(cloud, fluid.u, eps)
        records.append(collect_record(t, fluid, cloud, density.rho, drag, tail, nu=config.nu))
        if not config.absorbs:  # only a fragmenting run checks the volume
            volumes.append(liquid_volume(cloud))
        if eps:
            remainders.append((t, *regularization_remainders(
                cloud, drag, tail, fluid.u, u_star, coupling=coupling,
                drag_coefficient=drag_coeff)))

    def break_up(cloud, step):  # a function, so that `lost` dies before the next push
        if config.absorbs:  # every parent, every step: rho's source rule needs that
            return absorb_and_fragment(cloud, config.dt, config.tau)[0]
        turn = np.arange(cloud.count) % _SPAWN_PERIOD == step % _SPAWN_PERIOD
        cloud, lost = absorb_and_fragment(cloud, _SPAWN_PERIOD * config.dt, config.tau, turn)
        spawn = lost > 0
        if not spawn.any():
            return cloud
        return ParticleCloud.concatenate([cloud, ParticleCloud(
            cloud.x[spawn], cloud.xi[spawn], lost[spawn] / config.r2**3,
            np.full(spawn.sum(), config.r2))])

    drag = deposit_moments(cloud, grid, eps)
    record(0.0, drag)
    lemma_checks, merge_m2_max = [], 0.0
    last_good = (fluid, cloud, density)
    lemma_stride = max(1, config.steps // 10)

    for step in range(1, config.steps + 1):
        t = step * config.dt
        try:
            fluid = ns_step(fluid, u_star, density.rho, drag, config.dt, nu=config.nu,
                            coupling=coupling)
            del drag  # so one drag field is alive when the pass below makes the next
            if not np.isfinite(fluid.u.values).all():
                raise StepRejectedError("non-finite field")
            u_star = mollify(fluid.u, eps, fluid.u_hat) if eps else fluid.u
            cloud = break_up(advance_particles(cloud, u_star, config.dt), step)
            if cloud.count > config.particle_budget:
                cloud, m2_err = merge_particles(cloud, config.particle_budget,
                                                length=grid.length)
                merge_m2_max = max(merge_m2_max, m2_err)
                if m2_err > 0.01:
                    log.warning("merge pass changed spray energy by %.2e", m2_err)
            drag = deposit_moments(cloud, grid, eps)
            if config.absorbs:
                density = density_step(density, u_star,
                                       ScalarField(grid, gain * drag.m0.values), config.dt)
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

    # the one budget that applies; the other key is filled with Nones
    if config.absorbs:
        name, kept = "mass_budget", np.array([r.mass_f + r.mass_rho for r in records])
        rtol = None if config.eps else MASS_TOLERANCE  # a cutoff removes number on purpose
    else:
        name, kept, rtol = "liquid_volume", np.asarray(volumes), VOLUME_TOLERANCE
    err = float(np.abs(kept - kept[0]).max())
    tol = None if rtol is None else rtol * max(1.0, abs(kept[0]))
    summary["mass_budget"] = summary["liquid_volume"] = {
        "max_error": None, "tol": None, "pass": None}
    summary[name] = {"max_error": err, "tol": tol, "pass": None if tol is None else err <= tol}
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
    """Mass-weighted mean |xi - u(x)|^2 over the fragments, radius below 1."""
    cloud = result.cloud
    fragments = cloud.select(cloud.r < 1.0)
    if fragments.count == 0:
        return 0.0
    up = interpolate_velocity(result.fluid.u, fragments.x)
    slip = np.sum((fragments.xi - up) ** 2, axis=1)
    # the fragments share one radius, so its r^3 mass factor cancels
    return float(np.sum(fragments.w * slip) / fragments.w.sum())


def fragment_mass_density(result: RunResult) -> ScalarField:
    """Mass density sum w r^3 of the fragments, radius below 1, on the grid."""
    cloud = result.cloud
    grid = result.config.grid
    fragments = cloud.select(cloud.r < 1.0)
    return ScalarField(grid, cic_scatter(grid, fragments.x, fragments.w * fragments.r**3))


def sweep_r2(config: SimConfig, r2_list) -> SweepResult:
    """Compare two-radius runs against the matched limit-system run.

    All members share the seed, the initial data and the breakup time tau,
    so the matched limit run absorbs into rho at the rate at which the
    bidisperse members fragment.  The members break each parent up on every
    second step (see run_scenario), so the two rates agree on average over
    two steps, not on each step.  r2_list must be strictly decreasing.
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
        member = replace(config, scenario="bidisperse", r2=r2, eps=0.0, output_dir="")
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
