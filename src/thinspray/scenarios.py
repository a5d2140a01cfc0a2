"""Scenario orchestration: configuration, time loops, budget summaries, sweeps.

Three scenarios share one step path (fluid step, particle push, breakup,
one particle-grid pass, density transport, diagnostics).  The pass at the
new positions is both the next step's drag deposit and the next push's
velocity: it deposits the drag and gathers the advecting velocity u* at
every particle through one corner table per particle, so the fluid and the
particles both advance from the u* of the step's start (first-order Lie
splitting).  Unit-radius parents break up at rate 1/tau, and
``SimConfig.absorbs`` decides where their lost weight goes:

* ``limit``       - absorbs it into the added density rho, a variable of
                    the fluid state, which multiplies the fluid inertia.
* ``regularized`` - absorbs it as the limit does; eps > 0 mollifies the
                    advecting velocity and cuts the deposited moments off in
                    velocity; the energy budget books the remainders r1, r2, r3.
* ``bidisperse``  - keeps it as radius-r2 fragments, merged when the cloud
                    outgrows its budget; rho stays zero.

The breakup is one call, ``kinetic.absorb_and_fragment``; a fragmenting run
passes it the step, and its parents take turns (see that function).

In every absorbing run every parent decays on every step, with one
source rule: a parent keeps exp(-dt/tau) of its weight, so the source of
rho is expm1(dt/tau) m0 / dt, with m0 the number density of the step's
(cut-off) drag deposit.  Under Stokes drag a droplet of radius r pulls on
the gas with weight r and relaxes in time r^2, so the deposit, the push
and the drag dissipation read each species' radius off the cloud.  A
parent absorbed into rho joins the gas at velocity u: breakup hands the
gas the impulse (w/tau)(xi - u) on top of the drag w (xi - u) and
dissipates (w/2tau)|xi - u|^2, so an absorbing run couples with 1 + 1/tau
and weighs the drag dissipation with 1 + 1/(2 tau), a fragmenting one with
1 and 1.  Every scenario keeps one liquid, the spray's sum w r^3 plus the
integral of rho, once the source that a cutoff left out is booked: the
summary gates it as the mass budget of an absorbing run and as the liquid
volume of a fragmenting one.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .density import density_step
from .diagnostics import (
    check_moment_bound,
    collect_record,
    energy_budget,
    liquid_volume,
    momentum_budget,
    momentum_tolerance,
    radial_histogram,
    record_terms,
    regularization_remainders,
)
from .errors import ConfigError, FieldError, StepRejectedError
from .fluid import FluidState, ns_step
from .grid import GridSpec, ScalarField, VectorField, mollify
from .kinetic import (
    ParticleCloud,
    absorb_and_fragment,
    advance_particles,
    deposit_moments,
    merge_particles,
    sample_gaussian_spray,
)
from .snapshots import write_diagnostics_csv, write_state, write_summary_json
from .transfer import cic_gather, cic_scatter

log = logging.getLogger(__name__)

SCENARIOS = ("limit", "bidisperse", "regularized")
FLUID_PRESETS = ("taylor-green", "zero")
# one value: spray_init stays only because perfbench/run.py passes it
SPRAY_PRESETS = ("offset",)

# Energy gate: a run passes when |residual(t)| <= RATE * dt * t at every
# record, the first-order splitting error allowed per unit dt and time.  The
# rate was measured on the drag-free benchmark (taylor-green, n=32, dt=1e-3).
DEFAULT_ENERGY_RATE = 250.0
DIV_TOLERANCE = 1e-10
# relative gate of the liquid budget, volume + integral of rho, which the
# flux-form density step closes to rounding
LIQUID_TOLERANCE = 1e-12


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
    spray_mean_speed: float = 0.5  # mean velocity of the initial cloud along x
    nu: float = 1.0
    snapshot_stride: int = 0      # 0 = no snapshots
    output_dir: str = ""

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick from {SCENARIOS}")
        if self.fluid_init not in FLUID_PRESETS:
            raise ConfigError(f"unknown fluid preset {self.fluid_init!r}")
        if self.spray_init not in SPRAY_PRESETS:
            raise ConfigError(f"unknown spray preset {self.spray_init!r}")
        for name in ("dt", "t_final", "eps", "nu", "spray_mass", "spray_sigma",
                     "spray_mean_speed"):  # tau = inf disables breakup
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.t_final > 0:
            raise ConfigError("t_final must be positive")
        if self.steps < 1:
            raise ConfigError("t_final must hold at least one step of dt")
        if abs(self.t_final / self.dt - self.steps) > 1e-9 * self.steps:
            raise ConfigError(f"t_final={self.t_final} is not a whole number of steps "
                              f"of dt={self.dt}")
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
        sampled = self.spray_mass > 0
        if sampled and self.particle_count < 2:
            raise ConfigError("particle_count must be at least 2")
        if self.particle_budget < 1:
            raise ConfigError("particle_budget must be positive")
        if sampled and self.particle_count > self.particle_budget:
            raise ConfigError("particle_count must not exceed particle_budget")
        # a merge takes only fragments: the budget must hold the parents and one more
        if sampled and not self.absorbs and self.particle_budget == self.particle_count:
            raise ConfigError("a fragmenting run needs particle_budget above particle_count")
        if self.spray_mass < 0 or self.spray_sigma < 0:
            raise ConfigError("spray mass and sigma must be nonnegative")
        if not self.nu > 0:
            raise ConfigError("nu must be positive")
        if self.snapshot_stride < 0:
            raise ConfigError("snapshot_stride must be nonnegative")
        if self.snapshot_stride and not self.output_dir:
            raise ConfigError("snapshot_stride needs an output_dir to write the snapshots to")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        try:
            h = self.grid.h  # GridSpec validates n and dim
        except ValueError as err:
            raise ConfigError(str(err)) from None
        u_scale = 1.0 if self.fluid_init == "taylor-green" else 0.0
        if sampled:
            u_scale += abs(self.spray_mean_speed) + 3.0 * self.spray_sigma
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
    """Divergence-free cellular vortex initial velocity of unit amplitude,

        u = (sin x cos y [cos z], -cos x sin y [cos z] [, 0]),

    formed as outer products of the 1-D sines and cosines of the axis."""
    x = grid.axis_points()
    s, c = np.sin(x), np.cos(x)
    if grid.dim == 2:
        comps = [s[:, None] * c, -c[:, None] * s]
    else:
        cz = c[None, None, :]
        comps = [
            s[:, None, None] * c[:, None] * cz,
            -c[:, None, None] * s[:, None] * cz,
            np.zeros(grid.shape),
        ]
    return VectorField.from_components(grid, *comps)


def initial_fluid(config: SimConfig) -> FluidState:
    grid = config.grid
    # Taylor-Green is divergence-free and band-limited as it stands
    u = VectorField.zeros(grid) if config.fluid_init == "zero" else taylor_green_velocity(grid)
    return FluidState(u, ScalarField.zeros(grid))


def initial_cloud(config: SimConfig) -> ParticleCloud:
    grid = config.grid
    if config.spray_mass == 0:
        return ParticleCloud.empty(grid.dim, config.r2)
    mean = np.zeros(grid.dim)
    mean[0] = config.spray_mean_speed
    return replace(sample_gaussian_spray(
        grid, config.particle_count, config.spray_mass, mean,
        config.spray_sigma, config.seed,
    ), radius=config.r2)


@dataclass
class RunResult:
    config: SimConfig
    records: list
    summary: dict
    fluid: FluidState
    cloud: ParticleCloud


def run_scenario(config: SimConfig) -> RunResult:
    """Integrate one scenario and summarize every budget.

    A run's state is the fluid, which carries rho, and the particle cloud;
    t = step * dt is the run's one clock, stamped on each record and
    snapshot.  Step 0 sets the state up, then passes and records as below.
    Step layout: fluid step -> particle push, in the u* the last pass gathered
    -> breakup, one absorb_and_fragment call (when config.absorbs, every
    parent's weight decays by exp(-dt/tau); else the parents take turns and
    spawn radius-r2 fragments) -> merge of the fragments, whenever the cloud
    exceeds its budget -> one particle-grid pass at the new positions: both the
    next step's drag deposit and the next push's velocity, the advecting u* of
    the new fluid gathered at every particle through the deposit's corner tables
    -> when config.absorbs, transport of fluid.rho with the one source
    expm1(dt/tau) m0 / dt, m0 read off that deposit -> diagnostics, which pair
    grid fields with that deposit (see collect_record).  So the fluid step and
    the push both start from the u* of the step's start.  Every
    scenario-dependent constant comes from config.absorbs and config.eps.  With
    eps > 0 the deposit is cut off in velocity, and u is mollified once per
    step, from its carried spectrum; that field u* is what the pass gathers, and
    it advects the density and, in the next step, the gas.  The push and the
    breakup are two statements, so that the pre-push positions and velocities
    die before the breakup allocates, unless an output directory holds them as
    the last healthy state; the last pass's gathered u* goes unused.
    A step is rejected when it violates the fluid's CFL, max|u| dt/h <= 1, or
    the density step's outflow bound, dt/h times each cell's summed outflow face
    speed <= 1, or when FluidState and ParticleCloud, the one checks of the gas
    and the particles, reject the non-finite state it makes, or when its record
    or lemma checks raise a FieldError: one StepRejectedError names the step, t
    and the cause, after writing the last healthy state to state_last_good.npz
    when an output directory is set (a set-up that fails, step 0, has none).
    Every file of a run goes to that directory, made once: the stride snapshots
    state_<step>.npz, the final state_final.npz, diagnostics.csv and
    summary.json (see snapshots).
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
    out = Path(config.output_dir)
    if config.output_dir:
        out.mkdir(parents=True, exist_ok=True)

    records, lemma_checks, merge_m2_max = [], [], 0.0
    # only the snapshot on abort reads the last healthy state: without an
    # output directory none is held, so the old one dies with its step
    last_good = None
    lemma_stride = max(1, config.steps // 10)

    for step in range(config.steps + 1):  # step 0 sets up and records t = 0
        t = step * config.dt
        try:
            if step == 0:
                fluid, cloud = initial_fluid(config), initial_cloud(config)
            else:
                fluid = ns_step(fluid, u_star, drag, config.dt, nu=config.nu,
                                coupling=coupling)
                del drag, u_star  # so one drag field and one u* live at a time
                # two statements, so the pre-push x and xi die before the breakup
                # allocates; u_at_x becomes the pushed x, which a fragmenting
                # breakup replaces, so the name lets go of it
                cloud = advance_particles(cloud, u_at_x, config.dt)
                del u_at_x
                # absorbing, every parent decays on every step, as that source rule needs
                cloud = absorb_and_fragment(cloud, config.dt, config.tau,
                                            step=None if config.absorbs else step)
                if cloud.count > config.particle_budget:
                    cloud, m2_err = merge_particles(cloud, config.particle_budget)
                    merge_m2_max = max(merge_m2_max, m2_err)
                    if m2_err > 0.01:
                        log.warning("merge pass changed spray energy by %.2e", m2_err)
            # the advecting velocity
            u_star = VectorField(grid, mollify(grid, eps, fluid.u_hat)) if eps else fluid.u
            drag, u_at_x = deposit_moments(cloud, u_star, eps)
            if config.absorbs and step:  # replace re-runs FluidState's check on the new rho
                fluid = replace(fluid, rho=density_step(
                    fluid.rho, u_star, ScalarField(grid, gain * drag.m0.values), config.dt))
            terms = record_terms(cloud, fluid.u, drag, eps)
            remainders = regularization_remainders(cloud, drag, terms, u_star, u_at_x,
                                                   coupling=coupling, drag_coefficient=drag_coeff)
            records.append(collect_record(t, fluid, cloud, drag, terms,
                                          liquid=liquid_volume(cloud), remainders=remainders,
                                          nu=config.nu))
            del terms  # its grid |u|^2 dies with the record
            if step and step % lemma_stride == 0 and cloud.count:
                hist = radial_histogram(cloud)
                for alpha, gamma in ((0.0, 2.0), (1.0, 2.0)):
                    lemma_checks.append(check_moment_bound(hist, alpha, gamma)[2])
        except (StepRejectedError, FieldError) as err:
            snapshot = "none"  # also when the set-up failed
            if last_good:
                write_state(out / "state_last_good.npz", *last_good)
                snapshot = f"written to {config.output_dir}"
            raise StepRejectedError(f"step {step} (t={t:.4g}) rejected: {err}; "
                                    f"last-good snapshot {snapshot}") from err
        if config.output_dir:
            last_good = (t, fluid, cloud)
            if step and config.snapshot_stride and step % config.snapshot_stride == 0:
                write_state(out / f"state_{step:06d}.npz", t, fluid, cloud)

    summary = _summarize(config, records, lemma_checks, merge_m2_max, drag_coeff,
                         time.perf_counter() - t_start)
    result = RunResult(config, records, summary, fluid, cloud)
    if config.output_dir:
        write_diagnostics_csv(out / "diagnostics.csv", records)
        write_summary_json(out / "summary.json", summary)
        write_state(out / "state_final.npz", records[-1].t, fluid, cloud)
    return result


def _summarize(config: SimConfig, records, lemma_checks, merge_m2_max, drag_coeff,
               wall_time) -> dict:
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

    # one liquid budget, reported under the key of the scenario's policy, the
    # other key filled with Nones; it books expm1(dt/tau) cut_weight, the source
    # a step's cutoff left out, from record 1 on: record 0's deposit feeds none
    kept = np.array([r.volume + r.mass_rho for r in records])
    kept[1:] += np.expm1(config.dt / config.tau) * np.cumsum([r.cut_weight for r in records[1:]])
    name = "mass_budget" if config.absorbs else "liquid_volume"
    err = float(np.abs(kept - kept[0]).max())
    tol = LIQUID_TOLERANCE * max(1.0, abs(kept[0]))
    summary["mass_budget"] = summary["liquid_volume"] = {
        "max_error": None, "tol": None, "pass": None}
    summary[name] = {"max_error": err, "tol": tol, "pass": err <= tol}
    return summary


def fragment_slip(result: RunResult) -> float:
    """Mass-weighted mean |xi - u(x)|^2 over the fragments."""
    cloud = result.cloud
    fragments = slice(cloud.parents, None)
    w = cloud.w[fragments]
    if w.size == 0:
        return 0.0
    up = cic_gather(result.fluid.u, cloud.x[fragments])
    slip = np.sum((cloud.xi[fragments] - up) ** 2, axis=1)
    # the fragments share one radius, so its r^3 mass factor cancels
    return float(np.sum(w * slip) / w.sum())


def fragment_mass_density(result: RunResult) -> ScalarField:
    """Mass density sum w r^3 of the fragments on the grid."""
    cloud = result.cloud
    grid = result.config.grid
    number = cic_scatter(grid, cloud.x[cloud.parents:], cloud.w[cloud.parents:])
    return ScalarField(grid, cloud.radius**3 * number)  # the fragments share one radius


def sweep_r2(config: SimConfig, r2_list) -> dict:
    """Compare two-radius runs against the matched limit-system run.

    All members share the seed, the initial data and the breakup time tau, so
    the matched limit run absorbs into rho at the rate at which the bidisperse
    members fragment: each parent there breaks up on every second step (see
    kinetic.absorb_and_fragment), at rate 1/tau over two steps.  A member's
    config, particle_budget above particle_count included, is checked before
    any run.  r2_list is one or more radii in (0, 1), strictly decreasing.
    delta(r2) is the fragments' velocity-relaxation metric at the final time;
    rho_mismatch compares their mass density against the limit run's added
    density.  Returns one plain dict, written as sweep.json when
    config.output_dir is set: "rows", [{"r2", "delta", "rho_mismatch"}] by
    r2 descending; "loglog_slope", the fitted log-log slope of delta (the
    r2^2 relaxation time suggests one near 2), None unless two members or
    more all have delta > 0; "checks", whether delta strictly decreases and
    the rho mismatch does not increase, each None for one member; and the
    "limit_summary" and "run_summaries" ({repr(r2): summary}) of the runs.
    """
    try:
        r2_list = [float(v) for v in r2_list]
    except ValueError as err:
        raise ConfigError(f"every r2 must be a number: {err}") from None
    if any(b >= a for a, b in zip(r2_list, r2_list[1:])):
        raise ConfigError("r2_list must be strictly decreasing")
    if not r2_list or any(not 0 < v < 1 for v in r2_list):
        raise ConfigError(f"r2_list needs one r2 or more, each in (0, 1), got {r2_list}")

    # every member's settings, checked before the first run as a bidisperse
    # member's (a superset); members write no files: no directory, no stride
    replace(config, scenario="bidisperse", eps=0.0).validate()
    limit_cfg = replace(config, scenario="limit", eps=0.0, output_dir="", snapshot_stride=0)
    out = Path(config.output_dir)
    if config.output_dir:  # before the first run, so a bad directory costs none
        out.mkdir(parents=True, exist_ok=True)
    log.info("sweep: running matched limit-system member")
    limit_run = run_scenario(limit_cfg)
    rho_limit = limit_run.fluid.rho

    rows = []
    summaries = {}
    for r2 in r2_list:
        member = replace(limit_cfg, scenario="bidisperse", r2=r2)
        log.info("sweep: running bidisperse member r2=%g", r2)
        run = run_scenario(member)
        mismatch_field = fragment_mass_density(run).values - rho_limit.values
        mismatch = float(np.sqrt(np.sum(mismatch_field**2) * config.grid.cell_volume))
        rows.append({"r2": r2, "delta": fragment_slip(run), "rho_mismatch": mismatch})
        summaries[repr(r2)] = run.summary  # exact: radii that print alike keep apart

    deltas = np.array([row["delta"] for row in rows])
    mismatches = np.array([row["rho_mismatch"] for row in rows])
    names = ("delta strictly decreasing", "rho mismatch non-increasing")
    slope, checks = None, dict.fromkeys(names)  # one member: not applicable
    if len(rows) > 1:
        if np.all(deltas > 0):
            slope = float(np.polyfit(np.log(r2_list), np.log(deltas), 1)[0])
        checks = dict(zip(names, (bool(np.all(np.diff(deltas) < 0)),
                                  bool(np.all(np.diff(mismatches) <= 0)))))
    result = {"rows": rows, "loglog_slope": slope, "checks": checks,
              "limit_summary": limit_run.summary, "run_summaries": summaries}
    if config.output_dir:
        write_summary_json(out / "sweep.json", result)
    return result
