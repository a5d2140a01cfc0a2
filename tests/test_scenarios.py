import ast
import json
import math
import warnings
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import count_transforms, meshgrid
from hypothesis import given, strategies as st
from scipy.integrate import cumulative_trapezoid

from thinspray import scenarios
from thinspray.diagnostics import energy_budget, liquid_volume, momentum_budget
from thinspray.errors import ConfigError, FieldError, StepRejectedError
from thinspray.fluid import FluidState
from thinspray.grid import GridSpec, divergence_residual, fft, ifft_like, integral
from thinspray.kinetic import velocity_cutoff
from thinspray.scenarios import (
    SimConfig,
    fragment_mass_density,
    fragment_slip,
    initial_cloud,
    initial_fluid,
    load_config,
    run_scenario,
    sweep_r2,
    taylor_green_velocity,
)
from thinspray.snapshots import read_diagnostics_csv, read_state
from thinspray.transfer import cic_scatter


_DEFAULT = SimConfig()
_CONFIG_FIELDS = [f.name for f in dataclass_fields(SimConfig)]


def _config_value(name):
    kind = type(getattr(_DEFAULT, name))
    if kind is int:
        return st.integers(-10**9, 10**9)
    if kind is float:
        return st.floats(allow_nan=False)  # infinities included
    return st.text(st.sampled_from("abz09_-./ "), max_size=12).map(str.strip)


def _config_text(name, value):
    return f"{name} = {value!r}" if isinstance(value, float) else f"{name} = {value}"


@st.composite
def _config_files(draw):
    """Lines of a config file, overrides, and the SimConfig they describe.

    Each written key may be preceded by an earlier assignment of another
    value, and lines may carry comments, alone or after the value."""
    names = draw(st.lists(st.sampled_from(_CONFIG_FIELDS), unique=True))
    written = {name: draw(_config_value(name)) for name in names}
    lines = []
    for name, value in written.items():
        if draw(st.booleans()):
            lines.append(_config_text(name, draw(_config_value(name))))
        if draw(st.booleans()):
            lines.append("  # a comment line")
        comment = draw(st.sampled_from(["", " # trailing", "#no space"]))
        lines.append(_config_text(name, value) + comment)
    overrides = {name: draw(_config_value(name))
                 for name in draw(st.lists(st.sampled_from(_CONFIG_FIELDS), unique=True))}
    return lines, overrides, replace(_DEFAULT, **{**written, **overrides})


def quick_config(**kw):
    base = dict(dim=2, n=16, dt=2e-3, t_final=0.02, particle_count=2_000,
                particle_budget=5_000, seed=5)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        SimConfig().validate()

    @pytest.mark.parametrize("kw", [
        dict(scenario="nope"), dict(dt=0.0), dict(t_final=-1.0),
        dict(r2=1.5), dict(r2=0.0), dict(tau=0.0), dict(eps=-0.1),
        dict(scenario="regularized", eps=0.0), dict(particle_budget=0),
        dict(nu=0.0), dict(snapshot_stride=-1), dict(fluid_init="vortex"),
        dict(spray_init="maxwell"),
        dict(eps=0.5), dict(scenario="bidisperse", eps=0.5), dict(particle_count=5_001),
        dict(particle_count=1),
        dict(eps=math.nan), dict(scenario="regularized", eps=math.inf),
        dict(spray_sigma=math.nan), dict(spray_mass=math.nan), dict(spray_mass=math.inf),
        dict(spray_mean_speed=math.nan), dict(spray_mean_speed=math.inf),
        dict(nu=math.inf), dict(t_final=math.inf), dict(dt=math.inf),
        dict(t_final=4e-4, dt=1e-3),
        dict(spray_init="gaussian"), dict(spray_init="none"),
        dict(n=12), dict(dim=4), dict(seed=-1),
        dict(t_final=0.0015, dt=1e-3), dict(t_final=0.0025, dt=1e-3),
        dict(snapshot_stride=5),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            quick_config(**kw).validate()

    def test_only_the_config_compares_the_scenario(self):
        # SimConfig decides each scenario's policy once; the step loop and the
        # summary read absorbs and eps, never the scenario's name
        tree = ast.parse(Path(scenarios.__file__).read_text())
        config = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "SimConfig")
        exempt = {id(node) for item in config.body
                  if isinstance(item, ast.FunctionDef) and item.name in ("validate", "absorbs")
                  for node in ast.walk(item)}
        readers = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Compare) and id(node) not in exempt
                   and any(isinstance(sub, ast.Attribute) and sub.attr == "scenario"
                           for sub in ast.walk(node))]
        assert readers == []

    def test_only_the_fluid_carries_the_added_density(self):
        # rho is a field of FluidState; density_step alone takes it, to
        # transport it, and every other reader takes the fluid state
        takers, holders = [], []
        for path in sorted(Path(scenarios.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                        and "rho" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}:
                    takers.append(getattr(node, "name", f"lambda:{node.lineno}"))
                elif isinstance(node, ast.ClassDef) and any(
                        isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and item.target.id == "rho" for item in node.body):
                    holders.append(node.name)
        assert takers == ["density_step"]
        assert holders == ["FluidState"]

    def test_only_the_cloud_carries_the_radius(self):
        # each particle's radius lives on the cloud, which the spawn sets to
        # config.r2; no function takes r2 to rebuild it
        takers = [f"{path.name}:{node.lineno}"
                  for path in sorted(Path(scenarios.__file__).parent.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                  and "r2" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
        assert takers == []

    def test_only_the_grid_knows_the_period(self):
        # the torus is [0, 2π)^dim, a constant of GridSpec: no function takes
        # a period or a box volume, and a grid is its dim and n alone
        takers = [f"{path.name}:{node.lineno}"
                  for path in sorted(Path(scenarios.__file__).parent.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                  and {"length", "volume_x"} & {a.arg for a in ast.walk(node.args)
                                                if isinstance(a, ast.arg)}]
        assert takers == []
        assert tuple(f.name for f in dataclass_fields(GridSpec)) == ("dim", "n")

    def test_only_the_run_keeps_the_clock(self):
        # the run's step * dt is the one time: the fluid state carries none,
        # and the snapshots take the run's t
        assert tuple(f.name for f in dataclass_fields(FluidState)) == ("u", "rho", "u_hat")

    @pytest.mark.parametrize("kw", [dict(particle_count=1), dict(particle_count=6_000)])
    def test_no_particle_floor_without_a_sampled_spray(self, kw):
        # a cloud that samples no particle needs no particle count, and no
        # budget that holds it
        cfg = quick_config(spray_mass=0.0, **kw)
        cfg.validate()
        assert initial_cloud(cfg).count == 0

    def test_tau_inf_allowed(self):
        quick_config(scenario="bidisperse", tau=math.inf).validate()

    def test_cfl_advisory_warns(self):
        with pytest.warns(UserWarning, match="advective"):
            quick_config(dt=1.0, t_final=2.0).validate()

    def test_cfl_advisory_counts_offset_mean_speed(self):
        # h / (1 + 5 + 3 * 0.6) = 0.05 < dt
        with pytest.warns(UserWarning, match="advective"):
            quick_config(dt=0.1, t_final=0.1, spray_mean_speed=5.0).validate()

    @pytest.mark.parametrize("kw", [
        dict(spray_mean_speed=0.0), dict(spray_mass=0.0, spray_sigma=5.0),
        dict(spray_mass=0.0),
    ])
    def test_cfl_advisory_ignores_absent_spray_speed(self, kw):
        # no spray moves at speed 5 here: h / (1 + 3 * 0.6) = 0.14 > dt, and
        # without a spray h / 1 = 0.39 > dt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quick_config(**{"dt": 0.1, "t_final": 0.1, "spray_mean_speed": 5.0,
                            **kw}).validate()

    def test_config_file_and_overrides(self, tmp_path):
        text = "\n".join([
            "# comment", "dim = 2", "n = 16", "dt = 2e-3",
            "t_final = 0.02  # trailing comment", "scenario = bidisperse",
            "tau = inf", "particle_count = 2000",
        ])
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        cfg = load_config(path)
        assert cfg.scenario == "bidisperse"
        assert math.isinf(cfg.tau)
        cfg2 = load_config(path, overrides={"scenario": "limit", "seed": 9})
        assert cfg2.scenario == "limit" and cfg2.seed == 9

    def test_config_file_bad_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("volume = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_config_file_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dim = two\n")
        with pytest.raises(ConfigError, match="cannot parse dim"):
            load_config(path)

    def test_hash_starts_a_comment_anywhere(self, tmp_path):
        path = tmp_path / "hash.cfg"
        path.write_text("output_dir = a#b\n")
        assert load_config(path).output_dir == "a"

    @given(_config_files())
    def test_property_config_file_round_trip(self, tmp_path_factory, case):
        # a written SimConfig loads back as itself: comments anywhere, the
        # later of repeated keys, then the overrides win
        lines, overrides, expected = case
        path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert load_config(path, overrides) == expected


class TestInitialData:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_taylor_green_divergence_free(self, dim):
        g = SimConfig(dim=dim, n=16).grid
        u = taylor_green_velocity(g)
        assert divergence_residual(g, fft(u)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_taylor_green_is_the_meshgrid_form(self, dim, n):
        # the 1-D outer products give the full-grid formula bit for bit, signed zeros too
        g = GridSpec(dim, n)
        x = meshgrid(g)
        if dim == 2:
            want = [np.sin(x[0]) * np.cos(x[1]), -np.cos(x[0]) * np.sin(x[1])]
        else:
            want = [np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2]),
                    -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2]), np.zeros(g.shape)]
        got = taylor_green_velocity(g).values
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_spray_targets_match_cloud(self):
        cfg = quick_config(spray_init="offset", spray_mass=0.4,
                           spray_sigma=0.8, spray_mean_speed=0.3)
        cloud = initial_cloud(cfg)
        # analytic moments: mass 0.4, mean velocity (0.3, 0), variance 0.8^2 per axis
        assert cloud.w.sum() == pytest.approx(0.4, rel=1e-13)
        m1 = np.sum(cloud.w[:, None] * cloud.xi, axis=0)
        assert np.abs(m1 - np.array([0.4 * 0.3, 0.0])).max() < 1e-12
        m2 = float(np.sum(cloud.w * np.sum(cloud.xi**2, axis=1)))
        assert m2 == pytest.approx(0.4 * (2 * 0.8**2 + 0.3**2), rel=1e-12)

    def test_empty_spray(self):
        cfg = quick_config(spray_mass=0.0)
        assert initial_cloud(cfg).count == 0


class TestRunScenario:
    def test_pure_fluid_when_no_spray(self):
        res = run_scenario(quick_config(spray_mass=0.0, t_final=0.04))
        assert res.cloud.count == 0
        assert np.abs(res.fluid.rho.values).max() == 0.0
        for rec in res.records:
            assert rec.m0 == 0.0 and rec.m2 == 0.0
            assert rec.dissipation_drag == 0.0
            assert rec.mass_rho == 0.0
        assert res.summary["divergence"]["pass"]

    def test_drag_free_taylor_green_gain_is_the_trapezoid_error(self):
        # without spray, each fluid step multiplies the 2-D Taylor-Green energy
        # by exactly exp(-4 nu dt): the convection term is a gradient, which the
        # projection removes.  The energy residual is then the trapezoid rule's
        # error on the dissipation 4 nu E, in closed form at record k:
        # E(0) (1 - q^k) ((a/2) (1 + q) / (1 - q) - 1), a = 4 nu dt, q = e^-a
        final = []
        for dt in (2e-3, 1e-3):
            cfg = quick_config(dt=dt, t_final=0.2, spray_mass=0.0)
            records = run_scenario(cfg).records
            t = np.array([r.t for r in records])
            e = np.array([r.e_fluid for r in records])
            np.testing.assert_allclose(e, e[0] * np.exp(-4 * cfg.nu * t), rtol=1e-13, atol=0)
            a = 4 * cfg.nu * dt
            closed = (e[0] * -np.expm1(-a * np.arange(t.size))
                      * (0.5 * a * (1 + np.exp(-a)) / -np.expm1(-a) - 1))
            residual = energy_budget(records, 1.0)
            assert np.abs(residual - closed).max() <= 1e-12 * e[0]
            final.append(residual[-1])
        assert final[0] / final[1] == pytest.approx(4.0, abs=0.01)  # second order

    def test_deterministic_rerun(self, tmp_path):
        cfg1 = quick_config(output_dir=str(tmp_path / "a"))
        cfg2 = quick_config(output_dir=str(tmp_path / "b"))
        r1, r2 = run_scenario(cfg1), run_scenario(cfg2)
        assert np.array_equal(r1.fluid.u.values, r2.fluid.u.values)
        assert np.array_equal(r1.cloud.xi, r2.cloud.xi)
        csv1 = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        csv2 = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert csv1 == csv2

    def test_limit_mass_budget(self):
        res = run_scenario(quick_config(t_final=0.05))
        assert res.summary["mass_budget"]["pass"]
        totals = [r.volume + r.mass_rho for r in res.records]
        assert max(abs(v - totals[0]) for v in totals) < 1e-12

    def test_limit_breakup_honours_tau(self):
        res = run_scenario(quick_config(tau=0.5))
        assert res.records[-1].volume == pytest.approx(0.3 * math.exp(-0.02 / 0.5),
                                                       rel=1e-12)
        assert res.summary["mass_budget"]["pass"]

    def test_limit_tau_inf_keeps_spray(self):
        cfg = quick_config(tau=math.inf)
        res = run_scenario(cfg)
        assert all(rec.mass_rho == 0.0 for rec in res.records)
        assert res.records[-1].volume == res.records[0].volume
        assert res.records[-1].volume == pytest.approx(cfg.spray_mass, rel=1e-13)

    @pytest.mark.parametrize("tau, eps", [
        pytest.param(1.0, 0.0, id="1.0"), pytest.param(0.4, 0.0, id="0.4"),
        pytest.param(math.inf, 0.0, id="inf"), pytest.param(1.0, 0.5, id="regularized")])
    def test_limit_source_is_scattered_lost_weight(self, monkeypatch, tau, eps):
        # the source derived from the drag deposit, expm1(dt/tau) m0 / dt,
        # equals the density of the weight the parents lost, scattered alone;
        # with a cutoff, the lost weight of the cut-off number density
        import thinspray.scenarios as sc

        seen = {}

        def absorbed(cloud, *args, _real=sc.absorb_and_fragment, **kw):
            seen["cloud"] = out = _real(cloud, *args, **kw)
            seen["lost"] = cloud.w - out.w
            return out

        def transported(rho, u, source, dt, _real=sc.density_step):
            seen["source"] = source.values
            return _real(rho, u, source, dt)
        monkeypatch.setattr(sc, "absorb_and_fragment", absorbed)
        monkeypatch.setattr(sc, "density_step", transported)
        cfg = quick_config(tau=tau, t_final=2e-3, eps=eps,
                           scenario="regularized" if eps else "limit")
        run_scenario(cfg)
        lost = seen["lost"] * velocity_cutoff(seen["cloud"].xi, eps) if eps else seen["lost"]
        assert eps == 0 or not np.array_equal(lost, seen["lost"])  # the cutoff bites
        want = cic_scatter(cfg.grid, seen["cloud"].x, lost) / cfg.dt
        if tau == math.inf:
            assert not seen["source"].any() and not want.any()
        else:
            assert np.abs(seen["source"] - want).max() <= 1e-13 * np.abs(want).max()

    def test_regularized_mass_budget_closes_without_tail(self):
        # with no droplet beyond the cutoff radius 1/eps, the regularized
        # source is the whole lost weight, as in the limit: rho gains what
        # the spray loses, to rounding
        res = run_scenario(quick_config(scenario="regularized", eps=0.2))
        for cloud in (initial_cloud(res.config), res.cloud):
            assert np.linalg.norm(cloud.xi, axis=1).max() <= 1 / 0.2
        total = res.records[0].volume + res.records[0].mass_rho
        assert res.summary["mass_budget"]["max_error"] <= 1e-12 * total
        assert res.summary["mass_budget"]["pass"] is None  # not gated with a cutoff

    @pytest.mark.parametrize("tau", [math.inf, 0.4, 0.2])
    @pytest.mark.parametrize("scenario, eps", [("limit", 0.0), ("regularized", 0.5)])
    def test_budget_gates_follow_tau(self, scenario, eps, tau):
        # breakup at rate 1/tau hands the gas the slip of the absorbed droplets;
        # a coupling fixed at its tau = 1 value fails the momentum gate here
        summary = run_scenario(quick_config(scenario=scenario, eps=eps, tau=tau)).summary
        gates = ["divergence", "energy", "momentum", "lemma1"]
        if scenario == "limit":
            gates.append("mass_budget")
        assert all(summary[name]["pass"] for name in gates), {n: summary[n] for n in gates}

    def test_limit_without_breakup_is_bidisperse(self):
        # at tau = inf no droplet breaks up and the two scenarios are one system
        cfg = quick_config(tau=math.inf)
        limit, bidisperse = (run_scenario(c).records
                             for c in (cfg, replace(cfg, scenario="bidisperse")))

        def fields(records):
            return [{k: v for k, v in r.scalars().items() if k != "mass_rho"} for r in records]
        assert fields(limit) == fields(bidisperse)

    def test_bidisperse_tau_inf_two_populations(self):
        cfg = quick_config(scenario="bidisperse", tau=math.inf, t_final=0.05)
        res = run_scenario(cfg)
        # no fragmentation: unit-radius parents only, weights untouched
        assert np.all(res.cloud.r == 1.0)
        assert res.cloud.w.sum() == pytest.approx(cfg.spray_mass, rel=1e-13)
        assert res.summary["liquid_volume"]["pass"]

    def test_bidisperse_fragmentation_conserves_volume(self):
        cfg = quick_config(scenario="bidisperse", tau=0.05, r2=0.3,
                           t_final=0.05, particle_budget=6_000)
        res = run_scenario(cfg)
        assert (res.cloud.r == cfg.r2).any()
        assert res.summary["liquid_volume"]["pass"]
        assert liquid_volume(res.cloud).sum() == pytest.approx(
            cfg.spray_mass, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.05, math.inf])
    def test_fragmenting_breakup_takes_turns(self, monkeypatch, tau):
        # on step k only the parents of index i = k (mod 2) break up, each
        # keeping exp(-2 dt/tau) of its weight and spawning one fragment
        # with the lost volume at its x and xi
        import thinspray.scenarios as sc

        pushed, deposited = [], []

        def advance(*args, _real=sc.advance_particles, **kw):
            pushed.append(_real(*args, **kw))
            return pushed[-1]

        def deposit(cloud, *args, _real=sc.deposit_moments):
            deposited.append(cloud)
            return _real(cloud, *args)
        monkeypatch.setattr(sc, "advance_particles", advance)
        monkeypatch.setattr(sc, "deposit_moments", deposit)
        cfg = quick_config(scenario="bidisperse", tau=tau, r2=0.3, t_final=8e-3,
                           particle_budget=100_000)
        run_scenario(cfg)
        assert len(pushed) == cfg.steps == len(deposited) - 1
        for step, (before, after) in enumerate(zip(pushed, deposited[1:]), start=1):
            n = before.count
            for name in ("x", "xi", "r"):
                assert np.array_equal(getattr(after, name)[:n], getattr(before, name))
            turn = (np.arange(n) % 2 == step % 2) & (before.r == 1.0)
            if tau == math.inf:
                turn[:] = False
            assert np.array_equal(after.w[:n][turn],
                                  before.w[turn] * np.exp(-2 * cfg.dt / tau))
            assert np.array_equal(after.w[:n][~turn], before.w[~turn])
            lost = before.w[turn] - after.w[:n][turn]
            spawned = after.select(np.arange(after.count) >= n)
            assert spawned.count == turn.sum()
            assert np.all(spawned.r == cfg.r2)
            assert np.array_equal(spawned.x, before.x[turn])
            assert np.array_equal(spawned.xi, before.xi[turn])
            assert np.array_equal(spawned.w, lost / cfg.r2**3)
            volume = liquid_volume(after).sum()
            assert volume == pytest.approx(liquid_volume(before).sum(), rel=1e-14)
        if tau != math.inf:  # both parities took turns, on parents and beside fragments
            assert (deposited[-1].r == cfg.r2).any()

    @pytest.mark.parametrize("scenario, eps", [
        ("limit", 0.0), ("bidisperse", 0.0), ("regularized", 0.5)])
    def test_push_takes_the_last_pass_velocity(self, monkeypatch, scenario, eps):
        # the pass at the end of step k gathers the u* that step k+1's push
        # reads: the push receives that very array, with the values the pass
        # gathered, and the last pass's array goes unused
        import thinspray.scenarios as sc

        passed, received = [], []

        def deposit(*args, _real=sc.deposit_moments):
            drag, u_at_x = _real(*args)
            passed.append((u_at_x, u_at_x.copy()))
            return drag, u_at_x

        def advance(cloud, u_at_x, *args, _real=sc.advance_particles):
            received.append((u_at_x, u_at_x.copy()))
            return _real(cloud, u_at_x, *args)
        monkeypatch.setattr(sc, "deposit_moments", deposit)
        monkeypatch.setattr(sc, "advance_particles", advance)
        cfg = quick_config(scenario=scenario, eps=eps, tau=0.05, t_final=8e-3)
        run_scenario(cfg)
        assert len(passed) == cfg.steps + 1 and len(received) == cfg.steps
        for (out, values), (got, got_values) in zip(passed, received):
            assert got is out and np.array_equal(got_values, values)

    def test_pushed_positions_die_before_a_fragmenting_pass(self, monkeypatch):
        # the push writes x' into the array the last pass gathered; a
        # fragmenting breakup concatenates a new x, and nothing else holds
        # the pushed one when the next pass allocates
        import weakref

        import thinspray.scenarios as sc

        pushed, alive = [], []

        def advance(*args, _real=sc.advance_particles):
            out = _real(*args)
            pushed.append(weakref.ref(out.x))
            return out

        def deposit(*args, _real=sc.deposit_moments):
            if pushed:
                alive.append(pushed[-1]() is not None)
            return _real(*args)
        monkeypatch.setattr(sc, "advance_particles", advance)
        monkeypatch.setattr(sc, "deposit_moments", deposit)
        cfg = quick_config(scenario="bidisperse", tau=0.05, t_final=8e-3)
        run_scenario(cfg)
        assert alive == [False] * cfg.steps

    @pytest.mark.parametrize("scenario, eps", [
        ("limit", 0.0), ("bidisperse", 0.0), ("regularized", 0.5)])
    def test_pre_push_positions_die_before_breakup(self, monkeypatch, scenario, eps):
        # the push and the breakup are two statements: without an output
        # directory nothing holds the pushed cloud's x when the breakup runs
        import weakref

        import thinspray.scenarios as sc

        pushed, alive = [], []

        def advance(cloud, *args, _real=sc.advance_particles):
            pushed.append(weakref.ref(cloud.x))
            return _real(cloud, *args)

        def absorb(*args, _real=sc.absorb_and_fragment, **kw):
            alive.append(pushed[-1]() is not None)
            return _real(*args, **kw)
        monkeypatch.setattr(sc, "advance_particles", advance)
        monkeypatch.setattr(sc, "absorb_and_fragment", absorb)
        cfg = quick_config(scenario=scenario, eps=eps, tau=0.05, t_final=8e-3)
        run_scenario(cfg)
        assert alive == [False] * cfg.steps

    def test_staggered_merges_take_one_pass(self, monkeypatch):
        # spawning half the parents per step leaves the merge a share of the
        # fragments that one greedy pass removes; with every parent spawning
        # on every step, each of these merges took two passes
        from thinspray import kinetic

        passes = []

        def counted_pass(*args, _real=kinetic._merge_pass):
            passes[-1] += 1
            return _real(*args)

        def counted_merge(*args, _real=scenarios.merge_particles, **kw):
            passes.append(0)
            return _real(*args, **kw)
        monkeypatch.setattr(kinetic, "_merge_pass", counted_pass)
        monkeypatch.setattr(scenarios, "merge_particles", counted_merge)
        run_scenario(SimConfig(dim=2, n=16, scenario="bidisperse", particle_count=2_000,
                               particle_budget=4_000, dt=1e-3, t_final=0.03))
        assert passes and passes == [1] * len(passes)

    def test_regularized_records_remainders(self):
        cfg = quick_config(scenario="regularized", eps=0.5, t_final=0.03)
        res = run_scenario(cfg)
        rem = np.array([(r.r1, r.r2, r.r3) for r in res.records])
        assert np.isfinite(rem).all() and np.all(rem[:, 0] > 0)  # eps = 0.5 has a tail

    def test_diagnostics_csv_carries_the_budget_inputs(self, tmp_path):
        # the volume and the remainders reach the CSV, not only the records
        cfg = quick_config(scenario="regularized", eps=0.5, output_dir=str(tmp_path))
        res = run_scenario(cfg)
        data = read_diagnostics_csv(tmp_path / "diagnostics.csv")
        for name in ("volume", "r1", "r2", "r3"):
            assert list(data[name]) == [getattr(r, name) for r in res.records], name

    @pytest.mark.parametrize("kw, name", [
        (dict(), "mass_budget"),
        (dict(scenario="bidisperse", tau=0.05, r2=0.3), "liquid_volume")])
    def test_one_liquid_budget_from_the_records(self, kw, name):
        # every scenario gates the liquid of its records, volume + mass_rho:
        # the limit moves it into rho, the fragments keep it in the spray
        res = run_scenario(quick_config(**kw))
        kept = np.array([r.volume + r.mass_rho for r in res.records])
        assert res.summary[name]["max_error"] == float(np.abs(kept - kept[0]).max())
        assert res.summary[name]["pass"]

    def test_nonfinite_abort(self, monkeypatch, tmp_path):
        import thinspray.scenarios as sc

        calls = {"n": 0}
        real = sc.ns_step

        def poisoned(*args, **kw):
            out = real(*args, **kw)
            calls["n"] += 1
            if calls["n"] >= 3:
                out.u.values[0, 0] = np.nan
            return out

        monkeypatch.setattr(sc, "ns_step", poisoned)
        cfg = quick_config(t_final=0.02, output_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="non-finite"):
            run_scenario(cfg)
        _, fluid, _ = read_state(tmp_path / "state_last_good.npz")  # FluidState checks u
        assert np.isfinite(fluid.u.values).all()

    def test_record_error_rejects_the_step(self, monkeypatch, tmp_path):
        # a FieldError from a step's record ends as that step's rejection,
        # with the state of the step before as the last-good snapshot
        import thinspray.scenarios as sc

        calls = {"n": 0}
        real = sc.collect_record

        def failing(*args, **kw):
            calls["n"] += 1
            if calls["n"] == 3:  # the t=0 record, then steps 1 and 2
                raise FieldError("record failed")
            return real(*args, **kw)

        monkeypatch.setattr(sc, "collect_record", failing)
        cfg = quick_config(output_dir=str(tmp_path))
        with pytest.raises(StepRejectedError,
                           match=r"step 2 \(t=0\.004\) rejected: record failed; "
                                 r"last-good snapshot written"):
            run_scenario(cfg)
        t, _, _ = read_state(tmp_path / "state_last_good.npz")
        assert t == cfg.dt

    def test_cfl_abort_writes_last_good(self, tmp_path):
        # dt far beyond the CFL limit of the initial flow: step 1 is rejected
        cfg = quick_config(dt=0.5, t_final=1.0, spray_mean_speed=5.0,
                           output_dir=str(tmp_path))
        with pytest.warns(UserWarning, match="advective scale"), \
                pytest.raises(StepRejectedError, match=r"step 1 \(t=0\.5\).*CFL"):
            run_scenario(cfg)
        t, fluid, cloud = read_state(tmp_path / "state_last_good.npz")
        assert t == 0.0
        assert np.allclose(fluid.u.values, initial_fluid(cfg).u.values)
        assert not fluid.rho.values.any()
        start = initial_cloud(cfg)
        for name in ("x", "xi", "w", "r"):
            assert np.array_equal(getattr(cloud, name), getattr(start, name)), name

    def test_snapshot_time_is_the_record_time(self, monkeypatch, tmp_path):
        # step * dt is the run's one clock: every snapshot holds the t of its
        # step's diagnostics row, bit for bit, where a clock summed step by
        # step drifts (ten steps of 1e-3 add up to 0.010000000000000002)
        cfg = quick_config(dt=1e-3, t_final=0.03, snapshot_stride=10,
                           output_dir=str(tmp_path / "run"))
        run_scenario(cfg)
        rows = read_diagnostics_csv(tmp_path / "run" / "diagnostics.csv")["t"]
        for name, step in (("000010", 10), ("000020", 20), ("000030", 30), ("final", -1)):
            t, _, _ = read_state(tmp_path / "run" / f"state_{name}.npz")
            assert np.float64(t).tobytes() == rows[step].tobytes(), name
        # a CFL rejection of step 11 leaves step 10's time as the last good one
        import thinspray.fluid as fl

        calls = {"n": 0}

        def cfl(u, dt, _real=fl.check_cfl):
            calls["n"] += 1
            if calls["n"] == 11:
                raise StepRejectedError("advective CFL violated")
            return _real(u, dt)
        monkeypatch.setattr(fl, "check_cfl", cfl)
        with pytest.raises(StepRejectedError, match=r"step 11 \(t=0\.011\).*CFL"):
            run_scenario(replace(cfg, output_dir=str(tmp_path / "abort")))
        t, _, _ = read_state(tmp_path / "abort" / "state_last_good.npz")
        assert np.float64(t).tobytes() == rows[10].tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_in_fluid_step_aborts(self, tmp_path):
        # drag moments near the float limit overflow u inside ns_step
        cfg = quick_config(spray_mass=1e308, output_dir=str(tmp_path))
        with pytest.raises(StepRejectedError, match=r"step 1 \(t=0\.002\).*non-finite"):
            run_scenario(cfg)
        assert (tmp_path / "state_last_good.npz").exists()

    @staticmethod
    def _table_config(steps, scenario, eps=0.0):
        return quick_config(dim=3, n=16, dt=1e-3, t_final=steps * 1e-3,
                            particle_count=200, scenario=scenario, eps=eps)

    def _calls_per_step(self, scenario, calls, eps=0.5):
        """Calls recorded in `calls` per step, from a 5-step minus a 2-step run."""
        counts = []
        for steps in (2, 5):
            calls.clear()
            run_scenario(self._table_config(steps, scenario,
                                            eps if scenario == "regularized" else 0.0))
            counts.append(len(calls))
        return (counts[1] - counts[0]) / 3

    @pytest.mark.parametrize("scenario, per_step", [
        ("limit", 6), ("bidisperse", 5), ("regularized", 7)])
    def test_transforms_per_step(self, monkeypatch, scenario, per_step):
        # per_step counts transforms of fields the size of u: the three
        # derivatives, the Laplacian, the tendency and the projected spectrum
        # of ns_step; a bidisperse step's rho is 0, so its ns_step skips the
        # Laplacian of the viscous share that rho leaves explicit; the
        # regularized step adds the inverse transform of the mollified
        # spectrum (see conftest.count_transforms for how they are counted)
        calls = count_transforms(monkeypatch)
        assert self._calls_per_step(scenario, calls) == 3 * per_step

    def test_transforms_of_set_up(self, monkeypatch):
        # the Taylor-Green start is divergence-free and band-limited as it
        # stands: FluidState transforms its three components forward once,
        # and nothing transforms them back
        calls = count_transforms(monkeypatch)
        scenarios.initial_fluid(self._table_config(2, "limit"))
        assert (calls.count("rfft"), calls.count("irfft")) == (3, 0)

    def test_carried_spectrum_is_the_resolved_block_of_u(self, monkeypatch):
        # every step hands on u_hat, the resolved block of u, and u is its
        # inverse: no transform or mollify of the step overwrites it
        states = []

        def step(state, *args, _real=scenarios.ns_step, **kw):
            states.append(state)
            return _real(state, *args, **kw)
        monkeypatch.setattr(scenarios, "ns_step", step)
        result = run_scenario(self._table_config(5, "regularized", eps=0.5))
        states.append(result.fluid)
        assert len(states) == 6
        for state in states[1:]:  # the first is the initial state
            assert state.u_hat.shape == (3, 11, 11, 6)  # 2 ceil(16/3) - 1, ceil(16/3)
            assert ifft_like(state.u, state.u_hat).tobytes() == state.u.values.tobytes()

    @pytest.mark.parametrize("scenario, per_step", [
        ("limit", 2), ("bidisperse", 1), ("regularized", 2)])
    def test_finiteness_scans_of_u_per_step(self, monkeypatch, scenario, per_step):
        # FluidState alone checks the gas it is made of: ns_step's new state,
        # and an absorbing step's replace of rho.  The regularized step scans
        # nothing more: mollify reads the carried spectrum, and the
        # remainders scan nothing.
        calls = []

        def counted(x, *args, _real=np.isfinite, **kw):
            if np.shape(x) == (3,) + (16,) * 3:  # u on _table_config's grid
                calls.append(1)
            return _real(x, *args, **kw)
        monkeypatch.setattr(np, "isfinite", counted)
        assert self._calls_per_step(scenario, calls) == per_step

    @staticmethod
    def _count_tables(monkeypatch):
        """The row counts of every corner table built from now on."""
        import thinspray.transfer as tr

        sizes = []

        def counted(grid, x, _real=tr._corner_flats_weights):
            sizes.append(len(x))
            return _real(grid, x)
        monkeypatch.setattr(tr, "_corner_flats_weights", counted)
        return sizes

    @pytest.mark.parametrize("scenario, eps, per_step", [
        pytest.param("limit", 0.0, 1, id="limit-1"),
        pytest.param("bidisperse", 0.0, 1, id="bidisperse-1"),
        pytest.param("regularized", 0.05, 1, id="regularized-1")])
    def test_corner_tables_per_step(self, monkeypatch, scenario, eps, per_step):
        # with fewer particles than one chunk, every particle-grid transfer
        # builds one corner table: the one pass at the new positions, which
        # deposits the drag and gathers the next push's velocity (the push
        # and the density step gather nothing); the record pairs with the
        # pass's deposit and gathers nothing (the cutoff radius 1/0.05 = 20
        # reaches no sampled velocity)
        calls = self._count_tables(monkeypatch)
        assert self._calls_per_step(scenario, calls, eps) == per_step

    def test_corner_tables_of_the_cutoff_tail(self, monkeypatch):
        # eps = 0.5 reaches the sampled speeds above 2: every record gathers
        # u and |u|^2 (record_terms, read by collect_record and the
        # remainders) at those particles alone, two tables beyond the one of
        # a step; the remainders read u_star off the pass
        import thinspray.scenarios as sc

        tails = []

        def recorded(t, fluid, cloud, *args, _real=sc.collect_record, **kw):
            tails.append(int(np.sum(velocity_cutoff(cloud.xi, 0.5) < 1.0)))
            return _real(t, fluid, cloud, *args, **kw)
        monkeypatch.setattr(sc, "collect_record", recorded)
        sizes = self._count_tables(monkeypatch)
        steps, count = 5, 200
        run_scenario(self._table_config(steps, "regularized", 0.5))
        assert len(tails) == steps + 1 and all(0 < t < count for t in tails)
        assert len(sizes) == 1 + steps + 2 * len(tails)
        assert [s for s in sizes if s != count] == [t for t in tails for _ in range(2)]

    def test_outputs_written(self, tmp_path):
        cfg = quick_config(output_dir=str(tmp_path), snapshot_stride=5)
        res = run_scenario(cfg)
        data = read_diagnostics_csv(tmp_path / "diagnostics.csv")
        assert len(data["t"]) == len(res.records)
        assert (tmp_path / "summary.json").exists()
        assert sorted(p.name for p in tmp_path.glob("state_*.npz")) == [
            "state_000005.npz", "state_000010.npz", "state_final.npz"]
        t, fluid, cloud = read_state(tmp_path / "state_final.npz")
        assert t == res.records[-1].t and cloud.count == res.cloud.count
        assert np.array_equal(fluid.u.values, res.fluid.u.values)

    def test_budget_series_first_order_shape(self):
        # halving dt about halves the energy residual and the momentum drift of
        # the splitting.  Measured (energy, momentum) ratios: limit (1.85,
        # 2.04), bidisperse (2.08, 2.00), limit at tau = 0.4 (1.94, 2.04) and
        # 0.2 (1.97, 2.03), limit at tau = inf (-, 2.00): its energy residual
        # sits near 1e-6 and is not asserted.  The regularized budget is
        # first order once its remainders enter it (the next test)
        both = ("energy", "momentum")
        cases = [  # (config, dt, the ratios asserted)
            (dict(), 1e-3, both),
            (dict(scenario="bidisperse", particle_budget=100_000), 2e-3, both),
            (dict(tau=math.inf), 1e-3, ("momentum",)),
            (dict(tau=0.4), 1e-3, both),
            (dict(tau=0.2), 1e-3, both),
        ]
        for kw, dt, checked in cases:
            worst = []
            for step in (dt, dt / 2):
                res = run_scenario(quick_config(dt=step, t_final=0.04, **kw))
                assert res.cloud.count < res.config.particle_budget  # no merge ran
                # the drift is zero at t=0 by construction
                assert np.abs(momentum_budget(res.records)[0]).max() == 0.0
                worst.append({"energy": res.summary["energy"]["max_residual"],
                              "momentum": res.summary["momentum"]["max_drift"]})
            for name in checked:
                assert worst[0][name] / worst[1][name] >= 1.7, (kw, name, worst)

    def test_regularized_budget_with_remainders_first_order(self):
        # subtracting the integrated remainders r1 + r2 + r3 closes the
        # regularized energy budget to first order in dt, once r1 pairs
        # I|u|^2 as the record's drag dissipation does.  eps = 1 puts a large
        # share of the cloud in the cutoff tail.  Measured maxima 3.50e-6 and
        # 1.88e-6 (ratio 1.86); with r1 from |I u|^2 the residual rises,
        # 3.64e-5 and 3.80e-5
        worst = []
        for dt in (5e-4, 2.5e-4):
            res = run_scenario(quick_config(scenario="regularized", eps=1.0, tau=1.0,
                                            dt=dt, t_final=0.04))
            t, *rates = np.array([(r.t, r.r1, r.r2, r.r3) for r in res.records]).T
            corrected = (energy_budget(res.records, 1.5)  # c = 1 + 1/(2 tau)
                         - cumulative_trapezoid(np.sum(rates, axis=0), t, initial=0.0))
            worst.append(np.abs(corrected).max())
        assert worst[0] / worst[1] >= 1.7, worst


class TestSweep:
    def test_sweep_validation(self):
        cfg = quick_config(scenario="bidisperse")
        with pytest.raises(ConfigError):
            sweep_r2(cfg, [0.1, 0.2])
        with pytest.raises(ConfigError):
            sweep_r2(cfg, [1.2, 0.5])

    def test_empty_sweep_rejected(self, monkeypatch):
        # an empty sweep checks nothing: it is refused before any member runs
        import thinspray.scenarios as sc

        def no_run(config):
            raise AssertionError("a member ran")

        monkeypatch.setattr(sc, "run_scenario", no_run)
        with pytest.raises(ConfigError, match="r2_list"):
            sweep_r2(quick_config(scenario="bidisperse"), [])

    def test_unmakeable_output_dir_fails_before_any_run(self, monkeypatch, tmp_path):
        # a directory under a regular file cannot be made: the sweep says so
        # before its first run, not after every member has run
        runs = []
        real_run = scenarios.run_scenario

        def counting_run(config):
            runs.append(config)
            return real_run(config)

        monkeypatch.setattr(scenarios, "run_scenario", counting_run)
        (tmp_path / "file").write_text("")
        cfg = quick_config(scenario="bidisperse", particle_count=500, t_final=0.004,
                           output_dir=str(tmp_path / "file" / "out"))
        with pytest.raises(OSError):
            sweep_r2(cfg, [0.3, 0.2])
        assert runs == []

    def test_single_member_sweep(self):
        cfg = quick_config(scenario="bidisperse", tau=0.05, t_final=0.04,
                           spray_init="offset")
        result = sweep_r2(cfg, [0.3])
        assert [row["r2"] for row in result["rows"]] == [0.3]
        assert result["rows"][0]["delta"] >= 0.0
        # one member fits no slope and orders nothing: None, not applicable
        assert result["loglog_slope"] is None
        assert set(result["checks"].values()) == {None}

    def test_two_member_sweep_fits_and_checks(self, tmp_path):
        # two members reach the slope fit and both checks, and the dict
        # returned is the dict written, the one file: the members run without
        # the directory and the snapshot stride
        cfg = quick_config(scenario="bidisperse", tau=0.05, t_final=0.04,
                           spray_init="offset", output_dir=str(tmp_path),
                           snapshot_stride=5)
        result = sweep_r2(cfg, [0.3, 0.15])
        rows = result["rows"]
        assert [row["r2"] for row in rows] == [0.3, 0.15]
        slope = result["loglog_slope"]
        assert isinstance(slope, float) and math.isfinite(slope)
        # two points fit a line through both
        assert slope == pytest.approx(math.log(rows[1]["delta"] / rows[0]["delta"])
                                      / math.log(0.15 / 0.3), rel=1e-12)
        assert result["checks"] == {
            "delta strictly decreasing": rows[1]["delta"] < rows[0]["delta"],
            "rho mismatch non-increasing": rows[1]["rho_mismatch"] <= rows[0]["rho_mismatch"]}
        assert all(isinstance(ok, bool) for ok in result["checks"].values())
        assert set(result["run_summaries"]) == {"0.3", "0.15"}
        assert json.loads((tmp_path / "sweep.json").read_text()) == result
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]

    def test_radii_alike_to_six_digits_keep_both_summaries(self):
        # the summaries are keyed by the exact radius: two radii that print
        # alike to six digits do not overwrite one another
        cfg = quick_config(scenario="bidisperse", particle_count=500, t_final=0.008)
        result = sweep_r2(cfg, [0.1234568, 0.1234567])
        assert list(result["run_summaries"]) == ["0.1234568", "0.1234567"]

    def test_equilibrated_fragments_zero_slip(self):
        # u = 0 and monokinetic fragments at 0: slip metric vanishes
        cfg = quick_config(scenario="bidisperse", fluid_init="zero",
                           spray_mean_speed=0.0, spray_sigma=0.0,
                           tau=0.05, t_final=0.03)
        res = run_scenario(cfg)
        assert fragment_slip(res) == pytest.approx(0.0, abs=1e-20)

    def test_fragment_mass_density_integral(self):
        cfg = quick_config(scenario="bidisperse", tau=0.02, r2=0.4, t_final=0.04)
        res = run_scenario(cfg)
        field = fragment_mass_density(res)
        frag = res.cloud.select(res.cloud.r == 0.4)
        assert integral(field) == pytest.approx(0.4**3 * frag.w.sum(), rel=1e-12)
