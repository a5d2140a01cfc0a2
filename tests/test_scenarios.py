import math
import warnings

import numpy as np
import pytest

from thinspray.diagnostics import energy_budget, liquid_volume, momentum_budget
from thinspray.errors import ConfigError, StepRejectedError
from thinspray.grid import divergence_residual, fft, integral, l2_norm
from thinspray.kinetic import FRAGMENT_SPECIES, PARENT_SPECIES
from thinspray.scenarios import (
    SimConfig,
    fragment_mass_density,
    fragment_slip,
    initial_cloud,
    initial_fluid,
    load_config,
    run_scenario,
    spray_moment_targets,
    sweep_r2,
    taylor_green_velocity,
)
from thinspray.snapshots import read_diagnostics_csv, read_field


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
        dict(nu=0.0), dict(diag_stride=0), dict(fluid_init="vortex"),
        dict(spray_init="maxwell"), dict(rho0=-1.0),
        dict(eps=0.5), dict(scenario="bidisperse", eps=0.5),
        dict(scenario="bidisperse", rho0=0.1),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            quick_config(**kw).validate()

    def test_tau_inf_allowed(self):
        quick_config(scenario="bidisperse", tau=math.inf).validate()

    def test_cfl_advisory_warns(self):
        with pytest.warns(UserWarning, match="advective"):
            quick_config(dt=1.0, t_final=2.0).validate()

    def test_cfl_advisory_counts_offset_mean_speed(self):
        # h / (1 + 5 + 3 * 0.6) = 0.05 < dt
        with pytest.warns(UserWarning, match="advective"):
            quick_config(dt=0.1, spray_mean_speed=5.0).validate()

    @pytest.mark.parametrize("kw", [
        dict(spray_init="gaussian"), dict(spray_init="none"), dict(spray_mass=0.0),
    ])
    def test_cfl_advisory_ignores_absent_spray_speed(self, kw):
        # no spray moves at the mean speed here: h / (1 + 3 * 0.6) = 0.14 > dt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quick_config(dt=0.1, spray_mean_speed=5.0, **kw).validate()

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


class TestInitialData:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_taylor_green_divergence_free(self, dim):
        g = SimConfig(dim=dim, n=16).grid
        u = taylor_green_velocity(g)
        assert divergence_residual(g, fft(u)) < 1e-12

    def test_spray_targets_match_cloud(self):
        cfg = quick_config(spray_init="offset", spray_mass=0.4,
                           spray_sigma=0.8, spray_mean_speed=0.3)
        cloud = initial_cloud(cfg)
        m0t, m1t, m2t = spray_moment_targets(cfg)
        assert cloud.w.sum() == pytest.approx(m0t, rel=1e-13)
        m1 = np.sum(cloud.w[:, None] * cloud.xi, axis=0)
        assert np.abs(m1 - m1t).max() < 1e-12
        m2 = float(np.sum(cloud.w * np.sum(cloud.xi**2, axis=1)))
        assert m2 == pytest.approx(m2t, rel=1e-12)

    def test_empty_spray(self):
        cfg = quick_config(spray_init="none")
        assert initial_cloud(cfg).count == 0


class TestRunScenario:
    def test_pure_fluid_when_no_spray(self):
        res = run_scenario(quick_config(spray_init="none", t_final=0.04))
        assert res.cloud.count == 0
        assert np.abs(res.density.rho.values).max() == 0.0
        for rec in res.records:
            assert rec.m0 == 0.0 and rec.m2 == 0.0
            assert rec.dissipation_drag == 0.0
            assert rec.mass_rho == 0.0
        assert res.summary["divergence"]["pass"]

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
        totals = [r.mass_f + r.mass_rho for r in res.records]
        assert max(abs(v - totals[0]) for v in totals) < 1e-12

    def test_limit_breakup_honours_tau(self):
        res = run_scenario(quick_config(tau=0.5))
        assert res.records[-1].mass_f == pytest.approx(0.3 * math.exp(-0.02 / 0.5),
                                                       rel=1e-12)
        assert res.summary["mass_budget"]["pass"]

    def test_limit_tau_inf_keeps_spray(self):
        cfg = quick_config(tau=math.inf)
        res = run_scenario(cfg)
        assert all(rec.mass_rho == 0.0 for rec in res.records)
        assert res.records[-1].mass_f == res.records[0].mass_f
        assert res.records[-1].mass_f == pytest.approx(cfg.spray_mass, rel=1e-13)

    def test_bidisperse_tau_inf_two_populations(self):
        cfg = quick_config(scenario="bidisperse", tau=math.inf, t_final=0.05)
        res = run_scenario(cfg)
        # no fragmentation: species-1 count only, weights untouched
        assert np.all(res.cloud.species == PARENT_SPECIES)
        assert res.cloud.w.sum() == pytest.approx(cfg.spray_mass, rel=1e-13)
        assert res.summary["liquid_volume"]["pass"]

    def test_bidisperse_fragmentation_conserves_volume(self):
        cfg = quick_config(scenario="bidisperse", tau=0.05, r2=0.3,
                           t_final=0.05, particle_budget=6_000)
        res = run_scenario(cfg)
        assert (res.cloud.species == FRAGMENT_SPECIES).any()
        assert res.summary["liquid_volume"]["pass"]
        assert liquid_volume(res.cloud, cfg.r2) == pytest.approx(
            cfg.spray_mass, rel=1e-12)

    def test_regularized_records_remainders(self):
        cfg = quick_config(scenario="regularized", eps=0.5, t_final=0.03)
        res = run_scenario(cfg)
        assert len(res.remainders) == len(res.records)
        t0, r1, r2, r3 = res.remainders[-1]
        assert np.isfinite([r1, r2, r3]).all()

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
        field, _ = read_field(tmp_path / "velocity_last_good.field")
        assert np.isfinite(field.values).all()

    def test_cfl_abort_writes_last_good(self, tmp_path):
        # dt far beyond the CFL limit of the initial flow: step 1 is rejected
        cfg = quick_config(dt=0.5, t_final=1.0, spray_mean_speed=5.0,
                           output_dir=str(tmp_path))
        with pytest.warns(UserWarning, match="advective scale"), \
                pytest.raises(StepRejectedError, match=r"step 1 \(t=0\.5\).*CFL"):
            run_scenario(cfg)
        field, t = read_field(tmp_path / "velocity_last_good.field")
        assert t == 0.0
        assert np.allclose(field.values, initial_fluid(cfg).u.values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_in_fluid_step_aborts(self, tmp_path):
        # drag moments near the float limit overflow u inside ns_step
        cfg = quick_config(spray_mass=1e308, output_dir=str(tmp_path))
        with pytest.raises(StepRejectedError, match=r"step 1 \(t=0\.002\).*non-finite"):
            run_scenario(cfg)
        assert (tmp_path / "velocity_last_good.field").exists()

    @pytest.mark.parametrize("scenario, per_step", [
        ("limit", 6), ("bidisperse", 6), ("regularized", 8)])
    def test_transforms_per_step(self, monkeypatch, scenario, per_step):
        # u is forward-transformed once per step, in the tendency of ns_step;
        # the regularized step adds the mollification of u
        calls = []
        for name in ("rfftn", "irfftn"):
            def counted(*args, _real=getattr(np.fft, name), **kw):
                calls.append(1)
                return _real(*args, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        counts = []
        for steps in (2, 5):
            calls.clear()
            run_scenario(quick_config(dim=3, n=16, dt=1e-3, t_final=steps * 1e-3,
                                      particle_count=200, scenario=scenario,
                                      eps=0.5 if scenario == "regularized" else 0.0))
            counts.append(len(calls))
        assert counts[1] - counts[0] == 3 * per_step

    def test_outputs_written(self, tmp_path):
        cfg = quick_config(output_dir=str(tmp_path), snapshot_stride=5)
        res = run_scenario(cfg)
        data = read_diagnostics_csv(tmp_path / "diagnostics.csv")
        assert len(data["t"]) == len(res.records)
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "velocity_final.field").exists()
        assert (tmp_path / "velocity_000005.field").exists()

    def test_budget_series_first_order_shape(self):
        # halving dt about halves the energy residual of the splitting
        # (measured ratios: 1.85 limit, 2.08 bidisperse); the regularized
        # budget stays open until the cutoff/mollifier remainders enter it
        cases = [(dict(), 1.5, 1e-3),
                 (dict(scenario="bidisperse", particle_budget=100_000), 1.0, 2e-3)]
        for kw, drag_coeff, dt in cases:
            worst = []
            for step in (dt, dt / 2):
                res = run_scenario(quick_config(dt=step, t_final=0.04, **kw))
                assert res.cloud.count < res.config.particle_budget  # no merge ran
                e = energy_budget(res.records, drag_coeff)
                p = momentum_budget(res.records)
                # residuals are zero at t=0 by construction
                assert e[0] == 0.0
                assert np.abs(p[0]).max() == 0.0
                worst.append(np.abs(e).max())
            assert worst[0] / worst[1] >= 1.7, (kw, worst)


class TestSweep:
    def test_sweep_validation(self):
        cfg = quick_config(scenario="bidisperse")
        with pytest.raises(ConfigError):
            sweep_r2(cfg, [0.1, 0.2])
        with pytest.raises(ConfigError):
            sweep_r2(cfg, [1.2, 0.5])

    def test_single_member_sweep(self):
        cfg = quick_config(scenario="bidisperse", tau=0.05, t_final=0.04,
                           spray_init="offset")
        result = sweep_r2(cfg, [0.3])
        assert len(result.rows) == 1
        assert result.rows[0].r2 == 0.3
        assert result.rows[0].delta >= 0.0
        assert math.isnan(result.slope) or result.slope != 0

    def test_equilibrated_fragments_zero_slip(self):
        # u = 0 and monokinetic fragments at 0: slip metric vanishes
        cfg = quick_config(scenario="bidisperse", fluid_init="zero",
                           spray_init="gaussian", spray_sigma=0.0,
                           tau=0.05, t_final=0.03)
        res = run_scenario(cfg)
        assert fragment_slip(res) == pytest.approx(0.0, abs=1e-20)

    def test_fragment_mass_density_integral(self):
        cfg = quick_config(scenario="bidisperse", tau=0.02, r2=0.4, t_final=0.04)
        res = run_scenario(cfg)
        field = fragment_mass_density(res)
        frag = res.cloud.select(res.cloud.species == FRAGMENT_SPECIES)
        assert integral(field) == pytest.approx(0.4**3 * frag.w.sum(), rel=1e-12)
