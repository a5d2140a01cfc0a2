import json
import warnings

import pytest

from thinspray.cli import main
from thinspray.snapshots import read_diagnostics_csv


def test_run_subcommand(tmp_path, capsys):
    code = main([
        "run", "--dim", "2", "--n", "16", "--dt", "2e-3", "--t-final", "0.02",
        "--particle-count", "2000", "--particle-budget", "4000",
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario=limit" in out
    assert "[PASS] divergence" in out
    data = read_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert data["t"][-1] == pytest.approx(0.02)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["mass_budget"]["pass"] is True


def test_run_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text("dim = 2\nn = 16\ndt = 2e-3\nt_final = 0.02\n"
                   "particle_count = 2000\n")
    assert main(["run", "--config", str(cfg), "--seed", "3"]) == 0


def test_invalid_config_returns_2(capsys):
    assert main(["run", "--scenario", "bogus"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_non_finite_option_returns_2(capsys):
    assert main(["run", "--dim", "2", "--n", "16", "--particle-count", "500",
                 "--t-final", "0.004", "--dt", "2e-3", "--eps", "nan"]) == 2
    assert "eps must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--n", "12"], ["--dim", "4"], ["--seed", "-1"],
                                   ["--t-final", "0.0015", "--dt", "0.001"],
                                   ["--snapshot-stride", "5"]])
@pytest.mark.parametrize("command", ["run", "sweep-r2"])
def test_bad_grid_or_seed_returns_2_without_traceback(command, flags, capsys):
    # a grid that GridSpec rejects, a seed that numpy rejects, a t_final
    # that is not a whole number of steps and a snapshot stride without a
    # directory to write to are configuration errors, found before any set-up
    assert main([command, "--dim", "2", "--n", "16", "--particle-count", "500",
                 "--t-final", "0.004", "--dt", "2e-3", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep-r2"])
def test_unmakeable_output_dir_returns_2_without_traceback(command, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main([command, "--dim", "2", "--n", "16", "--particle-count", "500",
                 "--t-final", "0.004", "--dt", "2e-3",
                 "--output-dir", str(tmp_path / "file" / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_rejected_step_returns_3_without_traceback(capsys):
    # dt far beyond the CFL limit of the initial flow: the first step is rejected
    with pytest.warns(UserWarning, match="advective scale"):
        code = main(["run", "--dim", "2", "--n", "16", "--dt", "0.5", "--t-final", "1",
                     "--particle-count", "100", "--spray-mean-speed", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("run aborted:") and "CFL" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_sweep_single_member(tmp_path, capsys):
    code = main([
        "sweep-r2", "--dim", "2", "--n", "16", "--dt", "2e-3",
        "--t-final", "0.04", "--particle-count", "2000",
        "--particle-budget", "6000", "--tau", "0.05", "--spray-init", "offset",
        "--r2-list", "0.3", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    sweep = json.loads((tmp_path / "sweep.json").read_text())
    assert len(sweep["rows"]) == 1 and sweep["rows"][0]["r2"] == 0.3
    # one member fits no slope and orders nothing
    assert sweep["loglog_slope"] is None and set(sweep["checks"].values()) == {None}
    out = capsys.readouterr().out
    assert "delta" in out and "log-log slope of delta vs r2: n/a" in out


def test_sweep_json_is_strict_json(tmp_path, capsys):
    # a one-member sweep fits no slope: null, not NaN, which strict parsers reject
    assert main(["sweep-r2", "--dim", "2", "--n", "16", "--dt", "2e-3",
                 "--t-final", "0.008", "--particle-count", "500", "--tau", "0.05",
                 "--r2-list", "0.3", "--output-dir", str(tmp_path)]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    sweep = json.loads((tmp_path / "sweep.json").read_text(), parse_constant=reject)
    assert sweep["loglog_slope"] is None and set(sweep["checks"].values()) == {None}
    out = capsys.readouterr().out
    assert "[  - ] delta strictly decreasing" in out and "FAIL" not in out


@pytest.mark.parametrize("r2_list", ["0.4,abc", ""])
def test_sweep_r2_list_not_numbers_returns_2(r2_list, capsys):
    # a bad list is a configuration error (2), not a failed check (1)
    assert main(["sweep-r2", "--dim", "2", "--n", "16", "--r2-list", r2_list]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


def test_config_file_run_warns_once(tmp_path, capsys):
    # the configuration is validated once, in run_scenario, not again on load
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("dim = 2\nn = 16\ndt = 0.5\nt_final = 0.5\nparticle_count = 100\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg)]) == 3
    user = [w for w in caught if issubclass(w.category, UserWarning)]
    assert len(user) == 1 and "advective scale" in str(user[0].message)
