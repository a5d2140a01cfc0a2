import json
import warnings

import pytest

from thinspray.cli import main
from thinspray.snapshots import read_diagnostics_csv


def test_check_lemmas_passes(capsys):
    assert main(["check-lemmas", "--samples", "60"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") >= 5
    assert "[FAIL]" not in out


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
    out_json = tmp_path / "sweep.json"
    code = main([
        "sweep-r2", "--dim", "2", "--n", "16", "--dt", "2e-3",
        "--t-final", "0.04", "--particle-count", "2000",
        "--particle-budget", "6000", "--tau", "0.05", "--spray-init", "offset",
        "--r2-list", "0.3", "--output-json", str(out_json),
    ])
    assert code == 0
    rows = json.loads(out_json.read_text())["rows"]
    assert len(rows) == 1 and rows[0]["r2"] == 0.3
    assert "delta" in capsys.readouterr().out


def test_config_file_run_warns_once(tmp_path, capsys):
    # the configuration is validated once, in run_scenario, not again on load
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("dim = 2\nn = 16\ndt = 0.5\nt_final = 0.5\nparticle_count = 100\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg)]) == 3
    user = [w for w in caught if issubclass(w.category, UserWarning)]
    assert len(user) == 1 and "advective scale" in str(user[0].message)
