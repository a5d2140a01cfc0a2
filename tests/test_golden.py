"""Fixed-seed summaries of every scenario, compared against stored values.

The expected values in ``golden_summaries.json`` are run outputs of small
seeded cases: every float of the run summary except ``wall_time``, every
``DiagnosticsRecord.scalars()`` value (the record carries the regularization
remainders) and the final particle count.  A refactor that keeps the
numerics must reproduce them to rounding.  Regenerate (only for a
deliberate change of the numerics) with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

which reruns and rewrites the named cases, every case when none is named,
and prints for each how many values moved past RTOL/ATOL, how many changed
at all (a regeneration that keeps the numerics reports 0 changed bits) and
its largest relative move.  With ``--report`` it reruns them and prints the
same lines, writes nothing, and exits 1 if any value moved past RTOL/ATOL, 0
otherwise, so that a script can check a claim of rounding-only moves.
The stored values of the cases not named stay byte for byte: the file is
kept in the one form that ``json.dumps(..., indent=1, sort_keys=True)``
writes, and a float's repr reads back to the same float.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thinspray import kinetic, scenarios
from thinspray.scenarios import SimConfig, run_scenario

GOLDEN = Path(__file__).with_name("golden_summaries.json")
SRC = str(Path(__file__).resolve().parent.parent / "src")
RTOL, ATOL = 1e-9, 1e-12

_BASE = dict(dim=2, n=16, dt=2e-3, t_final=0.03, particle_count=2_000,
             particle_budget=5_000, seed=5)
CASES = {
    "limit-2d": dict(_BASE),
    "bidisperse-merge-2d": dict(_BASE, scenario="bidisperse", tau=0.05, r2=0.3,
                                particle_budget=2_500),
    "regularized-2d": dict(_BASE, scenario="regularized", eps=0.5),
    "limit-3d": dict(_BASE, dim=3, n=8, particle_count=1_000, t_final=0.02),
    "bidisperse-merge-3d": dict(_BASE, dim=3, n=8, particle_count=1_000,
                                t_final=0.02, scenario="bidisperse", tau=0.05,
                                r2=0.3, particle_budget=1_200),
}


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, item, out)
    else:
        out[prefix] = value


def case_values(config: dict) -> dict:
    """Flat name -> value map of one run, in a JSON-safe form."""
    res = run_scenario(SimConfig(**config))
    out = {}
    summary = dict(res.summary)
    summary.pop("wall_time")
    _flatten("summary", summary, out)
    for i, rec in enumerate(res.records):
        for key, value in rec.scalars().items():
            out[f"record{i}.{key}"] = value
    out["final_count"] = res.cloud.count
    return out


def _expected():
    return json.loads(GOLDEN.read_text())


def _dumps(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def _same(have, want) -> bool:
    if isinstance(want, float):
        return math.isclose(have, want, rel_tol=RTOL, abs_tol=ATOL)
    return have == want


def _moves(name: str, old: dict, new: dict) -> str:
    """One line: how many of a case's values moved past RTOL/ATOL from old to
    new and how many changed their bits (their repr, which a float's bits
    fix), a key that one of them lacks counting as both, and the largest
    relative move among the nonzero stored floats that moved, with its key."""
    changed = {key for key in old.keys() | new.keys()
               if key not in old or key not in new or repr(new[key]) != repr(old[key])}
    moved = {key for key in changed
             if key not in old or key not in new or not _same(new[key], old[key])}
    rel = {key: abs(new[key] - old[key]) / abs(old[key]) for key in moved & old.keys()
           if isinstance(old[key], float) and old[key] and isinstance(new.get(key), float)}
    line = (f"{name}: {len(moved)} of {len(new)} values moved past RTOL/ATOL, "
            f"{len(changed)} changed bits")
    if rel:
        key = max(sorted(rel), key=rel.get)
        line += f"; largest relative move {rel[key]:.3e} at {key}"
    return line


def regenerate(names, path=GOLDEN, *, write=True) -> list[str]:
    """Rerun the named cases, rewrite their stored values in path unless
    write is false, and return one line per case saying how far its values
    moved (`_moves`)."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s) {unknown}; pick from {sorted(CASES)}")
    data = json.loads(path.read_text())
    report = []
    for name in names:
        new = case_values(CASES[name])
        report.append(_moves(name, data.get(name, {}), new))
        data[name] = new
    if write:
        path.write_text(_dumps(data))
    return report


def main(argv, path=GOLDEN) -> int:
    """The script: `regenerate` the cases named in argv, every case when none
    is named, and return 0; with --report, print the report, write nothing,
    and return 1 if a case moved a value past RTOL/ATOL, else 0."""
    report = "--report" in argv
    names = [arg for arg in argv if arg != "--report"] or sorted(CASES)
    lines = regenerate(names, path, write=not report)
    print("\n".join(lines))
    if not report:
        print(f"rewrote {', '.join(names)} in {path}")
        return 0
    # each line reads "<case>: <moved> of <count> values moved past RTOL/ATOL, ..."
    return int(any(line.split()[1] != "0" for line in lines))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_summary(name):
    expected = _expected()[name]
    got = case_values(CASES[name])
    assert sorted(got) == sorted(expected)
    for key, want in expected.items():
        assert _same(got[key], want), f"{name} {key}: {got[key]!r} != {want!r}"


def test_merging_case_merges(monkeypatch):
    # the bidisperse cases exist to cover the merge, its later passes included
    for name in ("bidisperse-merge-2d", "bidisperse-merge-3d"):
        assert _expected()[name]["summary.merge_m2_max"] > 0.0
    passes = []
    merge_pass, merge = kinetic._merge_pass, scenarios.merge_particles

    def counted_pass(*args):
        passes[-1] += 1
        return merge_pass(*args)

    def counted_merge(*args, **kwargs):
        passes.append(0)
        return merge(*args, **kwargs)

    monkeypatch.setattr(kinetic, "_merge_pass", counted_pass)
    monkeypatch.setattr(scenarios, "merge_particles", counted_merge)
    # merges of three or more passes are covered by test_kinetic's
    # test_merge_matches_the_loop_reference
    for name, most in (("bidisperse-merge-2d", 2), ("bidisperse-merge-3d", 2)):
        passes.clear()
        run_scenario(SimConfig(**CASES[name]))
        assert max(passes) >= most, name


@pytest.mark.parametrize("name", ["bidisperse-merge-2d", "bidisperse-merge-3d"])
def test_merging_keeps_every_parent_and_its_turns(name):
    # a merge takes only fragments, so every parent keeps its row and its
    # turn: parent i breaks up on the steps k = i (mod 2), n_i of them, and
    # ends at w0 exp(-2 dt n_i / tau)
    config = SimConfig(**CASES[name])
    cloud = run_scenario(config).cloud
    assert cloud.parents == config.particle_count
    turns = np.where(np.arange(cloud.parents) % 2, (config.steps + 1) // 2, config.steps // 2)
    w0 = config.spray_mass / config.particle_count
    want = w0 * np.exp(-2 * config.dt * turns / config.tau)
    assert np.allclose(cloud.w[:cloud.parents], want, rtol=1e-12, atol=0)


def test_stored_form_is_the_written_form():
    # so a rewrite of some cases leaves the text of the others as it is
    text = GOLDEN.read_text()
    assert _dumps(json.loads(text)) == text


def test_regenerating_one_case_keeps_the_others(tmp_path, monkeypatch):
    path = tmp_path / GOLDEN.name
    path.write_text(GOLDEN.read_text())
    # a shorter run, so that the rewritten values differ from the stored ones
    monkeypatch.setitem(CASES, "limit-2d", dict(CASES["limit-2d"], t_final=0.004))
    report = regenerate(["limit-2d"], path)
    assert len(report) == 1 and report[0].startswith("limit-2d: ")
    assert "largest relative move" in report[0]
    old, new = _expected(), json.loads(path.read_text())
    assert new["limit-2d"] == case_values(CASES["limit-2d"]) != old["limit-2d"]
    # rerun as stored, the case reports the same bytes
    count = len(new["limit-2d"])
    assert regenerate(["limit-2d"], path) == [
        f"limit-2d: 0 of {count} values moved past RTOL/ATOL, 0 changed bits"]
    assert json.loads(path.read_text()) == new
    del old["limit-2d"], new["limit-2d"]
    assert new == old


def test_report_writes_nothing(tmp_path, monkeypatch, capsys):
    # --report prints the lines of a regeneration, here of a shorter run
    # whose values differ from the stored ones, and leaves the file's bytes
    path = tmp_path / GOLDEN.name
    path.write_bytes(GOLDEN.read_bytes())
    monkeypatch.setitem(CASES, "limit-2d", dict(CASES["limit-2d"], t_final=0.004))
    main(["--report", "limit-2d"], path)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("limit-2d: ")
    assert "largest relative move" in out[0]
    assert path.read_bytes() == GOLDEN.read_bytes()


def test_report_exits_1_when_a_value_moves(tmp_path, monkeypatch):
    path = tmp_path / GOLDEN.name
    path.write_bytes(GOLDEN.read_bytes())
    monkeypatch.setitem(CASES, "limit-2d", dict(CASES["limit-2d"], t_final=0.004))
    assert main(["--report", "limit-2d", "limit-3d"], path) == 1


def test_report_exits_0_when_no_value_moves():
    # the script itself, on the stored file, which it leaves as it is
    before = GOLDEN.read_bytes()
    script = subprocess.run([sys.executable, __file__, "--report", "limit-3d"],
                            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert script.returncode == 0, script.stdout + script.stderr
    assert script.stdout.startswith("limit-3d: 0 of ")
    assert GOLDEN.read_bytes() == before


def test_moves_counts_changed_bits_apart_from_moves():
    # a last-bit change is within RTOL, yet it is a change of the stored bytes
    old = {"a": 1.0, "b": 2.0, "c": True, "d": 3.0}
    new = {"a": 1.0 + 2.0**-52, "b": 2.0, "c": True, "d": 3.5}
    assert _moves("case", old, new) == ("case: 1 of 4 values moved past RTOL/ATOL, "
                                        "2 changed bits; largest relative move "
                                        "1.667e-01 at d")
    assert _moves("case", old, dict(old)).endswith("0 of 4 values moved past RTOL/ATOL, "
                                                   "0 changed bits")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
