"""Tests of the benchmark's own code.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import worker
from spans import Patches, SetupDone, Span, StepClock, Tracer, install_tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 6]
    tree = [Span("a", 0, 10), Span("b", 1, 4, parent=0), Span("c", 2, 3, parent=1),
            Span("d", 5, 6, parent=0)]
    assert spans.self_times(tree) == [6, 2, 1, 1]


def test_layer_metrics_per_step_over_given_intervals():
    s = [
        Span("sample", -5.0, -4.0),                          # set-up
        Span("fft", -3.0, -2.9),                             # set-up, not a step
        Span("ns_step", 0.0, 0.4), Span("fft", 0.1, 0.2, parent=2),
        Span("cic_gather", 0.5, 0.7, work={"transfer.gather_points": 100}),
        Span("merge_particles", 0.7, 0.9, work={"kinetic.merge_pairs": 6,
                                                 "kinetic.merge_m2_rel_max": 0.25}),
        Span("ns_step", 1.0, 1.2),                           # outside both intervals
        Span("ns_step", 2.0, 2.6),
        Span("cic_gather", 2.6, 2.8, work={"transfer.gather_points": 300}),
        Span("merge_particles", 2.8, 2.9, work={"kinetic.merge_pairs": 4,
                                                 "kinetic.merge_m2_rel_max": 0.5}),
    ]
    wrapped = {"sample", "ns_step", "fft", "cic_gather", "merge_particles"}
    m = spans.layer_metrics(s, [(0.0, 1.0), (2.0, 3.0)], wrapped)
    assert m["kinetic.sample_ms"] == pytest.approx(1000)
    assert m["fluid.ns_step_ms"] == pytest.approx(1e3 * (0.3 + 0.6) / 2)
    assert m["fluid.ns_step_calls"] == 1
    assert m["grid.fft_ms"] == pytest.approx(50) and m["grid.fft_calls"] == 0.5
    assert m["transfer.gather_ms"] == pytest.approx(200)
    assert m["transfer.gather_points"] == 200 and m["transfer.gather_calls"] == 1
    assert m["kinetic.merge_pairs"] == 5 and m["kinetic.merge_m2_rel_max"] == 0.5
    # 2 s of steps, 0.8 + 0.9 s covered by top-level spans
    assert m["scenarios.self_ms"] == pytest.approx(1e3 * (2.0 - 1.7) / 2)
    # layer times and the uncovered rest add back up to the step time
    total = sum(v for k, v in m.items() if k.endswith("_ms") and k != "kinetic.sample_ms")
    assert total == pytest.approx(1000)
    # names that got no wrapper are absent, not zero
    assert "density.step_ms" not in m and "transfer.scatter_ms" not in m


def test_tail_is_highest_sample_with_ten_beyond():
    assert run.tail(list(range(1, 21))) == (10, 50.0)
    assert run.tail(list(range(40, 0, -1))) == (30, 75.0)
    value, pct = run.tail([5.0] * 10 + [1.0])
    assert value == 1.0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_ref_scale_pools_every_reference_pass():
    runs = [{"ref_ms": [40.0, 160.0]}, {"ref_ms": [80.0]}]
    assert run.ref_scale(40.0, runs) == 0.5
    assert run.ref_scale(40.0, [{"ref_ms": [40.0]}]) == 1.0


def test_steps_leave_enough_samples_for_the_tail():
    wl = run.WORKLOADS["limit-particles"]
    steps = run.steps_for(wl, 0.1)
    assert steps - 1 - spans.WARMUP > run.TAIL_BEYOND


def test_tracer_install_records_and_restore_puts_originals_back():
    import numpy as np
    import thinspray.density
    import thinspray.kinetic
    import thinspray.scenarios

    before = {(m, a): getattr(sys.modules[m], a, None)
              for m, a, _ in spans.TARGETS if m in sys.modules}
    targets = spans.TARGETS + [("thinspray.kinetic", "no_such_name", "cic_gather"),
                               ("thinspray.no_such_module", "x", "fft")]
    tracer = Tracer()
    with Patches() as patches:
        wrapped = install_tracer(patches, tracer, targets)
        assert "cic_gather" in wrapped and "ns_step" in wrapped
        assert "thinspray.kinetic.no_such_name" in patches.missing
        assert "thinspray.no_such_module.x" in patches.missing
        assert thinspray.scenarios.ns_step is not before[("thinspray.scenarios", "ns_step")]
        grid = thinspray.GridSpec(2, 8)
        field = thinspray.ScalarField(grid, np.ones(grid.shape))
        x = np.zeros((5, 2))
        thinspray.kinetic.cic_gather(field, x)
        tracer.enabled = False
        thinspray.kinetic.cic_gather(field, x)
    assert [(s.name, s.work) for s in tracer.spans] == [
        ("cic_gather", {"transfer.gather_points": 5})]
    after = {(m, a): getattr(sys.modules[m], a, None) for m, a in before}
    assert after == before


def test_untraced_run_installs_only_the_step_clock():
    import thinspray.scenarios

    original = thinspray.scenarios.ns_step
    others = {(m, a): getattr(sys.modules[m], a, None) for m, a, _ in spans.TARGETS
              if (m, a) != spans.STEP_ANCHOR and m in sys.modules}
    clock = StepClock(on_step=lambda count: None)
    with Patches() as patches:
        clock.install(patches)
        assert len(patches.saved) == 1
        assert thinspray.scenarios.ns_step.__wrapped__ is original
        assert others == {(m, a): getattr(sys.modules[m], a, None) for m, a in others}
    assert thinspray.scenarios.ns_step is original


def test_step_clock_leaves_on_step_work_out_of_the_steps(monkeypatch):
    import thinspray.scenarios

    monkeypatch.setattr(thinspray.scenarios, "ns_step", lambda: time.sleep(0.01))
    clock = StepClock(on_step=lambda count: time.sleep(0.05))
    with Patches() as patches:
        clock.install(patches)
        for _ in range(4):
            thinspray.scenarios.ns_step()
    steps = clock.steps_ms()
    assert len(steps) == 3 and all(10 <= t < 40 for t in steps)


def test_step_clock_stops_setup_only_runs():
    import thinspray.scenarios

    ref_ms = []
    clock = StepClock(on_step=worker.stop_after_setup(ref_ms, (1, 1, 1, 1)))
    config = thinspray.scenarios.SimConfig(dim=2, n=16, particle_count=100)
    with Patches() as patches, pytest.raises(SetupDone):
        clock.install(patches)
        thinspray.scenarios.run_scenario(config)
    assert len(clock.ends) == 1 and clock.starts == []
    assert len(ref_ms) == worker.REF_PER_SETUP and all(t > 0 for t in ref_ms)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {name: wl.why for name, wl in run.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == run.layer_metric_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


SMOKE = {
    "limit-2d": run.Workload(why="smoke", config=dict(dim=2, n=16, scenario="limit",
                                                      particle_count=2000), step_s=0.01,
                             ref_mix=(1, 1, 1, 1), ref_ms=70.0),
    "bidisperse-2d": run.Workload(why="smoke", config=dict(
        dim=2, n=16, scenario="bidisperse", particle_count=500, particle_budget=1000),
        step_s=0.01, ref_mix=(1, 1, 1, 1), ref_ms=70.0),
}


def test_smoke_untraced_reports_every_end_to_end_metric():
    runner = run.Runner(SMOKE["limit-2d"], seed=3, deadline=time.monotonic() + 120)
    metrics, runs, report = run.measure(runner, seconds=0.1, trace=False)
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["gate_pass_frac"] == 1.0
    assert run.gate_counts(runs)[2] == 0
    assert runner.attempted == run.SETUPS
    assert all(v > 0 for v in metrics.values())


def test_smoke_traced_reports_layers_and_overhead():
    runner = run.Runner(SMOKE["bidisperse-2d"], seed=3, deadline=time.monotonic() + 120)
    metrics, runs, report = run.measure(runner, seconds=0.1, trace=True)
    assert set(metrics) == set(run.layer_metric_names())
    assert metrics["kinetic.merge_calls"] == 1 and metrics["kinetic.merge_pairs"] == 500
    assert metrics["fluid.ns_step_calls"] == 1
    assert runs[0]["missing"] == ["thinspray.density.cic_scatter"]


def test_fails_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "limit-particles",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
