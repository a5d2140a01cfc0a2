"""Step-time benchmark of the three thinspray scenarios.

Run from the root of a checkout:

    python3 perfbench/run.py --workload limit-particles --seed 0 --seconds 30 --trace 0

Each worker process runs alone (single process, single thread), one after the
other.  ``--trace 0`` runs one scenario with only the step clock installed,
plus set-up-only processes, and reports the end-to-end metrics, with times
scaled to a fixed machine speed by a reference kernel timed in the same
processes.  ``--trace 1`` runs one scenario that traces every second step,
and reports the per-layer metrics of the traced steps and the tracing
overhead against the others.  Every scenario run has its hard gates checked;
any failure makes the exit code 1.  The last line of standard output is one
JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import LAYERS, SELF_METRIC, SETUP_SPANS, WARMUP

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170.0   # every run ends well inside the 180 s a run may take
SETUPS = 6           # set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10     # the tail percentile keeps this many samples above it


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict      # SimConfig fields on top of BASE_CONFIG
    step_s: float     # step time at the seed commit; sizes the run from --seconds
    # repeats of reference_ms's k-d tree, loop, gather/scatter and FFT parts,
    # in about the proportions of the workload's own steps
    ref_mix: tuple[int, int, int, int]
    # median reference_ms(ref_mix) between the steps of the baseline runs
    # (README); --trace 0 times are scaled to the speed at which it reads so
    ref_ms: float


BASE_CONFIG = dict(dim=3, dt=1e-3, fluid_init="taylor-green", spray_init="offset")

WORKLOADS = {
    "limit-particles": Workload(
        why="200k particles at n=32: particle-grid transfer and diagnostics dominate; "
            "merging never runs",
        config=dict(scenario="limit", n=32, particle_count=200_000),
        step_s=0.55,
        ref_mix=(0, 1, 8, 1),
        ref_ms=33.7,
    ),
    "bidisperse-merge": Workload(
        why="20k parents fragment into a 40k budget: merge_particles dominates every step "
            "from step 2; transfer is light",
        config=dict(scenario="bidisperse", n=32, particle_count=20_000,
                    particle_budget=40_000, r2=0.1, tau=1.0),
        step_s=0.85,
        ref_mix=(1, 3, 1, 1),
        ref_ms=101.3,
    ),
    "regularized-grid": Workload(
        why="n=64 with 20k particles: ns_step, density_step and mollify dominate; "
            "gathers run on ordered grid nodes",
        config=dict(scenario="regularized", n=64, particle_count=20_000, eps=0.25),
        step_s=0.85,
        ref_mix=(0, 2, 4, 2),
        ref_ms=49.8,
    ),
}

# end-to-end metric -> (unit, which direction is better)
END_TO_END = {
    "step_ms_p50": ("ms", "lower"), "step_ms_tail": ("ms", "lower"), "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"), "energy_residual_max": ("1", "lower"),
    "gate_pass_frac": ("ratio", "higher"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_max")):
        return "ratio"
    return "count"


def layer_metric_names() -> list[str]:
    names = []
    for time_m, calls_m, probes in LAYERS.values():
        names += [time_m] + ([calls_m] if calls_m else []) + list(probes)
    names += list(SETUP_SPANS.values()) + [SELF_METRIC, "trace.overhead_frac"]
    return list(dict.fromkeys(names))


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest sample with at least ``beyond`` samples above it, and its percentile.

    Of n sorted samples that is the one at 0-based index n - beyond - 1, which
    is the 100 (n - beyond) / n percentile.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    return sorted(samples)[n - beyond - 1], 100.0 * (n - beyond) / n


def ref_scale(nominal_ms: float, runs: list[dict]) -> float:
    """Factor that turns times of these worker runs into times at the speed
    where the reference takes ``nominal_ms``: that over the median of all
    their reference passes, which are pooled because one varies by a quarter."""
    return nominal_ms / statistics.median(t for r in runs for t in r["ref_ms"])


def steps_for(workload: Workload, seconds: float) -> int:
    """Fixed step count for a run of about ``seconds``; enough for a tail."""
    return max(WARMUP + TAIL_BEYOND + 2, round(seconds / workload.step_s))


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time, all before a common deadline."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.attempted = 0

    def _call(self, argv: list[str]) -> str:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("out of time before starting a worker")
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerFailed("worker timed out") from None
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return proc.stdout

    def warm_import(self):
        """Import once untimed, so bytecode and the file cache exist before timing."""
        self._call(["-c", "import thinspray.scenarios"])

    def worker(self, mode: str, steps: int) -> dict:
        config = dict(BASE_CONFIG, **self.workload.config, seed=self.seed,
                      t_final=steps * BASE_CONFIG["dt"])
        argv = [str(WORKER), "--config", json.dumps(config), "--mode", mode,
                "--ref-mix", ",".join(map(str, self.workload.ref_mix))]
        self.attempted += 1
        return json.loads(self._call(argv).strip().splitlines()[-1])


def gate_counts(runs: list[dict]) -> tuple[int, int, int]:
    """(gates checked, gates passed, runs with a failed gate)."""
    checked = sum(len(r["gates"]) for r in runs)
    passed = sum(sum(r["gates"].values()) for r in runs)
    failed_runs = sum(not all(r["gates"].values()) for r in runs)
    return checked, passed, failed_runs


def measure(runner: Runner, seconds: float, trace: bool):
    """Run the workload; return (metrics, runs with a gate checked, report lines)."""
    wl = runner.workload
    runner.warm_import()
    if not trace:
        main = runner.worker("run", steps_for(wl, seconds))
        setups = [main] + [runner.worker("setup", 1) for _ in range(SETUPS - 1)]
        step_scale, setup_scale = ref_scale(wl.ref_ms, [main]), ref_scale(wl.ref_ms, setups[1:])
        raw = main["step_ms"]
        steps = [step_scale * v for v in raw]
        tail_ms, pct = tail(steps)
        raw_setup = statistics.median(r["setup_s"] for r in setups)
        checked, passed, _ = gate_counts([main])
        metrics = {
            "step_ms_p50": statistics.median(steps),
            "step_ms_tail": tail_ms,
            "setup_s": setup_scale * raw_setup,
            "peak_rss_mb": main["peak_rss_mb"],
            "energy_residual_max": main["energy_residual_max"],
            "gate_pass_frac": passed / checked,
        }
        report = [f"step_ms_tail is p{pct:.1f} of {len(steps)} steps",
                  f"scaled by {step_scale:.4f} (steps) and {setup_scale:.4f} (set-up); "
                  f"unscaled: step median "
                  f"{statistics.median(raw):.1f} ms, tail {tail(raw)[0]:.1f} ms, "
                  f"set-up median {raw_setup:.3f} s",
                  f"gates passed {passed}/{checked}: {main['gates']}"]
        return metrics, [main], report

    run = runner.worker("traced", steps_for(wl, seconds))
    p50_plain = statistics.median(run["step_ms"])
    p50_traced = statistics.median(run["traced_step_ms"])
    metrics = dict(run["layers"])
    metrics["trace.overhead_frac"] = p50_traced / p50_plain - 1.0
    layer_sum = sum(v for k, v in metrics.items()
                    if k.endswith("_ms") and k not in SETUP_SPANS.values())
    checked, passed, _ = gate_counts([run])
    report = [f"untraced steps: step_ms_p50 {p50_plain:.1f} ms over {len(run['step_ms'])}; "
              f"traced steps: {p50_traced:.1f} ms over {len(run['traced_step_ms'])}",
              f"layer self times sum to {layer_sum:.1f} ms per step, "
              f"{100 * (layer_sum / p50_plain - 1):+.1f}% off the untraced step_ms_p50",
              f"gates passed {passed}/{checked}"]
    if run["missing"]:
        report.append("not traced (name not found): " + ", ".join(run["missing"]))
    return metrics, [run], report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thinspray" / "__init__.py").is_file():
        print(f"no thinspray package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    runner = Runner(WORKLOADS[args.workload], args.seed, time.monotonic() + DEADLINE_S)
    try:
        metrics, runs, report = measure(runner, args.seconds, bool(args.trace))
    except WorkerFailed as err:
        print(f"{args.workload}: {err}", file=sys.stderr)
        return 1

    _, _, failed = gate_counts(runs)
    if args.trace:
        rows = {k: {"value": metrics[k], "unit": layer_unit(k)}
                for k in layer_metric_names() if k in metrics}
    else:
        rows = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()}
    for line in report:
        print(f"{args.workload} seed {args.seed}: {line}")
    for name, m in rows.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": rows}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
