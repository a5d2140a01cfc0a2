"""One measured process: import and set up thinspray, run one scenario, check it.

Usage (``run.py`` starts it from the checkout root with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --config '{"scenario": "limit", ...}' \\
        --mode run|setup|traced [--ref-mix 1,1,4,2]

``setup`` stops at the first step and reports only the set-up time.  ``run``
installs the step clock and nothing else.  Both time the reference kernel
between steps, outside every step, so that ``run.py`` can scale their times
to a fixed machine speed.  ``traced`` also installs the span tracer and turns
it on for every second step, so traced and untraced steps of one process can
be compared.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from spans import (WARMUP, Patches, SetupDone, StepClock, Tracer, install_tracer,
                   layer_metrics)

ROOT = Path(__file__).resolve().parent.parent

# summary keys whose "pass" is a hard gate; a None pass means not applicable
GATES = ("divergence", "energy", "momentum", "mass_budget", "liquid_volume", "lemma1")


def check_gates(result) -> dict[str, bool]:
    """Every applicable hard gate of a run, plus the particle budget."""
    gates = {g: bool(result.summary[g]["pass"]) for g in GATES
             if result.summary[g]["pass"] is not None}
    gates["particle_budget"] = result.cloud.count <= result.config.particle_budget
    return gates


def reference_ms(mix: tuple[int, int, int, int]) -> float:
    """Time of one pass of a fixed NumPy, SciPy and interpreter mix, in ms.

    It uses neither thinspray nor the seed, so its time follows only the
    speed of the machine at that moment.  ``mix`` says how many times each of
    four parts runs: a nearest-neighbour query on 10k 6-D points, an
    interpreted loop over 40k flags, a random gather and scatter of 200k
    points on a 64^3 grid, and a 64^3 FFT pair.  Its inputs are made anew on
    every call, so they add little to the peak memory.
    """
    import numpy as np
    from scipy.spatial import cKDTree

    n_tree, n_loop, n_gather, n_fft = mix
    rng = np.random.default_rng(0)
    grid = rng.random((64, 64, 64))
    idx = rng.integers(0, grid.size, 200_000)
    vals = rng.random(idx.size)
    pts = rng.random((10_000, 6))
    flags = np.zeros(40_000, dtype=bool)
    t0 = time.perf_counter()
    for _ in range(n_tree):
        cKDTree(pts).query(pts, k=2)
    for _ in range(n_loop):
        flags[:] = False
        for i in range(flags.size):
            if not flags[i]:
                flags[i] = True
    for _ in range(n_gather):
        grid.ravel()[idx]
        np.bincount(idx, vals, minlength=grid.size)
    for _ in range(n_fft):
        np.fft.irfftn(np.fft.rfftn(grid))
    return 1e3 * (time.perf_counter() - t0)


REF_PER_SETUP = 3  # reference passes after a set-up-only run


def stop_after_setup(ref_ms: list[float], mix):
    def on_step(count):
        ref_ms.extend(reference_ms(mix) for _ in range(REF_PER_SETUP))
        raise SetupDone
    return on_step


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="SimConfig fields as a JSON object")
    ap.add_argument("--mode", choices=("run", "setup", "traced"), required=True)
    ap.add_argument("--ref-mix", required=True,
                    help="repeats of the four parts of reference_ms, comma-separated")
    args = ap.parse_args(argv)
    mix = tuple(int(v) for v in args.ref_mix.split(","))

    t0 = time.perf_counter()
    import thinspray
    import thinspray.scenarios as scenarios

    src = (ROOT / "src").resolve()
    if src not in Path(thinspray.__file__).resolve().parents:
        raise RuntimeError(f"imported {thinspray.__file__}, not the package under {src}")
    config = scenarios.SimConfig(**json.loads(args.config))

    clock = StepClock()
    tracer = Tracer()
    ref_ms: list[float] = []
    result = None
    with Patches() as patches:
        if args.mode == "traced":
            wrapped = install_tracer(patches, tracer)
            clock.on_step = lambda count: setattr(tracer, "enabled", count % 2 == 0)
        elif args.mode == "setup":
            clock.on_step = stop_after_setup(ref_ms, mix)
        else:
            clock.on_step = lambda count: ref_ms.append(reference_ms(mix))
        clock.install(patches)
        try:
            result = scenarios.run_scenario(config)
        except SetupDone:
            pass

    out = {"setup_s": clock.ends[0] - t0, "ref_ms": ref_ms}
    if result is None:
        print(json.dumps(out))
        return 0
    # the first WARMUP steps are left out, and so is the last, which no entry ends
    steady = range(WARMUP, len(clock.ends) - 1)
    traced = [k for k in steady if args.mode == "traced" and k % 2 == 1]
    steps_ms = clock.steps_ms()
    out.update(
        step_ms=[steps_ms[k] for k in steady if k not in traced],
        gates=check_gates(result),
        energy_residual_max=result.summary["energy"]["max_residual"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.mode == "traced":
        intervals = [(clock.starts[k], clock.ends[k + 1]) for k in traced]
        out["traced_step_ms"] = [steps_ms[k] for k in traced]
        out["layers"] = layer_metrics(tracer.spans, intervals, wrapped)
        out["missing"] = patches.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
