"""Command-line front end: run scenarios, sweeps and standalone check suites.

Subcommands:
  run          integrate one scenario (flags mirror the SimConfig keys)
  sweep-r2     fragment-radius sweep against the matched limit run
  check-lemmas moment-bound, comparison-ODE and blow-up suites, standalone

Exit status: 0 when every check passes, 1 when one fails, 2 for an invalid
configuration, 3 when a run aborts on a rejected step.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields as dataclass_fields

import numpy as np

from .diagnostics import (
    RadialDensity,
    blowup_time_bound,
    check_moment_bound,
    gronwall_compare,
)
from .errors import ConfigError, StepRejectedError
from .scenarios import SimConfig, load_config, run_scenario, sweep_r2


def _add_config_flags(parser: argparse.ArgumentParser):
    """One CLI flag per SimConfig key, defaulting to 'unset'."""
    for f in dataclass_fields(SimConfig):
        default = getattr(SimConfig(), f.name)
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, type=type(default), default=None,
                            help=f"SimConfig.{f.name} (default {default!r})")


def _build_config(args) -> SimConfig:
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclass_fields(SimConfig)
        if getattr(args, f.name, None) is not None
    }
    if args.config:
        return load_config(args.config, overrides)
    return SimConfig(**overrides)  # run_scenario validates it


def _print_flag(name: str, entry: dict):
    status = {True: "PASS", False: "FAIL", None: "  - "}[entry.get("pass")]
    value = next((entry[k] for k in ("max", "max_residual", "max_error", "max_drift")
                  if entry.get(k) is not None), None)
    print(f"  [{status}] {name:16s} value={value!r} tol={entry.get('tol')!r}")


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    result = run_scenario(cfg)
    summary = result.summary
    print(f"scenario={cfg.scenario} steps={summary['steps']} "
          f"wall={summary['wall_time']:.1f}s")
    for name in ("divergence", "energy", "momentum", "mass_budget",
                 "liquid_volume", "lemma1"):
        entry = dict(summary[name]) if isinstance(summary[name], dict) else {}
        if name == "lemma1":
            entry = {"pass": summary[name]["pass"], "max": summary[name]["checked"]}
        _print_flag(name, entry)
    hard = [summary[k]["pass"] for k in ("divergence", "energy", "momentum",
                                         "mass_budget", "liquid_volume")]
    hard.append(summary["lemma1"]["pass"])
    failed = any(p is False for p in hard)
    if cfg.output_dir:
        print(f"outputs in {cfg.output_dir}/")
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    r2_list = [float(v) for v in args.r2_list.split(",")]
    result = sweep_r2(cfg, r2_list)
    print(f"{'r2':>8s} {'delta':>12s} {'rho_mismatch':>14s}")
    for row in result.rows:
        print(f"{row.r2:8.3f} {row.delta:12.5e} {row.rho_mismatch:14.5e}")
    print(f"log-log slope of delta vs r2: {result.slope:.3f} (relaxation scaling ~2)")
    deltas = [row.delta for row in result.rows]
    mism = [row.rho_mismatch for row in result.rows]
    ok = all(b < a for a, b in zip(deltas, deltas[1:])) \
        and all(b <= a for a, b in zip(mism, mism[1:]))
    print(f"[{'PASS' if ok else 'FAIL'}] delta strictly decreasing, mismatch non-increasing")
    if not args.output_json:
        return 0 if ok else 1
    with open(args.output_json, "w") as fh:
        json.dump(result.as_dict(), fh, indent=2)
    print(f"wrote {args.output_json}")
    return 0 if ok else 1


def _cmd_check_lemmas(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0

    # moment interpolation bound on random piecewise-constant radial densities
    bad = 0
    for _ in range(args.samples):
        nshell = int(rng.integers(2, 12))
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 6.0, nshell))])
        values = rng.uniform(0.0, 4.0, nshell)
        h = RadialDensity(edges, values)
        alpha = float(rng.uniform(0.0, 2.0))
        gamma = float(alpha + rng.uniform(0.25, 3.0))
        if not check_moment_bound(h, alpha, gamma)[2]:
            bad += 1
    print(f"[{'PASS' if bad == 0 else 'FAIL'}] moment bound: "
          f"{args.samples - bad}/{args.samples} random radial densities")
    failures += bad > 0

    # unit ball closed form
    ball = RadialDensity(np.array([0.0, 1.0]), np.array([1.0]))
    lhs, rhs, ok = check_moment_bound(ball, 0.0, 2.0)
    print(f"[{'PASS' if ok else 'FAIL'}] moment bound (unit ball): "
          f"m0={lhs:.6f} <= {rhs:.6f}")
    failures += not ok

    # comparison-ODE domination on a quartic problem
    t = np.linspace(0.0, 0.2, 50)
    res = gronwall_compare(1.0, 3.0, t, np.full(t.shape, 1.0))
    print(f"[{'PASS' if res.passed else 'FAIL'}] comparison ODE dominates a "
          f"constant lower function ({res.checked} samples"
          + (", blow-up reported" if res.blowup_reported else "") + ")")
    failures += not res.passed

    # blow-up time lower bound
    bad = 0
    worst = np.inf
    for _ in range(args.samples // 20 or 1):
        a = float(rng.uniform(0.3, 3.0))
        gamma = float(rng.uniform(0.75, 3.0))
        t_bound, t_numeric = blowup_time_bound(a, gamma)
        worst = min(worst, t_numeric / t_bound)
        if t_numeric < t_bound * (1 - 1e-6):
            bad += 1
    print(f"[{'PASS' if bad == 0 else 'FAIL'}] blow-up lower bound: "
          f"min(T_numeric/T_bound)={worst:.9f}")
    failures += bad > 0

    for a, gamma, closed in ((1.0, 1.0, 1.0), (1.0, 3.0, 1.0 / 3.0)):
        t_bound, t_numeric = blowup_time_bound(a, gamma)
        ok = abs(t_numeric - closed) <= 1e-6 and abs(t_bound - closed) <= 1e-12
        print(f"[{'PASS' if ok else 'FAIL'}] closed-form blow-up A={a} gamma={gamma}: "
              f"bound={t_bound:.9f} numeric={t_numeric:.9f}")
        failures += not ok

    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="thinspray", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario")
    p_run.add_argument("--config", help="flat key=value config file")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep-r2", help="fragment-radius sweep")
    p_sweep.add_argument("--config", help="flat key=value config file")
    p_sweep.add_argument("--r2-list", default="0.4,0.2,0.1",
                         help="comma-separated decreasing radii")
    p_sweep.add_argument("--output-json", default="", help="write sweep rows here")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_lem = sub.add_parser("check-lemmas", help="inequality suites, standalone")
    p_lem.add_argument("--samples", type=int, default=1000)
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.set_defaults(func=_cmd_check_lemmas)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except StepRejectedError as err:
        print(f"run aborted: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
