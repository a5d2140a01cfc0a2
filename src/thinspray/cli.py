"""Command-line front end: run scenarios and fragment-radius sweeps.

Subcommands:
  run          integrate one scenario (flags mirror the SimConfig keys)
  sweep-r2     fragment-radius sweep against the matched limit run: prints
               sweep_r2's rows, slope and checks ("n/a" and "-" for None)

Exit status: 0 when every check passes, 1 when one fails (a run's summary
gates, a sweep's result["checks"]), 2 for an invalid configuration or a
file that cannot be read or written (the config file, the output directory),
3 when a run aborts on a rejected step.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dataclass_fields

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


_STATUS = {True: "PASS", False: "FAIL", None: "  - "}  # None: not applicable


def _print_flag(name: str, entry: dict):
    value = next((entry[k] for k in ("max", "max_residual", "max_error", "max_drift",
                                     "checked")
                  if entry.get(k) is not None), None)
    print(f"  [{_STATUS[entry['pass']]}] {name:16s} value={value!r} tol={entry.get('tol')!r}")


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    result = run_scenario(cfg)
    summary = result.summary
    print(f"scenario={cfg.scenario} steps={summary['steps']} "
          f"wall={summary['wall_time']:.1f}s")
    failed = False
    for name, entry in summary.items():  # every gate of the summary
        if isinstance(entry, dict) and "pass" in entry:
            _print_flag(name, entry)
            failed |= entry["pass"] is False
    if cfg.output_dir:
        print(f"outputs in {cfg.output_dir}/")
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    result = sweep_r2(cfg, args.r2_list.split(","))  # it converts and checks each
    print(f"{'r2':>8s} {'delta':>12s} {'rho_mismatch':>14s}")
    for row in result["rows"]:
        print(f"{row['r2']:8.3f} {row['delta']:12.5e} {row['rho_mismatch']:14.5e}")
    slope = result["loglog_slope"]
    print(f"log-log slope of delta vs r2: {'n/a' if slope is None else f'{slope:.3f}'} "
          "(relaxation scaling ~2)")
    for name, ok in result["checks"].items():
        print(f"[{_STATUS[ok]}] {name}")
    if cfg.output_dir:
        print(f"wrote {cfg.output_dir}/sweep.json")
    return 1 if False in result["checks"].values() else 0


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
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"file error: {err}", file=sys.stderr)
        return 2
    except StepRejectedError as err:
        print(f"run aborted: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
