"""Command-line entry point.

Subcommands:
  simulate <config.json>        run the configured scenario, write artifacts
  fixed-points <config.json>    classify all straight-line equilibria
  fit <trajectory.csv>          power-law fit of a CSV column vs time
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import analysis, scenarios
from .config import ConfigError, parse_config
from .integrator import IntegrationError
from .model import DegenerateShapeError, InvalidParameterError


def _load_config(path: str):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    return parse_config(text)


def _cmd_run(args) -> int:
    """simulate and fixed-points: run the scenario, print its summary and the
    files written; fixed-points runs only a fixed_points config."""
    if args.draws < 0:
        raise ConfigError(f"--draws must be a non-negative integer, "
                          f"got {args.draws}")
    cfg = _load_config(args.config)
    if args.command == "fixed-points" and cfg.scenario != "fixed_points":
        raise ConfigError(
            f"config declares scenario {cfg.scenario!r}; expected 'fixed_points'")
    result = scenarios.run_scenario(cfg, output_dir=args.output_dir,
                                    seed=args.seed, draws=args.draws)
    # the census summary is its report, which ends in a newline
    census = cfg.scenario == "fixed_points"
    print(result.summary, end="" if census else "\n")
    for f in result.files:
        print(f"wrote {f}")
    return 0


def _cmd_fit(args) -> int:
    try:
        lo, hi = map(float, args.window.split(":"))
    except ValueError:
        raise ConfigError(f"--window must be 'lo:hi', got {args.window!r}") \
            from None
    data = scenarios.read_trajectory_csv(args.trajectory, (args.column,))
    try:
        fit = analysis.fit_power_law(data["t"], data[args.column], (lo, hi),
                                     mode=args.mode, period=args.period)
    except analysis.PeriodError as e:
        raise ConfigError(f"--period: {e}") from None
    print(f"{args.column} ~ {fit.prefactor:.6g} * t^{fit.exponent:+.5f} "
          f"(r^2 {fit.r_squared:.6f}, {fit.n_points} points, mode {args.mode})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multilink",
        description="Simulate and analyze an (N+1)-link nonholonomic "
                    "wheeled vehicle.")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario from a JSON config")
    fp = sub.add_parser("fixed-points",
                        help="enumerate and classify straight-line equilibria")
    for cmd in (sim, fp):
        cmd.add_argument("config")
        cmd.add_argument("--output-dir", default=None,
                         help="override output directory (also: "
                              f"{scenarios.OUTPUT_DIR_ENV} env var)")
        cmd.set_defaults(func=_cmd_run, draws=0, seed=None)
    fp.add_argument("--draws", type=int, default=0,
                    help="additionally classify this many random parameter "
                         "draws")
    fp.add_argument("--seed", type=int, default=None,
                    help="seed for the random-parameter suite")

    fit = sub.add_parser("fit", help="fit a power law to a CSV column")
    fit.add_argument("trajectory")
    fit.add_argument("--column", default="v1")
    window = "{:g}:{:g}".format(*scenarios.DEFAULT_FIT_WINDOW)
    fit.add_argument("--window", default=window,
                     help=f"time window 'lo:hi' (default {window})")
    fit.add_argument("--mode", choices=("raw", "envelope"), default="raw")
    fit.add_argument("--period", type=float, default=None,
                     help="rotor period (required for envelope mode)")
    fit.set_defaults(func=_cmd_fit)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process (parsing leaves a
    parser as it was)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (IntegrationError, DegenerateShapeError, InvalidParameterError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
