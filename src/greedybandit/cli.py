"""Command line entry point.

Runs one experiment from a preset or a config file, writes raw.csv,
aggregate.csv, and optionally regret.svg and diagnostics.txt into the
output directory.  Command line flags always win over config file values.
Exit codes: 0 success, 1 invalid configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (PRESET_DISTS, PRESET_SHAPES, config_from_ini,
                      default_policies, preset_config, preset_spec,
                      run_experiment, write_outputs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedybandit",
        description="Run greedy / LinUCB / LinTS linear bandit experiments "
                    "and write CSV and SVG reports.")
    parser.add_argument("config", nargs="?", default=None,
                        help="experiment config file (INI); flags override it")
    parser.add_argument("--preset", choices=sorted(PRESET_SHAPES),
                        default="d20-k20",
                        help="experiment shape when no config file is given")
    parser.add_argument("--dist", choices=PRESET_DISTS, default=None,
                        help="context distribution preset (default gaussian)")
    parser.add_argument("--d", type=int, default=None, help="context dimension")
    parser.add_argument("--K", type=int, default=None, help="number of arms")
    parser.add_argument("--T", type=int, default=None, help="episode length")
    parser.add_argument("--reps", type=int, default=None,
                        help="replications per policy")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--sigma", type=float, default=None,
                        help="reward noise scale")
    parser.add_argument("--algo", default=None,
                        help="comma list of policies (greedy,linucb,lints)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--svg", action=argparse.BooleanOptionalAction,
                        default=None, help="write the regret plot")
    parser.add_argument("--diagnostics", action=argparse.BooleanOptionalAction,
                        default=None, help="write the diagnostics sidecar")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker processes")
    parser.add_argument("--list-presets", action="store_true",
                        help="print available presets and exit")
    return parser


def _config_from_args(args) -> "ExperimentConfig":
    if args.config is not None:
        config = config_from_ini(args.config)
    else:
        config = preset_config(args.preset, args.dist or "gaussian")
    overrides = {}
    if args.d is not None:
        overrides["d"] = args.d
    if args.K is not None:
        overrides["K"] = args.K
    if args.T is not None:
        overrides["T"] = args.T
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.sigma is not None:
        overrides["sigma"] = args.sigma
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.svg is not None:
        overrides["emit_svg"] = args.svg
    if args.diagnostics is not None:
        overrides["diagnostics"] = args.diagnostics
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if overrides:
        config = dataclasses.replace(config, **overrides)
    if args.sigma is not None or args.algo is not None:
        algos = tuple(a.strip() for a in args.algo.split(",")) if args.algo \
            else tuple(p.kind for p in config.policies)
        config = dataclasses.replace(
            config, policies=default_policies(config.sigma, algos))
    # Preset specs can depend on d, so they are built for the final d.
    if args.config is None or args.dist is not None:
        config = dataclasses.replace(
            config, spec=preset_spec(args.dist or "gaussian", config.d))
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_presets:
        print("shapes (d, K):")
        for name, (d, K) in PRESET_SHAPES.items():
            print(f"  {name}: d={d} K={K}")
        print("distributions:")
        for name in PRESET_DISTS:
            print(f"  {name}")
        return 0
    try:
        config = _config_from_args(args)
        config.validate()
    except ValueError as exc:  # ConfigError, or a spec rejecting its parameters
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1
    try:
        table = run_experiment(config)
        paths = write_outputs(table)
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for label, p in paths.items():
        print(f"{label}: {p}")
    for name in table.policy_names:
        print(f"final mean cumulative regret [{name}]: "
              f"{table.final_mean_regret(name):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
