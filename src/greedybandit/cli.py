"""Command line entry point.

Runs one experiment from a preset or a config file, writes raw.csv,
aggregate.csv, and optionally regret.svg and diagnostics.txt into the
output directory.  Flags set ExperimentConfig fields and win over config
file values.  With --matrix, runs every --preset x --dist cell into
<out>/<shape>-<dist>/ and writes <out>/summary.csv.
Exit codes: 0 success, 1 invalid configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from .harness import (PRESET_DISTS, PRESET_SHAPES, SETTINGS, ConfigError,
                      ExperimentConfig, config_from_ini, default_policies,
                      preset_config, preset_spec, run_experiment,
                      write_outputs, write_rows)


def _names(choices):
    """argparse type for a comma list of names from `choices`."""
    def parse(text):
        names = tuple(name.strip() for name in text.split(","))
        for name in names:
            if name not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {name!r} (choose from {', '.join(choices)})")
        return names
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedybandit",
        description="Run greedy / LinUCB / LinTS linear bandit experiments "
                    "and write CSV and SVG reports.")
    parser.add_argument("config", nargs="?", default=None,
                        help="experiment config file (INI); flags override it")
    parser.add_argument("--preset", type=_names(sorted(PRESET_SHAPES)),
                        metavar="SHAPE",
                        help="preset experiment shape, not with a config file "
                             "(default d20-k20; a comma list with --matrix)")
    parser.add_argument("--dist", type=_names(PRESET_DISTS), metavar="DIST",
                        help="context distribution preset (default gaussian; "
                             "a comma list with --matrix)")
    parser.add_argument("--matrix", action="store_true",
                        help="run every --preset x --dist cell (default all) "
                             "and write summary.csv")
    parser.add_argument("--d", type=int, help="context dimension")
    parser.add_argument("--K", type=int, help="number of arms")
    parser.add_argument("--T", type=int, help="episode length")
    parser.add_argument("--reps", type=int, help="replications per policy")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--sigma", type=float, help="reward noise scale")
    parser.add_argument("--algo",
                        help="comma list of policies (greedy,linucb,lints)")
    parser.add_argument("--out", dest="output_dir", metavar="DIR",
                        help="output directory")
    parser.add_argument("--svg", dest="emit_svg",
                        action=argparse.BooleanOptionalAction,
                        help="write the regret plot")
    parser.add_argument("--diagnostics", action=argparse.BooleanOptionalAction,
                        help="write the diagnostics sidecar; its Monte-Carlo "
                             "estimates run on one extra thread next to the "
                             "episodes, at every --jobs")
    parser.add_argument("--jobs", type=int, help="parallel worker processes")
    parser.add_argument("--list-presets", action="store_true",
                        help="print available presets and exit")
    return parser


def _config_from_args(args, shape=None, dist=None) -> ExperimentConfig:
    """The file or preset config with the flags' settings applied; `shape`
    and `dist` name a matrix cell."""
    settings = {name: getattr(args, name) for name in SETTINGS
                if getattr(args, name) is not None}
    dist = dist or (args.dist[0] if args.dist else None)
    if args.config is not None:
        if args.preset:
            raise ConfigError("--preset names a preset shape and takes no config file")
        config = config_from_ini(args.config, **settings)
        if dist is not None:
            # Preset specs can depend on d, so they are built for the final d.
            config = dataclasses.replace(config, spec=preset_spec(dist, config.d))
    else:
        shape = shape or (args.preset[0] if args.preset else "d20-k20")
        config = preset_config(shape, dist or "gaussian", **settings)
    if args.algo:
        algos = tuple(a.strip() for a in args.algo.split(","))
        config = dataclasses.replace(config, policies=default_policies(algos))
    return config


def _matrix_configs(args) -> list[tuple[str, str, ExperimentConfig]]:
    """(shape, dist, config) per cell, each writing to <out>/<shape>-<dist>."""
    if args.config is not None:
        raise ConfigError("--matrix runs presets and takes no config file")
    cells = []
    for shape in args.preset or sorted(PRESET_SHAPES):
        for dist in args.dist or PRESET_DISTS:
            config = _config_from_args(args, shape, dist)
            cells.append((shape, dist, dataclasses.replace(
                config, output_dir=os.path.join(config.output_dir,
                                                f"{shape}-{dist}"))))
    return cells


def _run_matrix(args, cells) -> None:
    rows = []
    for shape, dist, config in cells:
        t0 = time.time()
        table = run_experiment(config)
        write_outputs(table)
        elapsed = time.time() - t0
        finals = {n: table.final_mean_regret(n) for n in table.policy_names}
        print(f"{shape:10s} {dist:16s} {elapsed:6.1f}s  " +
              "  ".join(f"{n}={v:.1f}" for n, v in finals.items()))
        rows.extend((shape, dist, name, val) for name, val in finals.items())
    out = ExperimentConfig.output_dir if args.output_dir is None else args.output_dir
    summary_path = os.path.join(out, "summary.csv")
    write_rows(summary_path, ("shape", "dist", "policy", "final_mean_cum_regret"),
               rows)
    print(f"summary: {summary_path}")


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
    if not args.matrix and max(len(args.preset or ()), len(args.dist or ())) > 1:
        parser.error("--preset and --dist take a list only with --matrix")
    try:
        if args.matrix:
            cells = _matrix_configs(args)
        else:
            cells = [(None, None, _config_from_args(args))]
    except ValueError as exc:  # ConfigError, or a spec rejecting its parameters
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1
    try:
        if args.matrix:
            _run_matrix(args, cells)
            return 0
        table = run_experiment(cells[0][2])
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
