"""One greedybandit experiment in this process, timed and optionally traced.

Run as a child of run.py:

    python3 perfbench/experiment.py --workload NAME --seed N --out DIR --trace 0|1

It makes the calls `greedybandit.cli.main` makes (build and validate the
config, `harness.run_experiment`, `harness.write_outputs`) and prints one
JSON line: CLOCK_MONOTONIC timestamps that end set-up, the episodes and the
output files, the peak resident memory, the OpenBLAS libraries and thread
counts in effect and, with --trace 1, time and call counts per wrapped
function.  CLOCK_MONOTONIC is system-wide, so the parent subtracts the
moment it started this process to get set-up and wall time.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# name -> (preset shape, preset dist, reps, diagnostics).  T is the preset's
# 1000 everywhere; jobs stays 1 so the run is this one process.
WORKLOADS = {
    "preset-d20": ("d20-k20", "gaussian", 10, True),
    "wide-d100": ("d100-k20", "gaussian", 1, False),
    "trunc-k100": ("d20-k100", "trunc-cauchy", 2, False),
}

# (module, attribute) pairs wrapped by --trace 1, at the name each caller
# looks the function up by: env.run_episode finds sample_context_set, reward
# and instantaneous_regret in env's namespace and policy_step, update and
# min_eigenvalue on the policies and estimator modules; harness finds
# run_episode, write_csv and render_svg in its own namespace and
# run_diagnostics on the diagnostics module, which finds its four estimators
# in its own namespace.
TRACED = (
    ("env", "sample_context_set"),
    ("policies", "policy_step"),
    ("estimator", "update"),
    ("estimator", "min_eigenvalue"),
    ("env", "reward"),
    ("env", "instantaneous_regret"),
    ("harness", "run_episode"),
    ("harness", "write_csv"),
    ("harness", "render_svg"),
    ("diagnostics", "run_diagnostics"),
    ("diagnostics", "estimate_diversity_constant"),
    ("diagnostics", "estimate_margin_constant"),
    ("diagnostics", "estimate_concentration_params"),
    ("diagnostics", "empirical_x_max"),
)
# Wrapped functions whose second argument is the PolicyConfig; their time is
# kept per policy.
PER_POLICY = {"policy_step", "run_episode"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def install_tracing() -> dict:
    """Replace each TRACED function by a wrapper that adds its elapsed time
    and one call to `spans[label]`; returns `spans`."""
    spans: dict[str, list] = {}

    def wrap(mod_name, attr):
        module = importlib.import_module(f"greedybandit.{mod_name}")
        fn = getattr(module, attr)
        label = f"{mod_name}.{attr}"
        per_policy = attr in PER_POLICY

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                key = f"{label}.{args[1].name}" if per_policy else label
                span = spans.setdefault(key, [0.0, 0])
                span[0] += elapsed
                span[1] += 1

        setattr(module, attr, traced)

    for mod_name, attr in TRACED:
        wrap(mod_name, attr)
    return spans


def blas_in_effect() -> list[dict]:
    """Every OpenBLAS mapped into this process, with its config string and
    thread count, read through the library's own getters."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            try:
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            entry["threads"] = get_threads()
            entry["config"] = get_config().decode()
            break
        found.append(entry)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import greedybandit
    from greedybandit import harness
    if not os.path.abspath(greedybandit.__file__).startswith(SRC + os.sep):
        print(f"error: imported greedybandit from {greedybandit.__file__}",
              file=sys.stderr)
        return 2

    shape, dist, reps, diag = WORKLOADS[args.workload]
    config = harness.preset_config(shape, dist, reps=reps, seed=args.seed,
                                   output_dir=args.out, diagnostics=diag, jobs=1)
    config.validate()
    spans = install_tracing() if args.trace else None
    setup_end = now()
    table = harness.run_experiment(config)
    run_end = now()
    harness.write_outputs(table)
    write_end = now()

    print(json.dumps({
        "setup_end": setup_end,
        "run_end": run_end,
        "write_end": write_end,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "policies": table.policy_names,
        "reps": config.reps,
        "T": config.T,
        "d": config.d,
        "blas": blas_in_effect(),
        "spans": spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
