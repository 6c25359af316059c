"""greedybandit benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's experiment again and again, each time in a fresh
interpreter (perfbench/experiment.py), until S seconds have passed, checks
every output directory with perfbench/checks.py, and prints as its last line
one JSON object with `correct`, `attempted` and `failed` (episodes) and
`metrics`: the medians over the experiments of the end-to-end metrics with
--trace 0, or of the per-layer metrics of traced experiments with --trace 1.
A traced run alternates untraced and traced experiments, so that it can
report the tracing overhead and check that tracing changes no output byte.
See perfbench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import compileall
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

import checks
from experiment import SRC, WORKLOADS, now

HERE = os.path.dirname(os.path.abspath(__file__))
EXPERIMENT = os.path.join(HERE, "experiment.py")
OUT_ROOT = os.path.join(HERE, "_out")
# The seed the shipped presets use.  Whether greedy beats both baselines
# depends on the one theta_star drawn from the seed (it fails at seeds 0, 6
# and 15 of 0..19); the package documents that it holds at this seed, so the
# ordering check gates only here and is logged at other seeds.
PRESET_SEED = 1
# No experiment starts once a run has used this long: every run must end
# within 180 s.
HARD_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "rounds_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def blas_env() -> tuple[dict, list[str]]:
    """The inherited environment without BLAS/OpenMP thread-count variables,
    so each experiment gets the library default a user gets."""
    env = dict(os.environ)
    cleared = sorted(k for k in env
                     if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS")
    for key in cleared:
        del env[key]
    return env, cleared


def time_experiment(workload: str, seed: int, trace: int, out_dir: str,
                   env: dict, timeout: float) -> tuple[dict | None, list[str]]:
    """One experiment in a fresh interpreter.  Returns its record with the
    end-to-end figures (None if it did not finish) and the problems found
    in its outputs."""
    start = now()
    try:
        proc = subprocess.run(
            [sys.executable, EXPERIMENT, "--workload", workload, "--seed",
             str(seed), "--out", out_dir, "--trace", str(trace)],
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [f"experiment passed {timeout:.0f} s"]
    if proc.returncode != 0:
        return None, [f"experiment exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-2000:]}"]
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    T, reps = rec["T"], rec["reps"]
    rec["rounds"] = len(rec["policies"]) * reps * T
    rec["wall_s"] = rec["write_end"] - start
    rec["setup_s"] = rec["setup_end"] - start
    rec["rounds_per_s"] = rec["rounds"] / (rec["run_end"] - rec["setup_end"])
    rec["peak_rss_mb"] = rec["peak_rss_kb"] / 1024.0

    problems = checks.check_outputs(out_dir, rec["policies"], reps, T, rec["d"],
                                    sidecar=WORKLOADS[workload][3])
    if workload == "preset-d20" and not problems:
        raw = checks.read_raw(os.path.join(out_dir, "raw.csv"))
        problems += checks.check_flattening(raw, reps, T)
        ordering = checks.check_ordering(raw, reps, T)
        if seed == PRESET_SEED:
            problems += ordering
        elif ordering:
            log(f"seed {seed}, not gated: {ordering[0]}")
    return rec, problems


def episode_split(rec: dict) -> dict:
    """Seconds spent in each layer inside the episodes of a traced
    experiment; 'self' is the rest of env.run_episode (record building,
    norms and the loop) and 'episodes' the whole."""
    spans, names = rec["spans"], rec["policies"]

    def total(*keys):
        return sum(spans.get(k, (0.0, 0))[0] for k in keys)

    split = {
        "contexts": total("env.sample_context_set"),
        "policies": total(*(f"policies.policy_step.{p}" for p in names)),
        "estimator.update": total("estimator.update"),
        "estimator.min_eigenvalue": total("estimator.min_eigenvalue"),
        "env.reward": total("env.reward"),
        "env.instantaneous_regret": total("env.instantaneous_regret"),
    }
    episodes = total(*(f"harness.run_episode.{p}" for p in names))
    split["self"] = episodes - sum(split.values())
    split["episodes"] = episodes
    return split


def layer_metrics(rec: dict) -> dict:
    """Per-layer figures of one traced experiment, name -> (value, unit)."""
    spans, names = rec["spans"], rec["policies"]

    def per_call_us(key):
        elapsed, calls = spans.get(key, (0.0, 0))
        return (1e6 * elapsed / calls if calls else 0.0), "us"

    def seconds(key):
        return spans.get(key, (0.0, 0))[0], "s"

    m = {"contexts.sample_context_set.us": per_call_us("env.sample_context_set"),
         "contexts.sample_context_set.calls":
             (spans["env.sample_context_set"][1], "count")}
    for p in names:
        m[f"policies.policy_step.{p}.us"] = per_call_us(f"policies.policy_step.{p}")
    for key in ("estimator.update", "estimator.min_eigenvalue", "env.reward",
                "env.instantaneous_regret"):
        m[f"{key}.us"] = per_call_us(key)
    m["env.run_episode.self_us"] = (1e6 * episode_split(rec)["self"] / rec["rounds"],
                                    "us")
    for p in names:
        m[f"env.run_episode.{p}.s"] = (
            seconds(f"harness.run_episode.{p}")[0] / rec["reps"], "s")
    for key in ("harness.write_csv", "harness.render_svg",
                "diagnostics.run_diagnostics",
                "diagnostics.estimate_diversity_constant",
                "diagnostics.estimate_margin_constant",
                "diagnostics.estimate_concentration_params",
                "diagnostics.empirical_x_max"):
        m[f"{key}.s"] = seconds(key)
    return m


def median_metrics(per_experiment: list[dict]) -> dict:
    """name -> {value, unit}, the value the median over the experiments."""
    return {k: {"value": statistics.median(m[k][0] for m in per_experiment),
                "unit": unit}
            for k, (_, unit) in per_experiment[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=PRESET_SEED,
                        help="experiment master seed (default: the presets' 1)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="start experiments until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "greedybandit", "__init__.py")):
        log(f"error: no greedybandit package under {SRC}")
        return 2
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running experiment.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Users compile the package's bytecode once, at install; do it before timing.
    compileall.compile_dir(SRC, quiet=1)
    env, cleared = blas_env()
    log(f"cleared BLAS thread variables: {cleared or 'none'}")

    start = now()
    done = {0: [], 1: []}
    problems = []
    attempted = failed = 0
    longest = 0.0
    episodes_per = 3 * WORKLOADS[args.workload][2]  # three policies x reps
    try:
        while True:
            began = now()
            pair = []
            for trace in ((0, 1) if args.trace else (0,)):
                n = len(done[0]) + len(done[1])
                out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{n}")
                shutil.rmtree(out_dir, ignore_errors=True)
                rec, found = time_experiment(
                    args.workload, args.seed, trace, out_dir, env,
                    timeout=max(HARD_LIMIT_S - (now() - start), 1.0))
                attempted += episodes_per
                if rec is None:
                    failed += episodes_per
                    log(f"experiment {n} (trace {trace}) failed: {found[0]}")
                else:
                    problems += found
                    done[trace].append(rec)
                    log(f"experiment {n} (trace {trace}): wall {rec['wall_s']:.3f} s, "
                        f"setup {rec['setup_s']:.3f} s, "
                        f"{rec['rounds_per_s']:.1f} rounds/s, "
                        f"peak {rec['peak_rss_mb']:.1f} MB, "
                        f"{'checks pass' if not found else 'CHECKS FAIL'}")
                pair.append(out_dir)
            if len(pair) == 2:
                for name in ("raw.csv", "aggregate.csv"):
                    a, b = (os.path.join(p, name) for p in pair)
                    if not (os.path.exists(a) and os.path.exists(b)
                            and filecmp.cmp(a, b, shallow=False)):
                        problems.append(f"traced {name} differs from untraced")
            for out_dir in pair:
                shutil.rmtree(out_dir, ignore_errors=True)
            longest = max(longest, now() - began)
            elapsed = now() - start
            if elapsed >= args.seconds or elapsed + longest > HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)

    untraced, traced = done[0], done[1]
    if untraced:
        log(f"BLAS in effect: {json.dumps(untraced[-1]['blas'])}")
    metrics = {}
    if not args.trace and untraced:
        metrics = median_metrics([{k: (r[k], unit) for k, unit in
                                   END_TO_END_UNITS.items()} for r in untraced])
    elif args.trace and traced and untraced:
        metrics = median_metrics([layer_metrics(r) for r in traced])
        wall_t = statistics.median(r["wall_s"] for r in traced)
        wall_u = statistics.median(r["wall_s"] for r in untraced)
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (wall_t - wall_u) / wall_u, "unit": "%"}
        split = episode_split(traced[-1])
        log("share of episode time (%): " + json.dumps(
            {k: round(100.0 * v / split["episodes"], 1)
             for k, v in split.items() if k != "episodes"}))
    for p in problems:
        log(f"check failed: {p}")
    if not metrics:
        log("error: no experiment finished")
        return 1
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
