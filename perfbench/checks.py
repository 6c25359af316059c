"""Checks on one experiment's output directory.

Every check recomputes its expectation from the files with the standard
library alone; none calls into greedybandit or compares against a stored
copy of earlier output.  Each function returns a list of problems, empty
when the check passes.
"""

from __future__ import annotations

import csv
import math
import os
import xml.etree.ElementTree as ET

RAW_COLUMNS = ["policy", "rep", "t", "inst_regret", "cum_regret",
               "est_error_l2", "gram_min_eig"]
AGGREGATE_COLUMNS = ["policy", "t", "cum_regret_mean", "cum_regret_std"]

# Roundoff allowed on gram_min_eig, per round of data in the Gram matrix.
# eigvalsh is backward stable: its error is about d * eps * ||Sigma(t)||, and
# ||Sigma(t)|| <= sum of ||x_s||^2 <= t * 25 * d on the workloads (coordinates
# of the box [-5, 5]; gaussian coordinates have variance 1).  At d <= 100
# that is below 1.2e-10 * t; observed errors are below 1e-13 * t.
GRAM_TOL_PER_ROUND = 1e-10
# Relative tolerance of recomputed sums and means: 1000 float64 additions.
SUM_RTOL = 1e-9


def _close(a: float, b: float, rtol: float = SUM_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def read_raw(path) -> dict:
    """raw.csv as {(policy, rep): {t: row dict}}; duplicate rows are kept
    apart under the key 'duplicates'."""
    episodes: dict = {}
    duplicates = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != RAW_COLUMNS:
            raise ValueError(f"raw.csv header {header}")
        for policy, rep, t, inst, cum, err, eig in reader:
            ep = episodes.setdefault((policy, int(rep)), {})
            row = {"inst": float(inst), "cum": float(cum),
                   "err": None if err == "" else float(err), "eig": float(eig)}
            if int(t) in ep:
                duplicates.append((policy, int(rep), int(t)))
            ep[int(t)] = row
    return {"episodes": episodes, "duplicates": duplicates}


def check_raw(raw: dict, policies, reps: int, T: int, d: int) -> list[str]:
    problems = [f"duplicate row {key}" for key in raw["duplicates"]]
    episodes = raw["episodes"]
    expected = {(p, r) for p in policies for r in range(reps)}
    for key in sorted(set(episodes) - expected):
        problems.append(f"unexpected episode {key}")
    for key in sorted(expected):
        ep = episodes.get(key, {})
        missing = [t for t in range(1, T + 1) if t not in ep]
        extra = [t for t in ep if not 1 <= t <= T]
        if missing or extra:
            problems.append(f"{key}: missing rounds {missing[:5]} "
                            f"extra rounds {extra[:5]}")
            continue
        running, prev_eig = 0.0, None
        for t in range(1, T + 1):
            row = ep[t]
            running += row["inst"]
            tol = GRAM_TOL_PER_ROUND * t
            if row["inst"] < 0.0:
                problems.append(f"{key} t={t}: inst_regret {row['inst']} < 0")
            if not _close(row["cum"], running):
                problems.append(f"{key} t={t}: cum_regret {row['cum']} != "
                                f"running sum {running}")
            if t < d and abs(row["eig"]) > tol:
                problems.append(f"{key} t={t}: gram_min_eig {row['eig']} != 0 "
                                f"below rank d={d}")
            if prev_eig is not None and row["eig"] < prev_eig - tol:
                problems.append(f"{key} t={t}: gram_min_eig fell from "
                                f"{prev_eig} to {row['eig']}")
            if t < d and row["err"] is not None:
                problems.append(f"{key} t={t}: est_error_l2 set below rank d={d}")
            prev_eig = row["eig"]
        if ep[T]["err"] is None:
            problems.append(f"{key}: est_error_l2 empty in the last round")
    return problems[:20]


def check_aggregate(path, raw: dict, policies, reps: int, T: int) -> list[str]:
    """aggregate.csv against the mean and sample std of raw cum_regret."""
    problems = []
    seen = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != AGGREGATE_COLUMNS:
            return [f"aggregate.csv header {header}"]
        for policy, t, mean, std in reader:
            t = int(t)
            seen.add((policy, t))
            cums = [raw["episodes"].get((policy, r), {}).get(t, {}).get("cum")
                    for r in range(reps)]
            if None in cums:
                problems.append(f"aggregate ({policy}, {t}) has no raw rows")
                continue
            mu = math.fsum(cums) / reps
            sd = (math.sqrt(math.fsum((c - mu) ** 2 for c in cums) / (reps - 1))
                  if reps > 1 else 0.0)
            if not _close(float(mean), mu):
                problems.append(f"aggregate ({policy}, {t}) mean {mean} != {mu}")
            if not _close(float(std), sd):
                problems.append(f"aggregate ({policy}, {t}) std {std} != {sd}")
    expected = {(p, t) for p in policies for t in range(1, T + 1)}
    if seen != expected:
        problems.append(f"aggregate rows: {len(expected - seen)} missing, "
                        f"{len(seen - expected)} unexpected")
    return problems[:20]


def check_svg(path, policies) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"regret.svg is not well-formed XML: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    if root.tag != f"{ns}svg":
        return [f"regret.svg root element {root.tag}"]
    series = [el for el in root.iter(f"{ns}polyline") if el.get("class") == "series"]
    labels = [el.text for el in root.iter(f"{ns}text") if el.text in policies]
    problems = []
    if len(series) != len(policies):
        problems.append(f"regret.svg has {len(series)} series for "
                        f"{len(policies)} policies")
    if sorted(labels) != sorted(policies):
        problems.append(f"regret.svg legend {labels} != {list(policies)}")
    return problems


def check_sidecar(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    problems = []
    lam = [ln.split()[1] for ln in lines if ln.startswith("lambda_star_hat ")]
    if not lam or not float(lam[0]) > 0.0:
        problems.append(f"lambda_star_hat not positive: {lam}")
    if not any(ln.startswith("gram growth") and ln.split()[2] == "pass:"
               for ln in lines):
        problems.append("diagnostics.txt: gram growth does not pass")
    return problems


def final_and_half(raw: dict, policy: str, reps: int, T: int):
    """Mean cumulative regret of `policy` at T and at T // 2."""
    eps = [raw["episodes"][(policy, r)] for r in range(reps)]
    return (math.fsum(ep[T]["cum"] for ep in eps) / reps,
            math.fsum(ep[T // 2]["cum"] for ep in eps) / reps)


def check_flattening(raw: dict, reps: int, T: int) -> list[str]:
    """The paper's poly-log regret: greedy's curve flattens,
    (R(T) - R(T/2)) / R(T/2) <= 0.6, and flattens more than LinUCB's."""
    ratio = {}
    for p in ("greedy", "linucb"):
        end, half = final_and_half(raw, p, reps, T)
        ratio[p] = (end - half) / half
    if ratio["greedy"] <= 0.6 and ratio["greedy"] < ratio["linucb"]:
        return []
    return [f"greedy regret does not flatten: (R(T) - R(T/2)) / R(T/2) {ratio}"]


def check_ordering(raw: dict, reps: int, T: int) -> list[str]:
    """Greedy has the lowest mean regret at T of the three policies."""
    final = {p: final_and_half(raw, p, reps, T)[0]
             for p in ("greedy", "linucb", "lints")}
    if final["greedy"] < min(final["linucb"], final["lints"]):
        return []
    return [f"greedy does not beat both baselines at T={T}: {final}"]


def check_outputs(out_dir, policies, reps: int, T: int, d: int,
                  sidecar: bool) -> list[str]:
    """Every structural check on one output directory."""
    raw = read_raw(os.path.join(out_dir, "raw.csv"))
    problems = check_raw(raw, policies, reps, T, d)
    problems += check_aggregate(os.path.join(out_dir, "aggregate.csv"), raw,
                                policies, reps, T)
    problems += check_svg(os.path.join(out_dir, "regret.svg"), policies)
    if sidecar:
        problems += check_sidecar(os.path.join(out_dir, "diagnostics.txt"))
    return problems
