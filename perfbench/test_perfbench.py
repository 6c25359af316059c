"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q perfbench

They run two full trunc-k100 experiments (about half a minute), so they are
kept out of the package's test suite.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
from experiment import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = "trunc-k100"


def run_one(out_dir, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "experiment.py"), "--workload",
         WORKLOAD, "--seed", "1", "--out", str(out_dir), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """An untraced and a traced experiment of one workload and seed."""
    base = tmp_path_factory.mktemp("perfbench")
    recs = {trace: run_one(base / f"trace{trace}", trace) for trace in (0, 1)}
    return base, recs


def check(out_dir, rec):
    return checks.check_outputs(out_dir, rec["policies"], rec["reps"], rec["T"],
                                rec["d"], sidecar=WORKLOADS[WORKLOAD][3])


def test_outputs_pass_checks(outputs):
    base, recs = outputs
    assert check(base / "trace0", recs[0]) == []


def test_tracing_changes_no_csv_byte(outputs):
    base, recs = outputs
    assert recs[0]["spans"] is None
    assert recs[1]["spans"]["env.sample_context_set"][1] == (
        len(recs[1]["policies"]) * recs[1]["reps"] * recs[1]["T"])
    for name in ("raw.csv", "aggregate.csv"):
        assert filecmp.cmp(base / "trace0" / name, base / "trace1" / name,
                           shallow=False)


def corrupt(src, dst, edit):
    """Copy the output directory, applying `edit` to the raw.csv data rows."""
    shutil.copytree(src, dst)
    path = dst / "raw.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0]] + edit(lines[1:])) + "\n")
    return dst


def set_cell(rows, index, column, value):
    cells = rows[index].split(",")
    cells[checks.RAW_COLUMNS.index(column)] = value
    rows[index] = ",".join(cells)
    return rows


def test_checker_rejects_corrupted_cum_regret(outputs, tmp_path):
    base, recs = outputs
    def edit(rows):
        cells = rows[400].split(",")
        return set_cell(rows, 400, "cum_regret", repr(float(cells[4]) + 1e-3))
    out = corrupt(base / "trace0", tmp_path / "out", edit)
    problems = check(out, recs[0])
    assert any("cum_regret" in p and "running sum" in p for p in problems)


def test_checker_rejects_decreasing_gram_min_eig(outputs, tmp_path):
    base, recs = outputs
    def edit(rows):
        cells = rows[500].split(",")
        return set_cell(rows, 500, "gram_min_eig", repr(float(cells[6]) * 0.5))
    out = corrupt(base / "trace0", tmp_path / "out", edit)
    problems = check(out, recs[0])
    assert any("gram_min_eig fell" in p for p in problems)


def test_checker_rejects_missing_row(outputs, tmp_path):
    base, recs = outputs
    out = corrupt(base / "trace0", tmp_path / "out",
                  lambda rows: rows[:700] + rows[701:])
    problems = check(out, recs[0])
    assert any("missing rounds [701]" in p for p in problems)
