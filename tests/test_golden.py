"""Golden digests: SHA-256 of every output file of a set of small fixed runs.

Criterion 11 and the parallel-vs-serial tests compare two runs of the same
code; this test compares the outputs with the digests committed in
tests/golden/digests.json, so any change that moves an output byte fails
here.  The diagnostics sidecar prints 6 digits, so each diagnostics run also
digests `float.hex` of every number in its constant estimates.  A change
that moves outputs on purpose regenerates the file in the same commit, so
its diff shows which digests moved:

    PYTHONPATH=src python tests/test_golden.py

OpenBLAS picks its kernels per CPU, so a digest made on one build or core
can differ on another.  The file records the OpenBLAS builds it was made
on; on a mismatch the message names both builds and the files that differ.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from greedybandit import blas, cli
from greedybandit.harness import (PRESET_DISTS, preset_config, run_experiment,
                                  write_outputs)

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "digests.json")
COMMAND = "PYTHONPATH=src python tests/test_golden.py"

# run name -> (preset shape, preset dist, ExperimentConfig settings).  Every
# run has all three policies and T = 200; runs have 2 replications unless
# their settings say otherwise.
RUNS = {
    **{f"d20-k20-{dist}": ("d20-k20", dist, {}) for dist in PRESET_DISTS},
    "d20-k100-trunc-cauchy": ("d20-k100", "trunc-cauchy", {}),
    "d20-k20-gaussian-seed7-jobs2": ("d20-k20", "gaussian", {"seed": 7, "jobs": 2}),
    "d8-k6-gaussian-diagnostics": (
        "d20-k20", "gaussian", {"d": 8, "K": 6, "diagnostics": True}),
    "d6-k5-uniform-ball-diagnostics-jobs2": (
        "d20-k20", "uniform-ball", {"d": 6, "K": 5, "diagnostics": True, "jobs": 2}),
    # Its diagnostics pools span several chunks (d6-k5 and d8-k6 fit in one).
    "d20-k20-gaussian-diagnostics": (
        "d20-k20", "gaussian", {"reps": 1, "diagnostics": True}),
    "d100-k20-gaussian": ("d100-k20", "gaussian", {"reps": 1}),
    # Two lockstep blocks of two replications per policy in pool workers,
    # which record gram_min_eig inline; the --jobs 1 runs record it in the
    # forked helper.
    "d64-k20-gaussian-jobs2": (
        "d20-k20", "gaussian", {"d": 64, "reps": 4, "jobs": 2}),
}
# One `greedybandit --matrix` cell, with its summary.csv.
MATRIX = ["--matrix", "--preset", "d20-k20", "--dist", "laplace", "--seed", "3",
          "--T", "200", "--reps", "2"]


def constants_digest(constants) -> str:
    """SHA-256 of `float.hex` of every number in a ConstantEstimates, in
    field order (None for an undefined estimate)."""
    def numbers(value):
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                yield from numbers(getattr(value, f.name))
        elif isinstance(value, np.ndarray):
            for v in value.ravel().tolist():
                yield from numbers(v)
        else:
            yield "None" if value is None else float(value).hex()
    return hashlib.sha256(" ".join(numbers(constants)).encode()).hexdigest()


def run_digests(root) -> dict[str, str]:
    """'<run>/<file>' -> SHA-256 of every output file of every run, and
    '<run>/constants' -> the constants digest of every diagnostics run."""
    digests = {}
    for name, (shape, dist, settings) in RUNS.items():
        config = preset_config(shape, dist, **{"T": 200, "reps": 2, **settings},
                               output_dir=os.path.join(root, name))
        table = run_experiment(config)
        write_outputs(table)
        if table.diagnostics is not None:
            digests[f"{name}/constants"] = constants_digest(
                table.diagnostics.constants)
    if cli.main([*MATRIX, "--out", os.path.join(root, "matrix")]) != 0:
        raise RuntimeError(f"greedybandit {' '.join(MATRIX)} failed")
    for top, _, files in os.walk(root):
        for file in files:
            path = os.path.join(top, file)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            digests[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return digests


def test_outputs_match_golden_digests(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    digests = run_digests(tmp_path)
    differ = sorted(k for k in golden["digests"].keys() | digests.keys()
                    if golden["digests"].get(k) != digests.get(k))
    assert not differ, (
        f"{len(differ)} digests differ from {DIGESTS}: {', '.join(differ)}.\n"
        f"Digests made on OpenBLAS {golden['openblas']}; this run used "
        f"{blas.configs()}.\nIf the change moves these outputs on purpose, "
        f"regenerate the file with `{COMMAND}`.")


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        digests = run_digests(root)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"command": COMMAND, "openblas": blas.configs(),
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
