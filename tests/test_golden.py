"""Golden digests: SHA-256 of every output file of a set of small fixed runs.

Criterion 11 and the parallel-vs-serial tests compare two runs of the same
code; this test compares the outputs with the digests committed in
tests/golden/digests.json, so any change that moves an output byte fails
here.  A change that moves outputs on purpose regenerates the file in the
same commit, so its diff shows which files moved:

    PYTHONPATH=src python tests/test_golden.py

OpenBLAS picks its kernels per CPU, so a digest made on one build or core
can differ on another.  The file records the OpenBLAS builds it was made
on; on a mismatch the message names both builds and the files that differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from greedybandit import blas
from greedybandit.harness import (PRESET_DISTS, preset_config, run_experiment,
                                  write_outputs)

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "digests.json")
COMMAND = "PYTHONPATH=src python tests/test_golden.py"

# run name -> (preset shape, preset dist, ExperimentConfig settings).  Every
# run has all three policies, T = 200 and 2 replications.
RUNS = {
    **{f"d20-k20-{dist}": ("d20-k20", dist, {}) for dist in PRESET_DISTS},
    "d20-k100-trunc-cauchy": ("d20-k100", "trunc-cauchy", {}),
    "d20-k20-gaussian-seed7-jobs2": ("d20-k20", "gaussian", {"seed": 7, "jobs": 2}),
    "d8-k6-gaussian-diagnostics": (
        "d20-k20", "gaussian", {"d": 8, "K": 6, "diagnostics": True}),
    "d6-k5-uniform-ball-diagnostics-jobs2": (
        "d20-k20", "uniform-ball", {"d": 6, "K": 5, "diagnostics": True, "jobs": 2}),
}


def run_digests(root) -> dict[str, str]:
    """'<run>/<file>' -> SHA-256 of every output file of every run."""
    digests = {}
    for name, (shape, dist, settings) in RUNS.items():
        out = os.path.join(root, name)
        config = preset_config(shape, dist, T=200, reps=2, output_dir=out,
                               **settings)
        for path in sorted(write_outputs(run_experiment(config)).values()):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            digests[f"{name}/{os.path.basename(path)}"] = digest
    return digests


def test_outputs_match_golden_digests(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    digests = run_digests(tmp_path)
    differ = sorted(k for k in golden["digests"].keys() | digests.keys()
                    if golden["digests"].get(k) != digests.get(k))
    assert not differ, (
        f"{len(differ)} output files differ from {DIGESTS}: {', '.join(differ)}.\n"
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
