import csv
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_run_matrix_smoke(tmp_path):
    out = tmp_path / "matrix"
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_matrix.py"),
         "--shapes", "d20-k20", "--dists", "gaussian", "--T", "20",
         "--reps", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["policy"] for r in rows) == ["greedy", "lints", "linucb"]
    assert all((r["shape"], r["dist"]) == ("d20-k20", "gaussian") for r in rows)
    assert (out / "d20-k20-gaussian" / "raw.csv").exists()
