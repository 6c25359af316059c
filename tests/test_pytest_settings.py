"""The repository's pytest settings, applied to a throwaway test module."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # filterwarnings = ["error"] also applies to warnings raised while
    # hypothesis reports a failing example.  A DeprecationWarning raised
    # there stopped the whole run with INTERNALERROR, so the tests after the
    # failing one were never run or reported.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in proc.stdout, output
