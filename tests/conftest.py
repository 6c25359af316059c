import numpy as np
import pytest

from greedybandit import blas

ACCEPTANCE_RESULTS = []


@pytest.fixture
def libs():
    """The OpenBLAS builds the probe finds, each set to two threads for the
    test and given back its own count afterwards."""
    found = blas._libraries()
    if not found:
        pytest.skip("no OpenBLAS with scipy_openblas thread entry points mapped")
    saved = blas.thread_counts()
    for _, set_, _ in found:
        set_(2)
    yield found
    for (_, set_, _), n in zip(found, saved):
        set_(n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def make_rng():
    def factory(seed=0):
        return np.random.default_rng(seed)
    return factory


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, desc, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {num:2d}: {desc} -- {detail}")
