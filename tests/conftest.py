import importlib.util
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from greedybandit import blas
from greedybandit.contexts import resolve_dim
from greedybandit.env import BanditInstance, sphere_vector

ACCEPTANCE_RESULTS = []


def make_instance(spec, d, K, sigma, rng) -> BanditInstance:
    """Instance with theta_star drawn uniformly from the unit sphere."""
    d = resolve_dim(spec, d)
    return BanditInstance(theta_star=sphere_vector(d, rng), sigma=float(sigma),
                          spec=spec, d=d, K=K)


def load_perfbench(name):
    """perfbench/<name>.py, loaded by path: the benchmark's scripts are no
    package, and tests read their tables and functions without running
    them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def consistency_curve(trajectory) -> list[tuple[int, float]]:
    """(t, sqrt(t) * ||theta_hat_t - theta_star||) for rounds with an estimate."""
    scaled = np.sqrt(trajectory.t) * trajectory.est_error_l2
    known = ~np.isnan(scaled)
    return list(zip(trajectory.t[known].tolist(), scaled[known].tolist()))


def recorded_forks(monkeypatch):
    """Patch os.fork to append (child pid, Python threads at the fork) of
    every fork to the returned list."""
    fork, forks = os.fork, []

    def recording():
        threads = threading.active_count()
        pid = fork()
        if pid:
            forks.append((pid, threads))
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return forks


def logged_subset_solves(monkeypatch, path, line=lambda: ""):
    """Patch lapack.dsyevr so that every subset solve (range "I") appends
    `<pid> <line()>` to path: a child forked afterwards logs its own pid."""
    dsyevr = lapack.dsyevr

    def logged(*args, **kwargs):
        if kwargs["range"] == "I":
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {line()}\n")
        return dsyevr(*args, **kwargs)

    monkeypatch.setattr(lapack, "dsyevr", logged)


def assert_reaped(pid):
    """The child pid has exited and been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail any test that leaves a thread running that it started: the
    diagnostics' estimator thread must end with the experiment that
    started it."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture
def libs():
    """The OpenBLAS builds the probe finds, each set to two threads for the
    test and given back its own count afterwards."""
    found = blas._libraries()
    if not found:
        pytest.skip("no OpenBLAS with scipy_openblas thread entry points mapped")
    saved = blas.thread_counts()
    for _, set_, *_ in found:
        set_(2)
    yield found
    for (_, set_, *_), n in zip(found, saved):
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
