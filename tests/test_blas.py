import multiprocessing
import os
import threading

import numpy as np
import pytest

from greedybandit import blas, policies
from greedybandit.contexts import gaussian_spec
from greedybandit.env import BanditInstance, run_episode
from greedybandit.harness import ExperimentConfig, default_policies, run_experiment
from greedybandit.policies import PolicyConfig

from conftest import logged_subset_solves, recorded_forks


def tiny_config(tmp_path, **kw):
    base = dict(d=3, K=4, T=15, reps=2, seed=3, sigma=0.5, spec=gaussian_spec(),
                policies=default_policies(0.5), output_dir=str(tmp_path / "out"),
                emit_svg=False, diagnostics=False, jobs=1)
    base.update(kw)
    return ExperimentConfig(**base)


def record_counts(monkeypatch, read, sink):
    """Patch policy_step to append read() to sink on every call."""
    step = policies.policy_step

    def recording(*args, **kwargs):
        sink(read())
        return step(*args, **kwargs)

    monkeypatch.setattr(policies, "policy_step", recording)


@pytest.mark.parametrize("kind", ["greedy", "linucb", "lints"])
def test_episode_block_runs_at_one_thread(kind, libs, monkeypatch):
    seen = []
    record_counts(monkeypatch, blas.thread_counts, seen.append)
    inst = BanditInstance(theta_star=np.eye(3)[0], sigma=0.5,
                          spec=gaussian_spec(), d=3, K=4)
    cfg = PolicyConfig(kind, theta0=np.ones(3) if kind == "greedy" else None)
    run_episode(inst, cfg, 12, [1, 2])
    assert seen == [[1] * len(libs)] * 12
    assert blas.thread_counts() == [2] * len(libs)


def test_counts_restored_when_block_raises(libs):
    with pytest.raises(RuntimeError):
        with blas.one_thread():
            assert blas.thread_counts() == [1] * len(libs)
            raise RuntimeError("inside")
    assert blas.thread_counts() == [2] * len(libs)


def test_overlapping_blocks_in_two_threads_share_one_pin(libs):
    # A enters, B enters, A exits while B's block still runs, B exits.
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def a():
        with blas.one_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with blas.one_thread():
            b_in.set()
            a_out.wait(10)
            seen["after A exits"] = blas.thread_counts()

    threads = [threading.Thread(target=f) for f in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen["after A exits"] == [1] * len(libs)
    assert blas.thread_counts() == [2] * len(libs)


def test_configs_name_each_build(libs):
    configs = blas.configs()
    assert len(configs) == len(libs)
    assert all(c.startswith("OpenBLAS ") for c in configs)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched policy_step only when forked")
def test_pool_worker_runs_at_one_thread(libs, tmp_path, monkeypatch):
    log = tmp_path / "counts.log"

    def append(counts):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {counts}\n")

    record_counts(monkeypatch, blas.thread_counts, append)
    run_experiment(tiny_config(tmp_path, jobs=2))
    lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
    assert {pid for pid, _ in lines} - {str(os.getpid())}
    assert {counts for _, counts in lines} == {f"{[1] * len(libs)}"}
    assert blas.thread_counts() == [2] * len(libs)


def test_unreadable_maps_pins_nothing(libs, tmp_path, monkeypatch):
    expected = list(run_experiment(tiny_config(tmp_path)).raw_rows())
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(blas, "MAPS", str(tmp_path / "absent"))
        blas._libraries.cache_clear()
        try:
            assert blas._libraries() == []
            # Read the real libraries' getters: the block keeps the caller's
            # counts.
            record_counts(patch, lambda: [get() for get, *_ in libs], seen.append)
            rows = list(run_experiment(tiny_config(tmp_path)).raw_rows())
        finally:
            blas._libraries.cache_clear()
    assert seen and all(counts == [2] * len(libs) for counts in seen)
    assert rows == expected


def test_helper_runs_at_one_thread(libs, tmp_path, monkeypatch):
    # The gram_min_eig helper is forked while the process has one Python
    # thread, before the diagnostics' estimator thread starts, and makes
    # every record solve at one OpenBLAS thread; the parent's counts are
    # back once the experiment returns.
    log = tmp_path / "counts.log"
    logged_subset_solves(monkeypatch, log, blas.thread_counts)
    forks = recorded_forks(monkeypatch)
    run_experiment(tiny_config(tmp_path, diagnostics=True))
    (pid, threads), = forks
    assert threads == 1
    assert log.read_text().splitlines() == [f"{pid} {[1] * len(libs)}"] * (3 * 2 * 15)
    assert blas.thread_counts() == [2] * len(libs)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_no_pool_restarted_after_the_helper(libs, tmp_path):
    # The fork stops each OpenBLAS thread pool, and the release of the pin
    # starts it again with threads that spin for about 0.1 s: run_experiment
    # stops them once more.  The process is left with its Python threads
    # alone and the caller's counts, and a pool starts again on demand.
    run_experiment(tiny_config(tmp_path, diagnostics=True))
    assert len(os.listdir("/proc/self/task")) == threading.active_count()
    assert blas.thread_counts() == [2] * len(libs)
    a = np.random.default_rng(0).standard_normal((300, 300))
    np.testing.assert_allclose(a @ np.eye(300), a)
