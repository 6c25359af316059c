import multiprocessing
import os
import threading

import numpy as np
import pytest
from scipy.linalg import lapack

from greedybandit import blas, env, policies
from greedybandit.contexts import gaussian_spec
from greedybandit.env import BanditInstance, run_episode
from greedybandit.harness import ExperimentConfig, default_policies, run_experiment
from greedybandit.policies import PolicyConfig

from conftest import counting_solvers, solver_or_skip


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
            record_counts(patch, lambda: [get() for get, _, _ in libs], seen.append)
            rows = list(run_experiment(tiny_config(tmp_path)).raw_rows())
        finally:
            blas._libraries.cache_clear()
    assert seen and all(counts == [2] * len(libs) for counts in seen)
    assert rows == expected


def test_binding_resolves_where_scipy_dsyevr_is_mapped():
    # Absent only where no mapped OpenBLAS exports it: a binding that fails
    # its self-check here would send every wide block back inline.
    if not any(hasattr(lib, "scipy_dsyevr_") for lib in blas._openblas()):
        pytest.skip("no OpenBLAS exporting scipy_dsyevr_ mapped")
    assert blas.min_eigenvalue_solver(5) is not None


@pytest.mark.parametrize("d", [1, 2, 5, env.OFFLOAD_MIN_DIM - 1,
                               env.OFFLOAD_MIN_DIM, 64, 100])
def test_min_eigenvalue_solver_matches_scipy(d):
    # Random Gram matrices of full rank, rank d - 1 and rank d // 2, and the
    # zero matrix: the bits of scipy's wrapper in every case.
    solve = solver_or_skip(d)
    rng = np.random.default_rng(d)
    for rows in (2 * d, 2 * d, d + 1, d, d - 1, d // 2, 0):
        x = rng.standard_normal((rows, d))
        sigma = x.T @ x
        w, _, m, _, info = lapack.dsyevr(sigma, compute_v=0, lower=1, range="I",
                                         il=1, iu=1)
        assert (m, info) == (1, 0)
        got = solve(np.asfortranarray(sigma))
        assert np.float64(got).tobytes() == w[0].tobytes(), rows


def test_min_eigenvalue_solver_checks_its_argument():
    solve = solver_or_skip(5)
    for bad in (np.eye(5), np.eye(4, order="F"), np.eye(5, dtype=np.float32, order="F")):
        with pytest.raises(ValueError):
            solve(bad)


def test_record_worker_runs_at_one_thread(libs, monkeypatch):
    # The worker solves inside the block's pin and is joined before the
    # block gives the counts back.
    d = env.OFFLOAD_MIN_DIM
    solver_or_skip(d)
    seen = []
    counting_solvers(monkeypatch, before=lambda _: seen.append(blas.thread_counts()))
    inst = BanditInstance(theta_star=np.eye(d)[0], sigma=0.5,
                          spec=gaussian_spec(), d=d, K=4)
    run_episode(inst, PolicyConfig("linucb"), 20, [1, 2])
    assert seen == [[1] * len(libs)] * 40
    assert blas.thread_counts() == [2] * len(libs)
