import multiprocessing
import os

import numpy as np
import pytest

from greedybandit import blas, policies
from greedybandit.contexts import gaussian_spec
from greedybandit.env import BanditInstance, run_episode
from greedybandit.harness import ExperimentConfig, default_policies, run_experiment
from greedybandit.policies import PolicyConfig


def tiny_config(tmp_path, **kw):
    base = dict(d=3, K=4, T=15, reps=2, seed=3, sigma=0.5, spec=gaussian_spec(),
                policies=default_policies(0.5), output_dir=str(tmp_path / "out"),
                emit_svg=False, diagnostics=False, jobs=1)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture
def libs():
    """The OpenBLAS builds the probe finds, each set to two threads for the
    test and given back its own count afterwards."""
    found = blas._libraries()
    if not found:
        pytest.skip("no OpenBLAS with scipy_openblas thread entry points mapped")
    saved = blas.thread_counts()
    for _, set_ in found:
        set_(2)
    yield found
    for (_, set_), n in zip(found, saved):
        set_(n)


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
            record_counts(patch, lambda: [get() for get, _ in libs], seen.append)
            rows = list(run_experiment(tiny_config(tmp_path)).raw_rows())
        finally:
            blas._libraries.cache_clear()
    assert seen and all(counts == [2] * len(libs) for counts in seen)
    assert rows == expected
