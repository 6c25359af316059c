"""Bandit environment and the episode loop.

An episode interleaves context sampling, arm selection, gaussian reward
noise, and the OLS update, recording per-round diagnostics as T-length
columns.  Regret is measured against the noise-free best arm of the
realized context set.

The loop advances R replications of one policy in lockstep over the
stacked Gram state (see estimator), which keeps no running inverse: one
pass per round serves all R, and a single episode is the block R = 1.
Each replication keeps its own generator and draws its contexts, posterior
sample and reward noise from it in the order of a single run; one
sample_context_set call per round fills the (R, K, d) context block, each
replication's slot from its generator.
Scores, regrets and updates are array operations that compute every row
exactly as a block of one does: a stacked matmul or vecdot makes one BLAS
gemv or dot call per replication, never one product over the whole stack,
whose kernel blocking would round some rows differently.  A replication's
trajectory is therefore byte-identical whichever block it runs in.

The round loop runs with every OpenBLAS in the process at one thread
(blas.one_thread) and gives back the caller's counts when it ends.  Its
LAPACK calls are small and per replication; a second BLAS thread only
contends with the other library's pool and with other workers (on 2 cores,
d = 100 with 4 reps ran 2-7x slower at --jobs 2 than at --jobs 1 without
the pin).  The counts are process-global, so threads of one process running
blocks at once share them.

The gram_min_eig record feeds no decision of the loop.  A block run with
a GramHelper records it in that forked process beside the loop, with the
call an inline record makes, so the bits are the same wherever it ran; a
block run without one (a bare run_episode call, or a pool worker's block)
records inline.
"""

from __future__ import annotations

import gc
import mmap
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from . import blas, estimator, policies
from .contexts import DistributionSpec, resolve_dim, sample_context_set
from .policies import PolicyConfig

# The loop hands the helper Sigma snapshots in batches of as many rounds as
# fit in BATCH_BYTES (at least one round): six at d = 100 and R = 1, sixteen
# at d = 20 and R = 10.  The loop fills one batch while the helper solves the
# other, so the record holds two batches, and each of their bytes adds to
# peak memory.
BATCH_BYTES = 2**19


@dataclass
class BanditInstance:
    """Frozen problem: true parameter, noise scale, and context distribution."""

    theta_star: np.ndarray
    sigma: float
    spec: DistributionSpec
    d: int
    K: int

    def __post_init__(self):
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        self.d = int(self.d)
        self.K = int(self.K)
        if self.theta_star.shape != (self.d,):
            raise ValueError(f"theta_star must have shape ({self.d},)")
        if not np.isfinite(self.theta_star).all():
            raise ValueError("theta_star must be finite")
        norm = float(np.linalg.norm(self.theta_star))
        if norm > 1.0 + 1e-12:
            raise ValueError(f"theta_star norm {norm} exceeds 1")
        if not np.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        resolve_dim(self.spec, self.d)


@dataclass
class Trajectory:
    """One episode as T-length columns; entry i belongs to round t = i + 1.

    est_error_l2 is NaN until the OLS estimate exists; gram_min_eig is the
    post-update minimal eigenvalue and max_ctx_norm the largest arm norm of
    the round's context set.
    """

    arm: np.ndarray
    optimal_arm: np.ndarray
    reward: np.ndarray
    inst_regret: np.ndarray
    est_error_l2: np.ndarray
    gram_min_eig: np.ndarray
    max_ctx_norm: np.ndarray

    @property
    def t(self) -> np.ndarray:
        return np.arange(1, len(self) + 1)

    @property
    def cum_regret(self) -> np.ndarray:
        return np.cumsum(self.inst_regret)

    def __len__(self) -> int:
        return len(self.inst_regret)


def reward(instance: BanditInstance, x: np.ndarray,
           rngs: list[np.random.Generator]) -> np.ndarray:
    """Linear mean plus sigma-scaled gaussian noise for the R chosen arms
    x (R, d), row r's noise drawn from rngs[r]."""
    noise = [instance.sigma * g.standard_normal() for g in rngs]
    return np.vecdot(x, instance.theta_star) + np.array(noise)


def instantaneous_regret(instance: BanditInstance, contexts: np.ndarray,
                         arm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free regret of each chosen arm and the index of each best arm,
    for (R, K, d) contexts and R arms."""
    means = np.matmul(contexts, instance.theta_star)
    chosen = means[np.arange(len(means)), arm]
    return means.max(axis=-1) - chosen, means.argmax(axis=-1)


def sphere_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere."""
    z = rng.standard_normal(d)
    norm = np.linalg.norm(z)
    while norm == 0.0:
        z = rng.standard_normal(d)
        norm = np.linalg.norm(z)
    return z / norm


def run_episode(instance: BanditInstance, config: PolicyConfig, T: int,
                seeds: list[int], *, helper: GramHelper | None = None
                ) -> list[Trajectory]:
    """Simulate T rounds of one replication per seed, in lockstep.  Each
    Trajectory is a function of (inputs, its seed) alone: equal byte for
    byte to the run of its seed in a block of one.  With a helper of the
    instance's d, len(seeds) reps and at least T rounds, the gram_min_eig
    record is solved in it; without one, inline.
    """
    T = int(T)
    if T < 1:
        raise ValueError("T must be >= 1")
    config = config.with_delta_for_horizon(T)
    if config.kind == "greedy" and config.theta0 is None:
        raise ValueError("greedy episodes need theta0")
    if config.theta0 is not None and config.theta0.shape != (instance.d,):
        raise ValueError(f"theta0 must have shape ({instance.d},)")
    rngs = [np.random.default_rng(s) for s in seeds]
    R, d, K = len(rngs), instance.d, instance.K
    state = estimator.GramState(sigma=np.zeros((R, d, d)), b=np.zeros((R, d)))
    rows = np.arange(R)
    arms, best_arms = np.empty((2, T, R), dtype=np.intp)
    rewards, regrets, errors, eigs, norms = np.full((5, T, R), np.nan)
    with blas.one_thread():
        for i in range(T):
            X = sample_context_set(instance.spec, d, K, rngs)
            arm = policies.policy_step(state, config, X, rngs)
            x = X[rows, arm]
            y = reward(instance, x, rngs)
            regrets[i], best_arms[i] = instantaneous_regret(instance, X, arm)
            estimator.update(state, x, y)
            diff = state.theta_hat - instance.theta_star
            # vecdot is one BLAS dot per row, as np.linalg.norm of one vector;
            # the rows not identified yet are NaN.
            errors[i] = np.sqrt(np.vecdot(diff, diff))
            arms[i], rewards[i] = arm, y
            if helper is None:
                eigs[i] = estimator.min_eigenvalue(state.sigma)
            else:
                helper.record(i, state.sigma, T)
            # sqrt is monotone, so the root of the largest square is the max
            # norm.
            norms[i] = np.sqrt(np.vecdot(X, X).max(axis=-1))
        if helper is not None:
            helper.collect(eigs)
    # Each replication's columns become contiguous rows.
    columns = [np.ascontiguousarray(c.T)
               for c in (arms, best_arms, rewards, regrets, errors, eigs, norms)]
    return [Trajectory(*(c[r] for c in columns)) for r in range(R)]


class GramHelper:
    """A forked process that solves the gram_min_eig record of the blocks
    of one experiment, each of dimension d, `reps` replications and at most
    T rounds.

    It shares two batches of Sigma snapshots, each of as many rounds as fit
    in BATCH_BYTES (at least one), and the (T, reps) eigs column with the
    parent, in one anonymous mmap.  For each request on `conn` (a batch,
    its first round and its round count) it solves the batch, writes those
    rows of eigs and answers None, or the exception a solve raised.  It
    exits once the parent's close() closes the pipe, and close() then reaps
    it.  Fork it while the process has a single thread, so that it inherits
    no lock another thread holds, and inside blas.one_thread (see harness).
    """

    def __init__(self, d: int, reps: int, T: int):
        rounds = max(1, BATCH_BYTES // (reps * d * d * 8))
        size = 2 * rounds * reps * d * d
        shared = np.frombuffer(mmap.mmap(-1, (size + T * reps) * 8))
        self.batches = shared[:size].reshape(2, rounds, reps, d, d)
        self.eigs = shared[size:].reshape(T, reps)
        self.conn, child = multiprocessing.Pipe()
        self.pid = os.fork()
        if self.pid == 0:
            # The helper never returns into the caller's code: it leaves the
            # loop by the EOFError of a closed pipe, or by any other error.
            try:
                self._serve(child)
            finally:
                os._exit(0)
        child.close()

    def _serve(self, conn) -> None:
        # Closing the parent's end lets the parent's close() end the loop.
        # The parent's garbage belongs to the parent: collecting it here
        # would run its finalizers twice.
        self.conn.close()
        gc.disable()
        with blas.one_thread():
            while True:
                slot, first, n = conn.recv()
                try:
                    for i, sigma in enumerate(self.batches[slot, :n], first):
                        self.eigs[i] = estimator.min_eigenvalue(sigma)
                    conn.send(None)
                except Exception as exc:
                    conn.send(exc)

    def record(self, i: int, sigma: np.ndarray, T: int) -> None:
        """Copy round i's (reps, d, d) Gram stack into its batch.  When the
        batch is full, or i is the last of T rounds, send it and wait for
        the previous batch, whose buffer the next rounds fill."""
        rounds = self.batches.shape[1]
        n, slot = i % rounds, i // rounds % 2
        self.batches[slot, n] = sigma
        if n == rounds - 1 or i == T - 1:
            # Sending before waiting lets the helper go from the previous
            # batch straight to this one.
            self.conn.send((slot, i - n, n + 1))
            if i >= rounds:
                self.wait()

    def collect(self, eigs: np.ndarray) -> None:
        """Wait for a block's last batch and copy its rows of the record
        into eigs (T, reps)."""
        self.wait()
        eigs[:] = self.eigs[:len(eigs)]

    def wait(self) -> None:
        """Wait for the answer to the oldest batch sent; raise its error."""
        try:
            reply = self.conn.recv()
        except EOFError:
            raise RuntimeError("the gram_min_eig helper exited") from None
        if reply is not None:
            raise reply

    def close(self) -> None:
        self.conn.close()
        os.waitpid(self.pid, 0)
