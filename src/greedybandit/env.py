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
a GramHelper sends it each round's chosen arms, and that forked process
rebuilds the Gram stack and solves it beside the loop with the calls of
the update and the inline record, so the bits are the same wherever it
ran; a block run without one (a bare run_episode call, or a pool worker's
block) records inline.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import blas, estimator, policies
from .contexts import DistributionSpec, resolve_dim, sample_context_set
from .policies import PolicyConfig

# The loop sends the helper the rounds' arms in batches of as many rounds as
# one round's Gram stack fits into BATCH_BYTES, at least one: six at d = 100
# and R = 1, sixteen at d = 20 and R = 10.  A batch costs one wake-up of the
# helper, and at the end of a block the loop waits while the helper solves
# the last batch: sizing batches by the Gram stacks the helper builds keeps
# that wait short at large d.  The loop's buffer holds about BATCH_BYTES / d
# bytes.
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
    byte to the run of its seed in a block of one.  With a helper
    (GramHelper.start), the gram_min_eig record is solved in it; without
    one, inline.  The policy runs as config.resolved(T, instance.sigma).
    """
    T = int(T)
    if T < 1:
        raise ValueError("T must be >= 1")
    config = config.resolved(T, instance.sigma)
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
                helper.record(i, x, T)
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
    """A forked process that solves the gram_min_eig record of an
    experiment's blocks, one block after another.

    The loop sends it each round's chosen arms (R, d), in batches of as
    many rounds as one round's (R, d, d) Gram stack fits into BATCH_BYTES
    (at least one), and an end-of-block marker, None.  The helper folds the
    arms into its own Gram stack, which starts each block at zero, with
    estimator.add_outer, and solves each round's stack with
    estimator.min_eigenvalue: the calls of an inline record, so the bits
    are the same.  At the marker it answers the block's (T, R) record, or
    the first error a solve raised.  It exits once the parent closes the
    pipe.
    """

    def __init__(self):
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

    @classmethod
    def start(cls, stack: contextlib.ExitStack) -> GramHelper | None:
        """Fork a helper, or return None where a fork is unsafe.  The stack
        reaps the helper and gives back the caller's OpenBLAS thread counts.

        The fork needs a process of one thread, so that the helper inherits
        no lock another thread holds, and os.fork.  It happens inside a
        blas.one_thread pin that the stack holds: a fork stops each
        OpenBLAS pool, and the next change of a thread count restarts it
        with threads that spin for about 0.1 s (a d20-k100 greedy block took
        0.19 s, not 0.10 s).  So the blocks change no count while the helper
        lives, and the pools that the pin's release restarts are stopped
        again once the helper is reaped.
        """
        if not hasattr(os, "fork") or threading.active_count() > 1:
            return None
        stack.callback(blas.stop_pools)
        stack.enter_context(blas.one_thread())
        return stack.enter_context(contextlib.closing(cls()))

    def _serve(self, conn) -> None:
        # Closing the parent's end lets the parent's close() end the loop.
        # The parent's garbage belongs to the parent: collecting it here
        # would run its finalizers twice.
        self.conn.close()
        gc.disable()
        with blas.one_thread():
            while True:
                eigs, error = [], None
                while (arms := conn.recv()) is not None:
                    if not eigs:
                        sigma = np.zeros(arms.shape[1:] + arms.shape[2:])
                    # A failed solve voids the block's record: its first
                    # error is the answer at the marker.
                    try:
                        for x in arms:
                            estimator.add_outer(sigma, x)
                            eigs.append(estimator.min_eigenvalue(sigma))
                    except Exception as exc:
                        error = error or exc
                conn.send(error or np.array(eigs))

    def record(self, i: int, x: np.ndarray, T: int) -> None:
        """Copy round i's (R, d) arms into the batch, and send the batch
        when it is full or i is the last of T rounds."""
        if i == 0:
            R, d = x.shape
            self.arms = np.empty((max(1, BATCH_BYTES // (R * d * d * 8)), R, d))
        n = i % len(self.arms)
        self.arms[n] = x
        if n == len(self.arms) - 1 or i == T - 1:
            self._send(self.arms[:n + 1])

    def collect(self, eigs: np.ndarray) -> None:
        """End the block: copy its record into eigs (T, R), or raise the
        error a solve raised."""
        reply = self._send(None, answer=True)
        if isinstance(reply, Exception):
            raise reply
        eigs[:] = reply

    def _send(self, message, answer: bool = False):
        """Send message, and return the helper's answer if one is asked
        for.  A helper that has exited raises RuntimeError."""
        try:
            self.conn.send(message)
            return self.conn.recv() if answer else None
        except (EOFError, BrokenPipeError, ConnectionResetError):
            raise RuntimeError("the gram_min_eig helper exited") from None

    def close(self) -> None:
        self.conn.close()
        os.waitpid(self.pid, 0)
