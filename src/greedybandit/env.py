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

The gram_min_eig record feeds no decision of the loop, and at d = 100 it is
about half of an episode's time.  In a block whose d is at least
OFFLOAD_MIN_DIM it runs on a one-thread executor beside the loop: each round
the loop copies the Gram stack into a batch of snapshots, and the worker
solves each full batch with blas.min_eigenvalue_solver, scipy's dsyevr
called through ctypes.  That call releases the GIL, which scipy's
own wrapper holds, so the solves overlap the loop on a second core; it
gives the bits of the inline record.  The worker is joined inside the
block's one_thread pin.  Blocks below the floor record inline with
estimator.min_eigenvalue, because there a GIL handoff per solve costs more
than the solve; so does any block where blas finds no binding.
run_experiment times on 2 cores
(T = 1000, three policies, minimum of 3; inline -> offloaded) set the
floor:

    R = 1:   d = 20  0.204 -> 0.247 s    d = 32  0.262 -> 0.277 s
             d = 40  0.316 -> 0.299 s    d = 48  0.364 -> 0.305 s
             d = 64  0.509 -> 0.372 s    d = 100 0.999 -> 0.594 s
    R = 10:  d = 20  0.950 -> 1.050 s    d = 32  1.539 -> 1.365 s
             d = 48  2.583 -> 2.026 s
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas, estimator, policies
from .contexts import DistributionSpec, resolve_dim, sample_context_set
from .policies import PolicyConfig

# A block whose d is at least this records gram_min_eig on a worker thread
# (see the module docstring for the measured grid).
OFFLOAD_MIN_DIM = 48
# The loop hands the worker Sigma snapshots in batches of as many rounds as
# fit in BATCH_BYTES (at least one round): six at d = 100 and R = 1, three at
# R = 2.  Each handoff wakes the worker, which costs most where every core is
# busy: at --jobs 2 (d = 100, 4 reps, 2 cores) batches of two rounds ran 3%
# slower than the inline record, and batches of three as fast.  The loop
# fills one batch while the worker solves the other, so the record holds
# two batches, and each of their bytes adds to peak memory.
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
                seeds: list[int]) -> list[Trajectory]:
    """Simulate T rounds of one replication per seed, in lockstep.  Each
    Trajectory is a function of (inputs, its seed) alone: equal byte for
    byte to the run of its seed in a block of one.
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
    with blas.one_thread(), _gram_record(state, eigs) as record:
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
            record(i)
            # sqrt is monotone, so the root of the largest square is the max
            # norm.
            norms[i] = np.sqrt(np.vecdot(X, X).max(axis=-1))
    # Each replication's columns become contiguous rows.
    columns = [np.ascontiguousarray(c.T)
               for c in (arms, best_arms, rewards, regrets, errors, eigs, norms)]
    return [Trajectory(*(c[r] for c in columns)) for r in range(R)]


@contextlib.contextmanager
def _gram_record(state: estimator.GramState, eigs: np.ndarray):
    """Yield record(i), which fills eigs[i] (R,) with the smallest eigenvalue
    of each of the state's Gram matrices as they are now.

    Below OFFLOAD_MIN_DIM, or where blas has no GIL-free solver, record
    solves inline.  Otherwise it copies the stack into a batch of snapshots
    and, when the batch is full or at the last round, submits it to a
    one-thread executor and waits for the previous batch, whose buffer it
    fills next; the worker writes each batch's rows of eigs.  A worker
    error is raised in the loop at the next handoff, or at the end; an
    error in the loop propagates once the worker has finished its batches.
    """
    d = state.dim
    solve = blas.min_eigenvalue_solver(d) if d >= OFFLOAD_MIN_DIM else None
    if solve is None:
        def record(i):
            eigs[i] = estimator.min_eigenvalue(state)

        yield record
        return

    rounds = max(1, BATCH_BYTES // state.sigma.nbytes)
    batches = np.empty((2, rounds) + state.sigma.shape)
    last, pending = len(eigs) - 1, None

    def work(batch, first):
        for i, stack in enumerate(batch, first):
            for r, sigma in enumerate(stack):
                # update keeps Sigma exactly symmetric, so the transposed
                # view is Sigma in Fortran order.
                eigs[i, r] = solve(sigma.T)

    def record(i):
        nonlocal pending
        n = i % rounds
        batch = batches[i // rounds % 2]
        batch[n] = state.sigma
        if n == rounds - 1 or i == last:
            # Submitting before waiting lets the worker go from the previous
            # batch straight to this one (waiting first ran d100-k20 about
            # 6% slower on 2 cores).
            previous, pending = pending, worker.submit(work, batch[:n + 1], i - n)
            if previous is not None:
                previous.result()

    with ThreadPoolExecutor(1, thread_name_prefix="gram-min-eig") as worker:
        yield record
        if pending is not None:
            pending.result()
