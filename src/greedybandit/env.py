"""Bandit environment and the episode loop.

An episode interleaves context sampling, arm selection, gaussian reward
noise, and the OLS update, recording per-round diagnostics as T-length
columns.  Regret is measured against the noise-free best arm of the
realized context set.

The loop advances R replications of one policy in lockstep over the
stacked Gram state (see estimator): one pass per round serves all R, and a
single episode is the block R = 1.  Each replication keeps its own
generator and draws its contexts, posterior sample and reward noise from it
in the order of a single run; one sample_context_set call per round fills
the (R, K, d) context block, each replication's slot from its generator.
Scores, regrets and updates are array operations that compute every row
exactly as a block of one does: a stacked matmul or vecdot makes one BLAS
gemv or dot call per replication, never one product over the whole stack,
whose kernel blocking would round some rows differently.  A replication's
trajectory is therefore byte-identical whichever block it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimator, policies
from .contexts import DistributionSpec, resolve_dim, sample_context_set
from .policies import PolicyConfig


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
        norm = float(np.linalg.norm(self.theta_star))
        if norm > 1.0 + 1e-12:
            raise ValueError(f"theta_star norm {norm} exceeds 1")
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


def make_instance(spec: DistributionSpec, d: int, K: int, sigma: float,
                  rng: np.random.Generator) -> BanditInstance:
    """Instance with theta_star drawn uniformly from the unit sphere."""
    d = resolve_dim(spec, d)
    return BanditInstance(theta_star=sphere_vector(d, rng), sigma=float(sigma),
                          spec=spec, d=d, K=K)


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
    state = estimator.init(d, R)
    rows = np.arange(R)
    arms, best_arms = np.empty((2, T, R), dtype=np.intp)
    rewards, regrets, errors, eigs, norms = np.full((5, T, R), np.nan)
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
        eigs[i] = estimator.min_eigenvalue(state)
        # sqrt is monotone, so the root of the largest square is the max norm.
        norms[i] = np.sqrt(np.vecdot(X, X).max(axis=-1))
    # Each replication's columns become contiguous rows.
    columns = [np.ascontiguousarray(c.T)
               for c in (arms, best_arms, rewards, regrets, errors, eigs, norms)]
    return [Trajectory(*(c[r] for c in columns)) for r in range(R)]
