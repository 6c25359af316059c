"""Bandit environment and the single-episode simulation loop.

An episode interleaves context sampling, arm selection, gaussian reward
noise, and the OLS update, recording per-round diagnostics as T-length
columns.  Regret is measured against the noise-free best arm of the
realized context set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimator, policies
from .contexts import ContextSet, DistributionSpec, resolve_dim, sample_context_set
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

    def final_regret(self) -> float:
        return float(self.cum_regret[-1]) if len(self) else 0.0


def reward(instance: BanditInstance, x, rng: np.random.Generator) -> float:
    """Linear mean plus sigma-scaled gaussian noise."""
    x = np.asarray(x, dtype=float)
    return float(x @ instance.theta_star + instance.sigma * rng.standard_normal())


def instantaneous_regret(instance: BanditInstance, contexts: ContextSet,
                         arm: int) -> tuple[float, int]:
    """Noise-free regret of the chosen arm and the index of the best arm."""
    means = contexts.vectors @ instance.theta_star
    best = int(np.argmax(means))
    return float(means[best] - means[arm]), best


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
                seed) -> Trajectory:
    """Simulate T rounds; the whole episode is a function of (inputs, seed)."""
    T = int(T)
    if T < 1:
        raise ValueError("T must be >= 1")
    config = config.with_delta_for_horizon(T)
    if config.kind == "greedy" and config.theta0 is None:
        raise ValueError("greedy episodes need theta0")
    if config.theta0 is not None and config.theta0.shape != (instance.d,):
        raise ValueError(f"theta0 must have shape ({instance.d},)")
    rng = np.random.default_rng(seed)
    state = estimator.init(instance.d)
    arms, best_arms = np.empty((2, T), dtype=np.intp)
    rewards, regrets, errors, eigs, norms = np.full((5, T), np.nan)
    for i in range(T):
        contexts = sample_context_set(instance.spec, instance.d, instance.K, rng)
        arm = policies.policy_step(state, config, contexts, i + 1, rng)
        x = contexts.vectors[arm]
        y = reward(instance, x, rng)
        regrets[i], best_arms[i] = instantaneous_regret(instance, contexts, arm)
        estimator.update(state, x, y)
        if state.theta_hat is not None:
            errors[i] = np.linalg.norm(state.theta_hat - instance.theta_star)
        arms[i], rewards[i] = arm, y
        eigs[i] = estimator.min_eigenvalue(state)
        norms[i] = np.max(np.linalg.norm(contexts.vectors, axis=1))
    return Trajectory(arm=arms, optimal_arm=best_arms, reward=rewards,
                      inst_regret=regrets, est_error_l2=errors,
                      gram_min_eig=eigs, max_ctx_norm=norms)
