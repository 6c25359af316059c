"""Arm selection rules: greedy OLS, LinUCB, and linear Thompson sampling.

The greedy rule scores arms with the raw least squares estimate and never
adds an exploration term; before the Gram matrix is invertible it falls
back to a fixed warm-start vector theta0.  The two baselines regularize
with lambda_reg and need a generator only in the Thompson case.  They
factor the ridge matrix once per round with scipy's LAPACK dpotrf, and the
one factor L serves the ridge estimate, LinUCB's log-determinant and
widths, and LinTS's posterior draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import math

import numpy as np
from scipy.linalg import lapack

from . import estimator
from .contexts import ContextSet
from .estimator import GramState

POLICY_KINDS = ("greedy", "linucb", "lints")


@dataclass
class PolicyConfig:
    """Hyperparameters shared by the three selection rules.

    theta0 applies to greedy only (score vector while unidentified).  delta
    left as None resolves to 1/T when the episode length is known (1/2 at
    T = 1, which 1/T would put outside (0, 1)).
    sigma_assumed is the noise scale the baselines plug into their bonus
    and posterior; it need not match the environment.
    """

    kind: str
    theta0: np.ndarray | None = None
    lambda_reg: float = 1.0
    delta: float | None = None
    v_scale: float = 1.0
    sigma_assumed: float = 0.5
    name: str | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.theta0 is not None:
            self.theta0 = np.asarray(self.theta0, dtype=float)
        if not self.lambda_reg > 0:
            raise ValueError("lambda_reg must be positive")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.v_scale <= 0:
            raise ValueError("v_scale must be positive")
        if self.sigma_assumed < 0:
            raise ValueError("sigma_assumed must be non-negative")
        if self.name is None:
            self.name = self.kind

    def with_delta_for_horizon(self, T: int) -> "PolicyConfig":
        if self.delta is not None:
            return self
        return replace(self, delta=1.0 / float(max(T, 2)))


def greedy_select(theta, contexts: ContextSet) -> int:
    """Index of the highest-scoring arm; ties break to the lowest index."""
    theta = np.asarray(theta, dtype=float)
    return int(np.argmax(contexts.vectors @ theta))


def _ridge(state: GramState, lambda_reg: float):
    """Lower Cholesky factor L of Sigma + lambda I and the ridge estimate."""
    sigma_bar = state.sigma + lambda_reg * np.eye(state.dim)
    L, info = lapack.dpotrf(sigma_bar, lower=1, clean=0)
    if info != 0:
        raise ValueError("ridge Gram matrix must be positive definite")
    theta_tilde, _ = lapack.dpotrs(L, state.b, lower=1)
    return L, theta_tilde


def _radius(L: np.ndarray, config: PolicyConfig) -> float:
    """LinUCB bonus multiplier, with logdet(Sigma + lambda I) = 2 sum log diag L."""
    if config.delta is None:
        raise ValueError("delta unresolved; call with_delta_for_horizon first")
    lam = config.lambda_reg
    logdet = 2.0 * float(np.log(np.diagonal(L)).sum())
    width = logdet - L.shape[0] * math.log(lam) + 2.0 * math.log(1.0 / config.delta)
    return config.sigma_assumed * math.sqrt(max(width, 0.0)) + math.sqrt(lam)


def confidence_radius(state: GramState, config: PolicyConfig, t: int) -> float:
    """LinUCB bonus multiplier from the determinant of the ridge Gram matrix."""
    return _radius(_ridge(state, config.lambda_reg)[0], config)


def _linucb_choice(L: np.ndarray, theta_tilde: np.ndarray,
                   contexts: ContextSet, beta: float) -> int:
    X = contexts.vectors
    V, _ = lapack.dpotrs(L, X.T, lower=1)
    widths = np.sqrt(np.maximum(np.einsum("ij,ji->i", X, V), 0.0))
    return int(np.argmax(X @ theta_tilde + beta * widths))


def linucb_select(state: GramState, config: PolicyConfig,
                  contexts: ContextSet, beta: float) -> int:
    L, theta_tilde = _ridge(state, config.lambda_reg)
    return _linucb_choice(L, theta_tilde, contexts, beta)


def lints_select(state: GramState, config: PolicyConfig, contexts: ContextSet,
                 rng: np.random.Generator) -> int:
    L, theta_tilde = _ridge(state, config.lambda_reg)
    z = rng.standard_normal(state.dim)
    # L^-T z has covariance sigma_bar^-1.
    perturb, _ = lapack.dtrtrs(L, z, lower=1, trans=1)
    theta_sample = theta_tilde + config.v_scale * perturb
    return greedy_select(theta_sample, contexts)


def policy_step(state: GramState, config: PolicyConfig, contexts: ContextSet,
                t: int, rng: np.random.Generator | None = None) -> int:
    """Choose an arm for round t (1-based) given the current Gram state."""
    if contexts.dim != state.dim:
        raise ValueError(f"context dim {contexts.dim} != state dim {state.dim}")
    if config.kind == "greedy":
        if state.theta_hat is not None:
            return greedy_select(state.theta_hat, contexts)
        if config.theta0 is None:
            raise ValueError("greedy policy needs theta0 until the Gram matrix "
                             "is invertible")
        return greedy_select(config.theta0, contexts)
    if config.kind == "linucb":
        L, theta_tilde = _ridge(state, config.lambda_reg)
        return _linucb_choice(L, theta_tilde, contexts, _radius(L, config))
    if rng is None:
        raise ValueError("lints needs a random generator")
    return lints_select(state, config, contexts, rng)
