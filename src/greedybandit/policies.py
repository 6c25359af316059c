"""Arm selection rules: greedy OLS, LinUCB, and linear Thompson sampling.

The greedy rule scores arms with the raw least squares estimate and never
adds an exploration term; before the Gram matrix is invertible it falls
back to a fixed warm-start vector theta0.  The two baselines regularize
with lambda_reg and need a generator only in the Thompson case.  They
factor the ridge matrix once per round with scipy's LAPACK dpotrf, and the
one factor L serves the ridge estimate, LinUCB's log-determinant and
widths, and LinTS's posterior draw.

Every rule acts on the stacked state of R replications (see estimator) and
their (R, K, d) context sets, and returns R arms; scores and argmax are
array operations, while factorizations and LinTS's draws run per
replication, LinTS's from one generator each.  One replication is the
stack R = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import math

import numpy as np
from scipy.linalg import lapack

from . import estimator
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


def _stacked(contexts, reps: int, dim: int) -> np.ndarray:
    """The (R, K, d) context block, checked against the state's R and d."""
    X = np.asarray(contexts, dtype=float)
    if X.ndim != 3 or X.shape[0] != reps or X.shape[2] != dim:
        raise ValueError(f"expected ({reps}, K, {dim}) contexts, got shape {X.shape}")
    return X


def greedy_select(theta, contexts):
    """Index of the highest-scoring arm; ties break to the lowest index.
    Broadcasts: theta (R, d) against contexts (R, K, d) gives R choices."""
    theta = np.asarray(theta, dtype=float)
    return np.matmul(contexts, theta[..., None])[..., 0].argmax(axis=-1)


def _ridge(state: GramState, lambda_reg: float):
    """Lower Cholesky factors L (R, d, d) of Sigma + lambda I, each slice
    Fortran-ordered, and the (R, d) ridge estimates."""
    # Sigma is exactly symmetric, so the transposed slices of Sigma + lambda I
    # are the same matrices in Fortran order: dpotrf factors them in place.
    L = (state.sigma + lambda_reg * np.eye(state.dim)).transpose(0, 2, 1)
    theta_tilde = np.empty(state.b.shape)
    for r in range(state.reps):
        L[r], info = lapack.dpotrf(L[r], lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise ValueError("ridge Gram matrix must be positive definite")
        theta_tilde[r], _ = lapack.dpotrs(L[r], state.b[r], lower=1)
    return L, theta_tilde


def _radius(L: np.ndarray, config: PolicyConfig) -> np.ndarray:
    """LinUCB bonus multipliers, with logdet(Sigma + lambda I) = 2 sum log diag L."""
    if config.delta is None:
        raise ValueError("delta unresolved; call with_delta_for_horizon first")
    lam = config.lambda_reg
    shift = L.shape[-1] * math.log(lam)
    bonus = 2.0 * math.log(1.0 / config.delta)
    return np.array([
        config.sigma_assumed * math.sqrt(max(2.0 * s - shift + bonus, 0.0))
        + math.sqrt(lam)
        for s in np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1).tolist()])


def confidence_radius(state: GramState, config: PolicyConfig) -> np.ndarray:
    """LinUCB bonus multipliers from the determinants of the ridge Gram
    matrices, one per replication."""
    return _radius(_ridge(state, config.lambda_reg)[0], config)


def linucb_select(state: GramState, config: PolicyConfig, contexts,
                  beta=None) -> np.ndarray:
    """LinUCB arms; beta None takes each replication's confidence radius
    from the same ridge factor that gives the estimate and the widths."""
    X = _stacked(contexts, state.reps, state.dim)
    L, theta_tilde = _ridge(state, config.lambda_reg)
    if beta is None:
        beta = _radius(L, config)
    # Row i of W[r] is Sigma_bar_r^-1 x_i, so the width is sqrt(x_i . W[r, i]).
    W = np.empty_like(X)
    for r in range(len(X)):
        W[r] = lapack.dpotrs(L[r], X[r].T, lower=1)[0].T
    widths = np.sqrt(np.maximum(np.einsum("rij,rij->ri", X, W), 0.0))
    scores = np.matmul(X, theta_tilde[..., None])[..., 0]
    return (scores + np.asarray(beta)[..., None] * widths).argmax(axis=-1)


def lints_select(state: GramState, config: PolicyConfig, contexts,
                 rngs: list[np.random.Generator]) -> np.ndarray:
    if len(rngs) != state.reps:
        raise ValueError(f"expected {state.reps} random generators, got {len(rngs)}")
    L, theta_tilde = _ridge(state, config.lambda_reg)
    perturb = np.empty(theta_tilde.shape)
    for r, g in enumerate(rngs):
        z = g.standard_normal(state.dim)
        # L^-T z has covariance sigma_bar^-1.
        perturb[r], _ = lapack.dtrtrs(L[r], z, lower=1, trans=1)
    theta_sample = theta_tilde + config.v_scale * perturb
    return greedy_select(theta_sample, _stacked(contexts, state.reps, state.dim))


def policy_step(state: GramState, config: PolicyConfig, contexts,
                rngs: list[np.random.Generator] | None = None) -> np.ndarray:
    """Choose each replication's arm for the next round given the stacked
    Gram state: contexts (R, K, d), and for LinTS one generator per
    replication.  Returns the R arm indices."""
    X = _stacked(contexts, state.reps, state.dim)
    if config.kind == "greedy":
        since, theta = state.invertible_since, state.theta_hat
        if not since.all():
            if config.theta0 is None:
                raise ValueError("greedy policy needs theta0 until the Gram "
                                 "matrix is invertible")
            theta = np.where(since[:, None] > 0, theta, config.theta0)
        return greedy_select(theta, X)
    if config.kind == "linucb":
        return linucb_select(state, config, X)
    if rngs is None:
        raise ValueError("lints needs random generators")
    return lints_select(state, config, X, rngs)
