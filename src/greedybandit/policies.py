"""Arm selection rules: greedy OLS, LinUCB, and linear Thompson sampling.

The greedy rule scores arms with the raw least squares estimate and never
adds an exploration term; before the Gram matrix is invertible it falls
back to a fixed warm-start vector theta0.  The two baselines regularize
with lambda_reg and need a generator only in the Thompson case.
POLICY_PARAMS names the parameters each rule reads; a PolicyConfig sets
only those.  The baselines
factor the ridge matrix and solve for the ridge estimate once per round in
one scipy LAPACK dposv call, and its factor L serves LinUCB's
log-determinant and widths and LinTS's posterior draw: one triangular
solve dtrtrs each, the widths ||L^-1 x|| for all K arms at once.  So a
replication's round takes two LAPACK calls in the baselines and none in
greedy; after identification the estimator's two (see estimator) make it
2/4/4 for greedy/LinUCB/LinTS.

Every rule acts on the stacked state of R replications (see estimator) and
their (R, K, d) context sets, and returns R arms; scores and argmax are
array operations, while factorizations and LinTS's draws run per
replication, LinTS's from one generator each.  One replication is the
stack R = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import math

import numpy as np
from scipy.linalg import lapack

from . import estimator
from .estimator import GramState

# The parameters each rule reads, in config order.  A PolicyConfig sets
# only its kind's; every other field keeps its default.
POLICY_PARAMS = {"greedy": ("theta0",),
                 "linucb": ("lambda_reg", "delta", "sigma_assumed"),
                 "lints": ("lambda_reg", "v_scale")}
POLICY_KINDS = tuple(POLICY_PARAMS)


@dataclass(frozen=True)
class PolicyConfig:
    """One selection rule and the parameters it reads (POLICY_PARAMS), a
    frozen value checked when built; theta0 is held as a read-only copy.

    theta0 is greedy's score vector while unidentified.  lambda_reg is the
    baselines' ridge.  LinUCB's delta left as None resolves to 1/T (1/2 at
    T = 1, which 1/T would put outside (0, 1)), and its sigma_assumed, the
    noise scale of its bonus, left as None resolves to the environment's
    sigma (see resolved).  LinTS's posterior scale is v_scale alone.
    """

    kind: str
    theta0: np.ndarray | None = None
    lambda_reg: float = 1.0
    delta: float | None = None
    v_scale: float = 1.0
    sigma_assumed: float | None = None
    name: str | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        for field in fields(self)[1:-1]:  # the parameters between kind and name
            v = getattr(self, field.name)
            if field.name not in POLICY_PARAMS[self.kind] and (
                    np.ndim(v) > 0 or v != field.default):
                raise ValueError(f"{self.kind} policy does not read {field.name!r}")
        if self.theta0 is not None:
            theta0 = np.array(self.theta0, dtype=float)
            theta0.flags.writeable = False
            if not np.all(np.isfinite(theta0)):
                raise ValueError("theta0 must be finite")
            object.__setattr__(self, "theta0", theta0)
        if not 0.0 < self.lambda_reg < math.inf:
            raise ValueError("lambda_reg must be positive and finite")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.v_scale < math.inf:
            raise ValueError("v_scale must be positive and finite")
        if self.sigma_assumed is not None and not 0.0 <= self.sigma_assumed < math.inf:
            raise ValueError("sigma_assumed must be finite and non-negative")
        if self.name is None:
            object.__setattr__(self, "name", self.kind)

    def resolved(self, T: int, sigma: float) -> PolicyConfig:
        """The config that runs T rounds against noise scale sigma: LinUCB's
        unset delta and sigma_assumed filled in."""
        if self.kind != "linucb":
            return self
        delta = 1.0 / max(T, 2) if self.delta is None else self.delta
        sigma_assumed = sigma if self.sigma_assumed is None else self.sigma_assumed
        return replace(self, delta=delta, sigma_assumed=sigma_assumed)


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
    # are the same matrices in Fortran order: dposv factors them in place.
    L = (state.sigma + lambda_reg * np.eye(state.dim)).transpose(0, 2, 1)
    theta_tilde = np.empty(state.b.shape)
    for r in range(state.reps):
        L[r], theta_tilde[r], info = lapack.dposv(L[r], state.b[r], lower=1,
                                                  overwrite_a=1)
        if info != 0:
            raise ValueError("ridge Gram matrix must be positive definite")
    return L, theta_tilde


def _radius(L: np.ndarray, config: PolicyConfig) -> np.ndarray:
    """LinUCB bonus multipliers, with logdet(Sigma + lambda I) = 2 sum log diag L."""
    if config.delta is None or config.sigma_assumed is None:
        raise ValueError("delta or sigma_assumed unresolved; call resolved first")
    lam = config.lambda_reg
    shift = L.shape[-1] * math.log(lam)
    bonus = 2.0 * math.log(1.0 / config.delta)
    return np.array([
        config.sigma_assumed * math.sqrt(max(2.0 * s - shift + bonus, 0.0))
        + math.sqrt(lam)
        for s in np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1).tolist()])


def _widths(L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """LinUCB widths sqrt(x . Sigma_bar^-1 x) (R, K) of the contexts X
    (R, K, d), from the ridge factors L; X is left unmodified."""
    # x . Sigma_bar^-1 x = |L^-1 x|^2, so row i of V[r] = (L[r]^-1 X[r]^T)^T
    # has norm width_i.  V[r].T is a Fortran-ordered (d, K) view of a copy
    # of X, which one dtrtrs solves in place.
    V = X.copy()
    for r in range(len(V)):
        V[r] = lapack.dtrtrs(L[r], V[r].T, lower=1, overwrite_b=1)[0].T
    return np.sqrt(np.vecdot(V, V))


def linucb_select(state: GramState, config: PolicyConfig, contexts,
                  beta=None) -> np.ndarray:
    """LinUCB arms; beta None takes each replication's confidence radius
    from the same ridge factor that gives the estimate and the widths."""
    X = _stacked(contexts, state.reps, state.dim)
    L, theta_tilde = _ridge(state, config.lambda_reg)
    if beta is None:
        beta = _radius(L, config)
    scores = np.matmul(X, theta_tilde[..., None])[..., 0]
    return (scores + np.asarray(beta)[..., None] * _widths(L, X)).argmax(axis=-1)


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
