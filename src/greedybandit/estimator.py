"""Incremental ordinary least squares over rank-one Gram updates.

GramState accumulates Sigma = sum x x^T and b = sum x y without any
regularization.  Until Sigma is invertible the estimate is undefined; once
the minimal eigenvalue clears a small numerical floor the state keeps both a
Sherman-Morrison running inverse (cheap per-round reads) and a fresh
Cholesky solve (authoritative for theta_hat).

Every factorization and eigensolve goes straight to scipy's LAPACK drivers.
The OLS solve is dpotrf/dpotrs.  The identification gate reads all
eigenvalues from dsyevd, bit-equal to numpy.linalg.eigvalsh; update runs it
only once t >= d, because a sum of t < d rank-one terms is singular.  The
per-round minimal-eigenvalue record asks dsyevr for the smallest eigenvalue
alone, which skips the full tridiagonal QR sweep; like any backward-stable
solver it is within p(d) * eps * |Sigma|_2 of the exact value (Weyl).
numpy links its own BLAS with its own thread pool, and alternating the two
libraries every round makes their pools fight over the cores; keep
numpy.linalg's LAPACK routines out of the episode loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import inv, lapack

EPS_INV = 1e-9


class NotIdentifiedError(RuntimeError):
    """Gram matrix is singular; the least squares estimate does not exist."""


@dataclass
class GramState:
    """Running sufficient statistics of the regression.

    `theta_hat` is None until the Gram matrix becomes invertible;
    `invertible_since` records the update count at which that happened.
    `t` counts the rank-one terms in `sigma`, so rank(sigma) <= t for a state
    grown from `init`.  Construction checks the shapes and the symmetry of
    `sigma`; `update` keeps it exactly symmetric.
    """

    sigma: np.ndarray
    b: np.ndarray
    t: int = 0
    theta_hat: np.ndarray | None = None
    invertible_since: int | None = None
    sigma_inv: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.b.ndim != 1 or self.b.size < 1
                or self.sigma.shape != 2 * self.b.shape):
            raise ValueError(f"need sigma (d, d) and b (d,) with d >= 1, got "
                             f"{self.sigma.shape} and {self.b.shape}")
        asym = np.abs(self.sigma - self.sigma.T).max()
        if asym > 1e-8 * max(1.0, np.abs(self.sigma).max()):
            raise ValueError(f"Gram matrix asymmetric by {asym:.3e}")

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


def init(d: int) -> GramState:
    d = int(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    return GramState(sigma=np.zeros((d, d)), b=np.zeros(d))


@lru_cache(maxsize=None)
def _eig_workspace(d: int) -> tuple[int, int]:
    """Optimal dsyevd workspace for eigenvalues only.  With it the blocked
    tridiagonal reduction runs, as in numpy.linalg.eigvalsh, and the
    eigenvalues agree with numpy's bit for bit; the minimal default
    workspace takes the unblocked path and differs in the last bits."""
    lwork, liwork, info = lapack.dsyevd_lwork(d, compute_v=0, lower=1)
    if info != 0:
        raise ValueError(f"dsyevd workspace query failed (info {info})")
    return int(lwork), int(liwork)


def _eigvalsh(sigma: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (lower triangle read)."""
    lwork, liwork = _eig_workspace(sigma.shape[0])
    w, _, info = lapack.dsyevd(sigma, compute_v=0, lower=1,
                               lwork=lwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed to converge (info {info})")
    return w


def _is_invertible(sigma: np.ndarray) -> bool:
    eigs = _eigvalsh(sigma)
    return bool(eigs[0] > EPS_INV * max(1.0, eigs[-1]))


def update(state: GramState, x, y: float) -> GramState:
    """Fold one observation (x, y) into the state in place."""
    x = np.asarray(x, dtype=float)
    if x.shape != (state.dim,):
        raise ValueError(f"expected context of shape ({state.dim},), got {x.shape}")
    if not (np.all(np.isfinite(x)) and np.isfinite(y)):
        raise ValueError("observation must be finite")

    if state.sigma_inv is not None:
        # Sherman-Morrison on the pre-update inverse.
        Av = state.sigma_inv @ x
        denom = 1.0 + float(x @ Av)
        state.sigma_inv = state.sigma_inv - np.outer(Av, Av) / denom

    state.sigma += np.outer(x, x)
    state.b += x * float(y)
    state.t += 1

    # While t < d, rank(sigma) <= t < d: the computed lambda_min is at most
    # p(d) * eps * lambda_max, far below the floor, so the gate cannot pass.
    if (state.invertible_since is None and state.t >= state.dim
            and _is_invertible(state.sigma)):
        state.invertible_since = state.t
        state.sigma_inv = inv(state.sigma, check_finite=False)
    if state.invertible_since is not None:
        state.theta_hat = solve(state)
    return state


def solve(state: GramState) -> np.ndarray:
    """Least squares estimate Sigma^-1 b via Cholesky (authoritative path)."""
    if state.invertible_since is None and not _is_invertible(state.sigma):
        raise NotIdentifiedError("Gram matrix is singular after "
                                 f"{state.t} updates")
    L, info = lapack.dpotrf(state.sigma, lower=1, clean=0)
    if info != 0:
        raise NotIdentifiedError(f"Cholesky factorization failed at leading "
                                 f"minor {info} after {state.t} updates")
    theta, _ = lapack.dpotrs(L, state.b, lower=1)
    return theta


def incremental_estimate(state: GramState) -> np.ndarray:
    """Estimate from the Sherman-Morrison running inverse (cross-check path)."""
    if state.sigma_inv is None:
        raise NotIdentifiedError("Gram matrix is singular")
    return state.sigma_inv @ state.b


def min_eigenvalue(state: GramState) -> float:
    """Smallest eigenvalue of Sigma, from one subset eigensolve."""
    w, _, _, _, info = lapack.dsyevr(state.sigma, compute_v=0, range="I",
                                     il=1, iu=1, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed (info {info})")
    return float(w[0])


def weighted_norm(state: GramState, v) -> float:
    """sqrt(v^T Sigma v), clipped at zero against roundoff."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(max(float(v @ state.sigma @ v), 0.0)))
