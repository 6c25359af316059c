"""Incremental ordinary least squares over rank-one Gram updates, for a stack
of R regressions advanced in lockstep.

GramState stacks R replications' sufficient statistics along a leading axis,
Sigma (R, d, d) = sum x x^T and b (R, d) = sum x y, without any
regularization.  Each update folds one observation per replication.  Until
a replication's Gram matrix is invertible its estimate is undefined (NaN);
once the minimal eigenvalue clears a small numerical floor each update
solves for it afresh with Cholesky, the estimate every episode reads.
A state built by init also keeps Sherman-Morrison running inverses, whose
estimate (incremental_estimate) tests cross-check against the Cholesky
solve; the states of episodes carry none and skip that work.

The rank-one updates of Sigma, b and any running inverse are array
operations over the stack.  Every factorization and eigensolve runs per
replication and goes straight to scipy's LAPACK drivers.  The OLS solve is
one dposv call, which runs dpotrf and dpotrs inside and gives their bits;
an identified replication's round takes that call and the gram_min_eig
record's.  Eigenvalues come from dsyevr: the identification gate reads all
of them, and update runs it only once t >= d, because a sum of
t < d rank-one terms is singular; the per-round minimal-eigenvalue record
asks for the smallest alone, which skips the full tridiagonal QR sweep.
min_eigenvalue is that record, whether a block solves it inline or in the
forked helper of env.GramHelper.
Like any backward-stable solver dsyevr is within p(d) * eps * |Sigma|_2 of
the exact eigenvalues (Weyl).  numpy links its own BLAS with its own thread
pool, and alternating the two libraries every round makes their pools
fight over the cores; keep numpy.linalg's LAPACK routines out of the
episode loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import inv, lapack

EPS_INV = 1e-9


class NotIdentifiedError(RuntimeError):
    """Gram matrix is singular; the least squares estimate does not exist."""


@dataclass
class GramState:
    """Running sufficient statistics of R regressions, stacked.

    `sigma` is (R, d, d) and `b` (R, d), with R and d at least 1.  `t`
    counts the rank-one terms in each sigma, so rank(sigma[r]) <= t for a
    state grown from zero.  The state allocates the rest itself:
    `invertible_since[r]` is the update count at which replication r's Gram
    matrix became invertible, 0 while it is not, and `theta_hat` (R, d)
    holds the estimates, NaN in the rows of replications not identified
    yet.  `sigma_inv` is None: only `init` gives a state (R, d, d) running
    inverses, exactly zero until their replication is identified, and then
    `update` keeps them.  Construction checks the shapes and the symmetry
    of `sigma`; `update` keeps it exactly symmetric.
    """

    sigma: np.ndarray
    b: np.ndarray
    t: int = 0
    invertible_since: np.ndarray = field(init=False)
    theta_hat: np.ndarray = field(init=False)
    sigma_inv: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if (self.b.ndim != 2 or 0 in self.b.shape
                or self.sigma.shape != self.b.shape + self.b.shape[1:]):
            raise ValueError(f"need sigma (R, d, d), b (R, d) with R, d >= 1, "
                             f"got {self.sigma.shape} and {self.b.shape}")
        asym = np.abs(self.sigma - self.sigma.transpose(0, 2, 1)).max()
        if asym > 1e-8 * max(1.0, np.abs(self.sigma).max()):
            raise ValueError(f"Gram matrix asymmetric by {asym:.3e}")
        self.invertible_since = np.zeros(self.reps, dtype=np.intp)
        self.theta_hat = np.full(self.b.shape, np.nan)

    @property
    def reps(self) -> int:
        return self.sigma.shape[0]

    @property
    def dim(self) -> int:
        return self.sigma.shape[-1]


def init(d: int, reps: int = 1) -> GramState:
    """The zero state of `reps` regressions in dimension d, with zero
    running inverses."""
    state = GramState(sigma=np.zeros((reps, d, d)), b=np.zeros((reps, d)))
    state.sigma_inv = np.zeros(state.sigma.shape)
    return state


def _eigenvalues(sigma: np.ndarray, **subset) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (lower triangle read):
    those that dsyevr's range, il and iu arguments select."""
    w, _, m, _, info = lapack.dsyevr(sigma, compute_v=0, lower=1, **subset)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed (info {info})")
    return w[:m]


def _is_invertible(sigma: np.ndarray) -> bool:
    eigs = _eigenvalues(sigma, range="A")
    return bool(eigs[0] > EPS_INV * max(1.0, eigs[-1]))


def update(state: GramState, x, y) -> GramState:
    """Fold one observation per replication, x (R, d) and y (R,), into the
    state in place."""
    R, d = state.reps, state.dim
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (R, d) or y.shape != (R,):
        raise ValueError(f"expected contexts ({R}, {d}) and {R} rewards, got "
                         f"{x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("observation must be finite")
    # Sherman-Morrison on the pre-update inverses, for a state that keeps
    # them; the zero rows of replications not identified yet stay zero.
    if state.sigma_inv is not None:
        Av = np.matmul(state.sigma_inv, x.reshape(R, d, 1))
        denom = 1.0 + np.matmul(x.reshape(R, 1, d), Av)
        v = Av.reshape(R, d)
        outer = np.einsum("ri,rj->rij", v, v)
        outer /= denom
        state.sigma_inv -= outer
    add_outer(state.sigma, x)
    state.b += x * y.reshape(R, 1)
    state.t += 1

    # While t < d, rank(sigma) <= t < d: the computed lambda_min is at most
    # p(d) * eps * lambda_max, far below the floor, so the gate cannot pass.
    since = state.invertible_since
    if state.t >= d and not since.all():
        for r in np.flatnonzero(since == 0):
            if _is_invertible(state.sigma[r]):
                since[r] = state.t
                if state.sigma_inv is not None:
                    state.sigma_inv[r] = inv(state.sigma[r], check_finite=False)
    for r in np.flatnonzero(since):
        state.theta_hat[r] = _solve(state, r)
    return state


def add_outer(sigma: np.ndarray, x: np.ndarray) -> None:
    """Add x[r] x[r]^T to each sigma[r] in place, for an (R, d, d) stack and
    arms x (R, d).  The gram_min_eig helper (env.GramHelper) rebuilds each
    Gram stack with this call, so its bits are update's.  einsum writes a
    product of two rows in fewer inner loops than a broadcast multiply, to
    the same bits."""
    sigma += np.einsum("ri,rj->rij", x, x)


def _solve(state: GramState, r: int) -> np.ndarray:
    _, theta, info = lapack.dposv(state.sigma[r], state.b[r], lower=1)
    if info != 0:
        raise NotIdentifiedError(f"Cholesky factorization failed at leading "
                                 f"minor {info} after {state.t} updates")
    return theta


def solve(state: GramState) -> np.ndarray:
    """Least squares estimates Sigma^-1 b via Cholesky (authoritative path),
    one row per replication, NaN in the rows below the identification floor;
    raises while no row clears it, or when an identified row's Cholesky
    factorization fails."""
    rows = [r for r in range(state.reps)
            if state.invertible_since[r] or _is_invertible(state.sigma[r])]
    if not rows:
        raise NotIdentifiedError(f"Gram matrix is singular after {state.t} updates")
    theta = np.full(state.b.shape, np.nan)
    for r in rows:
        theta[r] = _solve(state, r)
    return theta


def incremental_estimate(state: GramState) -> np.ndarray:
    """Estimates from the Sherman-Morrison running inverses of a state built
    by init (cross-check path), NaN in the rows of replications not
    identified yet; raises while none is, and for a state without inverses."""
    if state.sigma_inv is None:
        raise ValueError("state has no running inverse (only init's keep one)")
    if not state.invertible_since.any():
        raise NotIdentifiedError("Gram matrix is singular")
    theta = np.matmul(state.sigma_inv, state.b[:, :, None])[:, :, 0]
    theta[state.invertible_since == 0] = np.nan
    return theta


def min_eigenvalue(sigma: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a symmetric (R, d, d) stack,
    such as a state's sigma, from one subset eigensolve each."""
    return np.array([_eigenvalues(s, range="I", il=1, iu=1)[0] for s in sigma])
