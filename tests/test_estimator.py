import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve, lapack

from greedybandit import estimator as est
from greedybandit.estimator import GramState, NotIdentifiedError
from greedybandit.policies import PolicyConfig, policy_step


class TestLifecycle:
    def test_init_shapes(self):
        s = est.init(3)
        assert s.sigma.shape == (1, 3, 3) and s.b.shape == (1, 3)
        assert s.t == 0 and np.isnan(s.theta_hat).all()
        assert s.invertible_since.tolist() == [0]
        s = est.init(3, reps=4)
        assert s.sigma.shape == (4, 3, 3) and s.b.shape == (4, 3)
        assert s.invertible_since.tolist() == [0] * 4

    def test_init_validation(self):
        with pytest.raises(ValueError):
            est.init(0)
        with pytest.raises(ValueError):
            est.init(2, reps=0)

    def test_singular_until_spanning(self):
        s = est.init(2)
        est.update(s, [[1.0, 0.0]], [1.0])
        assert np.isnan(s.theta_hat).all() and s.invertible_since.tolist() == [0]
        with pytest.raises(NotIdentifiedError):
            est.solve(s)
        est.update(s, [[2.0, 0.0]], [2.0])  # same direction: still rank 1
        assert np.isnan(s.theta_hat).all()
        est.update(s, [[0.0, 1.0]], [-1.0])
        assert s.invertible_since.tolist() == [3]
        np.testing.assert_allclose(s.theta_hat, [[1.0, -1.0]], atol=1e-12)

    def test_mixed_block(self):
        # Row 0 gets spanning vectors, row 1 one repeated vector: row 0 is
        # identified at t = d while row 1 stays singular.  The rows not
        # identified read NaN estimates and exactly zero inverses, and the
        # greedy rule scores them with theta0.
        with pytest.raises(NotIdentifiedError):
            est.incremental_estimate(est.init(3, reps=2))
        s = est.init(3, reps=2)
        theta = np.array([1.0, 0.0, 0.0])
        for x in ([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]):
            X = np.array([x, [1.0, 1.0, 1.0]])
            est.update(s, X, X @ theta)
        assert s.invertible_since.tolist() == [3, 0]
        assert np.isnan(s.theta_hat[1]).all()
        assert (s.sigma_inv[1] == 0.0).all()
        solved = est.solve(s)
        row0 = solved[0]
        np.testing.assert_array_equal(s.theta_hat[0], row0)
        assert np.isnan(solved[1]).all()
        inc = est.incremental_estimate(s)
        assert np.isnan(inc[1]).all()
        np.testing.assert_allclose(inc[0], row0, rtol=0, atol=1e-12)
        # theta_hat[0] = (1, 0, 0) picks arm 0 and theta0 = (0, 0, 1) arm 1.
        cfg = PolicyConfig("greedy", theta0=np.array([0.0, 0.0, 1.0]))
        cs = np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]] * 2)
        assert policy_step(s, cfg, cs).tolist() == [0, 1]

    def test_update_validation(self):
        s = est.init(2)
        with pytest.raises(ValueError):
            est.update(s, [[1.0]], [0.0])
        with pytest.raises(ValueError):
            est.update(s, [[np.inf, 0.0]], [0.0])
        with pytest.raises(ValueError):
            est.update(s, [[1.0, 0.0]], [np.nan])
        with pytest.raises(ValueError):  # only the stacked form is accepted
            est.update(s, [1.0, 0.0], 1.0)


class TestSolve:
    def test_scalar_case(self):
        s = GramState(sigma=np.array([[[3.0]]]), b=np.array([[6.0]]))
        np.testing.assert_allclose(est.solve(s), [[2.0]])

    def test_identity_gram(self):
        s = GramState(sigma=np.eye(2)[None], b=np.array([[2.0, -1.0]]))
        np.testing.assert_allclose(est.solve(s), [[2.0, -1.0]])

    def test_residual_small(self, rng):
        d = 6
        X = rng.standard_normal((40, d))
        y = rng.standard_normal(40)
        s = est.init(d)
        for x, v in zip(X, y):
            est.update(s, [x], [v])
        resid = s.sigma[0] @ s.theta_hat[0] - s.b[0]
        assert np.abs(resid).max() < 1e-9 * max(1.0, np.abs(s.b).max())

    def test_incremental_vs_cholesky_50_updates(self, rng):
        d = 4
        s = est.init(d)
        for _ in range(50):
            est.update(s, [rng.standard_normal(d)], [rng.standard_normal()])
        inc = est.incremental_estimate(s)
        direct = est.solve(s)
        assert np.abs(inc - direct).max() < 1e-8


class TestMinEigenvalue:
    def test_zero_for_fresh_state(self):
        assert est.min_eigenvalue(est.init(3).sigma) == 0.0

    def test_asymmetry_rejected(self):
        # Checked once, where a state is built from outside data; update's
        # sigma += outer(x, x) is exactly symmetric.
        with pytest.raises(ValueError, match="asymmetric"):
            GramState(sigma=np.array([[[1.0, 0.1], [0.0, 1.0]]]),
                      b=np.zeros((1, 2)))

    @pytest.mark.parametrize("sigma, b", [
        (np.eye(2)[None], np.zeros((1, 3))),
        (np.zeros((1, 2, 3)), np.zeros((1, 2))),
        (np.eye(2)[None], np.zeros((1, 2, 1))),
        (np.zeros((1, 0, 0)), np.zeros((1, 0))),
        (np.eye(2), np.zeros(2)),  # a single regression is not a stack
    ])
    def test_shape_mismatch_rejected(self, sigma, b):
        with pytest.raises(ValueError, match="need sigma"):
            GramState(sigma=sigma, b=b)

    def test_empty_stack_rejected(self):
        # R = 0 is named, not left to a reduction over an empty array.
        with pytest.raises(ValueError, match=r"R, d >= 1, got \(0, 2, 2\)"):
            GramState(sigma=np.zeros((0, 2, 2)), b=np.zeros((0, 2)))

    def test_known_eigenvalue(self):
        s = GramState(sigma=np.diag([5.0, 0.25])[None], b=np.zeros((1, 2)))
        assert est.min_eigenvalue(s.sigma) == pytest.approx(0.25, rel=1e-8)


def random_grams(d, n, rng):
    """n Gram matrices of random designs with between d and 3d + 4 rows."""
    return [X.T @ X for X in (rng.standard_normal((d + i % (2 * d + 5), d))
                              for i in range(n))]


class TestLapackDrivers:
    # The estimator calls scipy's LAPACK drivers directly.  Its solve gives
    # the very numbers of scipy's cho_solve, and its eigenvalues (dsyevr)
    # are within backward error of numpy's.
    @pytest.mark.parametrize("d", [1, 3, 20, 100])
    def test_min_eigenvalue_within_backward_error(self, d, rng):
        # The record's subset solve (dsyevr) is backward stable, so by Weyl's
        # inequality it is within p(d) * eps * lambda_max of the exact value.
        # p(d) = d: on these draws the worst |dsyevr - dsyevd| is 0.24 of it
        # (d = 3); over 2e4 draws per d it reached 0.64 at d = 3 and 0.98 at
        # d = 2.  The rank-(d - 1) Grams are the rounds just before
        # identification.
        grams = random_grams(d, 30, rng)
        grams += [X.T @ X for X in (rng.standard_normal((d - 1, d))
                                    for _ in range(10))]
        for S in grams:
            ref = np.linalg.eigvalsh(S)
            got = est.min_eigenvalue(S[None])
            assert abs(got - ref[0]) <= d * np.finfo(float).eps * ref[-1]

    @pytest.mark.parametrize("d", [1, 3, 20, 100])
    def test_solve_matches_cho_solve_exactly(self, d, rng):
        for S in random_grams(d, 30, rng):
            b = rng.standard_normal(d)
            s = GramState(sigma=S[None], b=b[None])
            ref = cho_solve(cho_factor(S, lower=True, check_finite=False), b,
                            check_finite=False)
            np.testing.assert_array_equal(est.solve(s)[0], ref)

    @pytest.mark.parametrize("d", [1, 2, 5, 20, 47, 48, 64, 100])
    def test_dposv_matches_dpotrf_dpotrs(self, d):
        # The OLS and ridge solves are one dposv call, which runs dpotrf and
        # dpotrs inside: the same solution bytes, lower-triangle factor and
        # info as the two calls.  Checked on Gram matrices of random designs,
        # on one whose smallest eigenvalue barely clears the identification
        # floor, and on a singular one (zero last column of the design).
        rng = np.random.default_rng(d)
        grams = [x.T @ x for x in (rng.standard_normal((rows, d))
                                   for rows in (d, d + 1, 2 * d, 3 * d + 4))]
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        barely = (q * np.geomspace(1.5 * est.EPS_INV, 1.0, d)) @ q.T
        barely = (barely + barely.T) / 2
        assert est._is_invertible(barely)
        assert est._eigenvalues(barely, range="A")[0] < 2 * est.EPS_INV
        x = rng.standard_normal((2 * d, d))
        x[:, -1] = 0.0
        for S in grams + [barely, x.T @ x]:
            b = rng.standard_normal(d)
            L, info = lapack.dpotrf(S, lower=1, clean=0)
            c, theta, fused_info = lapack.dposv(S, b, lower=1)
            assert fused_info == info
            assert np.tril(c).tobytes() == np.tril(L).tobytes()
            if info == 0:
                assert theta.tobytes() == lapack.dpotrs(L, b, lower=1)[0].tobytes()
        assert info == d

    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_psd_singular_not_identified(self, d, rng):
        X = rng.standard_normal((d - 1, d))
        s = GramState(sigma=(X.T @ X)[None],
                      b=(X.T @ rng.standard_normal(d - 1))[None])
        with pytest.raises(NotIdentifiedError):
            est.solve(s)

    @pytest.mark.parametrize("lam_max, above, below", [(1.0, 2e-9, 5e-10),
                                                       (1e3, 2e-6, 5e-7)])
    def test_identification_floor(self, lam_max, above, below):
        # A Gram matrix is identified when lambda_min > 1e-9 max(1, lambda_max).
        # Below the floor the solve raises even though Cholesky would succeed.
        s = GramState(sigma=np.diag([lam_max, above])[None], b=np.ones((1, 2)))
        np.testing.assert_allclose(est.solve(s), [[1 / lam_max, 1 / above]])
        s = GramState(sigma=np.diag([lam_max, below])[None], b=np.ones((1, 2)))
        with pytest.raises(NotIdentifiedError):
            est.solve(s)

    def test_failed_factorization_not_identified(self):
        # Past the eigenvalue gate (invertible_since set) an exactly singular
        # Gram matrix still raises instead of returning a solve.
        s = GramState(sigma=np.ones((1, 2, 2)), b=np.ones((1, 2)))
        s.invertible_since[:] = 1
        with pytest.raises(NotIdentifiedError):
            est.solve(s)


@settings(deadline=None, max_examples=60)
@given(d=st.integers(1, 10), n=st.integers(1, 40), seed=st.integers(0, 10**6))
@example(d=9, n=9, seed=2)
@example(d=6, n=6, seed=1431)
@example(d=6, n=6, seed=289567)
def test_incremental_matches_direct(d, n, seed):
    # Incrementally built statistics equal the batch ones, and where the
    # Gram matrix is invertible the running-inverse estimate matches the
    # Cholesky solve and the numpy least squares answer.
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    s = est.init(d)
    for x, v in zip(X, y):
        est.update(s, [x], [v])
    np.testing.assert_allclose(s.sigma[0], X.T @ X, atol=1e-10)
    np.testing.assert_allclose(s.b[0], X.T @ y, atol=1e-10)
    if s.invertible_since.all():
        gram = X.T @ X
        ref = np.linalg.solve(gram, X.T @ y)
        # Forward-error bound: Sigma summed from rank-one updates rounds
        # differently from X^T X, so on square, ill-conditioned designs the
        # exact solutions of the two systems differ by about
        # cond * eps * |theta|, beyond any absolute 1e-8 (the examples above:
        # cond(X^T X) = 6.4e7 and |theta| ~ 417 at d = n = 9).
        tol = max(1e-8, np.linalg.cond(gram) * np.finfo(float).eps
                  * np.abs(ref).max())
        assert np.abs(s.theta_hat[0] - ref).max() < tol
        assert np.abs(est.incremental_estimate(s)[0] - ref).max() < tol


@settings(deadline=None, max_examples=40)
@given(d=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_noiseless_exact_recovery(d, seed):
    # With sigma = 0, OLS recovers theta exactly once d independent
    # observations have arrived.
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)
    theta /= max(np.linalg.norm(theta), 1.0)
    s = est.init(d)
    for _ in range(d + 3):
        x = rng.standard_normal(d)
        est.update(s, [x], [float(x @ theta)])
    assert s.invertible_since.all()
    assert np.abs(s.theta_hat - theta).max() < 1e-8


@settings(deadline=None, max_examples=40)
@given(d=st.integers(1, 6), n=st.integers(2, 25), seed=st.integers(0, 10**6))
def test_loewner_monotonicity(d, n, seed):
    # Adding outer products never shrinks the minimum eigenvalue.
    rng = np.random.default_rng(seed)
    s = est.init(d)
    prev = 0.0
    for _ in range(n):
        est.update(s, [rng.standard_normal(d)], [0.0])
        cur = est.min_eigenvalue(s.sigma)
        assert cur >= prev - 1e-10 * max(1.0, prev)
        prev = cur


@pytest.mark.parametrize("d, T, R", [(20, 50_000, 2), (100, 20_000, 1)])
def test_long_horizon_accuracy_against_qr(d, T, R):
    # Long iid designs with one starved direction (coordinate 0 scaled by
    # 1e-4, so cond(Sigma) ~ 1e8), R replications in lockstep: after T
    # rank-one updates both the Cholesky solve and the Sherman-Morrison
    # running inverse still give the least squares answer of a QR solve
    # (numpy.linalg.lstsq) on the stacked design, within the forward-error
    # bound cond(Sigma) * eps * |theta| (Higham 2002, ch. 20).  Measured
    # errors sit about four orders of magnitude below it; an update that
    # drops the inverse's rank-one term misses it by far.
    rng = np.random.default_rng(d)
    X = rng.standard_normal((R, T, d))
    X[:, :, 0] *= 1e-4
    theta = rng.standard_normal(d)
    theta /= np.linalg.norm(theta)
    y = X @ theta + 0.5 * rng.standard_normal((R, T))
    s = est.init(d, R)
    for t in range(T):
        est.update(s, X[:, t], y[:, t])
    assert s.invertible_since.all()
    solved, running = est.solve(s), est.incremental_estimate(s)
    eps = np.finfo(float).eps
    for r in range(R):
        ref = np.linalg.lstsq(X[r], y[r], rcond=None)[0]
        bound = np.linalg.cond(s.sigma[r]) * eps * np.linalg.norm(ref)
        assert np.abs(solved[r] - ref).max() <= bound
        assert np.abs(running[r] - ref).max() <= bound
