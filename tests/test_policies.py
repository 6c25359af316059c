import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from greedybandit import estimator as est, policies
from greedybandit.estimator import GramState
from greedybandit.policies import (PolicyConfig, _radius, _ridge, _widths,
                                   greedy_select, linucb_select, lints_select,
                                   policy_step)


def confidence_radius(state: GramState, config: PolicyConfig) -> np.ndarray:
    """LinUCB bonus multipliers from the determinants of the ridge Gram
    matrices, one per replication: the beta linucb_select takes by default."""
    return _radius(_ridge(state, config.lambda_reg)[0], config)


def contexts_of(*rows):
    return np.array(rows, dtype=float)[None]


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PolicyConfig("egreedy")

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            PolicyConfig("linucb", lambda_reg=0.0)
        with pytest.raises(ValueError):
            PolicyConfig("linucb", delta=1.0)
        with pytest.raises(ValueError):
            PolicyConfig("lints", v_scale=0.0)
        with pytest.raises(ValueError):
            PolicyConfig("linucb", sigma_assumed=-0.1)

    @pytest.mark.parametrize("field", ["theta0", "lambda_reg", "delta", "v_scale",
                                       "sigma_assumed"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        # A non-finite width or posterior scale made LinUCB and LinTS pick
        # arm 0 in every round.
        value = np.array([0.0, bad]) if field == "theta0" else bad
        with pytest.raises(ValueError, match=field):
            PolicyConfig("linucb", **{field: value})

    def test_delta_resolution(self):
        cfg = PolicyConfig("linucb").with_delta_for_horizon(1000)
        assert cfg.delta == pytest.approx(1e-3)
        fixed = PolicyConfig("linucb", delta=0.05).with_delta_for_horizon(1000)
        assert fixed.delta == 0.05

    def test_name_defaults_to_kind(self):
        assert PolicyConfig("greedy", theta0=np.zeros(2)).name == "greedy"
        assert PolicyConfig("greedy", theta0=np.zeros(2), name="warm").name == "warm"


class TestGreedySelect:
    def test_highest_score_wins(self):
        cs = contexts_of([0.5, 9.0], [0.6, -9.0])
        assert greedy_select([1.0, 0.0], cs) == 1

    def test_all_ties_lowest_index(self):
        cs = contexts_of([0.5, 9.0], [0.6, -9.0], [1.0, 1.0])
        assert greedy_select([0.0, 0.0], cs) == 0

    def test_positive_scaling_invariance(self):
        cs = contexts_of([1.0, 2.0], [2.0, -1.0], [0.0, 3.0])
        theta = np.array([0.3, 0.4])
        base = greedy_select(theta, cs)
        for c in (1e-6, 0.5, 7.0, 1e6):
            assert greedy_select(c * theta, cs) == base


@settings(deadline=None, max_examples=40)
@given(
    k=st.integers(1, 6),
    d=st.integers(1, 4),
    c=st.floats(1e-3, 1e3),
    seed=st.integers(0, 10**6),
)
def test_greedy_scaling_property(k, d, c, seed):
    rng = np.random.default_rng(seed)
    cs = rng.standard_normal((k, d))[None]
    theta = rng.standard_normal(d)
    assert greedy_select(theta, cs) == greedy_select(c * theta, cs)


class TestPolicyStep:
    def test_greedy_warm_start_branch(self):
        s = est.init(2)
        cfg = PolicyConfig("greedy", theta0=np.array([1.0, 0.0]))
        cs = contexts_of([0.5, 9.0], [0.6, -9.0])
        assert policy_step(s, cfg, cs) == 1  # scored with theta0
        est.update(s, [[1.0, 0.0]], [1.0])
        est.update(s, [[0.0, 1.0]], [1.0])
        # theta_hat = (1, 1) now dominates the warm start.
        assert policy_step(s, cfg, cs) == 0

    def test_greedy_requires_theta0_while_singular(self):
        s = est.init(2)
        cfg = PolicyConfig("greedy")
        with pytest.raises(ValueError):
            policy_step(s, cfg, contexts_of([1.0, 0.0]))

    @pytest.mark.parametrize("reps,contexts", [
        (1, np.zeros((1, 2, 2))),
        (2, np.zeros((1, 2, 3))),
        (1, np.zeros((2, 3))),
    ], ids=["wrong-d", "wrong-R", "unstacked-K-by-d"])
    def test_dim_mismatch(self, reps, contexts):
        # The state has d = 3; only a (reps, K, 3) block is accepted.
        s = est.init(3, reps)
        cfg = PolicyConfig("greedy", theta0=np.zeros(3))
        with pytest.raises(ValueError):
            policy_step(s, cfg, contexts)

    def test_lints_needs_rng(self):
        s = est.init(2)
        cfg = PolicyConfig("lints")
        with pytest.raises(ValueError):
            policy_step(s, cfg, contexts_of([1.0, 0.0]))

    def test_greedy_and_linucb_are_pure(self, rng):
        s = est.init(3)
        for _ in range(8):
            est.update(s, [rng.standard_normal(3)], [rng.standard_normal()])
        cs = rng.standard_normal((4, 3))[None]
        g = PolicyConfig("greedy", theta0=np.zeros(3))
        u = PolicyConfig("linucb", delta=0.01)
        assert policy_step(s, g, cs) == policy_step(s, g, cs)
        assert policy_step(s, u, cs) == policy_step(s, u, cs)

    def test_lints_pure_given_draw(self, rng):
        s = est.init(3)
        for _ in range(8):
            est.update(s, [rng.standard_normal(3)], [rng.standard_normal()])
        cs = rng.standard_normal((4, 3))[None]
        cfg = PolicyConfig("lints", delta=0.01)
        a = policy_step(s, cfg, cs, rngs=[np.random.default_rng(3)])
        b = policy_step(s, cfg, cs, rngs=[np.random.default_rng(3)])
        assert a == b


class TestLinUcb:
    def test_beta_zero_is_ridge_greedy(self, rng):
        s = est.init(3)
        for _ in range(12):
            est.update(s, [rng.standard_normal(3)], [rng.standard_normal()])
        cfg = PolicyConfig("linucb", delta=0.1)
        cs = rng.standard_normal((5, 3))[None]
        ridge = np.linalg.solve(s.sigma[0] + np.eye(3), s.b[0])
        assert linucb_select(s, cfg, cs, beta=0.0) == greedy_select(ridge, cs)

    def test_width_term_changes_choice(self):
        # One arm has a slightly lower mean but is unexplored; a large beta
        # must flip the selection toward it.
        s = est.init(2)
        for _ in range(50):
            est.update(s, [[1.0, 0.0]], [1.0])
        cfg = PolicyConfig("linucb", delta=0.1)
        cs = contexts_of([1.0, 0.0], [0.9, 1.0])
        assert linucb_select(s, cfg, cs, beta=0.0) == 0
        assert linucb_select(s, cfg, cs, beta=5.0) == 1


@settings(deadline=None, max_examples=60)
@given(d=st.integers(1, 20), K=st.integers(1, 30), R=st.integers(1, 4),
       n=st.integers(0, 50), seed=st.integers(0, 10**6))
def test_widths_from_one_triangular_solve(d, K, R, n, seed):
    # LinUCB's widths are the row norms of L^-1 X^T, one triangular solve.
    # sqrt(x . Sigma_bar^-1 x) with Sigma_bar^-1 x from dpotrs (two
    # triangular solves) gives them to within 1e-12 relative, and the arms
    # are the ones those widths pick wherever the two best UCB scores are no
    # near-tie.  The ridge factor and estimate from dposv are the bits of
    # dpotrf and dpotrs, and the contexts are left unmodified.
    rng = np.random.default_rng(seed)
    s = est.init(d, R)
    for _ in range(n):
        est.update(s, rng.standard_normal((R, d)), rng.standard_normal(R))
    cfg = PolicyConfig("linucb", delta=0.1)
    X = rng.standard_normal((R, K, d))
    before = X.tobytes()
    L, theta = _ridge(s, cfg.lambda_reg)
    widths = _widths(L, X)
    arms = linucb_select(s, cfg, X)
    assert X.tobytes() == before
    beta = confidence_radius(s, cfg)
    for r in range(R):
        ref_L, info = lapack.dpotrf(s.sigma[r] + cfg.lambda_reg * np.eye(d),
                                    lower=1, clean=0)
        assert info == 0
        assert np.tril(L[r]).tobytes() == np.tril(ref_L).tobytes()
        assert theta[r].tobytes() == lapack.dpotrs(ref_L, s.b[r], lower=1)[0].tobytes()
        W = lapack.dpotrs(ref_L, X[r].T, lower=1)[0].T
        ref = np.sqrt(np.maximum(np.einsum("ij,ij->i", X[r], W), 0.0))
        np.testing.assert_allclose(widths[r], ref, rtol=1e-12, atol=0)
        ucb = X[r] @ theta[r] + beta[r] * ref
        top = np.sort(ucb)[::-1]
        if K == 1 or top[0] - top[1] > 1e-9 * abs(top[0]):
            assert arms[r] == ucb.argmax()


class TestLints:
    def test_vanishing_scale_agrees_with_ridge(self, rng):
        s = est.init(3)
        for _ in range(15):
            est.update(s, [rng.standard_normal(3)], [rng.standard_normal()])
        cfg = PolicyConfig("lints", v_scale=1e-6, delta=0.1)
        ridge = np.linalg.solve(s.sigma[0] + np.eye(3), s.b[0])
        agree = 0
        n = 1000
        for _ in range(n):
            cs = rng.standard_normal((4, 3))[None]
            if lints_select(s, cfg, cs, [rng]) == greedy_select(ridge, cs):
                agree += 1
        assert agree / n > 0.99

    def test_posterior_draw_covariance(self, monkeypatch):
        # A draw is theta_tilde + v_scale L^-T z with Sigma_bar = L L^T and z
        # standard normal, so w = L^T (theta_sample - theta_tilde) / v_scale
        # is standard normal.  Over n draws the entries of the known-mean
        # sample covariance S = mean(w w^T) have standard deviations
        # sqrt((1 + [i == j]) / n); each must lie within 5 of them of the
        # identity, which a correct draw misses with probability about
        # 5.7e-7 per entry, under 4e-6 over the six.  Drawing L^-1 z instead
        # gives w the covariance M = L^T (L^T L)^-1 L, checked below to miss
        # the identity by ten tolerances or more.
        sigma = np.array([[4.0, 3.0, 1.0], [3.0, 4.0, 2.0], [1.0, 2.0, 2.0]])
        b = np.array([1.0, -2.0, 0.5])
        cfg = PolicyConfig("lints", lambda_reg=0.5, v_scale=0.3)
        sigma_bar = sigma + cfg.lambda_reg * np.eye(3)
        L = np.linalg.cholesky(sigma_bar)
        theta_tilde = np.linalg.solve(sigma_bar, b)
        R, calls = 500, 40
        n = R * calls
        tol = 5.0 * np.sqrt((1.0 + np.eye(3)) / n)
        M = L.T @ np.linalg.solve(L.T @ L, L)
        assert (np.abs(M - np.eye(3)) / tol).max() >= 10.0

        s = GramState(sigma=np.broadcast_to(sigma, (R, 3, 3)),
                      b=np.broadcast_to(b, (R, 3)))
        samples, select = [], policies.greedy_select

        def captured(theta, contexts):
            samples.append(np.array(theta))
            return select(theta, contexts)

        monkeypatch.setattr(policies, "greedy_select", captured)
        rngs = np.random.default_rng(26).spawn(R)
        contexts = np.zeros((R, 2, 3))
        for _ in range(calls):
            lints_select(s, cfg, contexts, rngs)
        w = (np.concatenate(samples) - theta_tilde) / cfg.v_scale @ L
        S = w.T @ w / n
        assert (np.abs(S - np.eye(3)) <= tol).all(), S


class TestConfidenceRadius:
    def test_no_data_closed_form(self):
        s = est.init(4)
        cfg = PolicyConfig("linucb", lambda_reg=1.0, delta=0.1, sigma_assumed=0.5)
        # Sigma = 0: logdet(lambda I) - d log(lambda) = 0.
        expected = 0.5 * math.sqrt(2 * math.log(10)) + 1.0
        assert confidence_radius(s, cfg) == pytest.approx(expected)

    def test_sigma_scales_first_term(self):
        s = est.init(3)
        lam = 2.0
        a = PolicyConfig("linucb", lambda_reg=lam, delta=0.05, sigma_assumed=0.5)
        b = PolicyConfig("linucb", lambda_reg=lam, delta=0.05, sigma_assumed=1.0)
        ra = confidence_radius(s, a) - math.sqrt(lam)
        rb = confidence_radius(s, b) - math.sqrt(lam)
        assert rb == pytest.approx(2 * ra)

    def test_determinant_trace_bound_after_updates(self, rng):
        # After n bounded updates the radius respects the trace bound
        # beta <= sigma sqrt(d log(1 + n x_max^2 / (d lambda)) + 2 log(1/delta))
        #         + sqrt(lambda).
        d, n, lam, delta, sig = 3, 100, 1.0, 0.01, 0.5
        x_max = 2.0
        s = est.init(d)
        for _ in range(n):
            x = rng.standard_normal(d)
            x *= min(1.0, x_max / np.linalg.norm(x))
            est.update(s, [x], [0.0])
        cfg = PolicyConfig("linucb", lambda_reg=lam, delta=delta, sigma_assumed=sig)
        bound = sig * math.sqrt(d * math.log(1 + n * x_max**2 / (d * lam))
                                + 2 * math.log(1 / delta)) + math.sqrt(lam)
        assert confidence_radius(s, cfg) <= bound + 1e-12

    @pytest.mark.parametrize("d,lam", [(1, 1.0), (3, 0.5), (20, 1.0), (100, 2.0)])
    def test_factor_logdet_matches_slogdet(self, d, lam, rng):
        s = est.init(d)
        for _ in range(3 * d):
            est.update(s, [rng.standard_normal(d)], [rng.standard_normal()])
        cfg = PolicyConfig("linucb", lambda_reg=lam, delta=0.01, sigma_assumed=0.5)
        sign, logdet = np.linalg.slogdet(s.sigma[0] + lam * np.eye(d))
        width = logdet - d * math.log(lam) + 2 * math.log(1 / 0.01)
        expected = 0.5 * math.sqrt(width) + math.sqrt(lam)
        assert sign > 0
        assert confidence_radius(s, cfg) == pytest.approx(expected, rel=1e-12)

    def test_policy_step_uses_public_radius(self, rng):
        # policy_step shares one factor between the radius and the widths;
        # it must choose what the two public calls choose.
        s = est.init(4)
        cfg = PolicyConfig("linucb", delta=0.05)
        for _ in range(39):
            cs = rng.standard_normal((6, 4))[None]
            beta = confidence_radius(s, cfg)
            arm = policy_step(s, cfg, cs)
            assert arm == linucb_select(s, cfg, cs, beta)
            est.update(s, cs[0, arm], [rng.standard_normal()])

    def test_default_beta_is_confidence_radius(self, rng):
        s = est.init(3, reps=2)
        cfg = PolicyConfig("linucb", delta=0.05)
        for _ in range(8):
            X = rng.standard_normal((2, 3))
            est.update(s, X, rng.standard_normal(2))
        cs = rng.standard_normal((2, 5, 3))
        np.testing.assert_array_equal(
            linucb_select(s, cfg, cs), linucb_select(s, cfg, cs, confidence_radius(s, cfg)))

    def test_unresolved_delta_rejected(self):
        with pytest.raises(ValueError):
            confidence_radius(est.init(2), PolicyConfig("linucb"))
