import math
import tracemalloc

import numpy as np
import pytest

from greedybandit import diagnostics as diag
from greedybandit.contexts import (ball, box, cauchy_spec, gaussian_spec,
                                   laplace_spec, truncate, uniform_ball_spec)
from greedybandit.diagnostics import (UnboundedSupportError, consistency_check,
                                      consistency_curve,
                                      estimate_concentration_params,
                                      estimate_diversity_constant,
                                      estimate_margin_constant, empirical_x_max,
                                      format_report, gram_growth_check,
                                      growth_burn_in, run_diagnostics)
from greedybandit.env import Trajectory, make_instance, run_episode
from greedybandit.policies import PolicyConfig


def synthetic_trajectory(eigs, errs=None):
    n = len(eigs)
    errs = errs if errs is not None else [None] * n
    zeros = np.zeros(n)
    return Trajectory(arm=np.zeros(n, dtype=int), optimal_arm=np.zeros(n, dtype=int),
                      reward=zeros, inst_regret=zeros,
                      est_error_l2=np.array(errs, dtype=float),
                      gram_min_eig=np.asarray(eigs, dtype=float),
                      max_ctx_norm=np.ones(n))


def mp_edge_eigs(lam, d, T):
    """Marchenko-Pastur lower edge lam (sqrt(t) - sqrt(d))^2, zero while
    rank Sigma(t) < d."""
    t = np.arange(1, T + 1)
    return np.where(t >= d, lam * (np.sqrt(t) - np.sqrt(d)) ** 2, 0.0)


class TestDiversity:
    def test_preconditions(self, rng):
        with pytest.raises(ValueError):
            estimate_diversity_constant(gaussian_spec(), 1, 2, 10**3, 32, rng)
        with pytest.raises(ValueError):
            estimate_diversity_constant(gaussian_spec(), 1, 2, 10**4, 16, rng)

    def test_k1_gaussian_plain_variance(self, rng):
        est = estimate_diversity_constant(gaussian_spec(), 1, 1, 10**4, 32, rng)
        assert abs(est.value - 1.0) < 3 * est.std_error

    def test_k2_gaussian_symmetry_identity(self, rng):
        # E[max(X1,X2)^2] = 1 for iid standard normals.
        est = estimate_diversity_constant(gaussian_spec(), 1, 2, 10**5, 32, rng)
        assert abs(est.value - 1.0) < 3 * est.std_error
        assert est.std_error == pytest.approx(math.sqrt(2.0 / 10**5), rel=0.25)

    def test_uniform_ball_positive(self, rng):
        est = estimate_diversity_constant(uniform_ball_spec(1.0), 2, 2, 10**4, 32, rng)
        assert est.value > 0.01

    def test_rotation_invariance_uniform_ball(self):
        # The ball is rotation invariant, so two independent direction sets
        # must agree within Monte-Carlo error.
        a = estimate_diversity_constant(uniform_ball_spec(1.0), 2, 3, 4 * 10**4, 32,
                                        np.random.default_rng(1))
        b = estimate_diversity_constant(uniform_ball_spec(1.0), 2, 3, 4 * 10**4, 32,
                                        np.random.default_rng(2))
        assert abs(a.value - b.value) < 4 * (a.std_error + b.std_error)

    def test_report_fields(self, rng):
        est = estimate_diversity_constant(gaussian_spec(), 2, 2, 10**4, 32, rng)
        assert est.value >= 0.0
        assert est.std_error > 0.0
        assert est.n_dirs_used >= 32
        assert np.linalg.norm(est.worst_direction) == pytest.approx(1.0)


class TestMargin:
    def test_preconditions(self, rng):
        with pytest.raises(ValueError):
            estimate_margin_constant(gaussian_spec(), [1.0], 1, 2, 10**4, rng=rng)
        with pytest.raises(ValueError):
            estimate_margin_constant(gaussian_spec(), [1.0], 1, 1, 10**5, rng=rng)

    def test_uniform_slope_one(self, rng):
        # Unif[-1,1] pairs: the gap density at 0 gives slope 1.
        est = estimate_margin_constant(uniform_ball_spec(1.0), [1.0], 1, 2,
                                       10**5, rng=rng)
        assert 0.9 <= est.slope <= 1.1
        assert not est.degenerate

    def test_gaussian_slope_inv_sqrt_pi(self, rng):
        est = estimate_margin_constant(gaussian_spec(), [1.0], 1, 2, 10**5, rng=rng)
        assert abs(est.slope - 1.0 / math.sqrt(math.pi)) < 0.1 / math.sqrt(math.pi)

    def test_intercept_near_zero(self, rng):
        est = estimate_margin_constant(gaussian_spec(), [1.0], 1, 2, 10**5, rng=rng)
        assert abs(est.intercept) < 3 * est.intercept_se

    def test_probs_monotone(self, rng):
        est = estimate_margin_constant(laplace_spec(), [1.0, 0.0], 2, 3, 10**5, rng=rng)
        assert np.all(np.diff(est.probs) >= 0.0)

    def test_degenerate_flagged(self, rng):
        # Blow the scale up so no gap lands below 0.1 among 1e5 draws.
        est = estimate_margin_constant(uniform_ball_spec(1e7), [1.0], 1, 2,
                                       10**5, rng=rng)
        assert est.degenerate
        assert est.slope == 0.0


class TestConcentration:
    def test_unbounded_rejected(self, rng):
        with pytest.raises(UnboundedSupportError):
            estimate_concentration_params(gaussian_spec(), 2, 2, 10**4, 32, 0.9,
                                          rng=rng)

    def test_uniform_ball_k1_median_zero(self, rng):
        est = estimate_concentration_params(uniform_ball_spec(1.0), 2, 1,
                                            2 * 10**4, 32, 0.5, rng=rng)
        # Median of a symmetric projection is 0 up to MC error.
        assert est.raw_c_star <= 3 * max(est.quantile_se, 1e-3)
        assert est.c_star >= 0.0
        assert est.p_star == 0.5

    def test_truncation_caps_quantile_ratio(self, rng):
        # P[||X|| <= R'] = p for the base spec; after truncation to R' + r
        # the p-quantile of the projection is at most R', so
        # c_star <= R' / (R' + r).
        base = gaussian_spec(mean=np.zeros(2))
        X = np.vstack([rng.standard_normal((10**5, 2))])
        p = 0.7
        r_prime = float(np.quantile(np.linalg.norm(X, axis=1), p))
        r_extra = 1.0
        tspec = truncate(base, ball(r_prime + r_extra))
        est = estimate_concentration_params(tspec, 2, 1, 2 * 10**4, 32, p, rng=rng)
        assert est.c_star <= r_prime / (r_prime + r_extra) + 3 * est.quantile_se
        assert est.p_star == p
        assert est.radius == pytest.approx(r_prime + r_extra)

    def test_ball_k_scaling_inequality(self, rng):
        # 1 - c_star >= c K^(-2/(d+1)) at d=2.  A 1e6-draw oracle measured
        # (1 - c_star) K^(2/3) ~ 1.06-1.10 at p=0.5 and ~ 0.314 at p=0.9;
        # frozen safe lower bounds below.
        d = 2
        for target_p, c in ((0.5, 1.0), (0.9, 0.30)):
            for K in (2, 8, 32):
                est = estimate_concentration_params(uniform_ball_spec(1.0), d, K,
                                                    2 * 10**4, 32, target_p, rng=rng)
                assert 1.0 - est.c_star >= c * K ** (-2.0 / (d + 1))

    def test_c_star_within_unit_interval(self, rng):
        est = estimate_concentration_params(uniform_ball_spec(1.0), 2, 64,
                                            10**4, 32, 0.99, rng=rng)
        assert 0.0 <= est.c_star <= 1.0


class TestConsistency:
    def test_curve_skips_unidentified_rounds(self):
        errs = [None, None, 0.5, 0.25]
        traj = synthetic_trajectory([0, 0, 1, 2], errs)
        curve = consistency_curve(traj)
        assert curve[0] == (3, math.sqrt(3) * 0.5)
        assert len(curve) == 2

    def test_exact_recovery_flat_zero(self, rng):
        inst = make_instance(gaussian_spec(), 3, 3, 0.0, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.ones(3)), 150, [5])[0]
        assert all(v < 1e-8 for t, v in consistency_curve(traj))
        rep = consistency_check(traj, t_min=100, t_max=150)
        assert rep.passed and rep.max_over_median == 1.0

    def test_bounded_ratio_gaussian(self, rng):
        inst = make_instance(gaussian_spec(), 5, 5, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.ones(5)),
                           1000, [5])[0]
        rep = consistency_check(traj)
        assert rep.passed, rep.max_over_median

    def test_sigma_doubling_doubles_plateau(self):
        # Median normalized error scales linearly in sigma (within factor 3
        # over 10 seeds).
        plateaus = {}
        for sigma in (0.5, 1.0):
            meds = []
            for seed in range(10):
                rng = np.random.default_rng(1000 + seed)
                inst = make_instance(gaussian_spec(), 5, 5, sigma, rng)
                traj = run_episode(inst,
                                   PolicyConfig("greedy", theta0=np.ones(5)),
                                   400, [seed])[0]
                vals = [v for t, v in consistency_curve(traj) if t >= 100]
                meds.append(np.median(vals))
            plateaus[sigma] = np.mean(meds)
        ratio = plateaus[1.0] / plateaus[0.5]
        assert 2.0 / 3.0 < ratio / 2.0 < 3.0 / 2.0

    def test_empty_window_fails(self):
        traj = synthetic_trajectory([1.0] * 10)
        rep = consistency_check(traj)
        assert not rep.passed and rep.n_points == 0


class TestGramGrowth:
    def test_axis_cycling_passes(self):
        # x alternating e1, e2 gives lambda_min = floor(t/2) >= t/4.
        eigs = [math.floor((i + 1) / 2) for i in range(200)]
        rep = gram_growth_check(synthetic_trajectory(eigs), 1.0, t0=50)
        assert rep.passed and rep.fraction == 1.0
        assert rep.threshold_slope == 0.25

    def test_single_direction_fails(self):
        rep = gram_growth_check(synthetic_trajectory([0.0] * 200), 0.1, t0=50)
        assert not rep.passed and rep.fraction == 0.0
        assert rep.last_violation == 200

    def test_gaussian_episode_passes(self, rng):
        inst = make_instance(gaussian_spec(), 3, 4, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.ones(3)), 400, [2])[0]
        lam = estimate_diversity_constant(gaussian_spec(), 3, 4, 10**4, 32, rng)
        rep = gram_growth_check(traj, lam.value, t0=50)
        assert rep.passed, (rep.fraction, rep.last_violation)

    def test_t0_window(self):
        eigs = [0.0] * 49 + [100.0] * 51
        rep = gram_growth_check(synthetic_trajectory(eigs), 1.0, t0=50)
        assert rep.n_checked == 51 and rep.passed

    def test_empty_window(self):
        rep = gram_growth_check(synthetic_trajectory([1.0] * 10), 1.0, t0=50)
        assert not rep.passed and rep.n_checked == 0

    def test_burn_in_rule(self):
        assert growth_burn_in(2) == 50
        assert growth_burn_in(20) == 80
        assert growth_burn_in(100) == 400

    def test_mp_edge_fails_from_t50(self):
        # Rounds 50..399 sit below lambda t / 4: 350 of 951 checked.
        traj = synthetic_trajectory(mp_edge_eigs(1.0, 100, 1000))
        rep = gram_growth_check(traj, 1.0, t0=50)
        assert not rep.passed
        assert rep.n_checked == 951 and rep.last_violation == 399
        assert rep.fraction == pytest.approx(601 / 951)

    def test_mp_edge_passes_after_burn_in(self):
        traj = synthetic_trajectory(mp_edge_eigs(1.0, 100, 1000))
        rep = gram_growth_check(traj, 1.0, t0=growth_burn_in(100))
        assert rep.passed and rep.fraction == 1.0
        assert rep.n_checked == 601 and rep.last_violation is None

    def test_half_rate_fails_after_burn_in(self):
        t = np.arange(1, 1001)
        eigs = np.where(t >= 100, t / 8.0, 0.0)  # lambda t / 8: half the threshold
        rep = gram_growth_check(synthetic_trajectory(eigs), 1.0,
                                t0=growth_burn_in(100))
        assert not rep.passed and rep.fraction == 0.0
        assert rep.last_violation == 1000


class TestComposite:
    def test_empirical_x_max_ball(self, rng):
        spec = uniform_ball_spec(2.0)
        xm = empirical_x_max(spec, 3, 4, 10**4, rng)
        assert 1.5 < xm <= 2.0 + 1e-9

    def test_run_diagnostics_and_format(self, rng):
        spec = uniform_ball_spec(2.0)
        inst = make_instance(spec, 2, 3, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.ones(2)), 200, [4])[0]
        rep = run_diagnostics(spec, 2, 3, inst.theta_star, traj, rng)
        assert rep.constants.diversity.value >= 0.0
        assert 0.0 <= rep.constants.concentration.p_star <= 1.0
        assert 0.0 <= rep.constants.concentration.c_star <= 1.0
        text = format_report(rep)
        for key in ("lambda_star_hat", "c_delta_hat", "c_star_hat",
                    "gram growth", "sqrt(t) error", "x_max_hat"):
            assert key in text

    def test_run_diagnostics_growth_window_starts_after_burn_in(self, rng):
        spec = gaussian_spec()
        inst = make_instance(spec, 20, 2, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.ones(20)),
                           100, [4])[0]
        rep = run_diagnostics(spec, 20, 2, inst.theta_star, traj, rng)
        assert rep.growth.t0 == growth_burn_in(20) == 80
        assert "of the 21 rounds t >= 80" in format_report(rep)

    def test_run_diagnostics_unbounded_spec(self, rng):
        spec = gaussian_spec()
        inst = make_instance(spec, 2, 3, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.ones(2)), 150, [4])[0]
        rep = run_diagnostics(spec, 2, 3, inst.theta_star, traj, rng)
        assert rep.constants.concentration is None
        assert "undefined" in format_report(rep)


# ---------------------------------------------------------------------------
# Block scorer against the per-direction loop it replaced


def loop_diversity(spec, d, K, n_mc, n_dirs, rng):
    """(lambda, se, theta) of the worst direction, scoring one direction at a
    time with pool @ theta."""
    pool = diag._sample_pool(spec, d, K, n_mc, rng)
    dirs = diag._direction_set(d, n_dirs, rng)
    n = pool.shape[0]
    rows = np.arange(n)
    best = None
    for theta in dirs:
        chosen = pool[rows, np.argmax(pool @ theta, axis=1)]
        eigvals, eigvecs = np.linalg.eigh(chosen.T @ chosen / n)
        lam = float(eigvals[0])
        if best is None or lam < best[0]:
            best = (lam, diag._batch_se((chosen @ eigvecs[:, 0]) ** 2), theta)
    return best


def loop_raw_c_star(spec, d, K, n_mc, n_dirs, target_p, rng):
    """Worst target_p-quantile of max_i x_i^T eta over the radius, one
    direction at a time."""
    pool = diag._sample_pool(spec, d, K, n_mc, rng)
    dirs = diag._direction_set(d, n_dirs, rng)
    worst = max(np.quantile(np.max(pool @ eta, axis=1), target_p) for eta in dirs)
    return worst / diag.support_radius(spec, d)


def loop_x_max(spec, d, K, n_mc, rng):
    pool = diag._sample_pool(spec, d, K, n_mc, rng)
    return float(np.quantile(np.linalg.norm(pool, axis=2).max(axis=1), 1.0 - 1e-4))


SCORER_SPECS = {
    "gaussian": lambda d: gaussian_spec(cov=1.0, rho=0.7),
    "uniform-ball": lambda d: uniform_ball_spec(radius=math.sqrt(d)),
    "trunc-cauchy": lambda d: cauchy_spec(truncation=box(-5.0, 5.0)),
}


class TestBlockScorer:
    # d = 1 has the two axis directions, scored in one block; at d = 20 the
    # 72 directions fall into blocks of 2.
    @pytest.mark.parametrize("K", [1, 3, 20])
    @pytest.mark.parametrize("d", [1, 20])
    @pytest.mark.parametrize("name", sorted(SCORER_SPECS))
    def test_matches_per_direction_loop(self, name, d, K):
        spec = SCORER_SPECS[name](d)
        seed = 1000 * d + K
        div = estimate_diversity_constant(spec, d, K, 10**4, 32,
                                          np.random.default_rng(seed))
        lam, se, theta = loop_diversity(spec, d, K, 10**4, 32,
                                        np.random.default_rng(seed))
        # The GEMM rounds some sphere-direction scores differently from
        # pool @ theta, but no argmax moves, so diversity is bit-equal.
        assert (div.value, div.std_error) == (lam, se)
        assert div.worst_direction.tobytes() == theta.tobytes()
        assert empirical_x_max(spec, d, K, 10**4, np.random.default_rng(seed)) == \
            loop_x_max(spec, d, K, 10**4, np.random.default_rng(seed))
        if name == "gaussian":
            return
        conc = estimate_concentration_params(spec, d, K, 2000, 32, 0.9,
                                             rng=np.random.default_rng(seed))
        raw = loop_raw_c_star(spec, d, K, 2000, 32, 0.9, np.random.default_rng(seed))
        # Concentration reads the score maxima themselves: a d-term dot
        # product summed in another order moves by a few ulps at most.
        assert conc.raw_c_star == pytest.approx(raw, rel=8 * d * np.finfo(float).eps,
                                                abs=0.0)


class TestMemory:
    # d20-k20 gaussian: one (n_mc, K, d) pool is 32 MB.  Each estimator holds
    # it once, with score blocks, norm chunks and margin chunks far smaller;
    # a map that copies the draw, or a full-pool temporary, reaches 2x.
    @pytest.mark.parametrize("name", ["diversity", "margin", "x_max"])
    def test_peak_below_one_and_a_third_pools(self, name):
        spec, d, K, n_mc = gaussian_spec(cov=1.0, rho=0.7), 20, 20, 10**4
        theta = np.full(d, 1.0 / math.sqrt(d))
        calls = {
            "diversity": lambda rng: estimate_diversity_constant(spec, d, K, n_mc, 32, rng),
            "margin": lambda rng: estimate_margin_constant(spec, theta, d, K, 10 * n_mc,
                                                           rng=rng),
            "x_max": lambda rng: empirical_x_max(spec, d, K, n_mc, rng),
        }
        tracemalloc.start()
        try:
            calls[name](np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * n_mc * K * d * 8, f"peak {peak / (n_mc * K * d * 8):.2f} pools"
