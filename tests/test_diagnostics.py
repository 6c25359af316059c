import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from greedybandit import diagnostics as diag
from greedybandit.contexts import (ball, box, cauchy_spec, exponential_spec,
                                   gaussian_spec, laplace_spec, student_t_spec,
                                   truncate, uniform_ball_spec)
from greedybandit.diagnostics import (UnboundedSupportError, consistency_check,
                                      estimate_concentration_params,
                                      estimate_diversity_constant,
                                      estimate_margin_constant, empirical_x_max,
                                      format_report, gram_growth_check,
                                      growth_burn_in, run_diagnostics)
from greedybandit.env import Trajectory, run_episode
from greedybandit.policies import PolicyConfig

from conftest import consistency_curve, load_perfbench, make_instance


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

    def test_probs_monotone(self, rng):
        est = estimate_margin_constant(laplace_spec(), [1.0, 0.0], 2, 3, 10**5, rng=rng)
        assert np.all(np.diff(est.probs) >= 0.0)

    def test_degenerate_flagged(self, rng):
        # Blow the scale up so no gap lands below 0.1 among 1e5 draws.
        est = estimate_margin_constant(uniform_ball_spec(1e7), [1.0], 1, 2,
                                       10**5, rng=rng)
        assert est.degenerate
        assert est.slope == 0.0

    def test_degenerate_noted_in_report(self, rng):
        # c_delta_hat prints 0.000000 either way; only the note tells a
        # degenerate margin from a small slope.
        constants = diag.estimate_constants(uniform_ball_spec(1e7), 1, 2, [1.0], rng)
        text = format_report(diag.check_trajectory(
            constants, synthetic_trajectory(np.arange(1.0, 201.0))))
        assert constants.margin.degenerate
        assert "note: margin degenerate: no Monte-Carlo gap fell at or below " \
            "eps = 0.1" in text

    @pytest.mark.parametrize("theta,match", [
        ([np.nan, 0.5], r"^theta_star must be finite$"),
        ([0.5, np.inf], r"^theta_star must be finite$"),
        ([1.0, 0.0, 0.0], r"^theta_star must have shape \(2,\), got \(3,\)$"),
        ([[1.0, 0.0]], r"^theta_star must have shape \(2,\), got \(1, 2\)$"),
    ], ids=["nan", "inf", "long", "row"])
    @pytest.mark.parametrize("spec", [gaussian_spec(), laplace_spec()],
                             ids=["gaussian", "laplace"])
    def test_theta_star_rejected_before_any_draw(self, spec, theta, match):
        # A NaN entry used to draw the whole pool and return a degenerate
        # slope of 0; a wrong length failed inside matmul.
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ValueError, match=match):
            estimate_margin_constant(spec, theta, 2, 3, 10**5, rng)
        with pytest.raises(ValueError, match=match):
            diag.estimate_constants(spec, 2, 3, theta, rng)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        assert rng.random() == twin.random()


class TestScoreGaps:
    # An untruncated gaussian's margin draws K scores per context set, not
    # K vectors: x_i^T theta ~ N(mu^T theta, theta^T C theta) iid over arms.
    def test_k2_slope_closed_form(self):
        # The gap of two iid N(., s^2) scores is |N(0, 2 s^2)|, of density
        # 1 / (sqrt(pi) s) at 0.  Here s = 3.78, where |theta| = 1 and
        # |L theta| = 2.25 would put the slope 0.564 and 0.250.
        d = 20
        spec, theta = gaussian_spec(cov=1.0, rho=0.7), np.full(d, 1.0 / math.sqrt(d))
        s = math.sqrt(theta @ (0.3 * np.eye(d) + 0.7) @ theta)
        est = estimate_margin_constant(spec, theta, d, 2, 10**5,
                                       np.random.default_rng(0))
        assert abs(est.slope - 1.0 / (math.sqrt(math.pi) * s)) < 5 * est.slope_se

    def test_matches_vector_pool(self):
        # A non-zero mean and a full non-diagonal covariance: the score
        # slope agrees with the slope of the vector pool's gaps.
        d, K = 4, 5
        A = np.random.default_rng(1).standard_normal((d, d))
        spec = gaussian_spec(mean=np.array([3.0, -1.0, 0.5, 2.0]),
                             cov=A @ A.T + 0.5 * np.eye(d))
        theta = np.array([0.1, 0.2, -0.15, 0.05])
        scores = estimate_margin_constant(spec, theta, d, K, 10**5,
                                          np.random.default_rng(2))
        chunks = diag._pool_chunks(spec, d, K, 10**5, np.random.default_rng(3))
        gaps = np.concatenate([np.diff(np.sort(c @ theta, axis=1)[:, -2:], axis=1)[:, 0]
                               for c in chunks])
        vectors = diag._fit_margin(gaps)
        assert not scores.degenerate and not vectors.degenerate
        assert abs(scores.slope - vectors.slope) < 4 * math.hypot(scores.slope_se,
                                                                  vectors.slope_se)

    @pytest.mark.parametrize("floats", [1, 7, 60, 2**12])
    def test_chunk_size_keeps_bits(self, monkeypatch, floats):
        # A buffer of 1 or 7 floats holds one context set of K = 20.
        spec, d, K = gaussian_spec(mean=1.5, cov=2.0, rho=0.3), 6, 20
        theta = np.linspace(-1.0, 1.0, d)

        def estimate():
            return estimate_margin_constant(spec, theta, d, K, 10**5 + 3,
                                            np.random.default_rng(4))

        whole = float_hexes(estimate())
        monkeypatch.setattr(diag, "_CHUNK_FLOATS", floats)
        assert float_hexes(estimate()) == whole

    def test_draws_scores_not_pool(self, pool_sets):
        spec, d, K, n_mc = gaussian_spec(cov=1.0, rho=0.7), 20, 20, 10**5
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        estimate_margin_constant(spec, np.full(d, 0.2), d, K, n_mc, rng)
        twin.standard_normal(n_mc * K)
        assert pool_sets == []
        assert rng.random() == twin.random()


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
        rep = consistency_check(traj, t_max=150)
        assert rep.passed and rep.max_over_median == 1.0

    def test_bounded_ratio_gaussian(self, rng):
        inst = make_instance(gaussian_spec(), 5, 5, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.ones(5)),
                           1000, [5])[0]
        rep = consistency_check(traj, t_max=1000)
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
        rep = consistency_check(traj, t_max=1000)
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

    @pytest.mark.parametrize("name,size,floor", [
        ("diversity", "n_mc", diag.N_MC_DIVERSITY),
        ("diversity", "n_dirs", diag.N_DIRS),
        ("margin", "n_mc", diag.N_MC_MARGIN),
        ("concentration", "n_mc", diag.N_MC_DIVERSITY),
        ("concentration", "n_dirs", diag.N_DIRS),
        ("x_max", "n_mc", diag.N_MC_DIVERSITY),
    ])
    @pytest.mark.parametrize("below", ["zero", "one-below"])
    def test_monte_carlo_floors(self, rng, name, size, floor, below):
        # Every estimator rejects a pool or direction set below the floor
        # the module states, naming the size.  empirical_x_max's
        # 1 - 1e-4 quantile needs 10^4 sets; its n_mc = 0 used to raise a
        # bare IndexError from np.quantile.
        spec, theta = uniform_ball_spec(2.0), np.full(3, 1.0 / math.sqrt(3))
        sizes = {"n_mc": diag.N_MC_MARGIN, "n_dirs": diag.N_DIRS,
                 size: 0 if below == "zero" else floor - 1}
        n_mc, n_dirs = sizes["n_mc"], sizes["n_dirs"]
        call = {
            "diversity": lambda: estimate_diversity_constant(
                spec, 3, 4, n_mc, n_dirs, rng),
            "margin": lambda: estimate_margin_constant(spec, theta, 3, 4, n_mc, rng=rng),
            "concentration": lambda: estimate_concentration_params(
                spec, 3, 4, n_mc, n_dirs, 0.9, rng=rng),
            "x_max": lambda: empirical_x_max(spec, 3, 4, n_mc, rng),
        }[name]
        with pytest.raises(ValueError, match=f"^{size} must be >= {floor}$"):
            call()

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
# The benchmark's sidecar check reads format_report's lines


@pytest.mark.parametrize("eigs,problems", [
    (np.arange(1.0, 201.0), []),
    (np.zeros(200), ["diagnostics.txt: gram growth does not pass"]),
], ids=["pass", "growth-fails"])
def test_benchmark_sidecar_check_reads_report(tmp_path, eigs, problems):
    # A sidecar edit that moved the lambda_star_hat or gram growth line
    # would fail the benchmark's check of every run; it fails here first.
    constants = diag.ConstantEstimates(
        d=2,
        diversity=diag.DiversityEstimate(value=0.3, std_error=1e-3,
                                         worst_direction=np.eye(2)[0], n_dirs_used=36),
        margin=diag.MarginEstimate(slope=0.5, slope_se=1e-3, degenerate=False,
                                   probs=np.linspace(0.005, 0.05, 10)),
        concentration=None, x_max=3.0)
    report = diag.check_trajectory(constants, synthetic_trajectory(eigs))
    path = tmp_path / "diagnostics.txt"
    path.write_text(format_report(report), encoding="utf-8")
    assert load_perfbench("checks").check_sidecar(path) == problems


# ---------------------------------------------------------------------------
# Pool chunks


STREAM_SPECS = {
    "correlated-gaussian": gaussian_spec(cov=1.0, rho=0.7),
    "laplace": laplace_spec(loc=0.5, scale=2.0),
    "exponential": exponential_spec(rate=1.5),
    "student-t": student_t_spec(3.0),
    "cauchy": cauchy_spec(),
    "box-cauchy": cauchy_spec(truncation=box(-5.0, 5.0)),
}


def chunk_sets(d, K):
    """Context sets in a full chunk of a (n, K, d) pool."""
    return max(1, diag._CHUNK_FLOATS // (K * d))


class TestPoolStream:
    # Each family's primitive draw is one sequential stream, so the chunks
    # of a pool are its one-shot draw cut at chunk boundaries.  n_mc is one
    # set more than two full chunks hold, so it takes three, of unequal size.
    @pytest.mark.parametrize("K", [1, 3, 20])
    @pytest.mark.parametrize("d", [1, 5, 20, 100])
    @pytest.mark.parametrize("name", sorted(STREAM_SPECS))
    def test_chunks_concatenate_to_one_shot_pool(self, name, d, K):
        spec, m = STREAM_SPECS[name], chunk_sets(d, K)
        n_mc = 2 * m + 1
        one_shot, chunked = np.random.default_rng(d * K), np.random.default_rng(d * K)
        pool = diag._sample_pool(spec, d, K, n_mc, one_shot)
        chunks = list(diag._pool_chunks(spec, d, K, n_mc, chunked))
        sizes = [c.shape[0] for c in chunks]
        assert len(sizes) == 3 and sum(sizes) == n_mc and max(sizes) <= m
        assert np.concatenate(chunks).tobytes() == pool.tobytes()
        assert chunked.random() == one_shot.random()


# ---------------------------------------------------------------------------
# Random streams


@pytest.fixture
def pool_sets(monkeypatch):
    """The sizes of every _sample_pool draw, in context sets."""
    drawn, sample = [], diag._sample_pool

    def counted(spec, d, K, n_mc, rng):
        drawn.append(n_mc)
        return sample(spec, d, K, n_mc, rng)

    monkeypatch.setattr(diag, "_sample_pool", counted)
    return drawn


class TestPassCount:
    # At d2-k3 and n_mc = 10^4 the worst direction of the correlated
    # gaussian at seed 0 is a sphere draw, that of the laplace at seed 1 an
    # axis.  Either way diversity draws its pool twice.
    @pytest.mark.parametrize("spec,seed,on_axis", [
        (gaussian_spec(cov=1.0, rho=0.7), 0, False),
        (laplace_spec(), 1, True),
    ], ids=["sphere-worst", "axis-worst"])
    def test_diversity_draws_two_pools(self, pool_sets, spec, seed, on_axis):
        est = estimate_diversity_constant(spec, 2, 3, 10**4, 32,
                                          np.random.default_rng(seed))
        assert (np.count_nonzero(est.worst_direction) == 1) == on_axis
        assert sum(pool_sets) == 2 * 10**4

    @pytest.mark.parametrize("name", ["margin", "concentration", "x_max"])
    def test_other_estimators_draw_one_pool(self, pool_sets, name):
        estimator_calls(uniform_ball_spec(1.0), 2, 3, 10**4)[name](
            np.random.default_rng(0))
        assert sum(pool_sets) == (10**5 if name == "margin" else 10**4)


def float_hexes(estimate):
    """float.hex of every number in an estimate, field by field."""
    values = dataclasses.astuple(estimate) if dataclasses.is_dataclass(estimate) \
        else (estimate,)
    return [float(x).hex() for v in values for x in np.ravel(v)]


def test_each_estimator_on_its_own_child():
    spec, d, K, theta = uniform_ball_spec(1.0), 3, 4, np.full(3, 1.0 / math.sqrt(3))
    together = diag.estimate_constants(spec, d, K, theta, np.random.default_rng(5))
    div_rng, margin_rng, conc_rng, x_max_rng = np.random.default_rng(5).spawn(4)
    alone = {
        "diversity": estimate_diversity_constant(spec, d, K, diag.N_MC_DIVERSITY,
                                                 diag.N_DIRS, div_rng),
        "margin": estimate_margin_constant(spec, theta, d, K, diag.N_MC_MARGIN,
                                           margin_rng),
        "concentration": estimate_concentration_params(
            spec, d, K, diag.N_MC_DIVERSITY, diag.N_DIRS, diag.TARGET_P, conc_rng),
        "x_max": empirical_x_max(spec, d, K, diag.N_MC_DIVERSITY, x_max_rng),
    }
    for name, estimate in alone.items():
        assert float_hexes(getattr(together, name)) == float_hexes(estimate), name


# ---------------------------------------------------------------------------
# Block scorer against the per-direction loop it replaced


def whole_pool(spec, d, K, n_mc, rng):
    """The estimators' pool held at once: its chunks concatenated, which is
    _sample_pool's one-shot draw for every family TestPoolStream covers."""
    return np.concatenate(list(diag._pool_chunks(spec, d, K, n_mc, rng)))


def loop_diversity(spec, d, K, n_mc, n_dirs, rng):
    """(lambda, se, theta, M) of the worst direction, scoring one direction
    at a time with pool @ theta on the whole pool, drawn from the seed that
    follows the directions."""
    dirs = diag._direction_set(d, n_dirs, rng)
    seed = int(rng.integers(2**63))
    pool = whole_pool(spec, d, K, n_mc, np.random.default_rng(seed))
    n = pool.shape[0]
    rows = np.arange(n)
    best = None
    for theta in dirs:
        chosen = pool[rows, np.argmax(pool @ theta, axis=1)]
        M = chosen.T @ chosen / n
        eigvals, eigvecs = np.linalg.eigh(M)
        lam = float(eigvals[0])
        if best is None or lam < best[0]:
            best = (lam, diag._batch_se((chosen @ eigvecs[:, 0]) ** 2), theta, M)
    return best


def loop_raw_c_star(spec, d, K, n_mc, n_dirs, target_p, rng):
    """Worst target_p-quantile of max_i x_i^T eta over the radius, one
    direction at a time."""
    dirs = diag._direction_set(d, n_dirs, rng)
    pool = whole_pool(spec, d, K, n_mc, rng)
    worst = max(np.quantile(np.max(pool @ eta, axis=1), target_p) for eta in dirs)
    return worst / diag.support_radius(spec, d)


def loop_x_max(spec, d, K, n_mc, rng):
    pool = whole_pool(spec, d, K, n_mc, rng)
    return float(np.quantile(np.linalg.norm(pool, axis=2).max(axis=1), 1.0 - 1e-4))


SCORER_SPECS = {
    "gaussian": lambda d: gaussian_spec(cov=1.0, rho=0.7),
    "uniform-ball": lambda d: uniform_ball_spec(radius=math.sqrt(d)),
    "trunc-cauchy": lambda d: cauchy_spec(truncation=box(-5.0, 5.0)),
}


@pytest.mark.parametrize("d", [1, 2, 20, 100])
def test_direction_set_in_scored_order(d):
    rng, twin = np.random.default_rng(d), np.random.default_rng(d)
    dirs = diag._direction_set(d, 32, rng)
    sphere = twin.standard_normal((32, d))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    axes = np.vstack([np.eye(d), -np.eye(d)])
    assert dirs[:2 * d].tobytes() == axes.tobytes()
    # At d = 1 every sphere draw is one of the two axes.
    assert dirs[2 * d:].tobytes() == (b"" if d == 1 else sphere.tobytes())
    assert rng.random() == twin.random()
    # Row j of _scored_blocks scores dirs[j]: the axes exactly, the sphere
    # draws up to the GEMM's rounding.
    chunk = np.random.default_rng(0).standard_normal((50, 3, d))
    scores = np.full((dirs.shape[0], 50), np.nan)
    for j, block in diag._scored_blocks(chunk, dirs, np.max):
        scores[j:j + len(block)] = block
    direct = np.max(chunk @ dirs.T, axis=1).T
    assert scores[:2 * d].tobytes() == direct[:2 * d].tobytes()
    np.testing.assert_allclose(scores, direct, rtol=1e-12, atol=1e-12)


class TestBlockScorer:
    # d = 1 has the two axis directions, scored in one block; at d = 20 the
    # 72 directions fall into blocks of 2.  Only the d = 20 pools at K = 3
    # and K = 20 span more than one chunk (2 and 8).
    @pytest.mark.parametrize("K", [1, 3, 20])
    @pytest.mark.parametrize("d", [1, 20])
    @pytest.mark.parametrize("name", sorted(SCORER_SPECS))
    def test_matches_per_direction_loop(self, name, d, K):
        spec = SCORER_SPECS[name](d)
        seed = 1000 * d + K
        div = estimate_diversity_constant(spec, d, K, 10**4, 32,
                                          np.random.default_rng(seed))
        lam, se, theta, M = loop_diversity(spec, d, K, 10**4, 32,
                                           np.random.default_rng(seed))
        # The GEMM rounds some sphere-direction scores differently from
        # pool @ theta, but no argmax moves, so the worst direction is the
        # same and a one-chunk pool gives a bit-equal value and error.  Each
        # further chunk adds one rounding of a partial sum of x_a x_a^T, at
        # most eps * sum_s |x_si x_sj| / n <= eps * sqrt(M_ii M_jj) per entry
        # (Cauchy-Schwarz), so ||dM||_F <= (c - 1) eps tr(M).  Weyl bounds
        # the eigenvalue's move by that, and Davis-Kahan the bottom
        # eigenvector's angle by it over the gap lambda_2 - lambda_1, which
        # bounds the relative move of the error (x_a^T v)^2 is averaged from.
        c = -(-10**4 // chunk_sets(d, K))
        eigvals = np.linalg.eigvalsh(M)
        bound = (c - 1) * np.finfo(float).eps * np.trace(M)
        assert abs(div.value - lam) <= bound
        gap = eigvals[1] - eigvals[0] if d > 1 else np.inf
        assert abs(div.std_error - se) <= bound / gap * se
        assert div.worst_direction.tobytes() == theta.tobytes()
        assert empirical_x_max(spec, d, K, 10**4, np.random.default_rng(seed)) == \
            loop_x_max(spec, d, K, 10**4, np.random.default_rng(seed))
        if name == "gaussian":
            return
        conc = estimate_concentration_params(spec, d, K, 10**4, 32, 0.9,
                                             rng=np.random.default_rng(seed))
        raw = loop_raw_c_star(spec, d, K, 10**4, 32, 0.9, np.random.default_rng(seed))
        # Concentration reads the score maxima themselves: a d-term dot
        # product summed in another order moves by a few ulps at most.
        assert conc.raw_c_star == pytest.approx(raw, rel=8 * d * np.finfo(float).eps,
                                                abs=0.0)


CHUNK_BYTES = diag._CHUNK_FLOATS * 8


def traced_peak(call):
    tracemalloc.start()
    try:
        call(np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def estimator_calls(spec, d, K, n_mc):
    """Each estimator at n_mc pool sets (the margin at 10 n_mc gaps)."""
    theta = np.full(d, 1.0 / math.sqrt(d))
    return {
        "diversity": lambda rng: estimate_diversity_constant(spec, d, K, n_mc, 32, rng),
        "margin": lambda rng: estimate_margin_constant(spec, theta, d, K, 10 * n_mc,
                                                       rng=rng),
        "concentration": lambda rng: estimate_concentration_params(
            spec, d, K, n_mc, 32, 0.9, rng=rng),
        "x_max": lambda rng: empirical_x_max(spec, d, K, n_mc, rng),
    }


class TestMemory:
    # An estimator holds one chunk of its pool (4 MB) and chunk-sized
    # temporaries, never the pool: on d20-k20 a 10^4-set pool is 7.6 chunks,
    # on d100-k20 38.  Concentration also keeps its (directions, n_mc) score
    # maxima, and diversity every direction's (2d + 32, d, d) second
    # moments, 18.6 MB at d = 100: the d100 bound allows for the signed
    # axes' (2d, d, d), so the sphere directions' 2.6 MB come out of its
    # three chunks.
    @pytest.mark.parametrize("name", ["diversity", "margin", "x_max"])
    def test_gaussian_peak_in_chunks(self, name):
        call = estimator_calls(gaussian_spec(cov=1.0, rho=0.7), 20, 20, 10**4)[name]
        peak = traced_peak(call)
        assert peak < 2.5 * CHUNK_BYTES, f"peak {peak / CHUNK_BYTES:.2f} chunks"

    def test_x_max_squares_no_whole_chunk(self):
        # x_max squares an eighth of its chunk at a time (1.14 chunks);
        # linalg.norm's chunk-sized square read 2.02.
        call = estimator_calls(gaussian_spec(cov=1.0, rho=0.7), 20, 20, 10**4)["x_max"]
        peak = traced_peak(call)
        assert peak < 1.5 * CHUNK_BYTES, f"peak {peak / CHUNK_BYTES:.2f} chunks"

    def test_uniform_ball_concentration_peak_in_chunks(self):
        # The ball's map allocates chunk-sized temporaries while drawing.
        d, K, n_mc = 20, 20, 10**4
        call = estimator_calls(uniform_ball_spec(math.sqrt(d)), d, K, n_mc)
        maxima = (32 + 2 * d) * n_mc * 8
        peak = traced_peak(call["concentration"])
        assert peak < maxima + 3 * CHUNK_BYTES, \
            f"peak {(peak - maxima) / CHUNK_BYTES:.2f} chunks beside the maxima"

    def test_d100_diversity_peak_in_chunks(self):
        d, K, n_mc = 100, 20, 10**4
        call = estimator_calls(gaussian_spec(cov=1.0, rho=0.7), d, K, n_mc)
        moments = 2 * d * d * d * 8
        peak = traced_peak(call["diversity"])
        assert peak < moments + 3 * CHUNK_BYTES, \
            f"peak {(peak - moments) / CHUNK_BYTES:.2f} chunks beside the moments"

    # d20-k5: pools of 1.9 and 7.6 chunks.  Only the concentration's maxima
    # grow with n_mc.
    @pytest.mark.parametrize("name", ["diversity", "margin", "concentration", "x_max"])
    def test_peak_flat_in_n_mc(self, name):
        d, K, n_mc = 20, 5, 10**4
        spec = (uniform_ball_spec(math.sqrt(d)) if name == "concentration"
                else gaussian_spec(cov=1.0, rho=0.7))
        small, large = (traced_peak(estimator_calls(spec, d, K, n)[name])
                        for n in (n_mc, 4 * n_mc))
        growth = (32 + 2 * d) * 3 * n_mc * 8 if name == "concentration" else 0
        assert large < small + growth + 2 * CHUNK_BYTES, \
            f"peak grew {(large - small - growth) / CHUNK_BYTES:.2f} chunks"
