import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from greedybandit import blas, contexts as ctx
from greedybandit.contexts import (DegenerateInputError, DistributionSpec,
                                   InfeasibleTruncationError, OutOfSupportError,
                                   ball, box, cauchy_spec, decay_rate_check,
                                   exponential_spec, gaussian_spec,
                                   grad_log_density, lac_function, laplace_spec,
                                   log_density, pinned_dim, sample_context_set,
                                   spec_from_config, spec_to_config,
                                   student_t_spec, truncate, uniform_ball_spec,
                                   verify_lac)

# ---------------------------------------------------------------------------
# Regions


class TestRegion:
    def test_ball_contains_and_radii(self):
        r = ball(2.0)
        assert r.contains([1.0, 1.0])
        assert not r.contains([2.0, 1.0])
        assert r.sup_norm_radius() == 2.0
        assert r.l2_radius(3) == 2.0

    def test_box_scalar_and_vector_bounds(self):
        r = box(-1.0, 3.0)
        assert r.contains([2.9, -0.9])
        assert not r.contains([3.1, 0.0])
        assert r.sup_norm_radius() == 3.0
        rv = box([-1.0, 0.0], [1.0, 2.0])
        assert rv.contains([0.5, 1.5])
        assert not rv.contains([0.5, -0.5])
        assert rv.sup_norm_radius() == 2.0
        assert rv.l2_radius(2) == pytest.approx(math.sqrt(1 + 4))

    def test_box_broadcasts_one_element_side(self):
        assert box([0.0], [1.0, 2.0]) == box([0.0, 0.0], [1.0, 2.0])
        assert box(0.0, [1.0, 2.0]) == box([0.0, 0.0], [1.0, 2.0])
        assert box([0.0, 1.0], [3.0]).hi == (3.0, 3.0)

    def test_box_side_lengths_must_match(self):
        with pytest.raises(ValueError):
            box([0.0, 0.0], [1.0, 1.0, 1.0])

    def test_invalid_regions(self):
        with pytest.raises(ValueError):
            ball(-1.0)
        with pytest.raises(ValueError):
            ball(math.inf)
        with pytest.raises(ValueError):
            box(1.0, 1.0)
        with pytest.raises(ValueError):
            box(0.0, math.inf)

    def test_contains_margin(self):
        r = box(0.0, 1.0)
        assert r.contains([0.5], margin=0.4)
        assert not r.contains([0.05], margin=0.1)


# ---------------------------------------------------------------------------
# Spec construction


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DistributionSpec("beta")

    def test_gaussian_requires_pd_cov(self):
        with pytest.raises(ValueError):
            gaussian_spec(cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            gaussian_spec(cov=np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValueError):
            gaussian_spec(cov=-1.0)

    def test_positive_scale_params(self):
        with pytest.raises(ValueError):
            laplace_spec(scale=0.0)
        with pytest.raises(ValueError):
            exponential_spec(rate=-2.0)
        with pytest.raises(ValueError):
            student_t_spec(df=0.0)
        with pytest.raises(ValueError):
            uniform_ball_spec(radius=0.0)

    def test_inconsistent_param_dims(self):
        with pytest.raises(ValueError):
            DistributionSpec("laplace", loc=np.zeros(2), scale=np.ones(3))

    def test_rho_needs_scalar_cov(self):
        with pytest.raises(ValueError):
            DistributionSpec("gaussian", cov=np.ones(3), rho=0.5)

    @pytest.mark.parametrize("kind,name", [
        (kind, name) for kind, reads in [("gaussian", "mean cov rho"),
                                         ("laplace", "loc scale"),
                                         ("uniform_ball", "radius"),
                                         ("exponential", "rate"),
                                         ("student_t", "df"),
                                         ("cauchy", "loc scale")]
        for name in ("mean", "cov", "rho", "loc", "scale", "radius", "rate", "df")
        if name not in reads.split()])
    @pytest.mark.parametrize("value", [0.5, np.full(3, 0.5)], ids=["scalar", "vector"])
    def test_fields_the_family_does_not_read_rejected(self, kind, name, value):
        # An unread field would change nothing, yet a vector one pinned d.
        with pytest.raises(ValueError, match=f"{kind}.*{name}"):
            DistributionSpec(kind, **{name: value})

    @pytest.mark.parametrize("kind,name", [
        (kind, name) for kind, reads in ctx.PARAMS.items() for name in reads])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, kind, name, bad):
        # exponential rate = inf drew all-zero contexts; laplace scale = nan
        # failed only at the first round.
        values = [bad] if name in ctx._SCALAR_PARAMS else [bad, np.array([1.0, bad])]
        for value in values:
            with pytest.raises(ValueError, match=f"{kind} {name} must be finite"):
                DistributionSpec(kind, **{name: value})


# ---------------------------------------------------------------------------
# Sampling


class TestSampling:
    def test_uniform_ball_norms(self, rng):
        spec = uniform_ball_spec(radius=math.sqrt(20))
        cs = sample_context_set(spec, 20, 50, [rng])[0]
        assert cs.shape == (50, 20)
        assert np.all(np.linalg.norm(cs, axis=1) <= math.sqrt(20) + 1e-12)

    def test_gaussian_empirical_covariance(self, rng):
        cov = np.array([[1.0, 0.7], [0.7, 1.0]])
        spec = gaussian_spec(cov=cov)
        X = np.vstack([sample_context_set(spec, 2, 100, [rng])[0]
                       for _ in range(1000)])
        emp = np.cov(X.T)
        assert np.abs(emp - cov).max() < 0.02

    def test_rho_equicorrelation_matches_matrix(self, rng):
        spec = gaussian_spec(cov=1.0, rho=0.7)
        X = ctx._sample_block(spec, 2, 10**5, (rng,))[0]
        emp = np.cov(X.T)
        assert np.abs(emp - np.array([[1.0, 0.7], [0.7, 1.0]])).max() < 0.02

    def test_truncated_cauchy_box(self, rng):
        spec = cauchy_spec(truncation=box(-5.0, 5.0))
        cs = sample_context_set(spec, 3, 40, [rng])[0]
        assert np.all(np.abs(cs) <= 5.0)

    def test_truncated_cauchy_high_dim_coordwise(self, rng):
        # Joint box mass is astronomically small at d=100; the per-coordinate
        # rejection path must still sample it exactly and quickly.
        spec = cauchy_spec(truncation=box(-5.0, 5.0))
        cs = sample_context_set(spec, 100, 20, [rng])[0]
        assert cs.shape == (20, 100)
        assert np.all(np.abs(cs) <= 5.0)

    def test_infeasible_truncation_rejected(self, rng):
        spec = gaussian_spec(truncation=box(8.0, 9.0))
        with pytest.raises(InfeasibleTruncationError):
            sample_context_set(spec, 2, 4, [rng])

    def test_box_feasibility_uses_exact_mass(self, rng):
        # Mass 1.006e-3 per coordinate, just above MIN_REGION_MASS: a
        # 2000-draw probe would see about two hits and reject it.
        spec = laplace_spec(truncation=box(5.75, 6.75))
        cs = sample_context_set(spec, 1, 50, [rng])[0]
        assert np.all((cs >= 5.75) & (cs <= 6.75))

    def test_whole_vector_rejection_ball(self, rng):
        spec = laplace_spec(truncation=ball(1.5))
        cs = sample_context_set(spec, 3, 200, [rng])[0]
        assert np.all(np.linalg.norm(cs, axis=1) <= 1.5)

    def test_rejection_cap(self):
        # One candidate per row leaves rows unfilled after the second pass,
        # which raises; a cap the draw never reaches gives the default draw.
        spec, out = laplace_spec(truncation=ball(1.5)), np.empty((200, 3))
        with pytest.raises(InfeasibleTruncationError, match="^rejection cap 1 exceeded$"):
            ctx._sample_reject_vectors(spec, 3, np.random.default_rng(0), out,
                                       max_attempts=1)
        ctx._sample_reject_vectors(spec, 3, np.random.default_rng(0), out,
                                   max_attempts=64)
        np.testing.assert_array_equal(
            out, sample_context_set(spec, 3, 200, [np.random.default_rng(0)])[0])

    def test_k_validation(self, rng):
        with pytest.raises(ValueError):
            sample_context_set(gaussian_spec(), 2, 0, rng)

    def test_same_seed_same_draws(self):
        spec = student_t_spec(df=2.0, truncation=box(-5.0, 5.0))
        a = sample_context_set(spec, 4, 10, [np.random.default_rng(5)])[0]
        b = sample_context_set(spec, 4, 10, [np.random.default_rng(5)])[0]
        np.testing.assert_array_equal(a, b)

    def test_sampler_fidelity_first_moments(self, rng):
        # Mean (or location quantile for heavy tails) within 3 MC standard
        # errors at 1e5 draws per untruncated kind.
        n = 10**5
        X = ctx._sample_block(gaussian_spec(mean=np.array([1.0, -2.0])), 2, n, (rng,))[0]
        se = X.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(X.mean(axis=0) - [1.0, -2.0]) < 3 * se)

        X = ctx._sample_block(laplace_spec(loc=0.5, scale=2.0), 2, n, (rng,))[0]
        se = X.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(X.mean(axis=0) - 0.5) < 3 * se)

        X = ctx._sample_block(exponential_spec(rate=2.0), 2, n, (rng,))[0]
        se = X.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(X.mean(axis=0) - 0.5) < 3 * se)

        X = ctx._sample_block(uniform_ball_spec(radius=2.0), 2, n, (rng,))[0]
        se = X.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(X.mean(axis=0)) < 3 * se)
        # Radial CDF of the unit-ball at radius r is (r/R)^d.
        r_med = np.median(np.linalg.norm(X, axis=1))
        assert abs(r_med - 2.0 * math.sqrt(0.5)) < 0.01

        X = ctx._sample_block(student_t_spec(df=3.0), 2, n, (rng,))[0]
        se = X.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(X.mean(axis=0)) < 3 * se)

        # Cauchy has no mean: check location and scale via quartiles.
        X = ctx._sample_block(cauchy_spec(loc=1.0, scale=0.5), 1, n, (rng,))[0]
        q1, q2, q3 = np.quantile(X[:, 0], [0.25, 0.5, 0.75])
        assert abs(q2 - 1.0) < 0.02
        assert abs((q3 - q1) / 2 - 0.5) < 0.02


# Factorizing box truncations, drawn by inverse CDF: (spec, d, box, base
# distribution of each coordinate as a list of frozen scipy.stats laws).
BOX_CASES = {
    "cauchy": (cauchy_spec(truncation=box(-5.0, 5.0)), 1, (-5.0, 5.0),
               [stats.cauchy()]),
    "student-t-df2": (student_t_spec(df=2.0, truncation=box(-5.0, 5.0)), 1,
                      (-5.0, 5.0), [stats.t(2.0)]),
    "gaussian-diag": (gaussian_spec(mean=np.array([0.5, 0.0]),
                                    cov=np.array([2.0, 0.25]),
                                    truncation=box(-3.0, 3.0)),
                      2, (-3.0, 3.0),
                      [stats.norm(0.5, math.sqrt(2.0)), stats.norm(0.0, 0.5)]),
    "gaussian-one-sided": (gaussian_spec(cov=2.0, truncation=box(2.0, 4.0)), 1,
                           (2.0, 4.0), [stats.norm(0.0, math.sqrt(2.0))]),
    "laplace": (laplace_spec(loc=0.5, scale=2.0, truncation=box(-1.0, 6.0)), 1,
                (-1.0, 6.0), [stats.laplace(0.5, 2.0)]),
    "exponential-lo-negative": (exponential_spec(rate=1.5, truncation=box(-1.0, 3.0)),
                                1, (-1.0, 3.0), [stats.expon(scale=1.0 / 1.5)]),
}


class TestBoxInverseCdf:
    @pytest.mark.parametrize("name", sorted(BOX_CASES))
    def test_matches_truncated_cdf(self, name):
        # One-sample KS test of each coordinate against the analytic
        # truncated CDF (F(x) - F(lo)) / (F(hi) - F(lo)) at a fixed seed.
        spec, d, (lo, hi), laws = BOX_CASES[name]
        X = ctx._sample_block(spec, d, 20000, (np.random.default_rng(11),))[0]
        assert np.all((X >= lo) & (X <= hi))
        for j, law in enumerate(laws):
            f_lo, f_hi = law.cdf(lo), law.cdf(hi)
            p = stats.kstest(X[:, j], lambda x: (law.cdf(x) - f_lo) / (f_hi - f_lo)).pvalue
            assert p > 1e-3, f"{name} coordinate {j}: KS p = {p:.2e}"

    def test_student_t_df2_closed_form_is_stdtrit(self):
        # At df = 2 the inverse CDF is (2u - 1) / sqrt(2u (1 - u)) in closed
        # form, with the bits of scipy's stdtrit(2, u): on 10^6 uniforms, at
        # the edges u = a and a + w of several boxes (and one ulp inside),
        # and at 1/2, its neighbours, 1 and the smallest subnormal.  Other
        # degrees of freedom keep stdtrit.
        from scipy.special import stdtrit
        u = [np.random.default_rng(2).random(10**6),
             np.array([0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                       np.nextafter(1.0, 0.0), 1.0, 5e-324])]
        for lo, hi in ((-5.0, 5.0), (-0.25, 3.0), (1e-3, 2e-3), (-1e4, 1e4)):
            spec = student_t_spec(df=2.0, truncation=box(lo, hi))
            _, _, _, _, a, w, icdf = ctx._box_inverse_cdf(spec, 1)
            assert icdf is ctx._student_t2_icdf
            u.append(np.array([a[0], np.nextafter(a[0], 1.0), a[0] + w[0],
                               np.nextafter(a[0] + w[0], 0.0)]))
        u = np.concatenate(u)
        with np.errstate(divide="ignore"):
            ref = stdtrit(2.0, u)
            got = ctx._student_t2_icdf(u, out=np.empty_like(u))
            ctx._student_t2_icdf(u, out=u)
        assert got.tobytes() == ref.tobytes()
        assert u.tobytes() == ref.tobytes()
        spec = student_t_spec(df=3.0, truncation=box(-5.0, 5.0))
        assert ctx._box_inverse_cdf(spec, 1)[6] is not ctx._student_t2_icdf

    @pytest.mark.parametrize("spec", [
        cauchy_spec(truncation=box(-5.0, 5.0)),
        student_t_spec(df=2.0, truncation=box(-5.0, 5.0)),
        exponential_spec(rate=2.0, truncation=box(0.5, 3.0)),
    ], ids=["cauchy", "student-t", "exponential"])
    def test_draws_do_not_depend_on_chunking(self, spec):
        # Exactly n * d uniforms per call, so drawing in chunks (as the
        # margin estimator does) gives the same rows as one draw.
        whole = ctx._sample_block(spec, 3, 70, (np.random.default_rng(4),))[0]
        rng = np.random.default_rng(4)
        parts = [ctx._sample_block(spec, 3, n, (rng,))[0] for n in (30, 40)]
        np.testing.assert_array_equal(whole, np.vstack(parts))


# Every sampling path at dimension d: untruncated families, factorizing box
# truncations drawn by inverse CDF (scalar and per-coordinate parameters),
# and the regions drawn by whole-vector rejection.
BLOCK_SPECS = {
    "gaussian": lambda d: gaussian_spec(),
    "gaussian-rho": lambda d: gaussian_spec(cov=1.0, rho=0.7),
    "gaussian-vector": lambda d: gaussian_spec(mean=np.linspace(-1.0, 1.0, d),
                                               cov=np.linspace(0.5, 2.0, d)),
    "laplace": lambda d: laplace_spec(loc=0.5, scale=2.0),
    "uniform-ball": lambda d: uniform_ball_spec(radius=math.sqrt(d)),
    "exponential": lambda d: exponential_spec(rate=1.5),
    "student-t": lambda d: student_t_spec(df=3.0),
    "cauchy": lambda d: cauchy_spec(loc=1.0, scale=0.5),
    "box-cauchy": lambda d: cauchy_spec(truncation=box(-5.0, 5.0)),
    "box-cauchy-vector": lambda d: cauchy_spec(loc=np.linspace(-1.0, 1.0, d),
                                               truncation=box(-5.0, 5.0)),
    "box-student-t": lambda d: student_t_spec(df=2.0, truncation=box(-5.0, 5.0)),
    "box-gaussian": lambda d: gaussian_spec(mean=0.5, cov=2.0, truncation=box(-3.0, 3.0)),
    "box-laplace": lambda d: laplace_spec(loc=0.5, scale=2.0, truncation=box(-1.0, 6.0)),
    "box-exponential": lambda d: exponential_spec(rate=1.5, truncation=box(-1.0, 3.0)),
    "reject-box-gaussian-rho": lambda d: gaussian_spec(cov=1.0, rho=0.5,
                                                       truncation=box(-3.0, 3.0)),
    "reject-ball-laplace": lambda d: laplace_spec(truncation=ball(2.0 * math.sqrt(d))),
    "reject-ball-gaussian": lambda d: gaussian_spec(truncation=ball(math.sqrt(d) + 1.0)),
    "reject-box-uniform-ball": lambda d: uniform_ball_spec(radius=2.0, truncation=box(-1.0, 1.0)),
}


class TestBlockDraw:
    @pytest.mark.parametrize("name", sorted(BLOCK_SPECS))
    def test_block_equals_stacked_single_draws(self, name):
        # Slot r of a block holds, byte for byte, what rng r draws alone.
        for d in (1, 5, 20):
            spec = BLOCK_SPECS[name](d)
            for R in (1, 3):
                for K in (1, 7):
                    seeds = [100 * d + 10 * R + K + r for r in range(R)]
                    block = sample_context_set(spec, d, K,
                                               [np.random.default_rng(s) for s in seeds])
                    alone = np.array([sample_context_set(spec, d, K,
                                                         [np.random.default_rng(s)])[0]
                                      for s in seeds])
                    assert block.shape == (R, K, d)
                    assert block.tobytes() == alone.tobytes(), (d, R, K)

    @pytest.mark.parametrize("d", [5, 20, 100])
    def test_pool_map_in_place_matches_one_call(self, d):
        # A pool-sized gaussian slot is mapped in row blocks written back
        # into its draw, the last block taking a tail that is not a multiple
        # of the block; the rows equal the one-call product byte for byte,
        # at the default BLAS threads and at one.
        spec = gaussian_spec(mean=0.25, cov=1.5, rho=0.3)
        L = ctx._gauss_resolved(spec, d)[2]
        P = np.random.default_rng(d).standard_normal((1, 3 * ctx._MAP_ROWS + 17, d))
        expected = P @ L.T
        expected += spec.mean
        for pin in (contextlib.nullcontext(), blas.one_thread()):
            with pin:
                draw = P.copy()
                X = ctx._map(spec, d, draw)
            assert np.shares_memory(X, draw)
            assert X.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_non_finite_slot_rejected(self, bad, monkeypatch):
        rngs = [np.random.default_rng(s) for s in range(3)]
        draw = ctx._draw

        def draw_inf_in_one_slot(spec, d, n, rng):
            P = draw(spec, d, n, rng)
            if rng is rngs[bad]:
                P[-1, -1] = np.inf
            return P

        monkeypatch.setattr(ctx, "_draw", draw_inf_in_one_slot)
        with pytest.raises(ValueError, match="finite"):
            sample_context_set(cauchy_spec(), 4, 5, rngs)


# ---------------------------------------------------------------------------
# Log densities


class TestLogDensity:
    def test_exponential_value(self):
        assert log_density(exponential_spec(2.0), [[1.5]])[0] == pytest.approx(
            math.log(2.0) - 3.0, abs=1e-12)

    def test_uniform_constant(self, rng):
        spec = uniform_ball_spec(2.0)
        a = log_density(spec, [[0.1, 0.2]])[0]
        b = log_density(spec, [[-1.0, 0.5]])[0]
        assert a == b

    def test_gaussian_symmetric_about_mean(self):
        spec = gaussian_spec(mean=np.array([1.0, -1.0]))
        v = np.array([0.3, 0.4])
        mu = np.array([1.0, -1.0])
        assert log_density(spec, [mu + v])[0] == pytest.approx(log_density(spec, [mu - v])[0])

    def test_gaussian_normalized_scalar(self):
        # d=1 standard normal density at 0 is 1/sqrt(2 pi).
        assert log_density(gaussian_spec(), [[0.0]])[0] == pytest.approx(
            -0.5 * math.log(2 * math.pi))

    @pytest.mark.parametrize("d", [2, 20, 100])
    def test_correlated_gaussian_matches_scipy(self, d):
        spec = gaussian_spec(mean=np.linspace(-1.0, 1.0, d), cov=1.5, rho=0.7)
        mean, C = ctx._gauss_resolved(spec, d)[:2]
        X = np.random.default_rng(d).multivariate_normal(mean, C, size=200)
        np.testing.assert_allclose(ctx.log_density(spec, X),
                                   stats.multivariate_normal(mean, C).logpdf(X),
                                   rtol=1e-12)

    def test_out_of_support(self):
        with pytest.raises(OutOfSupportError):
            log_density(exponential_spec(), [[-0.1]])[0]
        with pytest.raises(OutOfSupportError):
            log_density(uniform_ball_spec(1.0), [[1.5, 0.0]])[0]
        with pytest.raises(OutOfSupportError):
            log_density(cauchy_spec(truncation=box(-5.0, 5.0)), [[6.0]])[0]

    def test_truncation_preserves_shape(self):
        # Unnormalized truncated log density equals the base log density
        # inside the region.
        spec = laplace_spec()
        tspec = truncate(spec, box(-2.0, 2.0))
        x = [0.7, -1.1]
        assert log_density(tspec, [x])[0] == log_density(spec, [x])[0]


# ---------------------------------------------------------------------------
# Gradients


class TestGradients:
    def test_exponential_constant_gradient(self):
        np.testing.assert_allclose(grad_log_density(exponential_spec(2.0), [[1.0, 3.0]])[0],
                                   [-2.0, -2.0])

    def test_gaussian_zero_at_mean(self):
        g = grad_log_density(gaussian_spec(mean=np.array([1.0, 2.0])), [[1.0, 2.0]])[0]
        np.testing.assert_allclose(g, 0.0)

    def test_laplace_sign(self):
        np.testing.assert_allclose(grad_log_density(laplace_spec(), [[0.7]])[0], [-1.0])
        np.testing.assert_allclose(grad_log_density(laplace_spec(), [[-0.7]])[0], [1.0])

    def test_laplace_kink_rejected(self):
        with pytest.raises(DegenerateInputError):
            grad_log_density(laplace_spec(), [[0.0]])[0]

    def test_uniform_zero_interior_boundary_rejected(self):
        np.testing.assert_allclose(grad_log_density(uniform_ball_spec(1.0), [[0.3, 0.4]])[0], 0.0)
        with pytest.raises(OutOfSupportError):
            grad_log_density(uniform_ball_spec(1.0), [[0.6, 0.8]])[0]

    def test_student_t_and_cauchy_forms(self):
        x = np.array([0.5, -1.5])
        v = 2.0
        np.testing.assert_allclose(grad_log_density(student_t_spec(v), [x])[0],
                                   -(v + 1) * x / (v + x * x))
        np.testing.assert_allclose(grad_log_density(cauchy_spec(), [x])[0],
                                   -2 * x / (1 + x * x))

    def test_truncation_leaves_gradient_unchanged(self):
        spec = gaussian_spec()
        tspec = truncate(spec, ball(3.0))
        x = np.array([0.4, -0.2])
        np.testing.assert_array_equal(grad_log_density(tspec, [x])[0],
                                      grad_log_density(spec, [x])[0])


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["gaussian", "laplace", "exponential", "student_t", "cauchy"]),
    d=st.integers(1, 4),
    scale=st.floats(0.5, 3.0),
    seed=st.integers(0, 10**6),
)
def test_gradient_matches_finite_difference(kind, d, scale, seed):
    # Analytic gradients agree with central finite differences at random
    # interior points, for every smooth family and random parameters.
    if kind == "gaussian":
        spec = gaussian_spec(cov=scale)
    elif kind == "laplace":
        spec = laplace_spec(scale=scale)
    elif kind == "exponential":
        spec = exponential_spec(rate=scale)
    elif kind == "student_t":
        spec = student_t_spec(df=1.0 + scale)
    else:
        spec = cauchy_spec(scale=scale)
    rng = np.random.default_rng(seed)
    X = ctx._sample_block(spec, d, 50, (rng,))[0]
    keep = ctx._interior_mask(spec, X, margin=1e-4)
    X = X[keep]
    h = 1e-5
    for x in X[:10]:
        g = grad_log_density(spec, [x])[0]
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (log_density(spec, [x + e])[0]
                     - log_density(spec, [x - e])[0]) / (2 * h)
        assert np.abs(g - fd).max() <= 1e-4 * max(1.0, np.abs(g).max())


# ---------------------------------------------------------------------------
# Envelopes


class TestLacFunction:
    def test_table_constants(self):
        assert lac_function(exponential_spec(3.0)) == ctx.LacFunction(3.0, 0.0, 0.0)
        assert lac_function(uniform_ball_spec(2.0)) == ctx.LacFunction(1.0, 0.0, 0.0)
        assert lac_function(gaussian_spec()) == ctx.LacFunction(0.0, 4.0, 1.0)
        assert lac_function(laplace_spec(scale=0.5)) == ctx.LacFunction(2.0, 0.0, 0.0)
        assert lac_function(cauchy_spec(scale=2.0)) == ctx.LacFunction(0.5, 0.0, 0.0)
        nu = 2.0
        assert lac_function(student_t_spec(nu)) == ctx.LacFunction(
            (nu + 1) / (2 * math.sqrt(nu)), 0.0, 0.0)

    def test_gaussian_diagonal(self):
        spec = gaussian_spec(mean=np.array([1.0, -3.0]), cov=np.array([4.0, 0.25]))
        lac = lac_function(spec)
        assert lac.a2 == pytest.approx(4.0 / 0.25)
        assert lac.a1 == pytest.approx(16.0 * 3.0)
        assert lac.alpha == 1.0

    def test_gaussian_general_row_sum(self):
        cov = np.array([[1.0, 0.7], [0.7, 1.0]])
        lac = lac_function(gaussian_spec(cov=cov))
        cinv = np.linalg.inv(cov)
        m = np.abs(cinv).sum(axis=1).max()
        assert lac.a2 == pytest.approx(m)
        assert lac.a1 == 0.0

    def test_independent_blocks_take_max(self):
        # Independent coordinates: the envelope is the max of the blocks.
        lac = lac_function(laplace_spec(scale=np.array([1.0, 0.25, 2.0])))
        assert lac.a1 == pytest.approx(4.0)
        lac = lac_function(exponential_spec(rate=np.array([1.0, 3.0])))
        assert lac.a1 == pytest.approx(3.0)

    def test_truncated_constant(self):
        # Standard gaussian truncated to the box [-5, 5]: envelope collapses
        # to 4 * 5 = 20.
        spec = gaussian_spec(truncation=box(-5.0, 5.0))
        lac = lac_function(spec, d=1)
        assert (lac.a1, lac.a2, lac.alpha) == (20.0, 0.0, 0.0)

    def test_rho_requires_dimension(self):
        spec = gaussian_spec(cov=1.0, rho=0.7)
        with pytest.raises(ValueError):
            lac_function(spec)
        lac = lac_function(spec, d=3)
        cinv = np.linalg.inv(0.3 * np.eye(3) + 0.7 * np.ones((3, 3)))
        assert lac.a2 == pytest.approx(np.abs(cinv).sum(axis=1).max())

    def test_nonnegative_coefficients_enforced(self):
        with pytest.raises(ValueError):
            ctx.LacFunction(-1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# verify_lac


TABLE_SPECS = {
    "gaussian": (gaussian_spec(), 2),
    "gaussian_corr": (gaussian_spec(cov=np.array([[1.0, 0.7], [0.7, 1.0]])), 2),
    "laplace": (laplace_spec(), 3),
    "uniform_ball": (uniform_ball_spec(radius=2.0), 3),
    "trunc_exponential": (exponential_spec(truncation=box(0.0, 5.0)), 2),
    "trunc_student_t": (student_t_spec(df=2.0, truncation=box(-5.0, 5.0)), 2),
    "trunc_cauchy": (cauchy_spec(truncation=box(-5.0, 5.0)), 2),
}


class TestVerifyLac:
    def test_sample_count_precondition(self, rng):
        with pytest.raises(ValueError):
            verify_lac(gaussian_spec(), 999, 1e-3, rng, d=2)

    @pytest.mark.parametrize("name", sorted(TABLE_SPECS))
    def test_table_specs_pass(self, name, rng):
        spec, d = TABLE_SPECS[name]
        report = verify_lac(spec, 2000, 1e-3, rng, d=d)
        assert report.passed, f"{name}: max ratio {report.max_ratio}"
        assert report.gradient_check_passed, f"{name}: fd err {report.max_gradient_err}"
        assert report.n_points >= 1000

    def test_exponential_ratio_exactly_one(self, rng):
        report = verify_lac(exponential_spec(1.5), 1500, 1e-3, rng, d=2)
        assert abs(report.max_ratio - 1.0) < 1e-6

    def test_uniform_ratio_zero(self, rng):
        report = verify_lac(uniform_ball_spec(1.0), 1500, 1e-3, rng, d=2)
        assert report.max_ratio == 0.0

    def test_gaussian_ratio_quarter(self, rng):
        report = verify_lac(gaussian_spec(), 1500, 1e-3, rng, d=2)
        assert report.max_ratio <= 0.25 + 1e-3

    def test_gradient_mismatch_reported_distinctly(self, rng, monkeypatch):
        # A wrong analytic gradient must trip the cross-check without being
        # conflated with an envelope violation.
        true_grad = ctx.grad_log_density

        def skewed(spec, X):
            return 0.9 * true_grad(spec, X)

        monkeypatch.setattr(ctx, "grad_log_density", skewed)
        report = verify_lac(gaussian_spec(), 1500, 1e-3, rng, d=2)
        assert not report.gradient_check_passed
        assert report.passed  # shrunken gradients still satisfy the envelope

    def test_laplace_kinks_skipped_not_failed(self, rng):
        spec = laplace_spec()
        report = verify_lac(spec, 2000, 1e-3, rng, d=1)
        assert report.passed and report.gradient_check_passed


# ---------------------------------------------------------------------------
# truncate / decay_rate_check


class TestTruncate:
    def test_double_truncation_rejected(self):
        spec = truncate(gaussian_spec(), ball(3.0))
        with pytest.raises(ValueError):
            truncate(spec, ball(2.0))

    def test_identity_truncation_uniform_ball(self):
        # Truncating the uniform ball to its own support changes nothing,
        # including the consumed random stream (first batch all accepted).
        spec = uniform_ball_spec(2.0)
        tspec = truncate(spec, ball(2.0))
        a = sample_context_set(spec, 3, 25, [np.random.default_rng(9)])[0]
        b = sample_context_set(tspec, 3, 25, [np.random.default_rng(9)])[0]
        np.testing.assert_array_equal(a, b)
        assert lac_function(tspec, d=3) == ctx.LacFunction(1.0, 0.0, 0.0)

    def test_eager_feasibility_when_dim_pinned(self):
        with pytest.raises(InfeasibleTruncationError):
            truncate(gaussian_spec(mean=np.zeros(2)), box(10.0, 11.0))

    def test_truncated_spec_passes_verify_lac(self, rng):
        tspec = truncate(cauchy_spec(), box(-5.0, 5.0))
        report = verify_lac(tspec, 1500, 1e-3, rng, d=2)
        assert report.passed and report.gradient_check_passed


class TestDecayRateCheck:
    def test_requires_bounded_region(self, rng):
        with pytest.raises(ValueError):
            decay_rate_check(gaussian_spec(), None, 100, rng, d=2)

    def test_uniform_ratio_one(self, rng):
        # Constant density: |log f(x1) - log f(x2)| = 0 and any M works.
        spec = uniform_ball_spec(2.0)
        report = decay_rate_check(spec, ball(2.0), 2000, rng, d=2)
        assert report.passed
        assert report.min_slack >= 0.0

    def test_exponential_equality_case(self, rng):
        # d=1 exponential: |log f(x1) - log f(x2)| = rate * |x1 - x2| exactly,
        # and M = sqrt(1) * rate, so the bound holds with equality.
        report = decay_rate_check(exponential_spec(2.0), box(0.0, 4.0), 5000, rng, d=1)
        assert report.passed
        assert report.rate_bound == pytest.approx(2.0)
        assert abs(report.min_slack) < 1e-9

    def test_truncated_gaussian_passes(self, rng):
        spec = gaussian_spec(truncation=box(-3.0, 3.0))
        report = decay_rate_check(spec, None, 5000, rng, d=2)
        assert report.passed
        assert report.rate_bound == pytest.approx(math.sqrt(2) * 12.0)

    def test_region_conflict_rejected(self, rng):
        spec = gaussian_spec(truncation=box(-3.0, 3.0))
        with pytest.raises(ValueError):
            decay_rate_check(spec, ball(1.0), 100, rng, d=2)


@settings(deadline=None, max_examples=25)
@given(
    kind=st.sampled_from(["gaussian", "laplace", "student_t", "cauchy"]),
    bound=st.floats(2.0, 6.0),
    seed=st.integers(0, 10**6),
)
def test_truncation_closure(kind, bound, seed):
    # Any truncated smooth spec stays in the family: constant envelope
    # L(R_inf), verify_lac and decay_rate_check both pass.
    base = {"gaussian": gaussian_spec(), "laplace": laplace_spec(),
            "student_t": student_t_spec(df=2.0), "cauchy": cauchy_spec()}[kind]
    tspec = truncate(base, box(-bound, bound))
    rng = np.random.default_rng(seed)
    lac = lac_function(tspec, d=2)
    assert lac.a2 == 0.0 and lac.alpha == 0.0
    base_lac = lac_function(base, d=2)
    assert lac.a1 == pytest.approx(float(base_lac(bound)))
    report = verify_lac(tspec, 1000, 1e-3, rng, d=2)
    assert report.passed and report.gradient_check_passed
    decay = decay_rate_check(tspec, None, 1000, rng, d=2)
    assert decay.passed


# ---------------------------------------------------------------------------
# Config serialization


@pytest.mark.parametrize("spec", [
    gaussian_spec(),
    gaussian_spec(cov=1.0, rho=0.7),
    gaussian_spec(mean=np.array([1.0, -1.0]), cov=np.array([[2.0, 0.3], [0.3, 1.0]])),
    gaussian_spec(cov=np.array([1.0, 4.0])),
    laplace_spec(loc=0.5, scale=2.0),
    uniform_ball_spec(radius=math.sqrt(20)),
    exponential_spec(rate=np.array([1.0, 2.0])),
    student_t_spec(df=2.0, truncation=box(-5.0, 5.0)),
    cauchy_spec(truncation=ball(4.0)),
    # A one-element vector pins d = 1 and must come back a vector.
    laplace_spec(loc=np.array([0.5])),
    exponential_spec(rate=np.array([2.0])),
    laplace_spec(truncation=box([0.0], [1.0])),
])
def test_spec_config_round_trip(spec):
    back = spec_from_config(spec_to_config(spec))
    assert back.kind == spec.kind
    assert back.truncation == spec.truncation
    assert pinned_dim(back) == pinned_dim(spec)
    for name in ("mean", "cov", "loc", "scale", "rate"):
        np.testing.assert_array_equal(np.asarray(getattr(back, name)),
                                      np.asarray(getattr(spec, name)), strict=True)
    assert (back.radius, back.df, back.rho) == (spec.radius, spec.df, spec.rho)


def test_spec_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        spec_from_config({"kind": "laplace", "bandwidth": "1.0"})
    with pytest.raises(ValueError):
        spec_from_config({"loc": "0.0"})
