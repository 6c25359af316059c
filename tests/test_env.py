import contextlib
import dataclasses
import math
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from greedybandit import blas, env, estimator, policies
from greedybandit.contexts import gaussian_spec, uniform_ball_spec
from greedybandit.env import (BanditInstance, Trajectory, instantaneous_regret,
                              reward, run_episode, sphere_vector)
from greedybandit.harness import (ExperimentConfig, _episode_seeds,
                                  default_policies, preset_spec, run_experiment)
from greedybandit.policies import PolicyConfig

from conftest import (assert_reaped, logged_subset_solves, make_instance,
                      recorded_forks)


def small_instance(d=2, K=3, sigma=0.5, theta=None):
    theta = np.eye(d)[0] if theta is None else np.asarray(theta, dtype=float)
    return BanditInstance(theta_star=theta, sigma=sigma, spec=gaussian_spec(),
                          d=d, K=K)


class TestInstance:
    def test_norm_constraint(self):
        with pytest.raises(ValueError):
            BanditInstance(theta_star=np.array([1.0, 1.0]), sigma=0.0,
                           spec=gaussian_spec(), d=2, K=2)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            small_instance(sigma=-0.5)

    @pytest.mark.parametrize("field,value,match", [
        ("theta_star", [np.nan, 0.0], r"^theta_star must be finite$"),
        ("sigma", np.nan, r"^sigma must be finite$"),
        ("sigma", np.inf, r"^sigma must be finite$"),
    ], ids=["nan-theta", "nan-sigma", "inf-sigma"])
    def test_non_finite_rejected(self, field, value, match):
        # NaN passed the norm and sign checks, and the episode then failed
        # at round 1 with "observation must be finite".
        kwargs = {"theta_star": np.eye(2)[0], "sigma": 0.5, field: value}
        with pytest.raises(ValueError, match=match):
            BanditInstance(spec=gaussian_spec(), d=2, K=2, **kwargs)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            BanditInstance(theta_star=np.zeros(3), sigma=0.0,
                           spec=gaussian_spec(), d=2, K=2)

    def test_make_instance_on_sphere(self, rng):
        inst = make_instance(gaussian_spec(), 7, 4, 0.5, rng)
        assert np.linalg.norm(inst.theta_star) == pytest.approx(1.0)

    def test_sphere_vector_unit(self, rng):
        for d in (1, 2, 10):
            assert np.linalg.norm(sphere_vector(d, rng)) == pytest.approx(1.0)


class TestReward:
    def test_noiseless_exact(self, rng):
        inst = small_instance(sigma=0.0)
        x = np.array([0.3, -0.7])
        assert reward(inst, x[None], [rng])[0] == float(x @ inst.theta_star)

    def test_zero_context_noise_mean(self, rng):
        inst = small_instance(sigma=0.5)
        n = 10**5
        draws = np.array([reward(inst, np.zeros((1, 2)), [rng])[0] for _ in range(n)])
        assert abs(draws.mean()) < 3 * 0.5 / math.sqrt(n)

    def test_noise_variance(self, rng):
        inst = small_instance(sigma=1.0)
        n = 10**5
        draws = np.array([reward(inst, np.zeros((1, 2)), [rng])[0] for _ in range(n)])
        var = draws.var(ddof=1)
        se = math.sqrt(2.0 / (n - 1))  # SE of the sample variance of N(0,1)
        assert abs(var - 1.0) < 3 * se


class TestInstantaneousRegret:
    def test_optimal_arm_zero(self):
        inst = small_instance(theta=[1.0, 0.0])
        cs = np.array([[1.0, 0.0], [0.5, 2.0], [-1.0, 0.0]])
        (regret,), (best,) = instantaneous_regret(inst, cs[None], [0])
        assert regret == 0.0 and best == 0

    @settings(deadline=None, max_examples=50)
    @given(k=st.integers(1, 8), d=st.integers(1, 5),
           arm=st.integers(0, 7), seed=st.integers(0, 10**6))
    def test_brute_force_oracle(self, k, d, arm, seed):
        rng = np.random.default_rng(seed)
        theta = sphere_vector(d, rng)
        inst = BanditInstance(theta_star=theta, sigma=0.0,
                              spec=gaussian_spec(), d=d, K=k)
        cs = rng.standard_normal((k, d))
        arm = arm % k
        (regret,), (best,) = instantaneous_regret(inst, cs[None], [arm])
        means = [float(v @ theta) for v in cs]
        assert regret == pytest.approx(max(means) - means[arm])
        assert means[best] == max(means)
        assert regret >= 0.0


class TestRunEpisode:
    def test_record_count_and_fields(self, rng):
        inst = make_instance(gaussian_spec(), 3, 4, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.zeros(3)), 25, [7])[0]
        assert len(traj) == 25
        assert traj.t.tolist() == list(range(1, 26))
        assert np.all((0 <= traj.arm) & (traj.arm < 4))
        assert np.all((0 <= traj.optimal_arm) & (traj.optimal_arm < 4))
        assert np.all(traj.inst_regret >= 0.0)
        assert np.all(traj.max_ctx_norm > 0.0)

    def test_est_error_appears_once_identified(self, rng):
        inst = make_instance(gaussian_spec(), 3, 4, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.zeros(3)), 25, [7])[0]
        missing = np.isnan(traj.est_error_l2)
        first = int(np.argmin(missing))
        assert first >= 2  # needs at least d observations
        assert np.all(missing[:first])
        assert not np.any(missing[first:])

    def test_deterministic_per_seed(self, rng):
        inst = make_instance(gaussian_spec(), 3, 4, 0.5, rng)
        cfg = PolicyConfig("lints")
        a = run_episode(inst, cfg, 30, [42])[0]
        b = run_episode(inst, cfg, 30, [42])[0]
        np.testing.assert_array_equal(a.arm, b.arm)
        np.testing.assert_array_equal(a.reward, b.reward)
        np.testing.assert_array_equal(a.cum_regret, b.cum_regret)

    def test_noiseless_1d_immediate_recovery(self, rng):
        # d=1: one observation of a nonzero context identifies theta exactly,
        # so regret is zero from round 2 on.
        inst = BanditInstance(theta_star=np.array([1.0]), sigma=0.0,
                              spec=gaussian_spec(), d=1, K=2)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=np.array([1.0])),
                           10, [3])[0]
        assert np.all(traj.inst_regret[1:] == 0.0)

    def test_noiseless_regret_bounded_after_identification(self, rng):
        # sigma=0: exact recovery makes cumulative regret flat afterwards.
        inst = make_instance(uniform_ball_spec(radius=math.sqrt(4)), 4, 5, 0.0, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=sphere_vector(4, rng)),
                           200, [11])[0]
        errs = traj.est_error_l2
        first = int(np.argmin(np.isnan(errs)))
        assert errs[first] < 1e-8
        assert traj.cum_regret[-1] == pytest.approx(traj.cum_regret[first])

    def test_cum_regret_monotone(self, rng):
        inst = make_instance(gaussian_spec(), 3, 4, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("linucb"), 50, [1])[0]
        assert np.all(np.diff(traj.cum_regret) >= 0.0)

    def test_per_round_greedy_inequality(self, rng):
        # inst_regret(t) <= 2 max ||X_i(t)|| * ||theta_hat_{t-1} - theta*||
        # whenever the round was scored with an OLS estimate.
        inst = make_instance(gaussian_spec(), 4, 6, 0.5, rng)
        traj = run_episode(inst, PolicyConfig("greedy", theta0=sphere_vector(4, rng)),
                           300, [19])[0]
        prev_err = traj.est_error_l2[:-1]
        scored = ~np.isnan(prev_err)
        bound = 2.0 * traj.max_ctx_norm[1:][scored] * prev_err[scored]
        assert np.all(traj.inst_regret[1:][scored] <= bound + 1e-9)

    def test_parameter_validation(self, rng):
        inst = make_instance(gaussian_spec(), 3, 4, 0.5, rng)
        with pytest.raises(ValueError):
            run_episode(inst, PolicyConfig("greedy", theta0=np.zeros(3)), 0, [1])
        with pytest.raises(ValueError):
            run_episode(inst, PolicyConfig("greedy"), 10, [1])
        with pytest.raises(ValueError):
            run_episode(inst, PolicyConfig("greedy", theta0=np.zeros(2)), 10, [1])
        with pytest.raises(ValueError, match="R, d >= 1"):  # no replication
            run_episode(inst, PolicyConfig("greedy", theta0=np.zeros(3)), 10, [])

    def test_trajectory_cum_regret_is_cumsum(self):
        zeros = np.zeros(4)
        traj = Trajectory(arm=np.zeros(4, dtype=int), optimal_arm=np.zeros(4, dtype=int),
                          reward=zeros, inst_regret=np.arange(4.0),
                          est_error_l2=np.full(4, np.nan), gram_min_eig=zeros,
                          max_ctx_norm=np.ones(4))
        np.testing.assert_array_equal(traj.cum_regret, [0.0, 1.0, 3.0, 6.0])
        assert traj.cum_regret[-1] == 6.0


# numpy and scipy each link their own BLAS with its own thread pool;
# alternating the two every round makes the pools fight over the cores and
# made d = 100 LinUCB episodes several times slower on 2 cores.  The episode
# loop uses scipy's LAPACK only, so any numpy.linalg LAPACK call in it is a
# regression.
NUMPY_LAPACK = ("eigvalsh", "eigh", "slogdet", "inv", "cholesky", "solve", "lstsq")


@pytest.mark.parametrize("kind", ["greedy", "linucb", "lints"])
def test_episode_uses_no_numpy_lapack(kind, monkeypatch):
    d = 5
    inst = small_instance(d=d, K=4)
    cfg = PolicyConfig(kind, theta0=np.ones(d) if kind == "greedy" else None)
    # Draw once first: the gaussian spec factors its covariance (with numpy)
    # once and caches it, outside the loop.
    run_episode(inst, cfg, 2, [0])

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called in the episode loop")
        return call

    for name in NUMPY_LAPACK:
        monkeypatch.setattr(np.linalg, name, forbidden(name))
    traj = run_episode(inst, cfg, 30, [11])[0]
    assert len(traj) == 30
    assert not np.isnan(traj.est_error_l2[-1])
    # The same loop advancing three replications in lockstep.
    block = run_episode(inst, cfg, 30, [11, 12, 13])
    assert [len(tr) for tr in block] == [30] * 3
    assert not any(np.isnan(tr.est_error_l2[-1]) for tr in block)


@pytest.mark.parametrize("kind", ["greedy", "linucb", "lints"])
def test_episodes_keep_no_running_inverse(kind, monkeypatch):
    # Episodes read only the Cholesky estimate, so their states carry no
    # Sherman-Morrison inverse: update never sees one, and identification
    # inverts no Gram matrix.  Checked for one episode and for a block of
    # three, both identified well before the last round.
    d, T = 5, 30
    inst = small_instance(d=d, K=4)
    cfg = PolicyConfig(kind, theta0=np.ones(d) if kind == "greedy" else None)
    update, states = estimator.update, []

    def checked(state, x, y):
        assert state.sigma_inv is None
        states.append(state)
        return update(state, x, y)

    def no_inverse(*args, **kwargs):
        raise AssertionError("scipy.linalg.inv called in an episode")

    monkeypatch.setattr(estimator, "inv", no_inverse)
    monkeypatch.setattr(estimator, "update", checked)
    for seeds in ([11], [11, 12, 13]):
        run_episode(inst, cfg, T, seeds)
        state = states[-1]
        assert state.reps == len(seeds) and state.t == T
        assert ((state.invertible_since > 0)
                & (state.invertible_since < T - 10)).all()
        with pytest.raises(ValueError, match="no running inverse"):
            estimator.incremental_estimate(state)


@pytest.mark.parametrize("kind", ["greedy", "linucb", "lints"])
def test_one_eigensolve_per_round(kind, monkeypatch):
    # The gram_min_eig record takes one subset solve (dsyevr, range "I") per
    # round and replication.  A replication's identification gate (dsyevr,
    # range "A") runs from round d, when its Sigma can first have full rank,
    # up to the round it is identified.  Checked for one episode and for a
    # block of three.
    d, T = 5, 30
    inst = small_instance(d=d, K=4)
    cfg = PolicyConfig(kind, theta0=np.ones(d) if kind == "greedy" else None)
    driver = lapack.dsyevr
    for seeds in ([11], [11, 12, 13]):
        R = len(seeds)
        rounds = {"A": [], "I": []}

        def counted(*args, **kwargs):
            # Round t's gates precede its records, so R (t - 1) records are
            # done.
            rounds[kwargs["range"]].append(len(rounds["I"]) // R + 1)
            return driver(*args, **kwargs)

        monkeypatch.setattr(lapack, "dsyevr", counted)
        trajs = run_episode(inst, cfg, T, seeds)
        monkeypatch.undo()
        since = []
        for traj in trajs:
            identified = ~np.isnan(traj.est_error_l2)
            assert identified[-1]
            since.append(int(np.argmax(identified)) + 1)
        assert rounds["I"] == [t for t in range(1, T + 1) for _ in seeds]
        assert rounds["A"] == sorted(t for s in since for t in range(d, s + 1))


@pytest.mark.parametrize("kind, calls", [
    ("greedy", {"dposv": 1, "dsyevr": 1}),
    ("linucb", {"dposv": 2, "dtrtrs": 1, "dsyevr": 1}),
    ("lints", {"dposv": 2, "dtrtrs": 1, "dsyevr": 1}),
])
def test_lapack_calls_per_round(kind, calls, monkeypatch):
    # After identification a replication's round makes 2/4/4 scipy LAPACK
    # calls: dposv for the OLS estimate and dsyevr for the gram_min_eig
    # record, and in the baselines one dposv for the ridge factor and
    # estimate and one dtrtrs for LinUCB's widths or LinTS's draw.  A
    # factor-and-solve split into two calls fails here.  Every driver of
    # scipy.linalg.lapack is counted; rounds start at policy_step.
    d, T = 5, 30
    inst = small_instance(d=d, K=4)
    cfg = PolicyConfig(kind, theta0=np.ones(d) if kind == "greedy" else None)
    drivers = {name: f for name in dir(lapack)
               if type(f := getattr(lapack, name)).__name__ == "fortran"}
    step = policies.policy_step
    for seeds in ([11], [11, 12, 13]):
        rounds = []

        def counted_step(*args, **kwargs):
            rounds.append({})
            return step(*args, **kwargs)

        def counting(name, f):
            def counted(*args, **kwargs):
                rounds[-1][name] = rounds[-1].get(name, 0) + 1
                return f(*args, **kwargs)
            return counted

        for name, f in drivers.items():
            monkeypatch.setattr(lapack, name, counting(name, f))
        monkeypatch.setattr(policies, "policy_step", counted_step)
        trajs = run_episode(inst, cfg, T, seeds)
        monkeypatch.undo()
        since = max(int(np.argmax(~np.isnan(tr.est_error_l2))) + 1 for tr in trajs)
        assert len(rounds) == T and since < T - 10
        expected = {name: n * len(seeds) for name, n in calls.items()}
        assert rounds[since:] == [expected] * (T - since)
        assert sum(calls.values()) == (2 if kind == "greedy" else 4)


@pytest.mark.parametrize("kind", ["greedy", "linucb", "lints"])
@pytest.mark.parametrize("dist", ["gaussian", "trunc-cauchy", "uniform-ball"])
@pytest.mark.parametrize("d", [1, 5, 20, 64])
def test_block_matches_single_runs(kind, dist, d):
    # A lockstep block of R replications gives each replication the bytes of
    # its run alone: every batched score, regret, norm and update row must
    # be computed exactly as a one-row stack computes it.  K = 7 is not a
    # multiple of the BLAS kernels' row blocking; at d = 20 a single
    # (R K, d) @ theta product rounds some rows differently from the
    # per-replication (K, d) products.  The specs cover the correlated
    # gaussian, a box-truncated Cauchy drawn by inverse CDF and the uniform
    # ball.  The widest block runs past round d, so its rows are identified.
    spec = preset_spec(dist, d)
    T = max(40, d + 20)
    rng = np.random.default_rng(d)
    inst = make_instance(spec, d, 7, 0.5, rng)
    cfg = PolicyConfig(kind, theta0=sphere_vector(d, rng) if kind == "greedy"
                       else None)
    fields = ("arm", "optimal_arm", "reward", "inst_regret", "est_error_l2",
              "gram_min_eig", "max_ctx_norm")
    for seeds in ([101], [101, 202, 303]):
        block = run_episode(inst, cfg, T, seeds)
        assert len(block) == len(seeds)
        for seed, traj in zip(seeds, block):
            alone = run_episode(inst, cfg, T, [seed])[0]
            for name in fields:
                assert getattr(traj, name).tobytes() == getattr(alone, name).tobytes(), name


def test_wide_gram_record_invariants():
    # perfbench's checks on the record, at d = 100: zero while rank < d and
    # non-decreasing (Loewner order), each within roundoff of 1e-10 per round
    # of data in Sigma.
    d, T = 100, 300
    rng = np.random.default_rng(3)
    inst = make_instance(gaussian_spec(), d, 20, 0.5, rng)
    cfg = PolicyConfig("greedy", theta0=sphere_vector(d, rng))
    eig = run_episode(inst, cfg, T, [5])[0].gram_min_eig
    tol = 1e-10 * np.arange(1, T + 1)
    assert np.all(np.abs(eig[:d - 1]) <= tol[:d - 1])
    assert np.all(np.diff(eig) >= -tol[1:])
    assert eig[-1] > 0


def test_episode_does_not_import_scipy_special():
    """Box-truncated Cauchy and gaussian episodes leave scipy.special unloaded.

    Importing scipy.special costs a process 3.4-3.8 MB of resident memory
    (a short d20-k100 trunc-cauchy run peaks at 65.0 MB with it and 61.6 MB
    without), more than the 5% by which perfbench lets peak_rss_mb grow.
    Only the student-t and diagonal-gaussian box samplers need it, so they
    import it themselves; this runs the trunc-cauchy and gaussian presets in
    a fresh interpreter and checks that nothing else did.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import sys\n"
            "from greedybandit.harness import preset_config, run_experiment\n"
            "for dist in ('trunc-cauchy', 'gaussian'):\n"
            "    run_experiment(preset_config('d20-k20', dist, T=5, reps=1, seed=1))\n"
            "print('scipy.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_block_round_looks_up_traced_names(monkeypatch):
    # perfbench's tracer wraps env.sample_context_set and policies.policy_step
    # by name and keys policy_step on its PolicyConfig second argument, so a
    # rename or a changed call fails here instead of in a traced run.
    contexts_calls, step_configs = [], []
    sample, step = env.sample_context_set, policies.policy_step

    def counted_sample(spec, d, K, rngs):
        contexts_calls.append(rngs)
        return sample(spec, d, K, rngs)

    def counted_step(*args, **kwargs):
        step_configs.append(args[1])
        return step(*args, **kwargs)

    monkeypatch.setattr(env, "sample_context_set", counted_sample)
    monkeypatch.setattr(policies, "policy_step", counted_step)
    run_episode(small_instance(), PolicyConfig("linucb"), 5, [1, 2, 3])
    assert len(contexts_calls) == 5
    for rngs in contexts_calls:
        assert len(rngs) == 3
        assert all(isinstance(g, np.random.Generator) for g in rngs)
    assert len(step_configs) == 5
    assert all(isinstance(c, PolicyConfig) for c in step_configs)


# ---------------------------------------------------------------------------
# The gram_min_eig record in the forked helper


def helper_config(tmp_path, d, reps, T=None):
    """Three policies at K = 5, past identification unless T says otherwise."""
    return ExperimentConfig(d=d, K=5, T=T or d + 20, reps=reps, seed=3,
                            spec=gaussian_spec(rho=0.3),
                            policies=default_policies(),
                            output_dir=str(tmp_path / "out"), emit_svg=False)


def inline_runs(config, table):
    """Each policy's trajectories of the experiment, in rep order, from bare
    run_episode calls of the same blocks, which record inline."""
    _, _, seeds = _episode_seeds(config)
    inst = BanditInstance(theta_star=table.theta_star, sigma=config.sigma,
                          spec=config.spec, d=config.d, K=config.K)
    runs = {}
    for p, pol in enumerate(config.policies):
        if pol.kind == "greedy":
            pol = dataclasses.replace(pol, theta0=table.theta0)
        block = seeds[p * config.reps:(p + 1) * config.reps]
        runs[pol.name] = run_episode(inst, pol, config.T, block)
    return runs


def trajectory_bytes(trajectories):
    return {key: [[getattr(tr, f.name).tobytes() for f in dataclasses.fields(tr)]
                  for tr in trajs]
            for key, trajs in trajectories.items()}


def check_helper_run(config, monkeypatch):
    """Run the experiment with its record in one helper, which is reaped
    afterwards, and check every trajectory against the inline record."""
    forks = recorded_forks(monkeypatch)
    table = run_experiment(config)
    (pid, _), = forks
    assert_reaped(pid)
    assert trajectory_bytes(table.trajectories) == \
        trajectory_bytes(inline_runs(config, table))


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("d", [1, 5, 20, 64, 100])
def test_helper_record_matches_inline_runs(d, reps, tmp_path, monkeypatch):
    check_helper_run(helper_config(tmp_path, d, reps), monkeypatch)


# Rounds per arm batch of a d = 20 block of three replications.
BATCH_20 = env.BATCH_BYTES // (3 * 20 * 20 * 8)


@pytest.mark.parametrize("T", [1, BATCH_20 - 1, BATCH_20, BATCH_20 + 1,
                               2 * BATCH_20 + 1])
def test_helper_record_across_batch_boundaries(T, tmp_path, monkeypatch):
    # The horizons end inside the first batch, on its last round, and one
    # round into the second and the third.
    check_helper_run(helper_config(tmp_path, 20, 3, T), monkeypatch)


def test_helper_makes_every_subset_solve(tmp_path, monkeypatch):
    # R T record solves per policy, all in the helper and none in the
    # parent, whose identification gates (range "A") stay in the loop.
    # Every round runs inside the experiment's one-thread pin, entered
    # before the fork, so no block changes a thread count while the helper
    # lives.
    log, depths, step = tmp_path / "solves.log", [], policies.policy_step

    def recording(*args, **kwargs):
        depths.append(blas._pin_depth)
        return step(*args, **kwargs)

    logged_subset_solves(monkeypatch, log)
    monkeypatch.setattr(policies, "policy_step", recording)
    forks = recorded_forks(monkeypatch)
    run_experiment(helper_config(tmp_path, 5, 3, T=40))
    (pid, _), = forks
    assert log.read_text().split() == [str(pid)] * (3 * 3 * 40)
    assert depths == [2] * (3 * 40)


def test_helper_error_surfaces_as_linalg_error(tmp_path, monkeypatch):
    parent, dsyevr, solves = os.getpid(), lapack.dsyevr, []

    def failing(*args, **kwargs):
        w, z, m, isuppz, info = dsyevr(*args, **kwargs)
        if kwargs["range"] == "I" and os.getpid() != parent:
            solves.append(1)
            info = 3 if len(solves) == 17 else info
        return w, z, m, isuppz, info

    monkeypatch.setattr(lapack, "dsyevr", failing)
    forks = recorded_forks(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match=r"^dsyevr failed \(info 3\)$"):
        run_experiment(helper_config(tmp_path, 20, 2, T=60))
    (pid, _), = forks
    assert_reaped(pid)


def test_loop_error_stops_the_helper(tmp_path, monkeypatch):
    # Non-finite contexts from round 30 on: the update rejects them, and the
    # helper is stopped and reaped before the error leaves run_experiment.
    sample, calls = env.sample_context_set, []

    def poisoned(*args):
        X = sample(*args)
        calls.append(1)
        return X * np.nan if len(calls) >= 30 else X

    monkeypatch.setattr(env, "sample_context_set", poisoned)
    forks = recorded_forks(monkeypatch)
    with pytest.raises(ValueError, match="finite"):
        run_experiment(helper_config(tmp_path, 20, 2, T=60))
    (pid, _), = forks
    assert_reaped(pid)


@pytest.mark.parametrize("d, reps", [(100, 1), (20, 10), (100, 10)])
def test_helper_holds_one_batch_of_arms(d, reps):
    # The parent's part of the record: one buffer of as many rounds' arms as
    # one round's Gram stack fits into BATCH_BYTES, at least one round.
    with contextlib.ExitStack() as stack:
        helper = env.GramHelper.start(stack)
        run_episode(small_instance(d=d), PolicyConfig("linucb"), 3,
                    list(range(reps)), helper=helper)
    assert_reaped(helper.pid)
    rounds = max(1, env.BATCH_BYTES // (reps * d * d * 8))
    assert helper.arms.shape == (rounds, reps, d)
    assert helper.arms.nbytes <= max(env.BATCH_BYTES / d, reps * d * 8)


def test_jobs_fork_only_the_workers_they_use(tmp_path, monkeypatch):
    # One policy of two replications makes two blocks: --jobs 4 forks two
    # pool workers and no helper.
    config = dataclasses.replace(helper_config(tmp_path, 5, 2), jobs=4,
                                 policies=default_policies(("linucb",)))
    forks = recorded_forks(monkeypatch)
    table = run_experiment(config)
    assert len(forks) == 2
    serial = run_experiment(dataclasses.replace(config, jobs=1))
    assert trajectory_bytes(table.trajectories) == \
        trajectory_bytes(serial.trajectories)


def kill(pid):
    """SIGKILL the child pid and wait until it has exited, without reaping
    it."""
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


@pytest.mark.parametrize("collecting", [False, True], ids=["sending", "collecting"])
def test_helper_exit_surfaces_as_runtime_error(collecting, tmp_path, monkeypatch):
    # The helper dies in the first block: in its second round, so the loop's
    # first send fails, or, stopped in the block's last round, while the loop
    # waits for the record.  The helper has the batch and the end marker
    # unread then, and the wait fails.
    T, step, steps = 60, policies.policy_step, []
    forks, recv = recorded_forks(monkeypatch), multiprocessing.connection.Connection.recv

    def killing_recv(conn):
        kill(forks[0][0])
        return recv(conn)

    def stepping(*args, **kwargs):
        steps.append(1)
        (pid, _), = forks
        if not collecting and len(steps) == 2:
            kill(pid)
        elif collecting and len(steps) == T:
            os.kill(pid, signal.SIGSTOP)
            monkeypatch.setattr(multiprocessing.connection.Connection, "recv",
                                killing_recv)
        return step(*args, **kwargs)

    monkeypatch.setattr(policies, "policy_step", stepping)
    with pytest.raises(RuntimeError, match="^the gram_min_eig helper exited$"):
        run_experiment(helper_config(tmp_path, 20, 2, T=T))
    (pid, _), = forks
    assert_reaped(pid)


@pytest.mark.parametrize("gate", ["thread", "no_fork"])
def test_experiments_record_inline_where_no_fork_is_safe(gate, tmp_path, monkeypatch):
    # Under a caller with a thread of its own, or without os.fork,
    # run_experiment forks no helper and records inline.
    config, counts = helper_config(tmp_path, 5, 2), blas.thread_counts()
    forks, parked = recorded_forks(monkeypatch), threading.Event()
    waiter = threading.Thread(target=parked.wait)
    if gate == "thread":
        waiter.start()
    else:
        monkeypatch.delattr(os, "fork")
    try:
        table = run_experiment(config)
    finally:
        parked.set()
        if gate == "thread":
            waiter.join()
    assert forks == []
    assert trajectory_bytes(table.trajectories) == \
        trajectory_bytes(inline_runs(config, table))
    assert blas.thread_counts() == counts


def test_bare_episodes_record_inline(monkeypatch):
    # A bare run_episode call forks no helper and starts no thread, at any d.
    forks = recorded_forks(monkeypatch)
    counts, step = [], policies.policy_step

    def recording(*args, **kwargs):
        counts.append(threading.active_count())
        return step(*args, **kwargs)

    monkeypatch.setattr(policies, "policy_step", recording)
    threads = threading.active_count()
    run_episode(small_instance(d=64, K=3), PolicyConfig("linucb"), 10, [1, 2])
    assert counts == [threads] * 10
    assert forks == []
