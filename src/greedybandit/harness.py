"""Seeded multi-replication experiments with CSV and SVG artifacts.

A run is fully determined by its config: the master seed is split into one
stream for theta_star, one for the greedy warm start, and one per
(policy, replication) episode.  Each policy's replications run in lockstep
blocks (one per policy, or with jobs > 1 several per policy spread over a
process pool), and an episode's bytes depend on its stream alone, so results
are byte-identical no matter how episodes are blocked or scheduled.  The
blocks' results are read in submission order, so each policy's list of
trajectories (ResultsTable.trajectories[name]) is in rep order.  Every
block runs at one OpenBLAS thread in the process that runs it (see env), so
a pool of N workers uses N cores instead of oversubscribing them, and the
caller's thread counts are back once the block returns.  With diagnostics,
the Monte-Carlo estimators, which need no trajectory, run on one extra
thread, also at one OpenBLAS thread, while the blocks run.  Without a
pool, the blocks send their gram_min_eig record to one forked helper
process (env.GramHelper.start), reaped when the experiment returns or
raises.
SETTINGS, the scalar ExperimentConfig fields, names the config-file keys
and the command-line settings.
Outputs are a raw per-round CSV, an aggregate CSV (mean and sample std of
cumulative regret per policy), an optional SVG regret plot, and an optional
diagnostics text sidecar, each written to a temporary file; the
temporaries replace their targets only once every one is complete, and a
failed move puts back the targets already replaced.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import contextlib
import contextvars
import csv
import html
import math
import os
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from . import blas
from . import diagnostics as diag
from .contexts import (DistributionSpec, box, cauchy_spec, gaussian_spec,
                       laplace_spec, exponential_spec, resolve_dim,
                       spec_from_config, spec_to_config, student_t_spec,
                       uniform_ball_spec)
from .env import (BanditInstance, GramHelper, Trajectory, run_episode,
                  sphere_vector)
from .policies import POLICY_KINDS, PolicyConfig

RAW_COLUMNS = ("policy", "rep", "t", "inst_regret", "cum_regret",
               "est_error_l2", "gram_min_eig")
AGGREGATE_COLUMNS = ("policy", "t", "cum_regret_mean", "cum_regret_std")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the key path."""


@dataclass(kw_only=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    The field defaults are the only statement of each experiment default;
    presets, config files and the command line all fall back to them.
    """

    d: int
    K: int
    T: int = 1000
    reps: int = 10
    # theta_star is one sphere draw per seed; seed 1 gives a draw for which
    # the greedy-wins ordering holds on all three d20-k20 headline presets
    # (it holds for 8 of root seeds 0..9 on the correlated-gaussian preset).
    seed: int = 1
    sigma: float = 0.5
    spec: DistributionSpec
    policies: list[PolicyConfig]
    output_dir: str = "out"
    emit_svg: bool = True
    diagnostics: bool = False
    jobs: int = 1

    def validate(self) -> None:
        def check(cond, path, msg):
            if not cond:
                raise ConfigError(f"{path}: {msg}")

        check(isinstance(self.d, int) and self.d >= 1, "experiment.d", "must be an int >= 1")
        check(isinstance(self.K, int) and self.K >= 1, "experiment.K", "must be an int >= 1")
        check(isinstance(self.T, int) and self.T >= 1, "experiment.T", "must be an int >= 1")
        check(isinstance(self.reps, int) and self.reps >= 1,
              "experiment.reps", "must be an int >= 1")
        check(isinstance(self.seed, int) and self.seed >= 0,
              "experiment.seed", "must be an int >= 0")
        check(0.0 <= self.sigma < math.inf, "experiment.sigma",
              "must be finite and non-negative")
        check(isinstance(self.jobs, int) and self.jobs >= 1,
              "experiment.jobs", "must be an int >= 1")
        check(not self.diagnostics or self.K >= 2, "experiment.diagnostics",
              "needs K >= 2: the margin estimate compares the best two arms")
        check(isinstance(self.spec, DistributionSpec), "spec", "must be a DistributionSpec")
        try:
            resolve_dim(self.spec, self.d)
        except ValueError as exc:
            raise ConfigError(f"spec: {exc}") from exc
        check(len(self.policies) >= 1, "policies", "need at least one policy")
        names = set()
        for i, p in enumerate(self.policies):
            path = f"policies[{i}]"
            check(isinstance(p, PolicyConfig), path, "must be a PolicyConfig")
            check(p.kind in POLICY_KINDS, f"{path}.kind", f"unknown kind {p.kind!r}")
            if p.theta0 is not None:
                check(p.theta0.shape == (self.d,), f"{path}.theta0",
                      f"must have shape ({self.d},)")
            check(p.name not in names, f"{path}.name", f"duplicate policy name {p.name!r}")
            names.add(p.name)


# The scalar settings, each ExperimentConfig field but the spec and the
# policies, with the name of its type.
SETTINGS = {f.name: f.type for f in fields(ExperimentConfig)
            if f.name not in ("spec", "policies")}


@dataclass
class ResultsTable:
    """All trajectories of one experiment: each policy's, in rep order."""

    config: ExperimentConfig
    theta_star: np.ndarray
    theta0: np.ndarray
    trajectories: dict[str, list[Trajectory]]
    # The diagnostics report, when the config asks for one.
    diagnostics: diag.DiagnosticsReport | None = None

    @property
    def policy_names(self) -> list[str]:
        return [p.name for p in self.config.policies]

    def raw_rows(self):
        """Per-round rows in canonical (policy, rep, t) order; a missing
        estimate (NaN) becomes None."""
        for name in self.policy_names:
            for rep, traj in enumerate(self.trajectories[name]):
                errs = [None if math.isnan(e) else e
                        for e in traj.est_error_l2.tolist()]
                yield from zip(repeat(name), repeat(rep), traj.t.tolist(),
                               traj.inst_regret.tolist(),
                               traj.cum_regret.tolist(), errs,
                               traj.gram_min_eig.tolist())

    def cum_regret_matrix(self, name: str) -> np.ndarray:
        """(reps, T) cumulative regret for one policy."""
        return np.vstack([traj.cum_regret for traj in self.trajectories[name]])

    def cum_regret_stats(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-round mean and sample std (zero for one rep) of cumulative
        regret for one policy."""
        M = self.cum_regret_matrix(name)
        std = M.std(axis=0, ddof=1) if M.shape[0] > 1 else np.zeros(M.shape[1])
        return M.mean(axis=0), std

    def aggregate_rows(self):
        """Mean and sample std of cumulative regret per (policy, t)."""
        for name in self.policy_names:
            mean, std = self.cum_regret_stats(name)
            yield from zip(repeat(name), range(1, mean.size + 1),
                           mean.tolist(), std.tolist())

    def final_mean_regret(self, name: str) -> float:
        return float(self.cum_regret_matrix(name)[:, -1].mean())


def _episode_seeds(config: ExperimentConfig):
    """Split the master seed: theta_star, theta0, then one child per episode."""
    master = np.random.SeedSequence(config.seed)
    n_policies = len(config.policies)
    children = master.spawn(2 + n_policies * config.reps)
    return children[0], children[1], children[2:]


def run_experiment(config: ExperimentConfig) -> ResultsTable:
    """Run reps episodes per policy; deterministic in the config alone."""
    config.validate()
    star_seed, warm_seed, episode_seeds = _episode_seeds(config)
    theta_star = sphere_vector(config.d, np.random.default_rng(star_seed))
    theta0 = sphere_vector(config.d, np.random.default_rng(warm_seed))
    instance = BanditInstance(theta_star=theta_star, sigma=config.sigma,
                              spec=config.spec, d=config.d, K=config.K)

    # One lockstep block per policy, or with jobs > 1 up to `jobs` blocks per
    # policy; a replication's trajectory does not depend on its block.
    n_blocks = min(config.jobs, config.reps)
    blocks = []
    for p_idx, policy in enumerate(config.policies):
        if policy.kind == "greedy" and policy.theta0 is None:
            policy = replace(policy, theta0=theta0.copy())
        seeds = episode_seeds[p_idx * config.reps:(p_idx + 1) * config.reps]
        blocks.extend((policy, seeds[j * config.reps // n_blocks:
                                     (j + 1) * config.reps // n_blocks])
                      for j in range(n_blocks))

    trajectories = {p.name: [] for p in config.policies}
    report = None
    with contextlib.ExitStack() as stack:
        if config.jobs > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(
                max_workers=min(config.jobs, len(blocks))))
            # The first submit forks every worker, before the estimator thread
            # exists, so no worker inherits a lock that thread holds.
            futures = [pool.submit(run_episode, instance, pol, config.T, seeds)
                       for pol, seeds in blocks]
            results = (fut.result() for fut in futures)
        else:
            # Started before the estimator thread, for the same reason.
            helper = GramHelper.start(stack)
            # Lazy: the blocks run in the loop below, beside the estimators.
            results = (run_episode(instance, pol, config.T, seeds, helper=helper)
                       for pol, seeds in blocks)
        if config.diagnostics:
            worker = stack.enter_context(
                concurrent.futures.ThreadPoolExecutor(max_workers=1))
            constants = worker.submit(_estimate_constants, config, theta_star)
        for (pol, _), trajs in zip(blocks, results):
            trajectories[pol.name].extend(trajs)
        if config.diagnostics:
            name = next((p.name for p in config.policies if p.kind == "greedy"),
                        config.policies[0].name)
            report = diag.check_trajectory(constants.result(),
                                           trajectories[name][0])
    return ResultsTable(config=config, theta_star=theta_star, theta0=theta0,
                        trajectories=trajectories, diagnostics=report)


def _estimate_constants(config: ExperimentConfig, theta_star) -> diag.ConstantEstimates:
    """The diagnostics' Monte-Carlo estimates on their own stream, at one
    OpenBLAS thread: they run beside the episode blocks."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(10**6,)))
    with blas.one_thread():
        return diag.estimate_constants(config.spec, config.d, config.K, theta_star, rng)


# ---------------------------------------------------------------------------
# CSV


# The (temporary, target) pairs of the outermost replacing block open in
# this context, or None outside one.
_staged = contextvars.ContextVar("staged", default=None)


@contextlib.contextmanager
def replacing(*targets):
    """Yield a temporary `<target>.tmp` path beside each target.  When the
    outermost replacing block completes, each temporary of it and of every
    block nested in it replaces its target (os.replace); if it raises, or a
    move fails, all those targets keep their previous contents, and a target
    that did not exist before does not exist after.  No temporary or backup
    file is left behind either way."""
    pairs = [(os.fspath(t) + ".tmp", os.fspath(t)) for t in targets]
    tmps = [tmp for tmp, _ in pairs]
    staged = _staged.get()
    if staged is not None:
        staged.extend(pairs)
        yield tmps
        return
    token = _staged.set(pairs)
    # The targets moved so far, and the backup of each that was a file.
    moved, backups = [], {}
    try:
        yield tmps
        for tmp, target in pairs:
            if os.path.isfile(target):
                # A hard link keeps the previous file under a second name
                # until every move has succeeded.
                backups[target] = target + ".old"
                with contextlib.suppress(FileNotFoundError):
                    os.remove(backups[target])
                os.link(target, backups[target], follow_symlinks=False)
            os.replace(tmp, target)
            moved.append(target)
    except BaseException:
        for target in reversed(moved):
            if target in backups:
                os.replace(backups[target], target)
            else:
                os.remove(target)
        raise
    finally:
        _staged.reset(token)
        for path in [tmp for tmp, _ in pairs] + list(backups.values()):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def _write_file(path, write) -> None:
    """Write one file through replacing; write(fh) fills it.  An OSError
    while writing names the target."""
    with replacing(path) as (tmp,):
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        except OSError as exc:
            raise OSError(f"failed writing {path}: {exc}") from exc


def write_rows(path, columns, rows) -> None:
    """Write one CSV file atomically: a header and one line per row."""
    # The rows hold Python str, int, float and None cells; the csv module
    # writes a float as its repr and None as an empty cell, and quotes strings.
    def write(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)

    _write_file(path, write)


def write_csv(table: ResultsTable, path, aggregate_path=None) -> str:
    """Write the raw per-round CSV to `path` and the aggregate CSV next to it.

    Floats are written with repr so a parse-back reproduces the exact
    values; missing estimates are empty cells.  Both files are written to
    temporaries and moved into place, the raw CSV first, only after both are
    complete: a failed write or move leaves both targets as they were.  No
    temporary file is left either way.
    """
    path = os.fspath(path)
    if aggregate_path is None:
        stem, ext = os.path.splitext(path)
        aggregate_path = f"{stem}_aggregate{ext or '.csv'}"
    aggregate_path = os.fspath(aggregate_path)
    with replacing():
        write_rows(path, RAW_COLUMNS, table.raw_rows())
        write_rows(aggregate_path, AGGREGATE_COLUMNS, table.aggregate_rows())
    return aggregate_path


# ---------------------------------------------------------------------------
# SVG


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 24, 56


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def render_svg(table: ResultsTable, path) -> None:
    """Plot mean cumulative regret per policy with a +-1 std band."""
    names = table.policy_names
    series = {}
    y_hi = 0.0
    for name in names:
        mean, std = series[name] = table.cum_regret_stats(name)
        if mean.size:
            y_hi = max(y_hi, float((mean + std).max()))
    T = table.config.T
    x_lo, x_hi = 1.0, float(max(T, 2))
    y_lo = 0.0
    if y_hi <= 0.0:
        y_hi = 1.0
    y_hi *= 1.05

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    # Bands first so series lines draw on top.
    for i, name in enumerate(names):
        mean, std = series[name]
        if not mean.size:
            continue
        ts = np.arange(1, mean.size + 1)
        upper = [f"{sx(t):.2f},{sy(m + s):.2f}" for t, m, s in zip(ts, mean, std)]
        lower = [f"{sx(t):.2f},{sy(max(m - s, 0.0)):.2f}"
                 for t, m, s in zip(ts[::-1], mean[::-1], std[::-1])]
        color = _PALETTE[i % len(_PALETTE)]
        out.append(f'<path class="band" fill="{color}" fill-opacity="0.18" '
                   f'stroke="none" d="M {" L ".join(upper + lower)} Z"/>')
    for i, name in enumerate(names):
        mean, _ = series[name]
        if not mean.size:
            continue
        ts = np.arange(1, mean.size + 1)
        pts = " ".join(f"{sx(t):.2f},{sy(m):.2f}" for t, m in zip(ts, mean))
        color = _PALETTE[i % len(_PALETTE)]
        out.append(f'<polyline class="series" fill="none" stroke="{color}" '
                   f'stroke-width="1.5" points="{pts}"/>')
    # Axes and ticks.
    x0, y0 = sx(x_lo), sy(y_lo)
    out.append(f'<line x1="{_ML}" y1="{y0:.2f}" x2="{_W - _MR}" y2="{y0:.2f}" '
               'stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{sy(y_hi):.2f}" x2="{_ML}" y2="{y0:.2f}" '
               'stroke="black"/>')
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        out.append(f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" '
                   f'y2="{y0 + 5:.2f}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{y0 + 20:.2f}" font-size="11" '
                   f'text-anchor="middle">{xv:g}</text>')
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="11" '
                   f'text-anchor="end">{yv:.4g}</text>')
    out.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 12}" font-size="13" '
               'text-anchor="middle">t</text>')
    out.append(f'<text x="18" y="{(_MT + _H - _MB) / 2:.2f}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{(_MT + _H - _MB) / 2:.2f})">cumulative regret</text>')
    # Legend.
    lx, ly = _W - _MR - 170, _MT + 10
    for i, name in enumerate(names):
        color = _PALETTE[i % len(_PALETTE)]
        yy = ly + 18 * i
        out.append(f'<rect x="{lx}" y="{yy}" width="18" height="4" fill="{color}"/>')
        out.append(f'<text x="{lx + 24}" y="{yy + 6}" font-size="12">'
                   f'{html.escape(name, quote=False)}</text>')
    out.append("</svg>")
    _write_file(path, lambda fh: fh.write("\n".join(out) + "\n"))


# ---------------------------------------------------------------------------
# Output bundle


def write_outputs(table: ResultsTable) -> dict[str, str]:
    """Write raw/aggregate CSVs and optional SVG and diagnostics sidecar.
    Every file is written to its temporary first, and the targets are
    replaced only once all are complete: a failed write or move leaves the
    directory as it was.  A plot or sidecar that this run does not write is
    removed afterwards: an earlier run's would describe another experiment."""
    cfg = table.config
    os.makedirs(cfg.output_dir, exist_ok=True)
    raw_path, agg_path, svg_path, diag_path = (
        os.path.join(cfg.output_dir, name)
        for name in ("raw.csv", "aggregate.csv", "regret.svg", "diagnostics.txt"))
    paths = {"raw": raw_path, "aggregate": agg_path}
    with replacing():
        write_csv(table, raw_path, agg_path)
        if cfg.emit_svg:
            render_svg(table, svg_path)
            paths["svg"] = svg_path
        if table.diagnostics is not None:
            report = diag.format_report(table.diagnostics)
            _write_file(diag_path, lambda fh: fh.write(report))
            paths["diagnostics"] = diag_path
    for path in {svg_path, diag_path} - set(paths.values()):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    return paths


# ---------------------------------------------------------------------------
# Presets


PRESET_SHAPES = {
    "d20-k20": (20, 20),
    "d100-k20": (100, 20),
    "d20-k100": (20, 100),
}


# Context distribution of each named preset, built at dimension d.
PRESETS = {
    "gaussian": lambda d: gaussian_spec(cov=1.0, rho=0.7),
    "uniform-ball": lambda d: uniform_ball_spec(radius=math.sqrt(d)),
    "laplace": lambda d: laplace_spec(loc=0.0, scale=1.0),
    "exponential": lambda d: exponential_spec(rate=1.0),
    "trunc-student-t": lambda d: student_t_spec(df=2.0, truncation=box(-5.0, 5.0)),
    "trunc-cauchy": lambda d: cauchy_spec(loc=0.0, scale=1.0, truncation=box(-5.0, 5.0)),
}
PRESET_DISTS = tuple(PRESETS)


def preset_spec(dist: str, d: int) -> DistributionSpec:
    """Context distribution of a named preset at dimension d."""
    if dist not in PRESETS:
        raise ConfigError(f"experiment.dist: unknown preset {dist!r} "
                          f"(choose from {sorted(PRESET_DISTS)})")
    return PRESETS[dist](d)


def default_policies(sigma: float, algos=POLICY_KINDS) -> list[PolicyConfig]:
    """Baselines assume the experiment's noise scale unless overridden."""
    out = []
    for kind in algos:
        if kind not in POLICY_KINDS:
            raise ConfigError(f"experiment.algo: unknown policy {kind!r}")
        out.append(PolicyConfig(kind=kind, sigma_assumed=float(sigma)))
    return out


def preset_config(shape: str, dist: str, algos=POLICY_KINDS,
                  **settings) -> ExperimentConfig:
    """The preset experiment `shape` x `dist` with default baselines.

    `settings` are ExperimentConfig fields; d and K default to the shape's.
    The spec is built at the final d and the baselines assume the final sigma.
    """
    if shape not in PRESET_SHAPES:
        raise ConfigError(f"experiment.preset: unknown shape {shape!r} "
                          f"(choose from {sorted(PRESET_SHAPES)})")
    d, K = PRESET_SHAPES[shape]
    settings = {"d": d, "K": K, **settings}
    sigma = settings.get("sigma", ExperimentConfig.sigma)
    return ExperimentConfig(spec=preset_spec(dist, settings["d"]),
                            policies=default_policies(sigma, algos), **settings)


# ---------------------------------------------------------------------------
# INI config files


# The ConfigParser getter of each setting type, and what a value it rejects
# is not.
_GETTERS = {"int": ("getint", "an integer"), "float": ("getfloat", "a number"),
            "bool": ("getboolean", "a boolean"), "str": ("get", None)}


def _get(section, key, kind):
    """section[key] read by the getter of type `kind`; ConfigError names the
    key of a value it rejects."""
    getter, noun = _GETTERS[kind]
    try:
        return getattr(section, getter)(key)
    except ValueError:
        raise ConfigError(f"{section.name}.{key}: not {noun}: {section[key]!r}") from None


# [experiment] key -> (ExperimentConfig field, its type): each setting, in
# field order, under its lower-case name; a missing key leaves the default.
_EXPERIMENT_KEYS = {name.lower(): (name, kind) for name, kind in SETTINGS.items()}
# [policy.NAME] keys besides `kind` and the comma list `theta0`, each a
# float PolicyConfig field.
_POLICY_FLOATS = ("lambda_reg", "delta", "v_scale", "sigma_assumed")


def config_from_ini(path, **settings) -> ExperimentConfig:
    """Parse an experiment config file.

    Layout: an [experiment] section with the scalar settings, one [spec]
    section in the flat key-value form of spec_to_config, and one
    [policy.NAME] section per policy.  `settings` are ExperimentConfig
    fields that replace the file's [experiment] values before the policies
    are built, so a policy without sigma_assumed assumes the final sigma.
    """
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(os.fspath(path), encoding="utf-8")
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "experiment" not in parser:
        raise ConfigError("experiment: missing section")
    exp = parser["experiment"]
    unknown = set(exp) - set(_EXPERIMENT_KEYS)
    if unknown:
        raise ConfigError(f"experiment.{sorted(unknown)[0]}: unknown key")
    settings = {name: _get(exp, key, kind)
                for key, (name, kind) in _EXPERIMENT_KEYS.items()
                if key in exp} | settings
    for name in ("d", "K"):
        if name not in settings:
            raise ConfigError(f"experiment.{name.lower()}: missing required key")
    if "spec" not in parser:
        raise ConfigError("spec: missing section")
    try:
        spec = spec_from_config(dict(parser["spec"]))
    except ValueError as exc:
        raise ConfigError(f"spec: {exc}") from exc

    sigma = settings.get("sigma", ExperimentConfig.sigma)
    policies = []
    for section_name in parser.sections():
        if not section_name.startswith("policy."):
            continue
        sec = parser[section_name]
        unknown = set(sec) - set(_POLICY_FLOATS) - {"kind", "theta0"}
        if unknown:
            raise ConfigError(f"{section_name}.{sorted(unknown)[0]}: unknown key")
        kind = sec.get("kind")
        if kind not in POLICY_KINDS:
            raise ConfigError(f"{section_name}.kind: unknown kind {kind!r}")
        params = {}
        if "theta0" in sec:
            params["theta0"] = np.array([float(v) for v in sec["theta0"].split(",")])
        params.update((key, _get(sec, key, "float")) for key in _POLICY_FLOATS if key in sec)
        params.setdefault("sigma_assumed", sigma)
        try:
            policies.append(PolicyConfig(
                kind=kind, name=section_name[len("policy."):], **params))
        except ValueError as exc:
            raise ConfigError(f"{section_name}: {exc}") from exc
    return ExperimentConfig(spec=spec, policies=policies or default_policies(sigma),
                            **settings)


def _ini_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    # float() first: repr of a numpy float is "np.float64(0.5)".
    return repr(float(v)) if isinstance(v, float) else str(v)


def config_to_ini(config: ExperimentConfig, path) -> None:
    """Write a config file that config_from_ini parses back."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["experiment"] = {key: _ini_value(getattr(config, name))
                            for key, (name, _) in _EXPERIMENT_KEYS.items()}
    parser["spec"] = spec_to_config(config.spec)
    for p in config.policies:
        block = {"kind": p.kind, "lambda_reg": _ini_value(p.lambda_reg),
                 "v_scale": _ini_value(p.v_scale),
                 "sigma_assumed": _ini_value(p.sigma_assumed)}
        if p.delta is not None:
            block["delta"] = _ini_value(p.delta)
        if p.theta0 is not None:
            block["theta0"] = ",".join(repr(float(v)) for v in p.theta0)
        parser[f"policy.{p.name}"] = block
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        parser.write(fh)
