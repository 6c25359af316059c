import builtins
import configparser
import csv
import dataclasses
import json
import math
import os
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import greedybandit
from greedybandit import blas, cli, harness
from greedybandit import diagnostics as diag
from greedybandit.contexts import (Region, ball, box, cauchy_spec,
                                   exponential_spec, gaussian_spec,
                                   laplace_spec, pinned_dim,
                                   sample_context_set, student_t_spec,
                                   uniform_ball_spec)
from greedybandit.harness import (AGGREGATE_COLUMNS, ConfigError,
                                  ExperimentConfig, RAW_COLUMNS,
                                  config_from_ini, config_to_ini,
                                  default_policies, preset_config,
                                  render_svg, run_experiment, write_csv,
                                  write_outputs, _episode_seeds)
from greedybandit.policies import POLICY_KINDS, POLICY_PARAMS, PolicyConfig

SVG_NS = "{http://www.w3.org/2000/svg}"
# The text config_to_ini writes for each of PINNED_CONFIGS: a change to it
# is a change to the config file format.
PINNED_INI = Path(__file__).parent / "golden" / "config_ini.json"

# Every family, each covariance form, both regions, and one-element vectors,
# which pin d = 1 and must come back vectors.
ROUND_TRIP_SPECS = [
    gaussian_spec(),
    gaussian_spec(cov=1.0, rho=0.7),
    gaussian_spec(mean=np.array([1.0, -1.0]), cov=np.array([[2.0, 0.3], [0.3, 1.0]])),
    gaussian_spec(cov=np.array([1.0, 4.0])),
    laplace_spec(loc=0.5, scale=2.0),
    uniform_ball_spec(radius=math.sqrt(20)),
    exponential_spec(rate=np.array([1.0, 2.0])),
    student_t_spec(df=2.0, truncation=box(-5.0, 5.0)),
    cauchy_spec(truncation=ball(4.0)),
    laplace_spec(loc=np.array([0.5])),
    exponential_spec(rate=np.array([2.0])),
    laplace_spec(truncation=box([0.0], [1.0])),
]


def spec_config(spec) -> ExperimentConfig:
    """A default experiment around spec, at the d it pins or else 2."""
    return ExperimentConfig(d=pinned_dim(spec) or 2, K=3, spec=spec,
                            policies=default_policies())


PINNED_CONFIGS = {
    **{f"spec-{i}": lambda spec=spec: spec_config(spec)
       for i, spec in enumerate(ROUND_TRIP_SPECS)},
    **{f"d20-k20-{dist}": lambda dist=dist: preset_config("d20-k20", dist)
       for dist in harness.PRESET_DISTS},
}


def tiny_config(tmp_path, **kw):
    base = dict(d=2, K=3, T=20, reps=2, seed=5, sigma=0.5, spec=gaussian_spec(),
                policies=default_policies(), output_dir=str(tmp_path / "out"),
                emit_svg=True, diagnostics=False, jobs=1)
    base.update(kw)
    return ExperimentConfig(**base)


def assert_same_spec(a, b):
    """a and b are the same spec: kind, truncation, pinned dimension, and
    every parameter, an array with its shape and dtype."""
    assert a.kind == b.kind
    assert a.truncation == b.truncation
    assert pinned_dim(a) == pinned_dim(b)
    for name in ("mean", "cov", "loc", "scale", "rate"):
        np.testing.assert_array_equal(np.asarray(getattr(a, name)),
                                      np.asarray(getattr(b, name)), strict=True)
    assert (a.radius, a.df, a.rho) == (b.radius, b.df, b.rho)


def load_raw_csv(path):
    """Parse a raw CSV back into typed rows (inverse of write_csv)."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != RAW_COLUMNS:
            raise ValueError(f"unexpected header {header}")
        for rec in reader:
            policy, rep, t, inst, cum, err, eig = rec
            rows.append((policy, int(rep), int(t), float(inst), float(cum),
                         None if err == "" else float(err), float(eig)))
    return rows


class TestValidation:
    def test_key_paths_in_messages(self, tmp_path):
        with pytest.raises(ConfigError, match="experiment.T"):
            tiny_config(tmp_path, T=0).validate()
        with pytest.raises(ConfigError, match="experiment.reps"):
            tiny_config(tmp_path, reps=0).validate()
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="experiment.sigma"):
                tiny_config(tmp_path, sigma=sigma).validate()
        with pytest.raises(ConfigError, match="policies"):
            tiny_config(tmp_path, policies=[]).validate()

    def test_spec_dim_conflict(self, tmp_path):
        with pytest.raises(ConfigError, match="spec"):
            tiny_config(tmp_path, spec=gaussian_spec(mean=np.zeros(3)))

    def test_theta0_shape(self, tmp_path):
        pols = [PolicyConfig("greedy", theta0=np.zeros(5))]
        with pytest.raises(ConfigError, match=r"policies\[0\].theta0"):
            tiny_config(tmp_path, policies=pols).validate()

    def test_diagnostics_need_two_arms(self, tmp_path):
        with pytest.raises(ConfigError, match="experiment.diagnostics: needs K >= 2"):
            tiny_config(tmp_path, K=1, diagnostics=True).validate()
        tiny_config(tmp_path, K=1).validate()

    def test_configs_are_frozen(self, tmp_path):
        # A config is checked when built, so no field may change afterwards.
        cfg = tiny_config(tmp_path)
        for obj in (cfg, *cfg.policies):
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))
        assert isinstance(cfg.policies, tuple)

    def test_duplicate_names(self, tmp_path):
        pols = [PolicyConfig("greedy", theta0=np.zeros(2), name="a"),
                PolicyConfig("linucb", name="a")]
        with pytest.raises(ConfigError, match="duplicate"):
            tiny_config(tmp_path, policies=pols).validate()


class TestRunExperiment:
    def test_trajectory_and_row_counts(self, tmp_path):
        cfg = tiny_config(tmp_path, reps=3)
        table = run_experiment(cfg)
        assert sum(map(len, table.trajectories.values())) == 3 * 3
        assert len(list(table.raw_rows())) == 3 * 3 * cfg.T
        assert len(list(table.aggregate_rows())) == 3 * cfg.T

    def test_reps_one_zero_std(self, tmp_path):
        table = run_experiment(tiny_config(tmp_path, reps=1))
        stds = [row[3] for row in table.aggregate_rows()]
        assert all(s == 0.0 for s in stds)

    def test_linucb_noise_defaults_to_the_run_sigma(self, tmp_path):
        # An unset sigma_assumed is the experiment's sigma: the run writes the
        # bytes of one that sets it so, and not those of one that sets another.
        raw = {}
        for assumed in (None, 0.3, 0.5):
            out = tmp_path / str(assumed)
            write_outputs(run_experiment(tiny_config(
                tmp_path, sigma=0.3, T=60, output_dir=str(out), emit_svg=False,
                policies=[PolicyConfig("linucb", sigma_assumed=assumed)])))
            raw[assumed] = (out / "raw.csv").read_bytes()
        assert raw[None] == raw[0.3] != raw[0.5]

    def test_deterministic_rerun(self, tmp_path):
        a = run_experiment(tiny_config(tmp_path))
        b = run_experiment(tiny_config(tmp_path))
        assert list(a.raw_rows()) == list(b.raw_rows())
        np.testing.assert_array_equal(a.theta_star, b.theta_star)

    def test_frozen_spec_pickles_into_pool_workers(self, tmp_path):
        # The resolved parameters are cached per spec object, so a spec
        # never changes; it still crosses to the pool's workers.
        spec = gaussian_spec(cov=1.0, rho=0.5)
        for name, value in (("rho", 0.9), ("cov", -1.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
        serial = run_experiment(tiny_config(tmp_path, spec=spec, jobs=1))
        parallel = run_experiment(tiny_config(tmp_path, spec=spec, jobs=2))
        assert list(serial.raw_rows()) == list(parallel.raw_rows())

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_experiment(tiny_config(tmp_path, jobs=1))
        parallel = run_experiment(tiny_config(tmp_path, jobs=3))
        assert list(serial.raw_rows()) == list(parallel.raw_rows())

    def test_uneven_blocks_match_serial(self, tmp_path):
        # Two workers split each policy's three replications into blocks of
        # one and two; every trajectory keeps the bytes of the serial run.
        serial = run_experiment(tiny_config(tmp_path, reps=3, jobs=1))
        parallel = run_experiment(tiny_config(tmp_path, reps=3, jobs=2))
        assert serial.trajectories.keys() == parallel.trajectories.keys()
        for key, trajs in serial.trajectories.items():
            assert len(trajs) == len(parallel.trajectories[key])
            for traj, other in zip(trajs, parallel.trajectories[key]):
                for name in ("arm", "inst_regret", "est_error_l2", "gram_min_eig"):
                    assert getattr(traj, name).tobytes() == getattr(other, name).tobytes()
        assert list(serial.raw_rows()) == list(parallel.raw_rows())

    @pytest.mark.parametrize("kind", ["greedy", "linucb", "lints"])
    def test_single_round_experiment(self, tmp_path, kind):
        # delta resolves to 1/max(T, 2): 1/T = 1.0 is outside (0, 1).
        cfg = tiny_config(tmp_path, T=1, reps=2,
                          policies=default_policies((kind,)))
        table = run_experiment(cfg)
        assert len(list(table.raw_rows())) == 2
        assert table.cum_regret_matrix(kind).shape == (2, 1)

    def test_derived_seeds_pairwise_distinct(self, tmp_path):
        cfg = tiny_config(tmp_path, reps=4)
        _, _, seeds = _episode_seeds(cfg)
        keys = {s.spawn_key for s in seeds}
        assert len(keys) == len(seeds) == 3 * 4

    def test_aggregate_recompute_identical(self, tmp_path):
        table = run_experiment(tiny_config(tmp_path))
        rows1 = list(table.aggregate_rows())
        rows2 = list(table.aggregate_rows())
        for r1, r2 in zip(rows1, rows2):
            assert r1 == r2
        # Aggregate agrees with a recomputation from the raw rows.
        raw = list(table.raw_rows())
        for name, t, mean, std in rows1:
            vals = [r[4] for r in raw if r[0] == name and r[2] == t]
            assert abs(np.mean(vals) - mean) < 1e-12
            expected_std = np.std(vals, ddof=1) if len(vals) > 1 else 0.0
            assert abs(expected_std - std) < 1e-12


class TestCsv:
    def test_exact_columns_and_round_trip(self, tmp_path):
        table = run_experiment(tiny_config(tmp_path, T=3, reps=1))
        raw = tmp_path / "raw.csv"
        agg_path = write_csv(table, raw)
        lines = raw.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(RAW_COLUMNS)
        assert len(lines) == 1 + 3 * 3
        agg_lines = Path(agg_path).read_text(encoding="utf-8").splitlines()
        assert agg_lines[0] == ",".join(AGGREGATE_COLUMNS)
        parsed = load_raw_csv(raw)
        assert parsed == list(table.raw_rows())

    def test_newline_and_decimal_conventions(self, tmp_path):
        table = run_experiment(tiny_config(tmp_path, T=2, reps=1))
        raw = tmp_path / "raw.csv"
        write_csv(table, raw)
        blob = raw.read_bytes()
        assert b"\r" not in blob
        assert b";" not in blob.splitlines()[1]
        assert blob.decode("utf-8")

    def test_missing_estimate_is_empty_cell(self, tmp_path):
        # Early greedy rounds have no OLS estimate: empty est_error_l2 cells.
        table = run_experiment(tiny_config(tmp_path, T=3, reps=1, d=2))
        raw = tmp_path / "raw.csv"
        write_csv(table, raw)
        first_data = raw.read_text(encoding="utf-8").splitlines()[1]
        assert ",," in first_data

    def test_io_error_mentions_path(self, tmp_path):
        table = run_experiment(tiny_config(tmp_path, T=2, reps=1))
        with pytest.raises(OSError, match="no/such"):
            write_csv(table, tmp_path / "no" / "such" / "raw.csv")

    def test_quoted_policy_name_matches_csv_module(self, tmp_path):
        # With a comma and a double quote in a policy name the files must
        # still be the csv module's bytes, with floats written as their repr
        # and a missing estimate empty, and parse back to the same rows.
        name = 'ucb, "tuned"'
        cfg = tiny_config(tmp_path, T=4, reps=2, policies=[
            PolicyConfig("linucb", name=name, sigma_assumed=0.5),
            PolicyConfig("greedy")])
        table = run_experiment(cfg)
        raw, agg = tmp_path / "raw.csv", tmp_path / "agg.csv"
        write_csv(table, raw, agg)
        for path, columns, rows in ((raw, RAW_COLUMNS, table.raw_rows()),
                                    (agg, AGGREGATE_COLUMNS, table.aggregate_rows())):
            ref = tmp_path / f"ref_{path.name}"
            with open(ref, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(columns)
                w.writerows([repr(v) if isinstance(v, float) else
                             "" if v is None else v for v in row] for row in rows)
            assert path.read_bytes() == ref.read_bytes()
        assert '"ucb, ""tuned"""' in raw.read_text(encoding="utf-8")
        parsed = load_raw_csv(raw)
        assert parsed == list(table.raw_rows())
        assert {row[0] for row in parsed} == {name, "greedy"}
        assert any(row[5] is None for row in parsed)

    def test_failed_aggregate_leaves_no_new_raw(self, tmp_path, monkeypatch):
        table = run_experiment(tiny_config(tmp_path, T=3, reps=1))
        out = tmp_path / "csv"
        out.mkdir()
        (out / "raw.csv").write_text("old\n", encoding="utf-8")

        def failing_rows():
            yield ("greedy", 1, 0.0, 0.0)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(table, "aggregate_rows", failing_rows)
        with pytest.raises(OSError, match="aggregate.csv"):
            write_csv(table, out / "raw.csv", out / "aggregate.csv")
        assert sorted(p.name for p in out.iterdir()) == ["raw.csv"]
        assert (out / "raw.csv").read_text(encoding="utf-8") == "old\n"

    def test_failed_raw_move_names_raw(self, tmp_path):
        # The raw target is a directory, so moving its temporary into place
        # fails; the error names the raw CSV, not the aggregate written
        # after it.
        table = run_experiment(tiny_config(tmp_path, T=3, reps=1))
        out = tmp_path / "csv"
        (out / "raw.csv").mkdir(parents=True)
        with pytest.raises(OSError) as info:
            write_csv(table, out / "raw.csv", out / "agg.csv")
        assert str(out / "raw.csv") in str(info.value)
        assert str(out / "agg.csv") not in str(info.value)
        assert sorted(p.name for p in out.iterdir()) == ["raw.csv"]

    def test_unwritable_aggregate_leaves_nothing(self, tmp_path):
        table = run_experiment(tiny_config(tmp_path, T=3, reps=1))
        out = tmp_path / "csv"
        out.mkdir()
        with pytest.raises(OSError, match="missing"):
            write_csv(table, out / "raw.csv", tmp_path / "missing" / "agg.csv")
        assert list(out.iterdir()) == []


def fail_writes_to(monkeypatch, name):
    """Make every file whose name starts with `name` fail with ENOSPC halfway
    through its first write, as a full disk would."""
    real_open = builtins.open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if isinstance(path, (str, os.PathLike)) and \
                os.path.basename(os.fspath(path)).startswith(name):
            def write(text):
                fh.__class__.write(fh, text[:len(text) // 2])
                raise OSError(28, "No space left on device")
            fh.write = write
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)


class TestAtomicOutputs:
    @pytest.mark.parametrize("name", ["regret.svg", "diagnostics.txt"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name):
        # The second run has another seed, so every file it would write
        # differs; a failed write of any one leaves all four as they were.
        write_outputs(run_experiment(tiny_config(tmp_path, T=15, diagnostics=True)))
        out = tmp_path / "out"
        files = ("raw.csv", "aggregate.csv", "regret.svg", "diagnostics.txt")
        before = {f: (out / f).read_bytes() for f in files}
        table = run_experiment(tiny_config(tmp_path, T=15, diagnostics=True, seed=6))
        fail_writes_to(monkeypatch, name)
        target = re.escape(str(out / name))
        with pytest.raises(OSError, match=rf"^failed writing {target}: \[Errno 28\] No space"):
            write_outputs(table)
        assert {f: (out / f).read_bytes() for f in files} == before
        assert sorted(p.name for p in out.iterdir()) == sorted(files)

    @pytest.mark.parametrize("name", ["aggregate.csv", "diagnostics.txt"])
    def test_failed_move_keeps_previous_directory(self, tmp_path, monkeypatch, name):
        # The move of the second target, or of the last one after a plot the
        # first run did not write, fails: the targets moved before it get
        # their previous bytes back, the new plot is gone, and no temporary
        # or backup file is left.
        write_outputs(run_experiment(
            tiny_config(tmp_path, T=15, diagnostics=True, emit_svg=False)))
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["aggregate.csv", "diagnostics.txt", "raw.csv"]
        table = run_experiment(tiny_config(tmp_path, T=15, diagnostics=True, seed=6))
        replace = os.replace

        def failing(src, dst):
            if os.path.basename(src) == f"{name}.tmp":
                raise OSError(5, "Input/output error", src)
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(OSError, match="Input/output error"):
            write_outputs(table)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_matrix_summary_keeps_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "matrix"
        flags = ["--matrix", "--preset", "d20-k20", "--dist", "gaussian",
                 "--T", "5", "--reps", "1", "--no-svg", "--out", str(out)]
        assert cli.main(flags) == 0
        before = (out / "summary.csv").read_bytes()
        fail_writes_to(monkeypatch, "summary.csv")
        assert cli.main(flags) == 2
        assert (out / "summary.csv").read_bytes() == before
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


class TestSvg:
    def test_structure_three_policies(self, tmp_path):
        table = run_experiment(tiny_config(tmp_path, T=15))
        path = tmp_path / "plot.svg"
        render_svg(table, path)
        root = ET.parse(path).getroot()  # well-formed XML
        polys = root.findall(f"{SVG_NS}polyline")
        bands = [p for p in root.findall(f"{SVG_NS}path")
                 if p.get("class") == "band"]
        assert len(polys) == 3 and len(bands) == 3
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "t" in texts and "cumulative regret" in texts
        for name in table.policy_names:
            assert name in texts

    def test_legend_escapes_markup_only(self, tmp_path):
        # &, < and > are escaped in the legend and quotes are written as
        # they are: the bytes xml.sax.saxutils.escape gave.
        name = 'a<b> & "c\'s"'
        cfg = tiny_config(tmp_path, T=5, policies=[
            PolicyConfig(kind="greedy", name=name)])
        path = tmp_path / "named.svg"
        render_svg(run_experiment(cfg), path)
        assert '>a&lt;b&gt; &amp; "c\'s"</text>' in path.read_text()
        texts = [t.text for t in ET.parse(path).getroot().iter(f"{SVG_NS}text")]
        assert name in texts

    def test_constant_zero_series_flat(self, tmp_path):
        # K=1 forces zero regret every round: the series is a flat line on
        # the axis.
        cfg = tiny_config(tmp_path, K=1, T=10, reps=2,
                          policies=default_policies(("greedy",)))
        table = run_experiment(cfg)
        path = tmp_path / "flat.svg"
        render_svg(table, path)
        root = ET.parse(path).getroot()
        poly = root.find(f"{SVG_NS}polyline")
        ys = {pt.split(",")[1] for pt in poly.get("points").split()}
        assert len(ys) == 1


class TestOutputs:
    def test_write_outputs_bundle(self, tmp_path):
        cfg = tiny_config(tmp_path, T=10, diagnostics=False)
        paths = write_outputs(run_experiment(cfg))
        assert set(paths) == {"raw", "aggregate", "svg"}
        for p in paths.values():
            assert Path(p).read_bytes()

    def test_diagnostics_sidecar(self, tmp_path):
        cfg = tiny_config(tmp_path, T=60, reps=1, diagnostics=True)
        paths = write_outputs(run_experiment(cfg))
        text = Path(paths["diagnostics"]).read_text(encoding="utf-8")
        assert "lambda_star_hat" in text and "gram growth" in text

    def test_byte_identical_rerun(self, tmp_path):
        cfg1 = tiny_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg2 = tiny_config(tmp_path, output_dir=str(tmp_path / "b"))
        p1 = write_outputs(run_experiment(cfg1))
        p2 = write_outputs(run_experiment(cfg2))
        for key in ("raw", "aggregate", "svg"):
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()

    def test_rerun_without_svg_removes_earlier_plot(self, tmp_path):
        write_outputs(run_experiment(tiny_config(tmp_path, T=10)))
        paths = write_outputs(run_experiment(tiny_config(tmp_path, T=10,
                                                         emit_svg=False)))
        assert set(paths) == {"raw", "aggregate"}
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["aggregate.csv", "raw.csv"]

    def test_rerun_without_diagnostics_removes_earlier_sidecar(self, tmp_path):
        write_outputs(run_experiment(tiny_config(tmp_path, T=60, reps=1,
                                                 diagnostics=True)))
        paths = write_outputs(run_experiment(tiny_config(tmp_path, T=60, reps=1)))
        assert set(paths) == {"raw", "aggregate", "svg"}
        assert not (tmp_path / "out" / "diagnostics.txt").exists()


class TestDiagnosticsOverlap:
    """The Monte-Carlo estimators run on a worker thread beside the blocks."""

    @pytest.mark.parametrize("spec", [gaussian_spec(cov=1.0, rho=0.7),
                                      uniform_ball_spec(radius=2.0)],
                             ids=["gaussian", "uniform-ball"])
    def test_report_matches_serial_run_diagnostics(self, tmp_path, spec):
        cfg = tiny_config(tmp_path, d=4, K=5, T=60, spec=spec, diagnostics=True)
        table = run_experiment(cfg)
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(10**6,)))
        serial = diag.run_diagnostics(cfg.spec, cfg.d, cfg.K, table.theta_star,
                                      table.trajectories["greedy"][0], rng)
        assert diag.format_report(table.diagnostics) == diag.format_report(serial)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_estimator_error_raises_and_writes_nothing(self, tmp_path,
                                                       monkeypatch, jobs):
        def broken(*args, **kwargs):
            raise RuntimeError("margin estimator broke")

        monkeypatch.setattr(diag, "estimate_margin_constant", broken)
        cfg = tiny_config(tmp_path, T=10, diagnostics=True, jobs=jobs)
        with pytest.raises(RuntimeError, match="margin estimator broke"):
            run_experiment(cfg)
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_thread_counts_restored(self, tmp_path, monkeypatch, libs, jobs):
        seen = []
        estimate = diag.estimate_diversity_constant

        def recording(*args, **kwargs):
            seen.append(blas.thread_counts())
            return estimate(*args, **kwargs)

        monkeypatch.setattr(diag, "estimate_diversity_constant", recording)
        run_experiment(tiny_config(tmp_path, T=10, diagnostics=True, jobs=jobs))
        assert seen == [[1] * len(libs)]
        assert blas.thread_counts() == [2] * len(libs)


class TestPresets:
    def test_shapes(self):
        cfg = preset_config("d100-k20", "laplace", T=10, reps=1)
        assert (cfg.d, cfg.K) == (100, 20)
        cfg = preset_config("d20-k100", "gaussian", T=10, reps=1)
        assert (cfg.d, cfg.K) == (20, 100)

    def test_uniform_ball_radius_scales_with_d(self):
        cfg = preset_config("d20-k20", "uniform-ball")
        assert cfg.spec.radius == pytest.approx(math.sqrt(20))
        cfg = preset_config("d100-k20", "uniform-ball")
        assert cfg.spec.radius == pytest.approx(math.sqrt(100))

    def test_gaussian_preset_correlated(self):
        cfg = preset_config("d20-k20", "gaussian")
        assert cfg.spec.rho == 0.7

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            preset_config("d10-k10", "gaussian")
        with pytest.raises(ConfigError):
            preset_config("d20-k20", "semicircle")

    def test_baselines_assume_experiment_sigma(self):
        cfg = preset_config("d20-k20", "gaussian", sigma=0.25)
        assert [p.resolved(cfg.T, cfg.sigma).sigma_assumed for p in cfg.policies] \
            == [None, 0.25, None]


class TestIniConfig:
    def test_round_trip(self, tmp_path):
        cfg = preset_config("d20-k100", "trunc-cauchy", T=50, reps=2, seed=9,
                            sigma=0.25, output_dir=str(tmp_path / "o"),
                            emit_svg=False, diagnostics=True, jobs=3)
        cfg = dataclasses.replace(cfg, policies=[
            PolicyConfig("greedy", theta0=np.linspace(-1.0, 1.0, 20), name="g0"),
            PolicyConfig("linucb", lambda_reg=2.5, delta=0.05,
                         sigma_assumed=0.1, name="ucb"),
            PolicyConfig("lints", v_scale=0.7)])
        ini = tmp_path / "exp.ini"
        config_to_ini(cfg, ini)
        back = config_from_ini(ini)
        assert (back.d, back.K, back.T, back.reps, back.seed) == (20, 100, 50, 2, 9)
        assert back.spec.kind == "cauchy"
        assert back.spec.truncation == cfg.spec.truncation
        assert [p.kind for p in back.policies] == ["greedy", "linucb", "lints"]
        for f in dataclasses.fields(ExperimentConfig):
            if f.name not in ("spec", "policies"):
                assert getattr(back, f.name) == getattr(cfg, f.name), f.name
        assert_same_spec(back.spec, cfg.spec)
        for p, q in zip(back.policies, cfg.policies, strict=True):
            assert (p.name, p.lambda_reg, p.delta, p.v_scale, p.sigma_assumed) \
                == (q.name, q.lambda_reg, q.delta, q.v_scale, q.sigma_assumed)
            if q.theta0 is None:
                assert p.theta0 is None
            else:
                np.testing.assert_array_equal(p.theta0, q.theta0)

    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
    def test_spec_round_trip(self, tmp_path, spec):
        ini = tmp_path / "exp.ini"
        config_to_ini(spec_config(spec), ini)
        assert_same_spec(config_from_ini(ini).spec, spec)

    def test_numpy_ball_radius_round_trips(self, tmp_path):
        # A Region keeps the radius it is given, and a numpy float's repr,
        # np.float64(4.0), is not a number.
        spec = cauchy_spec(truncation=Region("ball", radius=np.float64(4.0)))
        ini = tmp_path / "exp.ini"
        config_to_ini(spec_config(spec), ini)
        assert "truncation = ball:4.0\n" in ini.read_text(encoding="utf-8")
        assert config_from_ini(ini).spec.truncation == ball(4.0)

    def test_written_text_is_pinned(self, tmp_path):
        pinned = json.loads(PINNED_INI.read_text(encoding="utf-8"))
        assert list(pinned) == list(PINNED_CONFIGS)
        for name, build in PINNED_CONFIGS.items():
            ini = tmp_path / f"{name}.ini"
            config_to_ini(build(), ini)
            assert ini.read_text(encoding="utf-8") == pinned[name], name

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), d=st.sampled_from([1, 2, 5]),
           sigma=st.floats(0.0, 1e6, allow_subnormal=False),
           kinds=st.lists(st.sampled_from(POLICY_KINDS), min_size=1, max_size=3))
    def test_policies_round_trip(self, data, d, sigma, kinds):
        # Each parameter a kind reads, set or left at its default, comes back
        # from the file as it was; d = 1 writes theta0 with a trailing comma.
        finite = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(0.0, 1e6, exclude_min=True)
        values = {"theta0": st.lists(finite, min_size=d, max_size=d).map(np.array),
                  "lambda_reg": positive, "delta": st.floats(0.0, 1.0, exclude_min=True,
                                                             exclude_max=True),
                  "v_scale": positive, "sigma_assumed": st.floats(0.0, 1e6)}
        policies = [PolicyConfig(kind, name=f"p{i}", **{
            key: data.draw(values[key], label=f"p{i}.{key}")
            for key in POLICY_PARAMS[kind] if data.draw(st.booleans())})
            for i, kind in enumerate(kinds)]
        cfg = ExperimentConfig(d=d, K=2, sigma=sigma, spec=laplace_spec(),
                               policies=policies)
        with tempfile.TemporaryDirectory() as tmp:
            ini = os.path.join(tmp, "exp.ini")
            config_to_ini(cfg, ini)
            back = config_from_ini(ini)
        for f in dataclasses.fields(ExperimentConfig):
            if f.name not in ("spec", "policies"):
                assert getattr(back, f.name) == getattr(cfg, f.name), f.name
        assert len(back.policies) == len(cfg.policies)
        for p, q in zip(back.policies, cfg.policies):
            for f in dataclasses.fields(PolicyConfig):
                if f.name == "theta0" and q.theta0 is not None:
                    assert p.theta0.tobytes() == q.theta0.tobytes()
                else:
                    assert getattr(p, f.name) == getattr(q, f.name), f.name

    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind in POLICY_PARAMS
        for key in ("theta0", "lambda_reg", "delta", "v_scale", "sigma_assumed")
        if key not in POLICY_PARAMS[kind]])
    def test_unread_policy_key_rejected(self, tmp_path, kind, key):
        ini = tmp_path / "bad.ini"
        ini.write_text("[experiment]\nd = 2\nk = 2\n[spec]\nkind = laplace\n"
                       f"[policy.x]\nkind = {kind}\n{key} = 0.5\n")
        with pytest.raises(ConfigError, match=f"^policy.x.{key}: unknown key$"):
            config_from_ini(ini)

    def test_written_policy_keys(self, tmp_path):
        # Each section holds its kind and the parameters the kind reads, in
        # POLICY_PARAMS order; an unset delta or sigma_assumed is left out.
        cfg = tiny_config(tmp_path, d=1, policies=[
            PolicyConfig("greedy", theta0=[0.5]),
            PolicyConfig("linucb", name="u"),
            PolicyConfig("linucb", delta=0.1, sigma_assumed=0.2, name="v"),
            PolicyConfig("lints", lambda_reg=2.0)])
        ini = tmp_path / "exp.ini"
        config_to_ini(cfg, ini)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(ini, encoding="utf-8")
        assert [dict(parser[s]) for s in parser.sections()[2:]] == [
            {"kind": "greedy", "theta0": "0.5,"},
            {"kind": "linucb", "lambda_reg": "1.0"},
            {"kind": "linucb", "lambda_reg": "1.0", "delta": "0.1", "sigma_assumed": "0.2"},
            {"kind": "lints", "lambda_reg": "2.0", "v_scale": "1.0"}]

    def test_numpy_floats_round_trip(self, tmp_path):
        cfg = preset_config("d20-k20", "gaussian", sigma=np.float64(0.25))
        cfg = dataclasses.replace(cfg, policies=[
            PolicyConfig("linucb", lambda_reg=np.float64(2.5),
                         delta=np.float64(0.05), sigma_assumed=np.float64(0.1)),
            PolicyConfig("lints", v_scale=np.float64(0.7))])
        ini = tmp_path / "exp.ini"
        config_to_ini(cfg, ini)
        back = config_from_ini(ini)
        assert back.sigma == 0.25
        p, q = back.policies
        assert (p.lambda_reg, p.delta, q.v_scale, p.sigma_assumed) \
            == (2.5, 0.05, 0.7, 0.1)

    def test_percent_in_value_round_trips(self, tmp_path):
        out = str(tmp_path / "out" / "100%")
        ini = tmp_path / "exp.ini"
        config_to_ini(preset_config("d20-k20", "gaussian", output_dir=out), ini)
        assert config_from_ini(ini).output_dir == out

    def test_default_seed_matches_presets(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nd = 2\nk = 2\n[spec]\nkind = laplace\n")
        assert config_from_ini(ini).seed == 1
        assert preset_config("d20-k20", "gaussian").seed == 1

    def test_negative_seed_rejected(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nd = 2\nk = 2\nseed = -1\n[spec]\nkind = laplace\n")
        with pytest.raises(ConfigError, match="experiment.seed: must be an int >= 0"):
            config_from_ini(ini).validate()

    @pytest.mark.parametrize("key,value,noun", [
        ("reps", "2.5", "not an integer"), ("sigma", "half", "not a number"),
        ("emit_svg", "maybe", "not a boolean")])
    def test_bad_setting_names_key_and_type(self, tmp_path, key, value, noun):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[experiment]\nd = 2\nk = 2\n{key} = {value}\n"
                       "[spec]\nkind = laplace\n")
        with pytest.raises(ConfigError, match=f"^experiment.{key}: {noun}: '{value}'$"):
            config_from_ini(ini)

    def test_keys_follow_the_settings(self, tmp_path):
        # Each scalar ExperimentConfig field is one [experiment] key, in
        # field order, under its lower-case name.
        ini = tmp_path / "exp.ini"
        config_to_ini(tiny_config(tmp_path), ini)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(ini, encoding="utf-8")
        assert list(parser["experiment"]) == [name.lower() for name in harness.SETTINGS]
        assert list(parser["experiment"]) == ["d", "k", "t", "reps", "seed", "sigma",
                                               "output_dir", "emit_svg",
                                               "diagnostics", "jobs"]

    def test_unknown_keys_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[experiment]\nd = 2\nk = 2\nwhat = 1\n[spec]\nkind = laplace\n")
        with pytest.raises(ConfigError, match="experiment.what"):
            config_from_ini(ini)

    @pytest.mark.parametrize("spec,message", [
        ("kind = laplace\nbandwidth = 1.0\n", "spec.bandwidth: unknown key"),
        ("loc = 0.0\n", "spec.kind: unknown kind None"),
        ("kind = weibull\n", "spec.kind: unknown kind 'weibull'"),
    ], ids=["unknown-key", "missing-kind", "unknown-kind"])
    def test_bad_spec_keys_rejected(self, tmp_path, spec, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[experiment]\nd = 2\nk = 2\n[spec]\n{spec}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_ini(ini)

    def test_missing_sections(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[spec]\nkind = laplace\n")
        with pytest.raises(ConfigError, match="experiment"):
            config_from_ini(ini)
        ini.write_text("[experiment]\nd = 2\nk = 2\n")
        with pytest.raises(ConfigError, match="spec"):
            config_from_ini(ini)

    def test_bad_values_name_key(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[experiment]\nd = two\nk = 2\n[spec]\nkind = laplace\n")
        with pytest.raises(ConfigError, match="experiment.d"):
            config_from_ini(ini)

    def test_student_t_without_df_names_key(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[experiment]\nd = 2\nk = 2\n[spec]\nkind = student_t\n")
        with pytest.raises(ConfigError, match="^spec.df: missing required key$"):
            config_from_ini(ini)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            config_from_ini(tmp_path / "nope.ini")

    def test_arm_coupling_key_rejected(self, tmp_path):
        # The former arm_coupling key changed no draw; it is now an unknown
        # spec key, and the same block without it draws the plain spec's arms.
        block = ("[experiment]\nd = 3\nk = 4\n[spec]\nkind = gaussian\n"
                 "var = 1.0\nrho = 0.7\n")
        plain, coupled = tmp_path / "plain.ini", tmp_path / "coupled.ini"
        plain.write_text(block)
        coupled.write_text(block + "arm_coupling = shared_gaussian_covariance\n")
        a, b = config_from_ini(plain).spec, gaussian_spec(cov=1.0, rho=0.7)
        draws = [sample_context_set(spec, 3, 4, [np.random.default_rng(3)])[0]
                 for spec in (a, b)]
        np.testing.assert_array_equal(draws[0], draws[1])
        with pytest.raises(ConfigError, match="^spec.arm_coupling: unknown key$"):
            config_from_ini(coupled)


class TestCli:
    def test_successful_run(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["--preset", "d20-k20", "--dist", "laplace", "--T", "10",
                       "--reps", "1", "--out", str(out), "--no-svg"])
        assert rc == 0
        assert (out / "raw.csv").exists()
        assert not (out / "regret.svg").exists()
        captured = capsys.readouterr().out
        assert "final mean cumulative regret" in captured

    def test_single_round_run(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["--T", "1", "--reps", "1", "--out", str(out)]) == 0
        assert len(load_raw_csv(out / "raw.csv")) == 3

    def test_diagnostics_with_one_arm_exit_1_before_any_episode(self, tmp_path,
                                                                 capsys):
        out = tmp_path / "o"
        assert cli.main(["--K", "1", "--diagnostics", "--T", "5", "--reps", "1",
                         "--out", str(out)]) == 1
        assert "experiment.diagnostics" in capsys.readouterr().err
        assert not out.exists()

    def test_list_presets(self, capsys):
        assert cli.main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "d100-k20" in out and "trunc-cauchy" in out

    def test_invalid_config_exit_1(self, capsys):
        assert cli.main(["--T", "0"]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        # SeedSequence would reject it mid-run, with no key path and exit 2.
        out = tmp_path / "o"
        assert cli.main(["--seed", "-1", "--out", str(out)]) == 1
        assert "experiment.seed: must be an int >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_spec_parameter_exit_1(self, capsys):
        # d = 0 gives the uniform-ball preset radius 0, which the spec rejects.
        assert cli.main(["--dist", "uniform-ball", "--d", "0"]) == 1
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("policy.linucb", "sigma_assumed", "nan"),
        ("policy.lints", "v_scale", "inf"),
        ("experiment", "sigma", "inf"),
        ("spec", "scale", "nan"),
    ])
    def test_non_finite_ini_value_exit_1(self, tmp_path, capsys, section, key, value):
        # The INI parser reads "nan" and "inf" as floats; the config rejects
        # them before any episode runs.
        ini, out = tmp_path / "exp.ini", tmp_path / "o"
        config_to_ini(preset_config("d20-k20", "laplace", T=5, reps=1), ini)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(ini, encoding="utf-8")
        parser[section][key] = value
        with open(ini, "w", encoding="utf-8") as fh:
            parser.write(fh)
        assert cli.main([str(ini), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("d_flag, d", [([], 20), (["--d", "5"], 5)])
    def test_file_with_dist_builds_spec_for_final_d(self, tmp_path, d_flag, d):
        ini = tmp_path / "exp.ini"
        config_to_ini(preset_config("d20-k20", "laplace"), ini)
        args = cli.build_parser().parse_args([str(ini), "--dist", "uniform-ball",
                                              *d_flag])
        config = cli._config_from_args(args)
        assert config.d == d
        assert config.spec.kind == "uniform_ball"
        assert config.spec.radius == pytest.approx(math.sqrt(d))

    def test_flags_override_file(self, tmp_path):
        cfg = preset_config("d20-k20", "laplace", T=40, reps=2,
                            output_dir=str(tmp_path / "a"))
        ini = tmp_path / "exp.ini"
        config_to_ini(cfg, ini)
        out = tmp_path / "b"
        rc = cli.main([str(ini), "--T", "5", "--reps", "1", "--out", str(out),
                       "--no-svg"])
        assert rc == 0
        rows = load_raw_csv(out / "raw.csv")
        assert max(r[2] for r in rows) == 5
        assert max(r[1] for r in rows) == 0

    def test_algo_selection(self, tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["--dist", "gaussian", "--T", "8", "--reps", "1",
                       "--algo", "greedy,linucb", "--out", str(out), "--no-svg"])
        assert rc == 0
        rows = load_raw_csv(out / "raw.csv")
        assert {r[0] for r in rows} == {"greedy", "linucb"}

    def test_shape_flags_rebuild_spec(self, tmp_path):
        # Overriding d must rebuild d-dependent preset specs.
        out = tmp_path / "o"
        rc = cli.main(["--dist", "uniform-ball", "--d", "4", "--K", "2",
                       "--T", "6", "--reps", "1", "--out", str(out), "--no-svg"])
        assert rc == 0

    def _policy_file(self, tmp_path, policies):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nd = 3\nk = 4\nt = 5\nreps = 1\n"
                       "[spec]\nkind = laplace\n" + policies)
        return ini

    def test_sigma_keeps_file_policies(self, tmp_path):
        ini = self._policy_file(
            tmp_path, "[policy.ucb_narrow]\nkind = linucb\n"
                      "[policy.ucb_wide]\nkind = linucb\nlambda_reg = 5.0\n")
        out = tmp_path / "o"
        assert cli.main([str(ini), "--sigma", "0.3", "--out", str(out),
                         "--no-svg"]) == 0
        assert {r[0] for r in load_raw_csv(out / "raw.csv")} == {
            "ucb_narrow", "ucb_wide"}
        config = cli._config_from_args(
            cli.build_parser().parse_args([str(ini), "--sigma", "0.3"]))
        assert config.sigma == 0.3
        # Sections without sigma_assumed follow the new sigma.
        assert [(p.name, p.lambda_reg, p.resolved(config.T, config.sigma).sigma_assumed)
                for p in config.policies] == [("ucb_narrow", 1.0, 0.3), ("ucb_wide", 5.0, 0.3)]

    @pytest.mark.parametrize("section,message", [
        ("[policy.g]\nkind = greedy\ntheta0 = 1.0,x,0.0\n",
         "policy.g.theta0: not a vector: '1.0,x,0.0'"),
        ("[policy.t]\nkind = lints\nsigma_assumed = 0.3\n",
         "policy.t.sigma_assumed: unknown key"),
    ])
    def test_bad_policy_key_exit_1(self, tmp_path, capsys, section, message):
        out = tmp_path / "o"
        ini = self._policy_file(tmp_path, section)
        assert cli.main([str(ini), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: invalid config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec,message", [
        ("kind = laplace\nloc = 0.0,x,1\n", "spec.loc: not a number or vector: '0.0,x,1'"),
        ("kind = laplace\ntruncation = box:a:1\n",
         "spec.truncation: not a region (ball:R, R > 0, or box:LO:HI, LO < HI): 'box:a:1'"),
        ("kind = laplace\ntruncation = box:1:0\n",
         "spec.truncation: not a region (ball:R, R > 0, or box:LO:HI, LO < HI): 'box:1:0'"),
        ("kind = gaussian\ncov_matrix = 1,0;0\n", "spec.cov_matrix: not a matrix: '1,0;0'"),
        ("kind = gaussian\ncov_diag = 1,y,1\n", "spec.cov_diag: not a vector: '1,y,1'"),
        ("kind = gaussian\nvar = z\n", "spec.var: not a number: 'z'"),
        ("kind = gaussian\ncov_matrix = 1,0;0,1\nvar = 1.0\n",
         "spec.cov_matrix: a second covariance key, beside var"),
    ])
    def test_bad_spec_value_names_key_exit_1(self, tmp_path, capsys, spec, message):
        ini, out = tmp_path / "exp.ini", tmp_path / "o"
        ini.write_text(f"[experiment]\nd = 3\nk = 4\nt = 5\nreps = 1\n[spec]\n{spec}")
        assert cli.main([str(ini), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: invalid config: {message}\n"
        assert not out.exists()

    def test_empty_output_dir_exit_1(self, tmp_path, capsys):
        message = "error: invalid config: experiment.output_dir: must be a non-empty path\n"
        assert cli.main(["--T", "2", "--reps", "1", "--out", ""]) == 1
        assert capsys.readouterr().err == message
        ini = self._policy_file(tmp_path, "")
        ini.write_text(ini.read_text().replace("reps = 1\n", "reps = 1\noutput_dir =\n"))
        with pytest.raises(ConfigError, match="^experiment.output_dir: must be"):
            config_from_ini(ini)
        assert cli.main([str(ini)]) == 1
        assert capsys.readouterr().err == message

    def test_matrix_empty_output_dir_exit_1(self, tmp_path, capsys, monkeypatch):
        # Each cell's directory is joined onto --out, but the empty --out is
        # rejected, and nothing is written into the working directory.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--matrix", "--preset", "d20-k20", "--dist", "laplace",
                         "--T", "2", "--reps", "1", "--out", ""]) == 1
        assert capsys.readouterr().err == (
            "error: invalid config: experiment.output_dir: must be a non-empty path\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text,message", [
        ("[experiment]\nd = 2\nd = 3\n",
         r"While reading from '.*bad\.ini' \[line 3\]: option 'd' in section "
         r"'experiment' already exists"),
        ("[experiment]\nd = 2\n[experiment]\nk = 2\n",
         r"While reading from '.*bad\.ini' \[line 3\]: section 'experiment' "
         r"already exists"),
        ("d = 2\n[experiment]\n",
         r"File contains no section headers\. file: '.*bad\.ini', line: 1 'd = 2\\n'"),
    ], ids=["duplicate-key", "duplicate-section", "no-section-header"])
    def test_malformed_file_exit_1(self, tmp_path, capsys, text, message):
        # The parser's own error, with its file and line, on one line.
        ini, out = tmp_path / "bad.ini", tmp_path / "o"
        ini.write_text(text)
        assert cli.main([str(ini), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: invalid config: {message}\n", err), err
        assert not out.exists()

    def test_sigma_keeps_policy_keys(self, tmp_path):
        ini = self._policy_file(
            tmp_path, "[policy.myucb]\nkind = linucb\nlambda_reg = 5.0\n"
                      "sigma_assumed = 0.1\n")
        config = cli._config_from_args(
            cli.build_parser().parse_args([str(ini), "--sigma", "0.3"]))
        assert config.sigma == 0.3
        assert [(p.name, p.kind, p.lambda_reg, p.sigma_assumed)
                for p in config.policies] == [("myucb", "linucb", 5.0, 0.1)]

    def test_run_matrix_smoke(self, tmp_path):
        out = tmp_path / "matrix"
        rc = cli.main(["--matrix", "--preset", "d20-k20", "--dist", "gaussian",
                       "--T", "20", "--reps", "2", "--out", str(out)])
        assert rc == 0
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(r["policy"] for r in rows) == ["greedy", "lints", "linucb"]
        assert all((r["shape"], r["dist"]) == ("d20-k20", "gaussian") for r in rows)
        assert (out / "d20-k20-gaussian" / "raw.csv").exists()

    def test_matrix_cell_matches_single_run(self, tmp_path):
        flags = ["--T", "12", "--reps", "2", "--seed", "3", "--sigma", "0.4",
                 "--no-svg"]
        matrix, single = tmp_path / "matrix", tmp_path / "single"
        assert cli.main(["--matrix", "--preset", "d20-k100,d20-k20",
                         "--dist", "laplace,trunc-cauchy", "--out", str(matrix),
                         *flags]) == 0
        with open(matrix / "summary.csv", encoding="utf-8", newline="") as fh:
            cells = [(r["shape"], r["dist"]) for r in csv.DictReader(fh)]
        assert cells[::3] == [("d20-k100", "laplace"), ("d20-k100", "trunc-cauchy"),
                              ("d20-k20", "laplace"), ("d20-k20", "trunc-cauchy")]
        assert cli.main(["--preset", "d20-k100", "--dist", "trunc-cauchy",
                         "--out", str(single), *flags]) == 0
        cell = matrix / "d20-k100-trunc-cauchy"
        for name in ("raw.csv", "aggregate.csv"):
            assert (cell / name).read_bytes() == (single / name).read_bytes()
        assert not (cell / "regret.svg").exists()

    def test_matrix_with_config_file_exit_1(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        config_to_ini(preset_config("d20-k20", "laplace"), ini)
        assert cli.main([str(ini), "--matrix"]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_preset_with_config_file_exit_1(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        config_to_ini(preset_config("d20-k20", "laplace", d=5, T=5, reps=1,
                                    output_dir=str(tmp_path / "o")), ini)
        assert cli.main([str(ini), "--preset", "d100-k20"]) == 1
        assert "--preset" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_list_without_matrix_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--dist", "gaussian,laplace"])
        assert exc.value.code == 2


def test_run_experiment_calls_run_episode_by_name(tmp_path, monkeypatch):
    # perfbench's tracer wraps harness.run_episode by name and keys it on its
    # PolicyConfig second argument; a rename or a changed call fails here.
    configs = []
    run = harness.run_episode

    def counted(*args, **kwargs):
        configs.append(args[1])
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", counted)
    table = run_experiment(tiny_config(tmp_path, T=3, reps=2))
    assert all(isinstance(c, PolicyConfig) for c in configs)
    assert [c.name for c in configs] == table.policy_names


def test_public_names_resolve():
    # A name left in __all__ after its object is deleted would fail only at
    # a user's `from greedybandit import *`.
    names = greedybandit.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(greedybandit, name)] == []
