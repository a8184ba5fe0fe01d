"""Config loading, stable emission, and command line round trips."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from impulselab import (
    CadlagPath,
    ConfigError,
    ImpulseSchedule,
    emit,
    load_config,
    read_path_csv,
    uniform_distance,
)
from impulselab.cli import main
from impulselab.experiments import EpsilonRow, ExperimentReport, RateFit


class TestLoadConfig:
    def test_all_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.system.alpha == pytest.approx(math.pi / 2)
        assert cfg.noise.epsilon == 0.1
        assert cfg.noise.p == 2.0
        assert cfg.mode == "lln"
        assert cfg.dt == 1e-3
        assert cfg.experiment.replicas == 2000

    def test_empty_file_means_defaults(self, tmp_path):
        f = tmp_path / "empty.ini"
        f.write_text("")
        cfg = load_config(str(f))
        assert cfg.system.alpha == pytest.approx(math.pi / 2)

    def test_small_p_rejected_with_key_and_constraint(self, tmp_path):
        f = tmp_path / "p.ini"
        f.write_text("[noise]\np = 0.9\n")
        with pytest.raises(ConfigError, match=r"noise\.p.*exceed 1"):
            load_config(str(f))

    def test_nu_at_or_above_p_rejected(self, tmp_path):
        f = tmp_path / "nu.ini"
        f.write_text("[experiment]\nnu = 2.0\n")
        with pytest.raises(ConfigError, match=r"experiment\.nu"):
            load_config(str(f))

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "k.ini"
        f.write_text("[noise]\nepsilonn = 0.1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(f))

    def test_unknown_section_rejected(self, tmp_path):
        f = tmp_path / "s.ini"
        f.write_text("[extras]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(str(f))

    def test_unparsable_value_names_key(self, tmp_path):
        f = tmp_path / "v.ini"
        f.write_text("[numerics]\ndt = fast\n")
        with pytest.raises(ConfigError, match=r"numerics\.dt"):
            load_config(str(f))

    def test_malformed_file_rejected(self, tmp_path):
        f = tmp_path / "bad.ini"
        f.write_text("not an ini file at all\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(str(f))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.ini"))

    def test_alpha_out_of_range(self, tmp_path):
        f = tmp_path / "a.ini"
        f.write_text("[model]\nalpha = 7.0\n")
        with pytest.raises(ConfigError, match=r"model\.alpha"):
            load_config(str(f))

    def test_table_models_from_config(self, tmp_path):
        f = tmp_path / "t.ini"
        f.write_text(
            "[model]\n"
            "drift.kind = custom-table\n"
            "drift.params = -2:-0.3, 0:0, 1:0.15, 3:0.3\n"
            "reset.kind = custom-table\n"
            "reset.params = 0:0, 0.5:0.2, 1:0.45, 3:1.1\n"
        )
        cfg = load_config(str(f))
        assert cfg.system.reset(np.array([1.0]))[0] == pytest.approx(0.45, abs=1e-12)

    def test_short_table_rejected(self, tmp_path):
        f = tmp_path / "t2.ini"
        f.write_text("[model]\ndrift.kind = custom-table\ndrift.params = 0:0, 1:0.1\n")
        with pytest.raises(ConfigError, match="at least 4 points"):
            load_config(str(f))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_schema_loads(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    f = tmp_path / "readme.ini"
    f.write_text(blocks[0])
    cfg, defaults = load_config(str(f)), load_config(None)
    assert (cfg.noise, cfg.dt, cfg.horizon, cfg.seed, cfg.mode, cfg.experiment) == (
        defaults.noise, defaults.dt, defaults.horizon, defaults.seed, defaults.mode,
        defaults.experiment)
    assert (cfg.system.alpha, cfg.system.r0) == (defaults.system.alpha, defaults.system.r0)
    radii = np.linspace(-2.0, 3.0, 11)
    np.testing.assert_array_equal(cfg.system.drift(radii), defaults.system.drift(radii))
    np.testing.assert_array_equal(cfg.system.reset(radii), defaults.system.reset(radii))


def sample_report() -> ExperimentReport:
    rows = (
        EpsilonRow(epsilon=0.1, mean_distance=0.21, stderr=0.01, bad_freq=0.0, replicas=5),
        EpsilonRow(epsilon=0.2, mean_distance=0.44, stderr=0.02, bad_freq=0.2, replicas=5),
        EpsilonRow(epsilon=0.4, mean_distance=0.91, stderr=0.04, bad_freq=0.4, replicas=5),
    )
    fit = RateFit(slope=1.06, intercept=-0.1, slope_stderr=0.02)
    return ExperimentReport(mode="lln", beta=1, nu=1.5, p=2.0, seed=7, rows=rows, fit=fit)


class TestEmit:
    def test_report_emission_is_byte_stable(self, tmp_path):
        report = sample_report()
        outs = []
        for name in ("a", "b"):
            csv_path = tmp_path / f"{name}.csv"
            json_path = tmp_path / f"{name}.json"
            emit(report, "csv", str(csv_path))
            emit(report, "json", str(json_path))
            outs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert outs[0] == outs[1]

    def test_empty_schedule_is_header_only(self, tmp_path):
        schedule = ImpulseSchedule(times=np.empty(0), pre_values=np.empty(0),
                                   post_values=np.empty(0))
        out = tmp_path / "empty.csv"
        emit(schedule, "csv", str(out))
        assert out.read_text() == "k,tau_k,pre_value,post_value\n"

    def test_path_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        seg1 = (np.linspace(0.0, 1.0, 6), rng.standard_normal((6, 2)))
        seg2 = (np.linspace(1.0, 2.5, 9), rng.standard_normal((9, 2)))
        path = CadlagPath(2.5, [seg1, seg2], jump_times=[1.0])
        out = tmp_path / "path.csv"
        emit(path, "csv", str(out))
        again = read_path_csv(str(out))
        for sa, sb in zip(again.segments, path.segments):
            np.testing.assert_array_equal(sa.times, sb.times)
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit(sample_report(), "xml", str(tmp_path / "r.xml"))


class TestCliCommands:
    def test_missing_subcommand_prints_usage(self, capsys):
        assert main([]) == 2

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == 0

    def test_trajectory_writes_csv(self, tmp_path):
        out = tmp_path / "det.csv"
        assert main(["trajectory", "--horizon", "4.0", "--out", str(out)]) == 0
        path = read_path_csv(str(out))
        assert path.jump_times.shape[0] == 2

    def test_simulate_reproducible_with_sidecar(self, tmp_path):
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / f"{name}.csv"
            code = main(["simulate", "--epsilon", "0.2", "--seed", "7",
                         "--dt", "0.005", "--out", str(out)])
            assert code == 0
            sidecar = tmp_path / f"{name}.impulses.csv"
            outputs.append((out.read_bytes(), sidecar.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].startswith(b"k,tau_k,pre_value,post_value\n")

    def test_fluctuation_writes_correction(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["fluctuation", "--seed", "3", "--out", str(out)]) == 0
        z = read_path_csv(str(out))
        assert z.value_at(0.0)[0] == 0.0
        np.testing.assert_allclose(z.jump_times, math.pi / 2 * np.arange(1, 3), atol=1e-12)

    def test_fpt_grid_output(self, tmp_path):
        out = tmp_path / "fpt.csv"
        assert main(["fpt", "--alpha", "1.0", "--eps-p", "0.2",
                     "--grid", "0.5:2.0:4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,pdf,cdf"
        assert len(lines) == 5

    def test_skorohod_between_stored_paths(self, tmp_path):
        p1 = tmp_path / "p1.csv"
        p2 = tmp_path / "p2.csv"
        main(["simulate", "--epsilon", "0.1", "--seed", "1", "--dt", "0.005",
              "--out", str(p1)])
        main(["simulate", "--epsilon", "0.1", "--seed", "2", "--dt", "0.005",
              "--out", str(p2)])
        out = tmp_path / "d.json"
        assert main(["skorohod", "--path1", str(p1), "--path2", str(p2),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        x1, x2 = read_path_csv(str(p1)), read_path_csv(str(p2))
        assert payload["uniform_distance"] == pytest.approx(uniform_distance(x1, x2))

    def test_experiment_writes_rows_and_summary(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[numerics]\ndt = 2e-3\n"
            "[experiment]\neps_grid = 0.1, 0.15, 0.2\nreplicas = 6\n"
        )
        out = tmp_path / "exp.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,mean_distance,stderr,bad_freq,replicas"
        assert len(lines) == 4
        summary = json.loads((tmp_path / "exp.summary.json").read_text())
        assert summary["mode"] == "lln"
        assert {"slope", "intercept", "slope_stderr", "beta", "nu", "p", "seed"} <= set(summary)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[noise]\np = 0.9\n")
        assert main(["trajectory", "--config", str(bad), "--out", "-"]) == 2
        assert main(["simulate", "--epsilon", "1.5", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_numerical_guard_exit_code(self, tmp_path):
        # horizon landing exactly on an impulse time trips the horizon guard
        assert main(["trajectory", "--horizon", str(math.pi), "--out",
                     str(tmp_path / "x.csv")]) == 3

    def test_fluctuation_applies_the_stochastic_step_guard(self, tmp_path):
        # dt = 0.01 exceeds alpha/200 on the default quarter-turn wedge
        for command in ("simulate", "fluctuation"):
            assert main([command, "--seed", "11", "--dt", "0.01",
                         "--out", str(tmp_path / f"{command}.csv")]) == 3
        assert not (tmp_path / "fluctuation.csv").exists()

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["trajectory", "--horizon", "4.0", "--out", str(missing_dir)]) == 4
