"""Config loading, stable emission, and command line round trips."""

import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from impulselab import (
    ConfigError,
    ImpulseSchedule,
    integrate_deterministic,
    load_config,
    read_path_csv,
    simulate_batch,
    uniform_distance,
    write_path_csv,
)
from impulselab.fluctuation import fluctuation_trace
from impulselab.cli import _with_overrides, _write_schedule_csv, build_parser, main


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
        for key in ("epsilonn", "zeta"):
            f.write_text(f"[noise]\n{key} = 0.1\n")
            with pytest.raises(ConfigError, match=rf"noise\.{key}: unknown key"):
                load_config(str(f))

    @pytest.mark.parametrize("section, key, value", [
        ("model", "r0", "0"), ("noise", "epsilon", "1.5"), ("noise", "sigma", "2"),
        ("numerics", "dt", "0"), ("numerics", "horizon", "-1"), ("numerics", "seed", "-1"),
        ("experiment", "mode", "both"), ("experiment", "eps_grid", "0.1, 1.5"),
        ("experiment", "eps_grid", ","), ("experiment", "replicas", "0"),
        ("experiment", "beta", "3"),
    ])
    def test_range_error_names_its_key(self, tmp_path, section, key, value):
        f = tmp_path / "r.ini"
        f.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
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


def test_readme_commands_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    ini = re.findall(r"```ini\n(.*?)```", text, flags=re.S)[0]
    for key, value in (("replicas", "6"), ("dt", "2e-3")):
        ini, hits = re.subn(rf"^{key} = .*$", f"{key} = {value}", ini, flags=re.M)
        assert hits == 1
    (tmp_path / "exp.ini").write_text(ini)
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("impulselab ")]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, argv
    assert (tmp_path / "rates.summary.json").exists()


class TestEmit:
    def test_empty_schedule_is_header_only(self, tmp_path):
        schedule = ImpulseSchedule(times=np.empty(0), pre_values=np.empty(0),
                                   post_values=np.empty(0))
        out = tmp_path / "empty.csv"
        _write_schedule_csv(schedule, str(out))
        assert out.read_text() == "k,tau_k,pre_value,post_value\n"


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

    def test_only_simulate_runs_without_angular_noise(self, tmp_path, capsys):
        cfg = tmp_path / "flat.ini"
        cfg.write_text("[noise]\nsigma = 0\n[numerics]\ndt = 2e-3\n[experiment]\nreplicas = 3\n")
        path, rows = tmp_path / "x.csv", tmp_path / "rates.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(path)]) == 0
        assert read_path_csv(str(path)).jump_times.shape[0] == 2
        assert main(["experiment", "--config", str(cfg), "--out", str(rows)]) == 2
        assert capsys.readouterr().err == ("config error: noise.sigma: experiments need "
                                           "angular noise, sigma = 1\n")
        assert not rows.exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[noise]\np = 0.9\n")
        assert main(["trajectory", "--config", str(bad), "--out", "-"]) == 2
        assert main(["simulate", "--epsilon", "1.5", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("p, message", [
        ("0.9", "noise.p: angular exponent p must exceed 1"),
        ("1.2", "experiment.nu: good-set exponent nu must lie in (1, p)"),
    ])
    def test_p_flag_is_validated_like_the_file(self, tmp_path, capsys, p, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[noise]\np = {p}\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["simulate", "--p", p, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n" * 2

    def test_numerical_guard_exit_code(self, tmp_path):
        # horizon landing exactly on an impulse time trips the horizon guard
        for command in ("trajectory", "simulate", "fluctuation"):
            assert main([command, "--horizon", str(math.pi), "--out",
                         str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("command", ["simulate", "fluctuation"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command):
        assert main([command, "--seed", "-1", "--out", str(tmp_path / "x.csv")]) == 2
        assert re.search(r"^config error: numerics\.seed: .*seed", capsys.readouterr().err)

    def test_simulate_seed_is_experiment_replica_zero(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", "--seed", "5", "--epsilon", "0.1", "--out", str(out)]) == 0
        cfg = load_config(None)
        batch = simulate_batch(cfg.system, cfg.noise, cfg.horizon, cfg.dt, master_seed=5,
                               n_replicas=3)
        want_path, want_schedule = io.StringIO(), io.StringIO()
        write_path_csv(batch.path(0), want_path)
        _write_schedule_csv(batch.schedule(0), want_schedule)
        assert out.read_text() == want_path.getvalue()
        assert (tmp_path / "run.impulses.csv").read_text() == want_schedule.getvalue()

    def test_fluctuation_seed_uses_replica_zero_increments(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["fluctuation", "--seed", "5", "--out", str(out)]) == 0
        cfg = load_config(None)
        batch = simulate_batch(cfg.system, cfg.noise, cfg.horizon, cfg.dt, master_seed=5,
                               n_replicas=3, store_increments=True)
        grid = batch.grid
        det = integrate_deterministic(cfg.system, grid)
        values, pre, _ = fluctuation_trace(cfg.system, det, batch.w_increments[:, 0])
        z = read_path_csv(str(out))
        np.testing.assert_array_equal(z.values_at(grid.times)[:, 0], values)
        np.testing.assert_array_equal(z.values_at(grid.impulse_times(), "left")[:, 0], pre)

    def test_fluctuation_applies_the_stochastic_step_guard(self, tmp_path):
        # dt = 0.01 exceeds alpha/200 on the default quarter-turn wedge
        for command in ("simulate", "fluctuation"):
            assert main([command, "--seed", "11", "--dt", "0.01",
                         "--out", str(tmp_path / f"{command}.csv")]) == 3
        assert not (tmp_path / "fluctuation.csv").exists()

    @pytest.mark.parametrize("kind, params, message", [
        ("drift", "custom-table\ndrift.params = 0:0, 1:0.1, 1:0.2, 2:0.3",
         "drift table needs >= 2 strictly increasing abscissae"),
        ("reset", "linear\nreset.params = -1", "linear reset slope must be positive"),
        ("reset", "saturating\nreset.params = 0", "saturating reset scale must be positive"),
        ("reset", "custom-table\nreset.params = 0:0, 1:0.5, 2:0.4, 3:0.6",
         "reset table values must strictly increase"),
    ])
    def test_model_family_error_names_its_key(self, tmp_path, capsys, kind, params, message):
        cfg = tmp_path / "model.ini"
        cfg.write_text(f"[model]\n{kind}.kind = {params}\n")
        assert main(["trajectory", "--config", str(cfg), "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: model.{kind}.params: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "fluctuation"])
    def test_numerics_overrides_keep_one_copy(self, command):
        p_flag = ["--p", "3"] if command == "simulate" else []
        args = build_parser().parse_args([command, "--dt", "0.005", "--horizon", "3.5",
                                          "--seed", "9", *p_flag, "--out", "x.csv"])
        cfg = _with_overrides(load_config(None), args)
        assert (cfg.dt, cfg.horizon, cfg.seed) == (0.005, 3.5, 9)
        assert (cfg.experiment.dt, cfg.experiment.horizon, cfg.experiment.master_seed) == (
            0.005, 3.5, 9)
        assert cfg.noise.p == cfg.experiment.p == (3.0 if p_flag else 2.0)

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["trajectory", "--horizon", "4.0", "--out", str(missing_dir)]) == 4
