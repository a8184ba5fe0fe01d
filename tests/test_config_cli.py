"""Config loading, stable emission, and command line round trips."""

import argparse
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from impulselab import (
    BrownianRecord,
    ConfigError,
    integrate_deterministic,
    load_config,
    read_path_csv,
    replica_seed_sequence,
    simulate_batch,
    simulation_grid,
    uniform_distance,
    write_path_csv,
)
from impulselab.fluctuation import fluctuation_path, fluctuation_trace
from impulselab.cli import _CONFIG_KEYS, _write_impulses_csv, build_parser, main


class TestLoadConfig:
    def test_all_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.system.alpha == pytest.approx(math.pi / 2)
        assert cfg.noise.epsilon == 0.1
        assert cfg.noise.p == 2.0
        assert cfg.mode == "lln"
        assert cfg.experiment.dt == 1e-3
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
        ("model", "r0", "0"), ("model", "drift.kind", "quadratic"),
        ("noise", "epsilon", "1.5"), ("noise", "sigma", "2"),
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
    assert (cfg.noise, cfg.mode, cfg.experiment) == (
        defaults.noise, defaults.mode, defaults.experiment)
    assert (cfg.system.alpha, cfg.system.r0) == (defaults.system.alpha, defaults.system.r0)
    radii = np.linspace(-2.0, 3.0, 11)
    np.testing.assert_array_equal(cfg.system.drift(radii), defaults.system.drift(radii))
    np.testing.assert_array_equal(cfg.system.reset(radii), defaults.system.reset(radii))


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    distances = [float(line) for line in capsys.readouterr().out.split()]
    assert len(distances) == 4 and all(0.0 <= d < 2.0 for d in distances)


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
        out = tmp_path / "empty.csv"
        _write_impulses_csv(np.empty(0), np.empty(0), np.empty(0), str(out))
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
        # With the =, a negative t0 is not taken for a flag.
        assert main(["fpt", "--alpha", "1.0", "--eps-p", "0.2",
                     "--grid=-1:1:4", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "-1,0,0"

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

    def test_trajectory_refuses_a_grid_no_array_holds(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["trajectory", "--dt", "1e-300", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: dt=1e-300 gives more grid steps than an array can hold\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "fluctuation"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command):
        assert main([command, "--seed", "-1", "--out", str(tmp_path / "x.csv")]) == 2
        assert re.search(r"^config error: numerics\.seed: .*seed", capsys.readouterr().err)

    @pytest.mark.parametrize("argv, ini, key", [
        (["trajectory", "--dt", "nan"], "", "numerics.dt: step must be positive"),
        (["simulate", "--dt", "nan"], "", "numerics.dt: step must be positive"),
        (["simulate"], "[numerics]\ndt = nan\n", "numerics.dt: step must be positive"),
        (["trajectory", "--dt", "inf"], "", "numerics.dt: step must be finite"),
        (["fluctuation"], "[numerics]\ndt = inf\n", "numerics.dt: step must be finite"),
        (["simulate", "--horizon", "nan"], "", "numerics.horizon: horizon must be positive"),
        (["fluctuation", "--horizon", "inf"], "", "numerics.horizon: horizon must be finite"),
        (["trajectory"], "[numerics]\nhorizon = inf\n",
         "numerics.horizon: horizon must be finite"),
        (["simulate", "--p", "nan"], "", "noise.p: angular exponent p must exceed 1"),
        (["simulate"], "[noise]\np = inf\n", "noise.p: angular exponent p must be finite"),
        (["trajectory"], "[model]\nr0 = nan\n", "model.r0: initial radius must be positive"),
        (["trajectory"], "[model]\nr0 = inf\n", "model.r0: initial radius must be finite"),
        (["experiment"], "[experiment]\neps_grid = 0.1, 0.1, 0.1\n",
         "experiment.eps_grid: epsilon values must be distinct"),
        # Refused before the driver allocates its (2, 4, replicas) distances.
        (["experiment"], f"[experiment]\nreplicas = {2 ** 62}\n",
         "experiment.replicas: replica count exceeds what an array can hold"),
    ])
    def test_values_without_a_finite_range_are_config_errors(self, tmp_path, capsys, argv,
                                                             ini, key):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        out = tmp_path / "x.csv"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, ini", [
        (["simulate", "--p", "2"], "[noise]\np = 0.9\n"),
        (["simulate", "--epsilon", "0.2"], "[noise]\nepsilon = 1.5\n"),
        (["fluctuation", "--seed", "3"], "[numerics]\nseed = -1\n"),
        (["trajectory", "--dt", "0.005"], "[numerics]\ndt = nan\n"),
        (["trajectory", "--horizon", "3.5"], "[numerics]\nhorizon = inf\n"),
        (["experiment", "--mode", "lln"],
         "[experiment]\nmode = bogus\neps_grid = 0.1, 0.2\nreplicas = 3\n"
         "[numerics]\ndt = 2e-3\n"),
    ])
    def test_a_valid_flag_overrides_an_invalid_file_value(self, tmp_path, capsys, argv, ini):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        out = tmp_path / "x.csv"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    def test_an_invalid_file_is_refused_alike_by_every_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[experiment]\nnu = 3\n")
        for command in ("trajectory", "simulate", "fluctuation", "experiment"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == (
                "config error: experiment.nu: good-set exponent nu must lie in (1, p)\n")
            assert not out.exists()

    @pytest.mark.parametrize("alpha, message", [("nan", "alpha must be positive"),
                                                ("inf", "alpha must be finite")])
    def test_fpt_rejects_a_level_that_is_not_finite(self, tmp_path, capsys, alpha, message):
        out = tmp_path / "fpt.csv"
        assert main(["fpt", "--alpha", alpha, "--eps-p", "0.2", "--grid", "0.5:2.0:4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: --alpha: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("alpha, eps_p, message", [
        ("-1", "0.2", "--alpha: alpha must be positive"),
        ("1.0", "0", "--eps-p: angular noise scale must lie in (0, 1)"),
        ("1.0", "1.5", "--eps-p: angular noise scale must lie in (0, 1)"),
        ("1.0", "nan", "--eps-p: angular noise scale must lie in (0, 1)"),
        ("1.0", "1e-170", "--eps-p: shape alpha^2/eps_p^2 must be a positive finite float, "
                          "got alpha=1.0, eps_p=1e-170"),
        ("1e160", "0.5", "--alpha: shape alpha^2/eps_p^2 must be a positive finite float, "
                         "got alpha=1e+160, eps_p=0.5"),
    ])
    def test_fpt_errors_name_their_flag(self, tmp_path, capsys, alpha, eps_p, message):
        out = tmp_path / "fpt.csv"
        assert main(["fpt", "--alpha", alpha, "--eps-p", eps_p, "--grid", "0.5:2.0:4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    GRID_ERRORS = {"0:inf:4": "--grid needs finite t0 < t1 and n >= 2",
                   "-inf:1:4": "--grid needs finite t0 < t1 and n >= 2",
                   "0:nan:4": "--grid needs finite t0 < t1 and n >= 2",
                   "0:1": "--grid expects t0:t1:n", "0:x:3": "--grid: cannot parse 'x'",
                   # Refused before np.linspace tries to size the grid.
                   f"0:1:{2 ** 62}": f"--grid: n={2 ** 62} gives more points than an array "
                                     "can hold"}

    @pytest.mark.parametrize("grid", list(GRID_ERRORS))
    def test_fpt_grid_must_be_finite(self, tmp_path, capsys, grid):
        out = tmp_path / "fpt.csv"
        assert main(["fpt", "--alpha", "1.0", "--eps-p", "0.2", f"--grid={grid}",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {self.GRID_ERRORS[grid]}\n"
        assert not out.exists()

    def test_malformed_path_csv_is_a_data_error(self, tmp_path, capsys):
        good = ["jump_times,0.5", "segment_index,t,value_1", "0,0,1", "0,0.5,2", "1,0.5,0",
                "1,1,1"]
        cases = [
            (good[:3] + ["0,x,2"] + good[4:], "path CSV line 4: a field is not a number"),
            (good[:3] + ["0,0.5"] + good[4:], "path CSV line 4: 2 fields, header has 3"),
            (good[:4] + ["2,0.5,0", "2,1,1"],
             "path CSV line 5: segment index 2 does not follow 0"),
            (good[:2], "not a path CSV: no sample after line 2"),
            (["jump_times,0.25"] + good[1:],
             "path CSV line 1: jump times do not match the segment starts"),
            (["jump_times"] + good[1:],
             "path CSV line 1: jump times do not match the segment starts"),
            (good[:3] + ["0,0.5,nan"] + good[4:], "not a path CSV: path samples must be finite"),
            (good[:1] + ["t,value_1"] + good[2:],
             "not a path CSV: lines 1-2 are not its two headers"),
        ]
        path, bad, out = tmp_path / "p.csv", tmp_path / "bad.csv", tmp_path / "d.json"
        path.write_text("\n".join(good) + "\n")
        assert main(["skorohod", "--path1", str(path), "--path2", str(path),
                     "--out", str(out)]) == 0
        out.unlink()
        for lines, message in cases:
            bad.write_text("\n".join(lines) + "\n")
            assert main(["skorohod", "--path1", str(path), "--path2", str(bad),
                         "--out", str(out)]) == 3
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_oracle_resolution_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        assert main(["simulate", "--seed", "1", "--dt", "0.005", "--out", str(path)]) == 0
        argv = ["skorohod", "--path1", str(path), "--path2", str(path), "--oracle"]
        assert main(argv + ["--resolution", "4"]) == 2
        assert capsys.readouterr().err == (
            "config error: --resolution: resolution must be at least 8\n")
        assert main(argv + ["--resolution", "8"]) == 0

    def test_oracle_refusing_many_jumps_is_a_guard_error(self, tmp_path, capsys):
        # Three jumps are refused before the search, which would try 171,700
        # distortions at the default resolution.
        path = tmp_path / "p.csv"
        for horizon, message in (("9.0", "oracle handles at most 4 jumps"),
                                 ("5.5", "oracle would try more than 10000 distortions")):
            assert main(["simulate", "--seed", "1", "--dt", "0.005", "--horizon", horizon,
                         "--out", str(path)]) == 0
            assert main(["skorohod", "--path1", str(path), "--path2", str(path),
                         "--oracle"]) == 3
            assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", [2 ** 50, 2 ** 62], ids=["2^50", "2^62"])
    def test_oracle_refusing_a_huge_resolution_is_a_guard_error(self, tmp_path, capsys,
                                                                resolution):
        run, run2 = tmp_path / "run.csv", tmp_path / "run2.csv"
        for seed, out in (("11", run), ("12", run2)):
            assert main(["simulate", "--epsilon", "0.2", "--seed", seed, "--dt", "0.005",
                         "--out", str(out)]) == 0
        assert main(["skorohod", "--path1", str(run), "--path2", str(run2), "--oracle",
                     "--resolution", str(resolution)]) == 3
        assert capsys.readouterr().err == (
            "error: oracle would try more than 10000 distortions\n")

    def test_simulate_seed_is_experiment_replica_zero(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", "--seed", "5", "--epsilon", "0.1", "--out", str(out)]) == 0
        cfg = load_config(None)
        run = cfg.experiment
        batch = simulate_batch(cfg.system, cfg.noise, run.horizon, run.dt, master_seed=5,
                               n_replicas=3)
        want_path, want_schedule = io.StringIO(), io.StringIO()
        write_path_csv(batch.path(0), want_path)
        c = int(batch.counts[0])
        _write_impulses_csv(batch.tau[0, :c], batch.pre[0, :c], batch.post[0, :c], want_schedule)
        assert out.read_text() == want_path.getvalue()
        assert (tmp_path / "run.impulses.csv").read_text() == want_schedule.getvalue()

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_fluctuation_seed_uses_replica_zero_increments(self, tmp_path, seed):
        out = tmp_path / "z.csv"
        assert main(["fluctuation", "--seed", str(seed), "--out", str(out)]) == 0
        cfg = load_config(None)
        run = cfg.experiment
        batch = simulate_batch(cfg.system, cfg.noise, run.horizon, run.dt, master_seed=seed,
                               n_replicas=3, store_increments=True)
        grid = batch.grid
        det = integrate_deterministic(cfg.system, grid)
        values, pre = fluctuation_trace(cfg.system, det, batch.w_increments[:, :1])
        z = read_path_csv(str(out))
        np.testing.assert_array_equal(z.values_at(grid.times)[:, 0], values[:, 0])
        np.testing.assert_array_equal(z.values_at(grid.impulse_times(), "left")[:, 0], pre[:, 0])
        # The same bytes as a correction driven by replica 0's record drawn on
        # its own, outside the simulation.
        own_grid = simulation_grid(cfg.system.alpha, run.horizon, run.dt)
        record = BrownianRecord.generate(own_grid, replica_seed_sequence(seed, 0),
                                         batch.tau.shape[1])
        want = io.StringIO()
        write_path_csv(fluctuation_path(cfg.system, integrate_deterministic(cfg.system, own_grid),
                                        record.w_increments), want)
        assert out.read_text() == want.getvalue()

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
        ("drift", "custom-table\ndrift.params = 0:0, 1 0.1, 2:0.2, 3:0.3",
         "expected comma-separated x:value pairs"),
        ("drift", "constant\ndrift.params = nan", "drift level must be finite"),
        ("drift", "tanh\ndrift.params = -inf", "tanh drift scale must be finite"),
        ("reset", "linear\nreset.params = nan", "linear reset slope must be finite"),
        ("reset", "saturating\nreset.params = inf", "saturating reset scale must be finite"),
        ("drift", "custom-table\ndrift.params = 0:0, 1:nan, 2:0.2, 3:0.3",
         "drift table entries must be finite"),
        ("reset", "custom-table\nreset.params = 0:0, nan:2, 2:2.5, 3:3",
         "reset table entries must be finite"),
        ("reset", "custom-table\nreset.params = 0:0, 1:inf, 2:2.5, 3:3",
         "reset table entries must be finite"),
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
        cfg = load_config(None, vars(args))
        assert not any(hasattr(cfg, name) for name in ("dt", "horizon", "seed"))
        assert (cfg.experiment.dt, cfg.experiment.horizon, cfg.experiment.master_seed) == (
            0.005, 3.5, 9)
        assert cfg.noise.p == cfg.experiment.p == (3.0 if p_flag else 2.0)

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["trajectory", "--horizon", "4.0", "--out", str(missing_dir)]) == 4


def _subcommands() -> dict:
    """The parser of each subcommand, by name."""
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def _config_key_flags():
    """(subcommand, key, action) for each flag of a subcommand that reads a
    config file whose destination is a config key, read from the parser."""
    for command, parser in _subcommands().items():
        actions = {action.dest: action for action in parser._actions}
        if "config" in actions:
            yield from ((command, key, actions[key]) for key in actions if key in _CONFIG_KEYS)


# For each key a flag names: an unparsable value (none for the text key mode)
# and an out-of-range one. The file strips a value's spaces, so the flag must
# too for the messages, which quote the text, to agree.
_BAD_VALUES = {
    "epsilon": ("abc", "1.5"),
    "p": ("abc", "0.9"),
    "sigma": ("0.5", "2"),
    "dt": (" abc ", "0"),
    "horizon": ("abc", "-1"),
    "seed": ("1.5", "-1"),
    "mode": ("foo",),
}


class TestFlagFileParity:
    """A flag is the config key it names: one parser and one check for both."""

    @pytest.mark.parametrize("command, key",
                             [(command, key) for command, key, _ in _config_key_flags()])
    def test_a_bad_flag_is_refused_as_the_file_line_is(self, tmp_path, capsys, command, key):
        section = _CONFIG_KEYS[key].split(".")[0]
        for n, value in enumerate(_BAD_VALUES[key]):
            errors = []
            for via in ("flag", "file"):
                out_dir = tmp_path / f"{n}-{via}"
                out_dir.mkdir()
                if via == "flag":
                    argv = [command, f"--{key}={value}"]
                else:
                    cfg = tmp_path / f"{n}.ini"
                    cfg.write_text(f"[{section}]\n{key} = {value}\n")
                    argv = [command, "--config", str(cfg)]
                assert main(argv + ["--out", str(out_dir / "out.csv")]) == 2, (via, value)
                errors.append(capsys.readouterr().err)
                assert not any(out_dir.iterdir()), (via, value)
            assert errors[0] == errors[1], value
            assert errors[0].startswith(f"config error: {_CONFIG_KEYS[key]}: "), value

    def test_config_key_flags_carry_no_type_or_choices(self):
        flags = list(_config_key_flags())
        assert {key for _, key, _ in flags} == set(_BAD_VALUES)
        for command, key, action in flags:
            assert (action.type, action.choices) == (None, None), (command, key)
            assert action.help == f"replaces {_CONFIG_KEYS[key]}", (command, key)

    def test_no_flag_carries_a_type_or_choices(self):
        for command, parser in _subcommands().items():
            for action in parser._actions:
                assert (action.type, action.choices) == (None, None), (command, action.dest)

    @pytest.mark.parametrize("argv, flag", [
        (["fpt", "--alpha", "abc", "--eps-p", "0.2", "--grid=0:1:3"], "--alpha"),
        (["fpt", "--alpha", "1.0", "--eps-p", "abc", "--grid=0:1:3"], "--eps-p"),
        (["fpt", "--alpha", "1.0", "--eps-p", "0.2", "--grid=abc:1:3"], "--grid"),
        (["fpt", "--alpha", "1.0", "--eps-p", "0.2", "--grid=0:abc:3"], "--grid"),
        (["fpt", "--alpha", "1.0", "--eps-p", "0.2", "--grid=0:1:abc"], "--grid"),
        # Both paths are missing: the flag is parsed before either is read.
        (["skorohod", "--path1", "no.csv", "--path2", "no.csv", "--resolution", "abc"],
         "--resolution"),
        (["skorohod", "--path1", "no.csv", "--path2", "no.csv", "--oracle",
          "--resolution", "abc"], "--resolution"),
    ])
    def test_a_malformed_number_flag_is_a_config_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {flag}: cannot parse 'abc'\n"
        assert not out.exists()

    def test_every_subcommand_help_exits_cleanly(self, capsys):
        for command in _subcommands():
            assert main([command, "--help"]) == 0, command
            assert capsys.readouterr().out.startswith(f"usage: impulselab {command}")
