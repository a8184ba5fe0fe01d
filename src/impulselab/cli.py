"""Command line front end: config loading, subcommands, stable CSV/JSON output.

Config files use a flat INI-style schema with sections [model], [noise],
[numerics], [experiment]; every key has a default, so an empty file (or no
--config at all) runs the stock example system. Unknown sections or keys are
rejected, and every constraint violation is reported as section.key: message.

Exit codes: 0 success, 2 configuration problem, 3 numerical guard tripped,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._text import format_float, open_dest, write_csv_rows
from .cadlag import CadlagPath, read_path_csv, skorohod_oracle, uniform_distance, write_path_csv
from .errors import ConfigError, ImpulseLabError
from .experiments import ExperimentConfig, ExperimentReport, clt_experiment, lln_experiment
from .fluctuation import fluctuation_path
from .fpt import FptParams, fpt_cdf, fpt_density
from .stochastic import (BrownianRecord, NoiseParams, _check_stochastic_dt,
                         default_impulse_cap, simulate_path)
from .system import (ImpulseSchedule, SystemSpec, constant_drift, deterministic_trajectory,
                     integrate_deterministic, linear_reset, saturating_reset,
                     simulation_grid, table_drift, table_reset, tanh_drift)

_SCHEMA = {
    "model": ("drift.kind", "drift.params", "reset.kind", "reset.params", "alpha", "r0"),
    "noise": ("epsilon", "p", "sigma", "zeta"),
    "numerics": ("dt", "horizon", "seed"),
    "experiment": ("mode", "eps_grid", "replicas", "beta", "nu"),
}

_DEFAULTS = {
    ("model", "drift.kind"): "constant",
    ("model", "drift.params"): "0.2",
    ("model", "reset.kind"): "linear",
    ("model", "reset.params"): "0.5",
    ("model", "alpha"): repr(math.pi / 2.0),
    ("model", "r0"): "1.0",
    ("noise", "epsilon"): "0.1",
    ("noise", "p"): "2.0",
    ("noise", "sigma"): "1",
    ("noise", "zeta"): "0.0",
    ("numerics", "dt"): "1e-3",
    ("numerics", "horizon"): "4.0",
    ("numerics", "seed"): "0",
    ("experiment", "mode"): "lln",
    ("experiment", "eps_grid"): "0.02,0.05,0.1,0.2",
    ("experiment", "replicas"): "2000",
    ("experiment", "beta"): "1",
    ("experiment", "nu"): "1.5",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of system, noise, numerics, and experiment settings."""

    system: SystemSpec
    noise: NoiseParams
    dt: float
    horizon: float
    seed: int
    mode: str
    experiment: ExperimentConfig


def _parse_value(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc


def _parse_table(section: str, key: str, raw: str):
    points = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{section}.{key}: expected comma-separated x:value pairs")
        points.append((_parse_value(section, key, parts[0], float),
                       _parse_value(section, key, parts[1], float)))
    if len(points) < 4:
        raise ConfigError(f"{section}.{key}: table needs at least 4 points")
    return points


def _build_drift(kind: str, params: str):
    if kind == "constant":
        return constant_drift(_parse_value("model", "drift.params", params, float))
    if kind == "tanh":
        return tanh_drift(_parse_value("model", "drift.params", params, float))
    if kind == "custom-table":
        return table_drift(_parse_table("model", "drift.params", params))
    raise ConfigError("model.drift.kind: must be one of constant, tanh, custom-table")


def _build_reset(kind: str, params: str):
    if kind == "linear":
        return linear_reset(_parse_value("model", "reset.params", params, float))
    if kind == "saturating":
        return saturating_reset(_parse_value("model", "reset.params", params, float))
    if kind == "custom-table":
        return table_reset(_parse_table("model", "reset.params", params))
    raise ConfigError("model.reset.kind: must be one of linear, saturating, custom-table")


def load_config(path: str | None) -> RunConfig:
    """Read, default-fill, and fully validate a config file.

    `path=None` yields the all-defaults configuration.
    """
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{section}: unknown section")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")

    def raw(section: str, key: str) -> str:
        if parser.has_option(section, key):
            return parser.get(section, key).strip()
        return _DEFAULTS[(section, key)]

    def floatval(section: str, key: str) -> float:
        return _parse_value(section, key, raw(section, key), float)

    def intval(section: str, key: str) -> int:
        return _parse_value(section, key, raw(section, key), int)

    alpha = floatval("model", "alpha")
    if not (0.0 < alpha < 2.0 * math.pi):
        raise ConfigError("model.alpha: must lie strictly between 0 and 2*pi")
    r0 = floatval("model", "r0")
    if r0 <= 0.0:
        raise ConfigError("model.r0: must be positive")
    epsilon = floatval("noise", "epsilon")
    if not (0.0 <= epsilon < 1.0):
        raise ConfigError("noise.epsilon: must lie in [0, 1)")
    p = floatval("noise", "p")
    if p <= 1.0:
        raise ConfigError("noise.p: must exceed 1")
    sigma = intval("noise", "sigma")
    if sigma not in (0, 1):
        raise ConfigError("noise.sigma: must be 0 or 1")
    zeta = floatval("noise", "zeta")
    if zeta < 0.0:
        raise ConfigError("noise.zeta: must be nonnegative")
    dt = floatval("numerics", "dt")
    if dt <= 0.0:
        raise ConfigError("numerics.dt: must be positive")
    horizon = floatval("numerics", "horizon")
    if horizon <= 0.0:
        raise ConfigError("numerics.horizon: must be positive")
    seed = intval("numerics", "seed")
    if seed < 0:
        raise ConfigError("numerics.seed: must be nonnegative")
    mode = raw("experiment", "mode")
    if mode not in ("lln", "clt"):
        raise ConfigError("experiment.mode: must be lln or clt")
    grid_raw = raw("experiment", "eps_grid")
    eps_grid = tuple(_parse_value("experiment", "eps_grid", item.strip(), float)
                     for item in grid_raw.split(",") if item.strip())
    if not eps_grid:
        raise ConfigError("experiment.eps_grid: must list at least one value")
    if any(not (0.0 < e < 1.0) for e in eps_grid):
        raise ConfigError("experiment.eps_grid: every value must lie in (0, 1)")
    replicas = intval("experiment", "replicas")
    if replicas < 1:
        raise ConfigError("experiment.replicas: must be positive")
    beta = intval("experiment", "beta")
    if beta not in (1, 2):
        raise ConfigError("experiment.beta: must be 1 or 2")
    nu = floatval("experiment", "nu")
    if not (1.0 < nu < p):
        raise ConfigError("experiment.nu: must lie strictly between 1 and noise.p")

    try:
        drift = _build_drift(raw("model", "drift.kind"), raw("model", "drift.params"))
        reset = _build_reset(raw("model", "reset.kind"), raw("model", "reset.params"))
        system = SystemSpec.from_models(drift, reset, alpha=alpha, r0=r0)
        noise = NoiseParams(epsilon=epsilon, p=p, sigma=sigma, zeta=zeta)
        experiment = ExperimentConfig(eps_grid=eps_grid, replicas=replicas, beta=beta,
                                      nu=nu, p=p, dt=dt, horizon=horizon,
                                      master_seed=seed)
    except ConfigError:
        raise
    except ImpulseLabError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(system=system, noise=noise, dt=dt, horizon=horizon, seed=seed,
                     mode=mode, experiment=experiment)


def _json_ready(value):
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _report_summary(report: ExperimentReport) -> dict:
    summary = {
        "mode": report.mode,
        "beta": report.beta,
        "nu": report.nu,
        "p": report.p,
        "seed": report.seed,
        "slope": report.fit.slope if report.fit else None,
        "intercept": report.fit.intercept if report.fit else None,
        "slope_stderr": report.fit.slope_stderr if report.fit else None,
    }
    if report.baseline_fit is not None:
        summary["lln_slope"] = report.baseline_fit.slope
        summary["lln_intercept"] = report.baseline_fit.intercept
        summary["lln_slope_stderr"] = report.baseline_fit.slope_stderr
    return summary


def _report_rows(rows):
    header = ["epsilon", "mean_distance", "stderr", "bad_freq", "replicas"]
    body = [[format_float(r.epsilon), format_float(r.mean_distance),
             format_float(r.stderr), format_float(r.bad_freq), str(r.replicas)]
            for r in rows]
    return header, body


def emit(obj, format: str, destination) -> None:
    """Write a path, schedule, or report as byte-stable CSV or JSON."""
    if format not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    if isinstance(obj, CadlagPath):
        if format == "csv":
            write_path_csv(obj, destination)
        else:
            payload = {
                "horizon": obj.horizon,
                "jump_times": _json_ready(obj.jump_times),
                "segments": [{"times": _json_ready(seg.times),
                              "values": _json_ready(seg.values)}
                             for seg in obj.segments],
            }
            _write_json(payload, destination)
        return
    if isinstance(obj, ImpulseSchedule):
        if format == "csv":
            header = ["k", "tau_k", "pre_value", "post_value"]
            body = [[str(k + 1), format_float(t), format_float(a), format_float(b)]
                    for k, (t, a, b) in enumerate(zip(obj.times, obj.pre_values,
                                                      obj.post_values))]
            with open_dest(destination) as fh:
                write_csv_rows(fh, header, body)
        else:
            _write_json({"times": _json_ready(obj.times),
                         "pre_values": _json_ready(obj.pre_values),
                         "post_values": _json_ready(obj.post_values)}, destination)
        return
    if isinstance(obj, ExperimentReport):
        if format == "csv":
            header, body = _report_rows(obj.rows)
            with open_dest(destination) as fh:
                write_csv_rows(fh, header, body)
        else:
            payload = _report_summary(obj)
            payload["rows"] = [{"epsilon": r.epsilon, "mean_distance": r.mean_distance,
                                "stderr": r.stderr, "bad_freq": r.bad_freq,
                                "replicas": r.replicas} for r in obj.rows]
            _write_json(payload, destination)
        return
    raise ConfigError(f"cannot emit object of type {type(obj).__name__}")


def _write_json(payload: dict, destination) -> None:
    with open_dest(destination) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def _wrap_config(fn, *args, **kwargs):
    """User-supplied flag values that fail validation are config errors."""
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        raise
    except ImpulseLabError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_trajectory(args) -> int:
    cfg = load_config(args.config)
    dt = args.dt if args.dt is not None else cfg.dt
    horizon = args.horizon if args.horizon is not None else cfg.horizon
    path, _ = deterministic_trajectory(cfg.system, horizon, dt)
    write_path_csv(path, args.out)
    return 0


def _noise_with_overrides(cfg: RunConfig, args) -> NoiseParams:
    return _wrap_config(
        NoiseParams,
        epsilon=args.epsilon if args.epsilon is not None else cfg.noise.epsilon,
        p=args.p if args.p is not None else cfg.noise.p,
        sigma=args.sigma if args.sigma is not None else cfg.noise.sigma,
        zeta=args.zeta if args.zeta is not None else cfg.noise.zeta,
        angular_drift=cfg.noise.angular_drift,
    )


def _sidecar(out: str, suffix: str) -> str:
    return str(Path(out).with_suffix(suffix))


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    noise = _noise_with_overrides(cfg, args)
    dt = args.dt if args.dt is not None else cfg.dt
    horizon = args.horizon if args.horizon is not None else cfg.horizon
    seed = args.seed if args.seed is not None else cfg.seed
    path, schedule, _ = simulate_path(cfg.system, noise, horizon, dt, seed)
    write_path_csv(path, args.out)
    if args.out != "-":
        emit(schedule, "csv", _sidecar(args.out, ".impulses.csv"))
    return 0


def _cmd_fluctuation(args) -> int:
    cfg = load_config(args.config)
    dt = args.dt if args.dt is not None else cfg.dt
    horizon = args.horizon if args.horizon is not None else cfg.horizon
    seed = args.seed if args.seed is not None else cfg.seed
    _check_stochastic_dt(cfg.system.alpha, dt)
    grid = _wrap_config(simulation_grid, cfg.system.alpha, horizon, dt)
    det = integrate_deterministic(cfg.system, grid)
    record = BrownianRecord.generate(grid, seed,
                                     default_impulse_cap(cfg.system.alpha, horizon))
    correction = fluctuation_path(cfg.system, det, record)
    write_path_csv(correction.r1, args.out)
    return 0


def _cmd_fpt(args) -> int:
    params = _wrap_config(FptParams, alpha=args.alpha, eps_p=args.eps_p)
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ConfigError("--grid expects t0:t1:n")
    try:
        t0, t1, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError("--grid expects numeric t0:t1:n") from exc
    if n < 2 or not t1 > t0:
        raise ConfigError("--grid needs t1 > t0 and n >= 2")
    times = np.linspace(t0, t1, n)
    pdf = fpt_density(params, times)
    cdf = fpt_cdf(params, times)
    body = [[format_float(t), format_float(d), format_float(c)]
            for t, d, c in zip(times, pdf, cdf)]
    with open_dest(args.out) as fh:
        write_csv_rows(fh, ["t", "pdf", "cdf"], body)
    return 0


def _cmd_skorohod(args) -> int:
    x1 = read_path_csv(args.path1)
    x2 = read_path_csv(args.path2)
    payload = {"uniform_distance": uniform_distance(x1, x2)}
    if args.oracle:
        payload["oracle_upper"] = skorohod_oracle(x1, x2, resolution=args.resolution)
    _write_json(payload, args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    mode = args.mode if args.mode is not None else cfg.mode
    if mode == "lln":
        report = lln_experiment(cfg.experiment, cfg.system)
    else:
        report = clt_experiment(cfg.experiment, cfg.system)
    header, body = _report_rows(report.rows)
    with open_dest(args.out) as fh:
        write_csv_rows(fh, header, body)
    summary_dest = _sidecar(args.out, ".summary.json") if args.out != "-" else "-"
    _write_json(_report_summary(report), summary_dest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impulselab",
        description="Impulsive planar systems: trajectories, noisy simulation, "
                    "first-passage analytics, and convergence experiments.")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI config file; omitted means all defaults")

    t = sub.add_parser("trajectory", parents=[common],
                       help="deterministic trajectory as cadlag CSV")
    t.add_argument("--dt", type=float, default=None, help="step size, at most alpha/100")
    t.add_argument("--horizon", type=float, default=None,
                   help="final time T, strictly between N*alpha and (N+1)*alpha")
    t.add_argument("--out", default="-", help="output CSV path or - for stdout")
    t.set_defaults(func=_cmd_trajectory)

    s = sub.add_parser("simulate", parents=[common],
                       help="one noisy replica as cadlag CSV plus impulse sidecar")
    s.add_argument("--epsilon", type=float, default=None, help="radial noise scale in [0, 1)")
    s.add_argument("--p", type=float, default=None, help="angular noise exponent, > 1")
    s.add_argument("--sigma", type=int, default=None, choices=(0, 1), help="angular noise switch")
    s.add_argument("--zeta", type=float, default=None, help="angular drift scale, >= 0")
    s.add_argument("--dt", type=float, default=None, help="step size, at most alpha/200")
    s.add_argument("--horizon", type=float, default=None,
                   help="final time T, strictly between N*alpha and (N+1)*alpha")
    s.add_argument("--seed", type=int, default=None, help="replica seed, >= 0")
    s.add_argument("--out", required=True,
                   help="output CSV path (the impulse sidecar replaces its extension)")
    s.set_defaults(func=_cmd_simulate)

    f = sub.add_parser("fluctuation", parents=[common],
                       help="first-order correction path as cadlag CSV")
    f.add_argument("--dt", type=float, default=None, help="step size, at most alpha/200")
    f.add_argument("--horizon", type=float, default=None,
                   help="final time T, strictly between N*alpha and (N+1)*alpha")
    f.add_argument("--seed", type=int, default=None,
                   help="seed of the driving record; matches simulate --seed")
    f.add_argument("--out", default="-", help="output CSV path or - for stdout")
    f.set_defaults(func=_cmd_fluctuation)

    q = sub.add_parser("fpt", help="first-passage density and CDF on a time grid")
    q.add_argument("--alpha", type=float, required=True, help="mean level, > 0")
    q.add_argument("--eps-p", dest="eps_p", type=float, required=True,
                   help="angular noise scale epsilon**p, in (0, 1)")
    q.add_argument("--grid", required=True, help="evaluation grid t0:t1:n with n >= 2")
    q.add_argument("--out", default="-", help="output CSV path or - for stdout")
    q.set_defaults(func=_cmd_fpt)

    k = sub.add_parser("skorohod", help="distances between two stored cadlag paths")
    k.add_argument("--path1", required=True, help="first path CSV")
    k.add_argument("--path2", required=True, help="second path CSV")
    k.add_argument("--oracle", action="store_true",
                   help="also search distortions exhaustively (at most 4 jumps)")
    k.add_argument("--resolution", type=int, default=16,
                   help="oracle knot resolution, >= 8, rounded down to a power of 2")
    k.add_argument("--out", default="-", help="output JSON path or - for stdout")
    k.set_defaults(func=_cmd_skorohod)

    e = sub.add_parser("experiment", parents=[common],
                       help="Monte Carlo distance moments across the epsilon grid")
    e.add_argument("--mode", choices=("lln", "clt"), default=None,
                   help="baseline distance to the deterministic path (lln) or "
                        "to the first-order refinement (clt)")
    e.add_argument("--out", required=True,
                   help="output CSV path (the JSON summary replaces its extension)")
    e.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ImpulseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
