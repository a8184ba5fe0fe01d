"""Command line front end: config loading, subcommands, byte-stable output.

Config files use a flat INI-style schema with sections [model], [noise],
[numerics], [experiment]; every key has a default in `_DEFAULTS`, so an empty
file (or no --config at all) runs the stock example system. Unknown sections
or keys are rejected, and every constraint violation is reported as
section.key: message.

Each artefact has one writer. `trajectory`, `simulate` and `fluctuation` write
a path CSV (`simulate` adds a `.impulses.csv` sidecar), `fpt` a t, pdf, cdf
CSV, `skorohod` a JSON object, and `experiment` one CSV row per epsilon plus a
`.summary.json` with the fits.

Exit codes: 0 success, 2 configuration problem, 3 numerical guard tripped,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._text import format_float, open_dest, write_csv_rows
from .cadlag import read_path_csv, skorohod_oracle, uniform_distance, write_path_csv
from .errors import ConfigError, ImpulseLabError, ParameterError
from .experiments import ExperimentConfig, ExperimentReport, clt_experiment, lln_experiment
from .fluctuation import fluctuation_path
from .fpt import FptParams, fpt_cdf, fpt_density
from .stochastic import (BrownianRecord, NoiseParams, _check_stochastic_dt,
                         default_impulse_cap, replica_seed_sequence, simulate_batch)
from .system import (ImpulseSchedule, SystemSpec, constant_drift, deterministic_trajectory,
                     integrate_deterministic, linear_reset, saturating_reset,
                     simulation_grid, table_drift, table_reset, tanh_drift)

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
    ("numerics", "dt"): "1e-3",
    ("numerics", "horizon"): "4.0",
    ("numerics", "seed"): "0",
    ("experiment", "mode"): "lln",
    ("experiment", "eps_grid"): "0.02,0.05,0.1,0.2",
    ("experiment", "replicas"): "2000",
    ("experiment", "beta"): "1",
    ("experiment", "nu"): "1.5",
}

# The keys of each section, and the config key of each field the dataclasses
# validate, for rewriting their errors.
_SCHEMA = {section: tuple(k for s, k in _DEFAULTS if s == section) for section, _ in _DEFAULTS}
_CONFIG_KEYS = {key: f"{section}.{key}" for section, key in _DEFAULTS if "." not in key}

_MODES = ("lln", "clt")


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of system, noise, numerics, and experiment settings."""

    system: SystemSpec
    epsilon: float
    sigma: int
    mode: str
    experiment: ExperimentConfig

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative", field="seed")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {', '.join(_MODES)}", field="mode")

    # [numerics] and noise.p live in `experiment` alone; every subcommand
    # reads them here.
    @property
    def noise(self) -> NoiseParams:
        return NoiseParams(epsilon=self.epsilon, p=self.experiment.p, sigma=self.sigma)

    @property
    def dt(self) -> float:
        return self.experiment.dt

    @property
    def horizon(self) -> float:
        return self.experiment.horizon

    @property
    def seed(self) -> int:
        return self.experiment.master_seed


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


_DRIFTS = {"constant": constant_drift, "tanh": tanh_drift, "custom-table": table_drift}
_RESETS = {"linear": linear_reset, "saturating": saturating_reset, "custom-table": table_reset}


def _build_model(part: str, families: dict, kind: str, params: str):
    """The `model.<part>` family `kind` built from its params; its range
    errors are reported against `model.<part>.params`."""
    key = f"{part}.params"
    if kind not in families:
        raise ConfigError(f"model.{part}.kind: must be one of {', '.join(families)}")
    if kind == "custom-table":
        value = _parse_table("model", key, params)
    else:
        value = _parse_value("model", key, params, float)
    try:
        return families[kind](value)
    except ParameterError as exc:
        raise ConfigError(f"model.{key}: {exc}") from exc


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

    p = floatval("noise", "p")
    dt = floatval("numerics", "dt")
    horizon = floatval("numerics", "horizon")
    seed = intval("numerics", "seed")
    eps_grid = tuple(_parse_value("experiment", "eps_grid", item.strip(), float)
                     for item in raw("experiment", "eps_grid").split(",") if item.strip())
    with _config_errors():
        drift = _build_model("drift", _DRIFTS, raw("model", "drift.kind"),
                             raw("model", "drift.params"))
        reset = _build_model("reset", _RESETS, raw("model", "reset.kind"),
                             raw("model", "reset.params"))
        system = SystemSpec.from_models(drift, reset, alpha=floatval("model", "alpha"),
                                        r0=floatval("model", "r0"))
        # NoiseParams before ExperimentConfig, so that a bad p is reported as noise.p.
        noise = NoiseParams(epsilon=floatval("noise", "epsilon"), p=p,
                            sigma=intval("noise", "sigma"))
        experiment = ExperimentConfig(eps_grid=eps_grid, replicas=intval("experiment", "replicas"),
                                      beta=intval("experiment", "beta"),
                                      nu=floatval("experiment", "nu"), p=p, dt=dt,
                                      horizon=horizon, master_seed=seed)
        return RunConfig(system=system, epsilon=noise.epsilon, sigma=noise.sigma,
                         mode=raw("experiment", "mode"), experiment=experiment)


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


def _write_schedule_csv(schedule: ImpulseSchedule, destination) -> None:
    body = [[str(k + 1), format_float(t), format_float(a), format_float(b)]
            for k, (t, a, b) in enumerate(zip(schedule.times, schedule.pre_values,
                                              schedule.post_values))]
    with open_dest(destination) as fh:
        write_csv_rows(fh, ["k", "tau_k", "pre_value", "post_value"], body)


def _write_json(payload: dict, destination) -> None:
    with open_dest(destination) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


@contextmanager
def _config_errors():
    """Values from the user that fail validation are config errors, reported
    against the config key of the field that was rejected."""
    try:
        yield
    except ImpulseLabError as exc:
        key = _CONFIG_KEYS.get(exc.field)
        if key is not None:
            raise ConfigError(f"{key}: {exc}") from exc
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _with_overrides(cfg: RunConfig, args) -> RunConfig:
    """`cfg` with the subcommand's flags applied and validated like the file."""
    def given(*names):
        return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}

    numerics = given("dt", "horizon")
    if getattr(args, "seed", None) is not None:
        numerics["master_seed"] = args.seed
    with _config_errors():
        # NoiseParams first, so that a bad --p is reported as noise.p.
        noise = replace(cfg.noise, **given("epsilon", "p", "sigma"))
        experiment = replace(cfg.experiment, p=noise.p, **numerics)
        return replace(cfg, epsilon=noise.epsilon, sigma=noise.sigma, experiment=experiment,
                       **given("mode"))


def _cmd_trajectory(args) -> int:
    cfg = _with_overrides(load_config(args.config), args)
    path, _ = deterministic_trajectory(cfg.system, cfg.horizon, cfg.dt)
    write_path_csv(path, args.out)
    return 0


def _sidecar(out: str, suffix: str) -> str:
    return str(Path(out).with_suffix(suffix))


def _cmd_simulate(args) -> int:
    cfg = _with_overrides(load_config(args.config), args)
    batch = simulate_batch(cfg.system, cfg.noise, cfg.horizon, cfg.dt, cfg.seed, 1)
    write_path_csv(batch.path(0), args.out)
    if args.out != "-":
        _write_schedule_csv(batch.schedule(0), _sidecar(args.out, ".impulses.csv"))
    return 0


def _cmd_fluctuation(args) -> int:
    cfg = _with_overrides(load_config(args.config), args)
    alpha = cfg.system.alpha
    _check_stochastic_dt(alpha, cfg.dt)
    grid = simulation_grid(alpha, cfg.horizon, cfg.dt)
    det = integrate_deterministic(cfg.system, grid)
    # Replica 0's record: the increments that drive simulate --seed.
    record = BrownianRecord.generate(grid, replica_seed_sequence(cfg.seed, 0),
                                     default_impulse_cap(alpha, cfg.horizon))
    write_path_csv(fluctuation_path(cfg.system, det, record), args.out)
    return 0


def _cmd_fpt(args) -> int:
    with _config_errors():
        params = FptParams(alpha=args.alpha, eps_p=args.eps_p)
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
    cfg = _with_overrides(load_config(args.config), args)
    if cfg.sigma != 1:
        # The experiment driver always simulates with angular noise on.
        raise ConfigError("noise.sigma: experiments need angular noise, sigma = 1")
    if cfg.mode == "lln":
        report = lln_experiment(cfg.experiment, cfg.system)
    else:
        report = clt_experiment(cfg.experiment, cfg.system)
    body = [[format_float(r.epsilon), format_float(r.mean_distance), format_float(r.stderr),
             format_float(r.bad_freq), str(r.replicas)] for r in report.rows]
    with open_dest(args.out) as fh:
        write_csv_rows(fh, ["epsilon", "mean_distance", "stderr", "bad_freq", "replicas"], body)
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
    e.add_argument("--mode", choices=_MODES, default=None,
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
