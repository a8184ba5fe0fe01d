"""Command line front end: config loading, subcommands, byte-stable output.

Config files use a flat INI-style schema with sections [model], [noise],
[numerics], [experiment]; every key has a default in `_DEFAULTS`, so an empty
file (or no --config at all) runs the stock example system; unknown sections
or keys are rejected. A config-key flag (--epsilon, --p, --sigma, --dt,
--horizon, --seed, --mode) replaces its key's file value before anything is
parsed, so a valid flag overrides an invalid file value. `_parse_value` parses
every number, a file's, a key flag's, or `fpt`'s and `skorohod`'s (--alpha,
--eps-p, --grid, --resolution); an error names its section.key or --flag.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._text import format_float, open_dest, write_csv_rows
from .cadlag import read_path_csv, skorohod_oracle, uniform_distance, write_path_csv
from .errors import ConfigError, ImpulseLabError, ParameterError
from .experiments import ExperimentConfig, ExperimentReport, clt_experiment, lln_experiment
from .fluctuation import fluctuation_path
from .fpt import FptParams, fpt_cdf, fpt_density
from .stochastic import NoiseParams, simulate_batch
from .system import (SystemSpec, constant_drift, deterministic_trajectory,
                     integrate_deterministic, linear_reset, saturating_reset, table_drift,
                     table_reset, tanh_drift)

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
    """Validated bundle of system, noise, mode and experiment settings; the
    [numerics] values (dt, horizon, seed) live in `experiment` alone."""

    system: SystemSpec
    noise: NoiseParams
    mode: str
    experiment: ExperimentConfig

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {', '.join(_MODES)}", field="mode")


def _parse_value(name: str, raw: str, kind):
    """The one text-to-number parser; its ConfigError names the input."""
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r}") from exc


def _parse_table(name: str, raw: str):
    points = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{name}: expected comma-separated x:value pairs")
        points.append((_parse_value(name, parts[0], float), _parse_value(name, parts[1], float)))
    if len(points) < 4:
        raise ConfigError(f"{name}: table needs at least 4 points")
    return points


_DRIFTS = {"constant": constant_drift, "tanh": tanh_drift, "custom-table": table_drift}
_RESETS = {"linear": linear_reset, "saturating": saturating_reset, "custom-table": table_reset}


def _build_model(part: str, families: dict, kind: str, params: str):
    """The `model.<part>` family `kind` built from its params; its range
    errors are reported against `model.<part>.params`."""
    name = f"model.{part}.params"
    if kind not in families:
        raise ConfigError(f"model.{part}.kind: must be one of {', '.join(families)}")
    if kind == "custom-table":
        value = _parse_table(name, params)
    else:
        value = _parse_value(name, params, float)
    try:
        return families[kind](value)
    except ParameterError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def load_config(path: str | None, flags: dict | None = None) -> RunConfig:
    """Read, default-fill, and fully validate a config file.

    `path=None` yields the all-defaults configuration. `flags` maps config
    key names to a subcommand's flag text, as `vars(args)` does; a value
    that is not None replaces the file's before it is parsed (a number
    counts as its `str`), and names that are not config keys are ignored.
    """
    flags = flags or {}
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

    def raw(name: str) -> str:
        section, key = name.split(".", 1)
        if flags.get(key) is not None:
            return str(flags[key]).strip()
        if parser.has_option(section, key):
            return parser.get(section, key).strip()
        return _DEFAULTS[(section, key)]

    def value(name: str, kind=float):
        return _parse_value(name, raw(name), kind)

    p = value("noise.p")
    dt = value("numerics.dt")
    horizon = value("numerics.horizon")
    seed = value("numerics.seed", int)
    eps_grid = tuple(_parse_value("experiment.eps_grid", item.strip(), float)
                     for item in raw("experiment.eps_grid").split(",") if item.strip())
    try:
        drift = _build_model("drift", _DRIFTS, raw("model.drift.kind"), raw("model.drift.params"))
        reset = _build_model("reset", _RESETS, raw("model.reset.kind"), raw("model.reset.params"))
        system = SystemSpec.from_models(drift, reset, alpha=value("model.alpha"),
                                        r0=value("model.r0"))
        # NoiseParams before ExperimentConfig, so that a bad p is reported as noise.p.
        noise = NoiseParams(epsilon=value("noise.epsilon"), p=p, sigma=value("noise.sigma", int))
        experiment = ExperimentConfig(
            eps_grid=eps_grid, replicas=value("experiment.replicas", int),
            beta=value("experiment.beta", int), nu=value("experiment.nu"), p=p, dt=dt,
            horizon=horizon, master_seed=seed)
        return RunConfig(system=system, noise=noise, mode=raw("experiment.mode"),
                         experiment=experiment)
    except ImpulseLabError as exc:
        # A value that fails validation is reported against the config key of
        # the field that was rejected.
        key = _CONFIG_KEYS.get(exc.field)
        if key is not None:
            raise ConfigError(f"{key}: {exc}") from exc
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _report_summary(report: ExperimentReport) -> dict:
    config = report.config
    summary = {
        "mode": report.mode,
        "beta": config.beta,
        "nu": config.nu,
        "p": config.p,
        "seed": config.master_seed,
        "slope": report.fit.slope if report.fit else None,
        "intercept": report.fit.intercept if report.fit else None,
        "slope_stderr": report.fit.slope_stderr if report.fit else None,
    }
    if report.baseline_fit is not None:
        summary["lln_slope"] = report.baseline_fit.slope
        summary["lln_intercept"] = report.baseline_fit.intercept
        summary["lln_slope_stderr"] = report.baseline_fit.slope_stderr
    return summary


def _write_impulses_csv(times, pre, post, destination) -> None:
    body = [[str(k + 1), format_float(t), format_float(a), format_float(b)]
            for k, (t, a, b) in enumerate(zip(times, pre, post))]
    with open_dest(destination) as fh:
        write_csv_rows(fh, ["k", "tau_k", "pre_value", "post_value"], body)


def _write_json(payload: dict, destination) -> None:
    with open_dest(destination) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def _cmd_trajectory(args) -> int:
    cfg = load_config(args.config, vars(args))
    run = cfg.experiment
    write_path_csv(deterministic_trajectory(cfg.system, run.horizon, run.dt), args.out)
    return 0


def _sidecar(out: str, suffix: str) -> str:
    return str(Path(out).with_suffix(suffix))


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, vars(args))
    run = cfg.experiment
    batch = simulate_batch(cfg.system, cfg.noise, run.horizon, run.dt, run.master_seed, 1)
    write_path_csv(batch.path(0), args.out)
    if args.out != "-":
        c = int(batch.counts[0])
        _write_impulses_csv(batch.tau[0, :c], batch.pre[0, :c], batch.post[0, :c],
                            _sidecar(args.out, ".impulses.csv"))
    return 0


def _cmd_fluctuation(args) -> int:
    cfg = load_config(args.config, vars(args))
    run = cfg.experiment
    # Replica 0 of simulate --seed, for the increments that drive it.
    batch = simulate_batch(cfg.system, cfg.noise, run.horizon, run.dt, run.master_seed, 1,
                           store_increments=True)
    det = integrate_deterministic(cfg.system, batch.grid)
    write_path_csv(fluctuation_path(cfg.system, det, batch.w_increments[:, 0]), args.out)
    return 0


def _cmd_fpt(args) -> int:
    alpha = _parse_value("--alpha", args.alpha, float)
    eps_p = _parse_value("--eps-p", args.eps_p, float)
    try:
        params = FptParams(alpha=alpha, eps_p=eps_p)
    except ParameterError as exc:
        # Named by flag: `fpt` reads no config file, so model.alpha is not its key.
        raise ConfigError(f"--{exc.field.replace('_', '-')}: {exc}") from exc
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ConfigError("--grid expects t0:t1:n")
    t0, t1, n = (_parse_value("--grid", v, kind) for v, kind in zip(parts, (float, float, int)))
    if n < 2 or not -math.inf < t0 < t1 < math.inf:
        raise ConfigError("--grid needs finite t0 < t1 and n >= 2")
    if n >= np.iinfo(np.intp).max // 8:
        raise ConfigError(f"--grid: n={n} gives more points than an array can hold")
    times = np.linspace(t0, t1, n)
    pdf = fpt_density(params, times)
    cdf = fpt_cdf(params, times)
    body = [[format_float(t), format_float(d), format_float(c)]
            for t, d, c in zip(times, pdf, cdf)]
    with open_dest(args.out) as fh:
        write_csv_rows(fh, ["t", "pdf", "cdf"], body)
    return 0


def _cmd_skorohod(args) -> int:
    resolution = _parse_value("--resolution", args.resolution, int)
    x1 = read_path_csv(args.path1)
    x2 = read_path_csv(args.path2)
    payload = {"uniform_distance": uniform_distance(x1, x2)}
    if args.oracle:
        try:
            payload["oracle_upper"] = skorohod_oracle(x1, x2, resolution=resolution)
        except ParameterError as exc:
            raise ConfigError(f"--resolution: {exc}") from exc
    _write_json(payload, args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config, vars(args))
    if cfg.noise.sigma != 1:
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


def _add_config_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """One flag per config key. argparse passes its text unparsed, and
    `load_config` parses and checks it as it does the file's value."""
    for key in keys:
        parser.add_argument(f"--{key}", help=f"replaces {_CONFIG_KEYS[key]}")


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
    _add_config_flags(t, "dt", "horizon")
    t.add_argument("--out", default="-", help="output CSV path or - for stdout")
    t.set_defaults(func=_cmd_trajectory)

    s = sub.add_parser("simulate", parents=[common],
                       help="one noisy replica as cadlag CSV plus impulse sidecar")
    _add_config_flags(s, "epsilon", "p", "sigma", "dt", "horizon", "seed")
    s.add_argument("--out", required=True,
                   help="output CSV path (the impulse sidecar replaces its extension)")
    s.set_defaults(func=_cmd_simulate)

    f = sub.add_parser("fluctuation", parents=[common],
                       help="first-order correction path as cadlag CSV")
    _add_config_flags(f, "dt", "horizon", "seed")
    f.add_argument("--out", default="-", help="output CSV path or - for stdout")
    f.set_defaults(func=_cmd_fluctuation)

    q = sub.add_parser("fpt", help="first-passage density and CDF on a time grid")
    q.add_argument("--alpha", required=True, help="mean level, > 0")
    q.add_argument("--eps-p", dest="eps_p", required=True,
                   help="angular noise scale epsilon**p, in (0, 1)")
    q.add_argument("--grid", required=True,
                   help="evaluation grid --grid=t0:t1:n, n >= 2 (the = admits t0 < 0)")
    q.add_argument("--out", default="-", help="output CSV path or - for stdout")
    q.set_defaults(func=_cmd_fpt)

    k = sub.add_parser("skorohod", help="distances between two stored cadlag paths")
    k.add_argument("--path1", required=True, help="first path CSV")
    k.add_argument("--path2", required=True, help="second path CSV")
    k.add_argument("--oracle", action="store_true",
                   help="also search distortions exhaustively (at most 4 jumps)")
    k.add_argument("--resolution", default="16",
                   help="oracle knot resolution, >= 8, rounded down to a power of 2")
    k.add_argument("--out", default="-", help="output JSON path or - for stdout")
    k.set_defaults(func=_cmd_skorohod)

    e = sub.add_parser("experiment", parents=[common],
                       help="Monte Carlo distance moments across the epsilon grid")
    _add_config_flags(e, "mode")
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
