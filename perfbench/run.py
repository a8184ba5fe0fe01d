"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload clt_acceptance --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The workload runs in one worker process
(``worker.py``) that imports the package from ``src/``; four further
set-up-only worker processes, two before it and two after, give ``setup_s``
the median of five samples. Every metric is
printed on its own line with its unit and sample count, and the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. The full record, with provenance, goes to
``perfbench/_out/``. The exit code is 0 whenever the result line is printed
(a pass that fails its checks shows in ``correct`` and ``failed``), and 2,
with no result, when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "_out"
WORKLOAD_NAMES = ("clt_acceptance", "lln_cli_table", "first_passage")
PROBES_EACH_SIDE = 2
PROBE_TIMEOUT_S = 20.0
DEADLINE_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="master seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes should take")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: a few replicas, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def worker_env() -> dict:
    """Child environment: only this checkout's package, no more threads than cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def run_worker(args, extra, timeout: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--out-dir", str(OUT_DIR),
               *extra]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=worker_env(),
                               cwd=ROOT, timeout=timeout, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {completed.returncode}")
    return json.loads(lines[-1])


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def end_to_end(record: dict, setups: list) -> dict:
    passes = record["pass_s"]
    return {
        "time_to_result_s": (statistics.median(passes), "s", len(passes)),
        "replicas_per_s": (record["evaluations"] * len(passes) / sum(passes), "1/s", len(passes)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (record["peak_rss_mb"], "MB", 1),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "impulselab" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # A terminated run still kills and waits for its worker (subprocess.run
    # does so when the wait is interrupted by an exception).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    def setup_probes():
        return [run_worker(args, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
                for _ in range(PROBES_EACH_SIDE)]

    try:
        setups = setup_probes()
        elapsed = time.perf_counter() - started
        record = run_worker(args, [], DEADLINE_S - PROBES_EACH_SIDE * PROBE_TIMEOUT_S - elapsed)
        setups += setup_probes()
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not Path(record["package_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported impulselab from {record['package_file']}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    setups.append(record["setup_s"])

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "params": record["params"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: worker_env()[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_threads": record["blas_threads"], "python": record["python"],
        "numpy": record["numpy"], "scipy": record["scipy"], "platform": platform.platform(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }
    if args.trace == 0:
        metrics = end_to_end(record, setups)
    else:
        metrics = {name: tuple(value) for name, value in record["layers"].items()}
    attempted, failed = record["attempted"], record["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "result": result, "worker": record,
                   "setup_s": setups}, fh, indent=1)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        print("layer self time per traced pass (s):")
        for name, calls, self_s in record["layer_split"]:
            print(f"  {name:28s} {self_s:10.4f}  calls {calls:g}")
    passes = record["pass_s"]
    print(f"untraced pass times (s): n={len(passes)} min {min(passes):.4f} "
          f"median {statistics.median(passes):.4f} max {max(passes):.4f}")
    print(f"metric failed_ratio = {failed / attempted:.6g} ratio (n={attempted})")
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={samples})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
