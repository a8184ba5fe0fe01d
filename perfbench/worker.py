"""One benchmark worker process: set up one workload, run its passes, check them.

Started by ``run.py`` with the package's ``src`` directory on ``PYTHONPATH``;
prints one JSON object on its last stdout line. With ``--setup-only`` it stops
after set-up and reports only the set-up time.

A run first makes an untimed warm-up pass at the default reference seed and
checks it against the recorded reference, then times passes at ``--seed``
for ``--seconds``. With ``--trace 1`` every other pass runs with wrappers
installed, and its output must equal the untraced passes' bit for bit. A
pass that raises, or whose output cannot be read, counts as a failed pass;
the worker exits non-zero only when set-up fails.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import scipy  # noqa: E402
import workloads  # noqa: E402  (imports numpy, scipy and impulselab)

HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def load_references(workload: str, size: str) -> dict:
    """Recorded summaries for this workload and size, keyed by seed."""
    with open(HERE / "references.json", encoding="utf-8") as fh:
        recorded = json.load(fh)
    return {int(seed): summary for seed, summary in recorded[workload][size].items()}


class Checker:
    """Checks every pass and counts the ones that fail."""

    MAX_PROBLEMS = 20  # problem lines kept; every failed pass is still counted

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.references = references
        self.fingerprints = {}
        self.attempted = 0
        self.problems = []
        self.failed = 0

    def check(self, seed: int, result, label: str) -> None:
        """Check one pass's output; a pass with any problem counts as failed."""
        try:
            problems = self._problems(seed, result)
        except Exception as exc:  # output too broken to summarise
            problems = [f"output cannot be checked: {exc!r}"]
        self._count(label, problems)

    def record(self, seed: int, outcome, label: str) -> None:
        """Check the ``(result, error)`` of one pass; a pass that raised fails."""
        result, error = outcome
        if error is not None:
            self._count(label, [f"raised {error!r}"])
        else:
            self.check(seed, result, label)

    def _problems(self, seed: int, result) -> list:
        summary = self.workload.summary(result)
        fingerprint = self.workload.fingerprint(result)
        problems = self.workload.check(summary)
        if seed in self.references:
            problems += workloads.compare_reference(summary, self.references[seed])
        first = self.fingerprints.setdefault(seed, fingerprint)
        if fingerprint != first:
            problems.append(f"seed {seed}: output differs from the first pass at this seed")
        return problems

    def _count(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
            del self.problems[self.MAX_PROBLEMS:]


def attempt(run, *args):
    """``(run(*args), None)``, or ``(None, exception)`` when the pass raises."""
    try:
        return run(*args), None
    except Exception as exc:
        return None, exc


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed_passes(workload, checker: Checker, seed: int, seconds: float, tracer=None):
    """Run passes at ``seed`` until ``seconds`` have gone by and at least three
    have run. With a tracer every other pass is traced (and at least two of
    each kind run), so both kinds see the same phases of the machine's speed.

    Returns ``(traced, wall_s, cpu_s)`` for each pass.
    """
    passes = []
    minimum = 3 if tracer is None else 4
    begin = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - begin < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        label = f"{'traced' if traced else 'untraced'} pass {len(passes)}"
        if traced:
            tracer.install()
        try:
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            if traced:
                outcome = attempt(tracer.run_pass, len(passes) // 2, workload.run, seed)
            else:
                outcome = attempt(workload.run, seed)
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu_start
        finally:
            if traced:
                tracer.remove()
        passes.append((traced, wall, cpu))
        checker.record(seed, outcome, label)
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    size = workloads.SIZES[args.size][args.workload]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](size, args.out_dir)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(workload, load_references(args.workload, args.size))
    reference_seed = workloads.REFERENCE_SEEDS[0]
    checker.record(reference_seed, attempt(workload.run, reference_seed),
                   f"warm-up seed {reference_seed}")

    out = {"setup_s": setup_s, "evaluations": workload.evaluations, "params": workload.params}
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes = timed_passes(workload, checker, args.seed, args.seconds, tracer)
    out["pass_s"] = [wall for traced, wall, _ in passes if not traced]
    out["pass_cpu_s"] = [cpu for traced, _, cpu in passes if not traced]
    if tracer is not None:
        out["traced_pass_s"] = [wall for traced, wall, _ in passes if traced]
        tracer.write(args.out_dir / f"{args.workload}-seed{args.seed}-spans.json")
        out["layers"] = {name: list(value) for name, value in tracing.layer_metrics(
            tracer, out["pass_s"], out["traced_pass_s"], out["pass_cpu_s"]).items()}
        out["layer_split"] = tracing.layer_split(tracer, len(out["traced_pass_s"]))
    out.update(attempted=checker.attempted, failed=checker.failed, problems=checker.problems,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               package_file=workloads.cli.__file__, blas_threads=blas_threads(),
               python=sys.version.split()[0], numpy=workloads.np.__version__,
               scipy=scipy.__version__)
    print(json.dumps(out))
    return 0


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read through its C API."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({line.split()[-1] for line in fh
                                if "openblas" in line.split()[-1]})
    except OSError:
        return found
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = getter()
                break
    return found


if __name__ == "__main__":
    sys.exit(main())
