"""Tests of the benchmark itself: a tiny pass of every workload through the
real entry point, the reference check on a perturbed row, and the tracer.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from impulselab import experiments, stochastic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run([sys.executable, str(bench / "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_small_pass_through_entry_point(workload, trace):
    completed = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                          "--trace", str(trace), "--size", "small")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def small_clt():
    workload = workloads.CltAcceptance(workloads.SIZES["small"]["clt_acceptance"], None)
    references = worker.load_references("clt_acceptance", "small")
    return workload, references, workload.run(0)


def test_perturbed_row_fails_reference_check():
    workload, references, report = small_clt()
    checker = worker.Checker(workload, references)
    checker.check(0, report, "recorded")
    assert checker.failed == 0, checker.problems

    rows = list(report.rows)
    rows[2] = dataclasses.replace(rows[2], mean_distance=rows[2].mean_distance * (1 + 1e-7))
    perturbed = dataclasses.replace(report, rows=tuple(rows))
    checker.check(0, perturbed, "perturbed")
    assert checker.failed == 1 and checker.attempted == 2
    assert any("rows[2].mean_distance" in p for p in checker.problems)


def test_bad_freq_is_compared_exactly():
    workload, references, report = small_clt()
    summary = workload.summary(report)
    summary["rows"][3]["bad_freq"] += 1e-15
    problems = workloads.compare_reference(summary, references[0])
    assert problems == [f"rows[3].bad_freq: {summary['rows'][3]['bad_freq']!r} differs from "
                        f"the reference {references[0]['rows'][3]['bad_freq']!r}"]


def test_bad_replica_at_smallest_epsilon_passes_but_four_fail():
    workload = workloads.CltAcceptance(workloads.SIZES["full"]["clt_acceptance"], None)
    summary = workload.summary(workload.run(83))
    assert summary["rows"][0]["bad_freq"] == 0.01 and summary["slope"] < 1.5
    assert workload.check(summary) == []

    for rows in (summary["rows"], summary["baseline_rows"]):
        rows[0]["bad_freq"] = 0.04
    assert workload.check(summary) == [
        "4 bad replicas at epsilon 0.02, expected at most 3",
        "baseline 4 bad replicas at epsilon 0.02, expected at most 3"]


def test_pass_that_raises_counts_as_failed():
    workload, references, _ = small_clt()

    def broken(seed):
        raise RuntimeError("kernel failed")

    checker = worker.Checker(types.SimpleNamespace(run=broken), references)
    passes = worker.timed_passes(checker.workload, checker, 0, 0.0)
    assert len(passes) == 3 and checker.attempted == 3 and checker.failed == 3
    assert "kernel failed" in checker.problems[0]

    checker = worker.Checker(workload, references)
    checker.check(0, "not a report", "unreadable")
    assert checker.failed == 1 and "cannot be checked" in checker.problems[0]


def test_cli_write_span_wraps_each_output_file(tmp_path):
    workload = workloads.LlnCliTable(workloads.SIZES["small"]["lln_cli_table"], tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = tracer.run_pass(0, workload.run, 0)
    finally:
        tracer.remove()
    assert workload.summary(out) == worker.load_references("lln_cli_table", "small")[0]
    spans = [i for i, name in enumerate(tracer.names) if name == "cli.write"]
    assert len(spans) == 2  # the CSV and the JSON summary
    assert all(tracer.names[tracer.parents[i]] == "cli.main" for i in spans)


def test_tracer_restores_every_name_and_accounts_for_time():
    originals = (experiments.skorohod_upper, stochastic.BatchResult.path,
                 stochastic.BrownianRecord.__dict__["generate"])
    workload, references, untraced = small_clt()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiments.skorohod_upper is not originals[0]
        traced = tracer.run_pass(0, workload.run, 0)
    finally:
        tracer.remove()
    assert (experiments.skorohod_upper, stochastic.BatchResult.path,
            stochastic.BrownianRecord.__dict__["generate"]) == originals
    assert workload.fingerprint(traced) == workload.fingerprint(untraced)
    table = tracer.by_name()
    replicas = workloads.SIZES["small"]["clt_acceptance"] * len(workloads.EPS_GRID)
    assert table["cadlag.skorohod"]["calls"] == 2 * replicas
    assert table["stochastic.noise"]["calls"] == replicas
    assert sum(row["self_ns"] for row in table.values()) == table[tracing.PASS_SPAN]["total_ns"]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    completed = run_bench("--workload", "first_passage", "--seed", "0", "--seconds", "1",
                          "--trace", "0", cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert completed.returncode == 2
    assert completed.stdout.strip() == ""
