"""Tests of the benchmark itself, on its small inputs (n=5 boards and a
small relay graph). Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    return proc, proc.stdout.splitlines()


def test_benchmark_json_names_the_workloads_run_py_knows():
    assert NAMES == list(workloads.workloads())
    for metric in SPEC["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    for metric in SPEC["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_small_run_emits_every_metric_with_its_unit(workload, trace):
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                        "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert any(line.startswith("meta ") for line in lines)
    if not trace:
        printed = {line.split()[0] for line in lines if line.startswith("  ")}
        assert {"error_rate", "request_s", "search_s", "nodes_per_s"} <= printed


def test_each_workload_does_the_work_it_was_chosen_for():
    layers = {}
    for name in NAMES:
        proc, lines = bench("--workload", name, "--seconds", "0.2", "--trace", "1", "--small")
        assert proc.returncode == 0, proc.stderr
        layers[name] = {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    assert layers["nqueens-bfs-8"]["engine.select.calls"] == 0
    assert layers["nqueens-bfs-8"]["engine.frontier.pushes"] == 0
    assert layers["relay-goals"]["nqueens.successor.calls"] == 0
    assert layers["relay-goals"]["kernels.safe_squares.calls"] == 0
    assert layers["nqueens-ebfs3-8"]["engine.relax.changes"] > 0
    for name in NAMES:
        assert 0 < layers[name]["trace.coverage"] <= 1


@pytest.mark.parametrize("name", NAMES)
def test_a_wrong_pinned_count_fails_the_request(name):
    workload = workloads.workloads(small=True)[name]
    workload.make_inputs(0)
    pkg = run.import_package()
    workload.setup(pkg)
    patcher = tracing.Patcher()
    probe = workloads.SearchProbe(pkg, patcher)
    try:
        assert workload.check(pkg, workload.run(pkg, probe)).failures == []
        if isinstance(workload, workloads.NQueensWorkload):
            nodes, expansions = workload.case.expected
            workload.case = workloads.NQueensCase(
                workload.case.n, workload.case.known_specs, (nodes + 1, expansions))
        else:
            nodes, expansions = workload.expected
            workload.expected = (nodes, expansions - 1)
        failures = workload.check(pkg, workload.run(pkg, probe)).failures
    finally:
        patcher.restore()
    assert len(failures) == 1 and "differ from pinned" in failures[0]


def test_relabelled_relay_graphs_search_alike():
    from relay import SMALL, build

    a, b = build(SMALL, 1), build(SMALL, 2)
    assert a.known != b.known or a.goals != b.goals
    assert len(a.goals) == len(b.goals)
    assert sorted(sum(t >= 0 for t in table) for table in a.succ) == \
        sorted(sum(t >= 0 for t in table) for table in b.succ)


def test_self_time_is_duration_minus_children():
    rec = tracing.Recorder()

    def leaf():
        time.sleep(0.01)

    traced_leaf = rec.wrap("leaf", leaf)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    rec.wrap("outer", outer)()
    t = rec.layer_totals(0, len(rec))
    assert t["calls"] == {"leaf": 2, "outer": 1}
    assert t["self_s"]["outer"] + t["self_s"]["leaf"] == pytest.approx(t["total_s"]["outer"])
    assert 0.009 < t["self_s"]["outer"] < t["total_s"]["outer"] - 0.019


def test_high_percentile_needs_ten_samples_beyond_it():
    assert run.high_percentile(list(range(99))) is None
    assert run.high_percentile(list(range(1, 101))) == ("p90", 90)
    assert run.high_percentile(list(range(1, 1001))) == ("p99", 990)


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", NAMES[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_compare_refuses_records_from_different_kernels(tmp_path):
    def record(kernel):
        meta = {"workload": NAMES[0], "trace": 0, "kernel": kernel,
                "python": "3.11.7", "nproc": 2}
        metrics = {"search_cal": {"value": 1.0, "unit": "cal"}}
        return json.dumps({"meta": meta, "metrics": metrics}) + "\n"

    (tmp_path / "a.jsonl").write_text(record("pure"))
    (tmp_path / "b.jsonl").write_text(record("compiled"))
    proc = subprocess.run([sys.executable, "perfbench/compare.py", str(tmp_path / "a.jsonl"),
                           str(tmp_path / "b.jsonl")], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2 and "differ" in proc.stderr
    (tmp_path / "b.jsonl").write_text(record("pure"))
    proc = subprocess.run([sys.executable, "perfbench/compare.py", str(tmp_path / "a.jsonl"),
                           str(tmp_path / "b.jsonl")], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0 and "within bound" in proc.stdout


def test_a_request_that_raises_counts_as_failed():
    import dataclasses

    workload = workloads.workloads(small=True)["relay-goals"]
    workload.make_inputs(0)
    pkg = run.import_package()
    workload.setup(pkg)

    def broken(state):
        raise ValueError("successor exploded")

    workload.rep = dataclasses.replace(workload.rep, forward_fns=(broken,))
    patcher = tracing.Patcher()
    probe = workloads.SearchProbe(pkg, patcher)
    try:
        samples = run.run_requests(workload, pkg, probe, 0.0)
    finally:
        patcher.restore()
    assert len(samples) == 1 and samples[0].failures[0].startswith("raised ProblemDefinitionError")
