"""``--smoke`` drives every workload through both run modes on tiny
inputs: the tests check the shape of what comes out, never the numbers."""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest
from conftest import PERF, ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def run_set(tmp_path_factory):
    """One smoke run set of all workloads (a fresh interpreter each)."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--runs", "2",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), done.stdout


def test_benchmark_json_meets_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 4 + 22 * len(WORKLOADS) <= 3420 // SPEC["run_seconds"]


def test_every_workload_emits_exactly_the_declared_metrics(run_set):
    doc, _ = run_set
    assert list(doc["workloads"]) == WORKLOADS
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, row in doc["workloads"].items():
        assert row["correct"] and row["failed"] == 0 and row["attempted"] >= 1, name
        assert {k: c["unit"] for k, c in row["end_to_end"].items()} == end_to_end
        assert {k: c["unit"] for k, c in row["per_layer"].items()} == per_layer
        for metric, cell in row["end_to_end"].items():
            assert cell["n"] == 2 and len(cell["values"]) == 2
            assert all(math.isfinite(v) and v > 0 for v in cell["values"]), metric
        for metric, cell in row["per_layer"].items():
            assert math.isfinite(cell["value"]), metric


def test_layers_that_do_no_work_read_zero_and_the_rest_do_not(run_set):
    doc, _ = run_set
    layers = {name: row["per_layer"] for name, row in doc["workloads"].items()}
    assert layers["tree_build"]["core.tree_schemes_s"]["value"] == 0
    assert layers["tree_build"]["treerouting.stage2_s"]["value"] > 0
    assert layers["graph_build"]["core.tree_schemes_s"]["value"] > 0
    assert layers["graph_build"]["congest.mem_bulk_calls"]["value"] > 0
    assert layers["graph_build"]["serve.route_many_s"]["value"] == 0
    assert layers["serve_cold"]["serve.route_many_s"]["value"] > 0
    assert layers["serve_cold"]["shard.pool_serve_s"]["value"] == 0
    assert layers["pool_hot"]["routing.json_bytes"]["value"] > 0
    assert layers["pool_hot_w1"]["routing.json_bytes"]["value"] == 0
    assert layers["pool_hot"]["shard.workers"]["value"] == 2
    assert layers["pool_hot_w1"]["shard.workers"]["value"] == 1


def test_timing_ratios_are_null_under_the_floor_never_zero(run_set):
    doc, _ = run_set
    for name, row in doc["workloads"].items():
        derived = {cell["name"]: cell for cell in row["derived"]}
        assert all(NAME.match(n) and cell["unit"] for n, cell in derived.items())
        overhead = derived["bench.trace_overhead_share"]
        assert overhead["value"] is None and "floor" in overhead["reason"], name
        for cell in derived.values():
            assert cell["value"] is None or math.isfinite(cell["value"])
            assert cell["value"] != 0.0 or cell["unit"] not in ("ratio",), cell
    hot = {c["name"]: c for c in doc["workloads"]["serve_hot"]["derived"]}
    assert 0 < hot["serve.cache_hit_rate"]["value"] < 1  # a count ratio: no floor


def test_trace_files_hold_whole_span_trees(run_set):
    doc, _ = run_set
    for name, row in doc["workloads"].items():
        trace = json.loads((ROOT / row["trace_file"]).read_text())
        assert trace["workload"] == name
        assert trace["columns"] == ["layer", "fn", "start_s", "end_s", "parent"]
        spans = trace["spans"]
        self_s = [end - start for _, _, start, end, _ in spans]
        for _, _, start, end, parent in spans:
            assert parent < len(spans) and end >= start
            if parent >= 0:
                self_s[parent] -= end - start
        roots = sum(end - start for _, _, start, end, parent in spans if parent == -1)
        assert sum(self_s) == pytest.approx(roots, rel=0.01)
    graph = json.loads((ROOT / doc["workloads"]["graph_build"]["trace_file"]).read_text())
    assert {"congest.mem_bulk", "treerouting.stage0", "core.tree_schemes",
            "hopsets.build"} <= {row[0] for row in graph["spans"]}


def test_report_names_every_metric_and_the_issue_aliases(run_set):
    doc, text = run_set
    for metric in [m["name"] for m in SPEC["end_to_end"]]:
        assert text.count(metric) >= len(WORKLOADS)
    for alias in ("build_s", "serve_qps", "pool_qps_w2", "pool_qps_w1", "failed_share"):
        assert alias in text
    assert doc["workloads"]["tree_build"]["reads_as"]["build_s"]["value"] == pytest.approx(
        1.0 / doc["workloads"]["tree_build"]["end_to_end"]["ops_per_s"]["median"])


def _contract_line(args):
    done = subprocess.run([sys.executable, str(PERF / "run.py"), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_contract_object(trace):
    line = _contract_line(["--workload", "serve_hot", "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--smoke"])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]
    for cell in line["metrics"].values():
        assert set(cell) == {"value", "unit"}
        assert isinstance(cell["value"], (int, float)) and not isinstance(cell["value"], bool)


def test_same_seed_gives_the_same_counts():
    args = ["--workload", "graph_build", "--seconds", "1", "--trace", "1", "--smoke"]
    one = _contract_line(args + ["--seed", "5"])["metrics"]
    two = _contract_line(args + ["--seed", "5"])["metrics"]
    other = _contract_line(args + ["--seed", "6"])["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "words", "bytes", "hops")]
    assert [one[c] for c in counts] == [two[c] for c in counts]
    assert [one[c] for c in counts] != [other[c] for c in counts]


def _session_members(sid):
    """Pids (alive or zombie) whose session is ``sid``, from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = open(f"/proc/{entry}/stat").read()
            except OSError:
                continue
            # pid (comm) state ppid pgrp session ...; comm may hold spaces
            if int(stat.rpartition(")")[2].split()[3]) == sid:
                members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_pool_run_leaves_no_process_behind(trace):
    """Workers and the shared-memory resource tracker have all ended, and
    been waited for, by the time the benchmark exits."""
    proc = subprocess.Popen(
        [sys.executable, str(PERF / "run.py"), "--workload", "pool_hot", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0 and json.loads(out.strip().splitlines()[-1])["correct"]
    assert _session_members(proc.pid) == []


def test_oversubscribed_pool_is_listed_as_skipped(monkeypatch):
    import run

    monkeypatch.setattr("os.cpu_count", lambda: 1)
    line, detail = run.measure("pool_hot", seed=7, seconds=0, trace=False, smoke=True)
    assert line["correct"] and line["metrics"]["ops_per_s"]["value"] > 0
    assert [row["name"] for row in detail["skipped"]] == ["ops_per_s"]
    assert "timeshare" in detail["skipped"][0]["reason"]
    _, detail = run.measure("pool_hot_w1", seed=7, seconds=0, trace=False, smoke=True)
    assert detail["skipped"] == []


def test_without_the_program_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "serve_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == "" and "no program source" in done.stderr
