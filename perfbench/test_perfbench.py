"""Tests of the campaign benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.

* ``fleet-steady``'s fleet is anchored to the committed history: at
  seed 2019 its 2 x 3 and 10 x 20 campaigns must reproduce the digests
  of the matching batch records in ``BENCH_perf.json`` (read from the
  file, so a re-baselined record carries through).
* The layer trace must leave a campaign's outcome unchanged.
* ``BENCHMARK.json`` must name only workloads and metrics the benchmark
  defines.
* Outside a checkout the runner must fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fleet  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def batch_record(nodes: int, rounds: int, seed: int) -> dict:
    """The latest committed batch-mode bench record for this shape."""
    records = json.loads((ROOT / "BENCH_perf.json").read_text())["records"]
    matches = [
        r for r in records
        if "batch_s" in r and r["nodes"] == nodes and r["rounds"] == rounds
        and r["seed"] == seed and r["bitrate"] == fleet.BITRATE
    ]
    assert matches, f"no batch record for {nodes} nodes x {rounds} rounds, seed {seed}"
    return matches[-1]


def steady(nodes: int, rounds: int) -> workloads.Workload:
    return dataclasses.replace(
        workloads.WORKLOADS["fleet-steady"], nodes=nodes, rounds=rounds
    )


def run_check(shape, mode, workdir) -> dict:
    campaign = fleet.Campaign(shape, SEED, mode, workdir)
    try:
        return campaign.check(campaign.run())
    finally:
        campaign.cleanup()


@pytest.mark.parametrize("nodes,rounds", [(2, 3), (10, 20)])
def test_steady_fleet_reproduces_committed_batch_digest(nodes, rounds, tmp_path):
    record = batch_record(nodes, rounds, SEED)
    check = run_check(steady(nodes, rounds), workloads.MODE, tmp_path)
    assert check["digest"] == record["digest"]
    assert check["sim"]["delivery_ratio"] == record["delivery_ratio"]


def test_layer_trace_leaves_the_outcome_unchanged(tmp_path):
    """Traced and untraced runs of a small churn fleet agree exactly.

    Runs in a child interpreter: the trace rebinds library functions
    for the life of its process.
    """
    shape = dataclasses.replace(
        workloads.WORKLOADS["fleet-churn"], nodes=4, rounds=4
    )
    plain = run_check(shape, workloads.MODE, tmp_path / "plain")
    script = f"""
import dataclasses, json, sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]
from layertrace import LayerTrace
trace = LayerTrace()
trace.install()
import fleet, workloads
shape = dataclasses.replace(workloads.WORKLOADS["fleet-churn"], nodes=4, rounds=4)
campaign = fleet.Campaign(shape, {SEED}, workloads.MODE, {str(tmp_path / 'traced')!r})
trace.reset()
check = campaign.check(campaign.run())
layers = trace.layers()
print(json.dumps({{"check": check, "planned": trace.planned,
                   "exchanges": layers["core.link.run_query"]["calls"]}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    traced = json.loads(proc.stdout.splitlines()[-1])
    assert traced["check"] == plain
    assert traced["planned"] > 0
    # Injected brownouts and transport exceptions answer without a link.
    assert 0 < traced["exchanges"] <= plain["sim"]["exchanges"]


def test_self_time_subtracts_direct_children():
    from layertrace import LayerTrace

    trace = LayerTrace()
    trace.spans.extend([
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],    # b nested in itself counts once in total_s
        ["c", 5.0, 6.0, 0],
    ])
    layers = trace.layers()
    assert layers["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert layers["b"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert trace.top_level_s() == 10.0


def test_benchmark_json_matches_the_benchmark():
    doc = spec()
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    end_to_end = [m["name"] for m in doc["end_to_end"]]
    assert end_to_end == ["setup_s", "first_round_s", "node_rounds_per_s", "peak_rss_mb"]
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    )
    from layertrace import LayerTrace

    produced = set(LayerTrace().per_layer(
        1.0, {"sim": {"retries": 0, "downgrades": 0}, "quarantines": 0, "faults": 0}
    )) | {"trace.overhead_s", "setup.import_s"}
    assert {m["name"] for m in doc["per_layer"]} <= produced


def test_runner_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-observed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
