"""SMALL smoke runs of each workload's op, the layer split and the command."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import harness
import workloads
from repro.dataplane import columnar

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_campaign_op_is_correct_and_order_invariant(small_world):
    first = workloads.campaign_op(small_world, 11, shuffle=True)
    again = workloads.campaign_op(small_world, 11, traced=False)
    assert first.failures == [] and again.failures == []
    assert first.report_json == again.report_json
    assert first.calls > 10_000 and first.wall_s > 0


def test_outage_op_restores_exactly_and_repeats(small_world):
    workload = workloads.RegionalOutage()
    ctx = workload.prepare(workloads.Ready(small_world), 4)
    first = workload.op(ctx, shuffle=True)
    traced = workload.op(ctx, traced=True)
    assert first.failures == [] and traced.failures == []
    assert first.report_json == traced.report_json
    assert first.counts["bgp.fault_msgs"] == traced.counts["bgp.fault_msgs"] > 0
    assert traced.counts["vns.egress_moved"] > 0
    assert {"faults.apply_s", "scenarios.compose_s", "faults.restore_s"} <= set(traced.phases)


def test_steered_op_leaves_the_baseline_alone(small_world):
    workload = workloads.SteeredSmall()
    ready = workloads.Ready(small_world, workloads.collect_health(small_world.service))
    ctx = workload.prepare(ready, 2)
    outcome = workload.op(ctx, traced=True)
    assert outcome.failures == []
    assert outcome.counts["steering.decisions"] == outcome.counts["workload.calls"]
    assert workload.final_checks(ctx, outcome.report_json) == []


def test_set_up_split_matches_build_world(small_world):
    split = workloads.decompose_set_up("small")
    assert workloads.split_failures(split, small_world) == []
    assert split.delivered == small_world.service.deployment.messages_delivered
    assert split.layers["steering.telemetry_s"] > 0


def test_set_up_split_catches_a_differing_world(small_world):
    split = workloads.decompose_set_up("small")
    split.delivered += 1
    key = next(iter(split.egress))
    split.egress[key] = "elsewhere"
    assert len(workloads.split_failures(split, small_world)) == 2


def test_timed_run_keeps_one_world_alive_at_a_time(monkeypatch, small_world):
    import gc
    import weakref

    workload = workloads.SteeredSmall()
    health = workloads.collect_health(small_world.service)
    worlds = []

    def set_up():
        gc.collect()
        assert all(ref() is None for ref in worlds), "an earlier world is still alive"
        world = workloads.build_world("small", seed=workloads.WORLD_SEED)
        worlds.append(weakref.ref(world.service))
        return workloads.Ready(world, health)

    monkeypatch.setattr(workload, "set_up", set_up)
    tally, values = harness.timed_run(workload, 5, 0.0)
    assert len(worlds) == workload.setup_repeats
    assert tally.problems == [] and tally.failed == 0
    # Each world runs a shuffled first op and one op of its stretch.
    assert tally.attempted == 2 * workload.setup_repeats
    assert set(values) == set(harness.END_TO_END)


def test_missing_columnar_kernel_fails_the_workload(monkeypatch, capsys):
    monkeypatch.setattr(columnar, "available", lambda: False)
    assert harness.main("steered_small", 1, 1.0, False) == 3
    assert "kernel=grouped" in capsys.readouterr().out


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_day", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout


def test_poisson_band_is_five_sigma():
    mean = workloads.CAMPAIGN_USERS * workloads.CAMPAIGN_CALLS_PER_USER_DAY
    assert checks.calls_in_poisson_band(int(mean + 5 * mean**0.5) - 1, workloads.CAMPAIGN_USERS,
                                        workloads.CAMPAIGN_CALLS_PER_USER_DAY) == []


def test_traced_run_gives_every_layer_metric():
    tally, values = harness.traced_run(workloads.RegionalOutage(), 3, 0.0)
    assert tally.problems == [] and tally.failed == 0
    assert set(values) == set(harness.PER_LAYER)
    assert values["bgp.fault_msgs"] > 0 and values["trace.setup_coverage"] > 0
