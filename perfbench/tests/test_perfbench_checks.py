"""Each correctness check passes on real outputs and fails on corrupted ones."""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

import checks
import workloads
from repro.scenarios.loader import apply_scenario_faults
from repro.workload import CampaignConfig, CampaignEngine

USERS = 150
CALLS_PER_USER_DAY = 4.0


@pytest.fixture(scope="module")
def campaign(small_world):
    """A small campaign: its calls and run."""
    calls = workloads.draw_calls(small_world, USERS, CALLS_PER_USER_DAY, 5, {})
    run = CampaignEngine(small_world.service, CampaignConfig(seed=7)).run(calls)
    return calls, run


def test_haversine_matches_known_distance():
    # London to New York is about 5,570 km.
    assert checks.haversine_km(51.5074, -0.1278, 40.7128, -74.0060) == pytest.approx(5570, rel=0.01)


def test_real_campaign_passes_every_result_check(campaign):
    calls, run = campaign
    assert workloads.result_checks(
        calls, run, n_users=USERS, calls_per_user_day=CALLS_PER_USER_DAY, allow_failed=False
    ) == []


def test_call_count_outside_the_poisson_band_fails():
    assert checks.calls_in_poisson_band(600, USERS, CALLS_PER_USER_DAY) == []
    assert checks.calls_in_poisson_band(600 + 130, USERS, CALLS_PER_USER_DAY)


def test_halved_rtts_break_the_propagation_bound(campaign):
    _, run = campaign
    assert checks.propagation_bound(run.results) == []
    halved = [
        dataclasses.replace(
            result,
            via_vns=dataclasses.replace(result.via_vns, rtt_ms=result.via_vns.rtt_ms / 2),
            via_internet=dataclasses.replace(
                result.via_internet, rtt_ms=result.via_internet.rtt_ms / 2
            ),
        )
        for result in run.results
    ]
    assert checks.propagation_bound(halved)


def test_more_lost_than_sent_fails(campaign):
    _, run = campaign
    result = run.results[0]
    stream = result.via_internet
    lossy = dataclasses.replace(stream, slot_losses=stream.slot_losses + stream.packets_sent)
    assert checks.loss_counts([dataclasses.replace(result, via_internet=lossy)])


def test_a_lost_call_breaks_the_accounting(campaign):
    calls, run = campaign
    assert checks.accounting(len(calls), run, allow_failed=False) == []
    dropped = dataclasses.replace(run, results=run.results[1:])
    assert checks.accounting(len(calls), dropped, allow_failed=False)


def test_a_changed_report_breaks_determinism(campaign):
    _, run = campaign
    reference = run.report.to_json()
    changed = json.loads(reference)
    pair = next(iter(changed["pairs"].values()))
    pair["vns"]["delay_ms"]["p50"] += 1.0
    assert checks.same_report(reference, reference, "") == []
    assert checks.same_report(reference, json.dumps(changed, indent=2, sort_keys=True), "")


def test_a_call_through_the_downed_pop_or_cut_circuit_fails(campaign):
    _, run = campaign
    one_hop = lambda src, dst: [src, "LON", dst]  # noqa: E731
    clean = [r for r in run.results if "SIN" not in (r.entry_pop, r.egress_pop)]
    assert checks.outage_avoidance(clean, one_hop, "SIN", ("SJS", "HK")) == []
    via_sin = dataclasses.replace(clean[0], entry_pop="SIN")
    assert checks.outage_avoidance([via_sin], one_hop, "SIN", ("SJS", "HK"))
    over_cut = lambda src, dst: [src, "HK", "SJS", dst]  # noqa: E731
    assert checks.outage_avoidance(clean[:1], over_cut, "SIN", ("SJS", "HK"))


def test_a_skipped_restore_fails_the_exact_restore_check(small_world):
    service = small_world.service
    grid = workloads.egress_grid(service)
    before = workloads.sample_egress(service, grid)
    applied = apply_scenario_faults(service, workloads.outage_spec("small", 0))
    try:
        during = workloads.sample_egress(service, grid)
        assert checks.moved_decisions(before, during) > 0
        assert checks.exact_restore(before, during)
    finally:
        applied.restore()
    assert checks.exact_restore(before, workloads.sample_egress(service, grid)) == []


def test_a_steering_block_leaking_into_the_baseline_fails(small_world):
    health = workloads.collect_health(small_world.service)
    outcome = workloads.campaign_op(small_world, 3, health=health)
    steered = json.loads(outcome.report_json)
    plain = workloads.SteeredSmall().final_checks(
        {"ready": workloads.Ready(small_world, health), "seed": 3}, outcome.report_json
    )
    assert plain == []
    leaked = copy.deepcopy(steered)
    steered_pairs = [p for p in leaked["pairs"].values() if "steering" in p]
    pair = max(steered_pairs, key=lambda p: p["steering"]["offloaded_calls"])
    assert pair["steering"]["offloaded_calls"] > 0
    pair["vns"]["delay_ms"].update(pair["steering"]["steered"]["delay_ms"])
    stripped = checks.strip_steering(steered)
    assert checks.baseline_untouched(steered, stripped) == []
    assert checks.baseline_untouched(leaked, stripped)
