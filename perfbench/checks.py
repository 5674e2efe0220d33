"""Correctness checks on one benchmark op's outputs.

Every check returns a list of failure messages (empty when it passes) so
one op can report all of its faults at once.  The checks compare the
program's outputs with figures computed here, apart from the program
(a haversine, a Poisson band, packet arithmetic), or with properties
the method must have (order invariance, exact fault restore, steering
that never touches the baseline columns) — never with stored copies of
an earlier run's output.
"""

from __future__ import annotations

import copy
import json
import math

#: Signals travel no faster than ~200 km per millisecond in fibre
#: (two thirds of c); a round trip covers the distance twice.
FIBRE_KM_PER_MS = 200.0

#: Mean Earth radius used by the benchmark's own haversine.
EARTH_RADIUS_KM = 6371.0

#: Width of the band the generated call count must fall in.
POISSON_SIGMAS = 5.0

#: How many failures of one kind a check lists before summarising.
MAX_LISTED = 3


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points given in degrees."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlmb = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _listed(kind: str, failures: list[str]) -> list[str]:
    if len(failures) <= MAX_LISTED:
        return failures
    return failures[:MAX_LISTED] + [f"... {len(failures) - MAX_LISTED} more {kind}"]


def calls_in_poisson_band(
    n_calls: int, n_users: int, calls_per_user_day: float, days: int = 1
) -> list[str]:
    """The call count lies within 5 sigma of its Poisson mean."""
    mean = n_users * calls_per_user_day * days
    half_width = POISSON_SIGMAS * math.sqrt(mean)
    if abs(n_calls - mean) > half_width:
        return [
            f"calls generated: {n_calls} outside {mean:.0f} +- {half_width:.1f}"
            f" ({n_users} users x {calls_per_user_day} calls/user/day x {days} days)"
        ]
    return []


def accounting(n_calls: int, run, *, allow_failed: bool) -> list[str]:
    """Every call is resolved or counted as failed (and none fails if so)."""
    stats = run.stats
    failures = []
    if stats.calls_total != n_calls:
        failures.append(f"accounting: engine saw {stats.calls_total} of {n_calls} calls")
    if len(run.results) + stats.calls_failed != n_calls:
        failures.append(
            f"accounting: {len(run.results)} resolved + {stats.calls_failed} failed"
            f" != {n_calls} calls"
        )
    if not allow_failed and stats.calls_failed:
        failures.append(f"accounting: {stats.calls_failed} calls failed to route")
    return failures


def _streams(result):
    yield "vns", result.via_vns
    yield "internet", result.via_internet
    if result.steered is not None:
        yield "steered", result.steered


def propagation_bound(results) -> list[str]:
    """No stream's RTT beats light in fibre between caller and callee."""
    failures = []
    for result in results:
        a, b = result.spec.caller.location, result.spec.callee.location
        floor_ms = 2.0 * haversine_km(a.lat, a.lon, b.lat, b.lon) / FIBRE_KM_PER_MS
        for transport, stream in _streams(result):
            if not stream.rtt_ms >= floor_ms - 1e-9:
                failures.append(
                    f"propagation: call {result.spec.call_id} {transport} RTT"
                    f" {stream.rtt_ms:.3f} ms < {floor_ms:.3f} ms floor"
                )
    return _listed("propagation failures", failures)


def loss_counts(results) -> list[str]:
    """Per stream, no slot loses a negative count and losses <= sent."""
    failures = []
    for result in results:
        for transport, stream in _streams(result):
            lost = stream.packets_lost
            if lost > stream.packets_sent or (stream.slot_losses < 0).any():
                failures.append(
                    f"loss: call {result.spec.call_id} {transport} lost {lost}"
                    f" of {stream.packets_sent} packets"
                )
    return _listed("loss failures", failures)


def same_report(reference: str, report: str, what: str) -> list[str]:
    """Two rendered report JSONs are byte-identical."""
    if reference == report:
        return []
    ref, got = json.loads(reference), json.loads(report)
    differing = sorted(
        key for key in set(ref.get("pairs", {})) | set(got.get("pairs", {}))
        if ref.get("pairs", {}).get(key) != got.get("pairs", {}).get(key)
    )
    return [f"determinism: report differs {what} (pairs {differing[:5]})"]


def strip_steering(report: dict) -> dict:
    """A report dict without its campaign and per-pair steering blocks."""
    stripped = copy.deepcopy(report)
    stripped.pop("steering", None)
    for pair in stripped.get("pairs", {}).values():
        pair.pop("steering", None)
    return stripped


def baseline_untouched(steered_report: dict, plain_report: dict) -> list[str]:
    """Steering adds blocks; the baseline columns equal an unsteered run."""
    failures = []
    if "steering" not in steered_report:
        failures.append("steering: steered report carries no steering block")
    stripped = strip_steering(steered_report)
    if stripped != plain_report:
        differing = sorted(
            key
            for key in set(stripped["pairs"]) | set(plain_report["pairs"])
            if stripped["pairs"].get(key) != plain_report["pairs"].get(key)
        )
        failures.append(
            "steering: baseline columns differ from the unsteered run"
            f" (pairs {differing[:5]})"
        )
    return failures


def outage_avoidance(results, l2_path, down_pop: str, cut: tuple[str, str]) -> list[str]:
    """No call uses the downed PoP and no VNS path rides the cut circuit.

    ``l2_path(src_pop, dst_pop)`` is the PoP sequence inside VNS.
    """
    failures = []
    cut_link = frozenset(cut)
    paths: dict[tuple[str, str], list[str]] = {}
    for result in results:
        if down_pop in (result.entry_pop, result.egress_pop):
            failures.append(
                f"outage: call {result.spec.call_id} enters at {result.entry_pop}"
                f" and leaves at {result.egress_pop} although {down_pop} is down"
            )
            continue
        key = (result.entry_pop, result.egress_pop)
        if key not in paths:
            paths[key] = l2_path(*key)
        hops = paths[key]
        if any(frozenset(hop) == cut_link for hop in zip(hops, hops[1:])):
            failures.append(
                f"outage: call {result.spec.call_id} VNS path {'-'.join(hops)}"
                f" uses the cut {cut[0]}-{cut[1]} circuit"
            )
    return _listed("outage failures", failures)


def exact_restore(before: dict, after: dict) -> list[str]:
    """Every sampled egress decision is back to its pre-fault value."""
    changed = sorted(
        f"{pop}/{prefix}" for (pop, prefix), decision in before.items()
        if after.get((pop, prefix)) != decision
    )
    if len(after) != len(before):
        changed.append(f"sample size {len(after)} != {len(before)}")
    if changed:
        return [
            f"restore: {len(changed)} sampled egress decisions differ from"
            f" before the fault ({', '.join(changed[:MAX_LISTED])})"
        ]
    return []


def moved_decisions(before: dict, during: dict) -> int:
    """How many sampled egress decisions the fault changed."""
    return sum(1 for key, decision in before.items() if during.get(key) != decision)
