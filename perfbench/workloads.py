"""The benchmark's workloads: set-up, one op, its checks, the layer split.

Each workload builds its world through the public
:func:`repro.experiments.common.build_world` and repeats one op in this
process, on one thread.  An op is timed from outside, by timing the
calls it makes into each layer's public functions; a traced op also
enables :mod:`repro.perf` and reads the engine's own phase timers and
the BGP counters.  Every op's outputs go through :mod:`checks`.

* ``campaign_day`` — MEDIUM world; an op samples 1,200 users, draws a
  diurnal day of ~10,800 calls, runs a fresh sequential
  :class:`~repro.workload.engine.CampaignEngine` and renders the report.
* ``regional_outage`` — the canned ``regional_outage`` scenario on the
  SMALL world; an op is ``load_scenario``'s two public steps, a
  sequential engine run and ``restore``.  (Two MEDIUM set-ups plus three ~7 s MEDIUM fault cycles
  would make each run about a minute; ``campaign_day``'s traced run
  still replays the outage on its MEDIUM world.)
* ``steered_small`` — SMALL world plus a probe-built health table; an
  op is the campaign-day op under the ``threshold_offload`` policy.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from repro import perf
from repro.bgp.propagation import AsLevelRouting
from repro.experiments.common import _MAX_PEERS, _TOPOLOGY_CONFIGS, WorldScale, build_world
from repro.net.topology import generate_topology
from repro.scenarios.loader import apply_scenario_faults, compose_scenario
from repro.scenarios.registry import canned_scenario
from repro.scenarios.spec import WorldSpec
from repro.steering import SteeringEngine, SteeringTelemetry, make_policy
from repro.steering.policies import PathChoice
from repro.vns.builder import VnsConfig, build_vns
from repro.vns.service import VideoNetworkService
from repro.workload import (
    CallArrivalProcess,
    CampaignConfig,
    CampaignEngine,
    UserPopulation,
)
from repro.workload.engine import group_key

#: Every workload's world is built from this seed; ``--seed`` varies the
#: users and calls on it, so set-up costs the same on every seed.
WORLD_SEED = 42

#: The campaign day: 1,200 users at 9 calls/user/day (~10,800 calls).
CAMPAIGN_USERS = 1200
CAMPAIGN_CALLS_PER_USER_DAY = 9.0

#: Probe telemetry for the steered world (the steering experiment's
#: defaults), seeded from the world so set-up is seed-independent.
TELEMETRY = {"days": 1, "minutes_between_rounds": 240.0, "hosts_per_type_per_region": 2}
TELEMETRY_SEED = WORLD_SEED + 3

#: What the canned regional outage takes down.
DOWN_POP = "SIN"
CUT_LINK = ("SJS", "HK")

#: Engine phase timers, read from :mod:`repro.perf` in traced ops.
ENGINE_TIMERS = {
    "workload.resolve_s": "workload.resolve",
    "workload.simulate_s": "workload.simulate",
    "workload.aggregate_s": "workload.aggregate",
}


@dataclass
class Ready:
    """What set-up hands the ops: the world, and a health table if steered."""

    world: object
    health: object = None


@dataclass
class OpOutcome:
    """One op: its wall time, per-layer split and check failures.

    ``wall_s`` is the op end to end, with the checks left out.
    ``phases`` holds layer seconds; ``counts`` holds per-layer counts.
    """

    wall_s: float
    calls: int
    report_json: str
    phases: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def collect_health(service):
    """The probe-built path-health table steering decides from."""
    return SteeringTelemetry(service, seed=TELEMETRY_SEED).collect(**TELEMETRY)


def egress_grid(service) -> list[tuple[str, object]]:
    """The fixed (PoP, prefix) sample: every PoP against every prefix."""
    prefixes = sorted(service.topology.prefix_location, key=str)
    return [(pop.code, prefix) for pop in service.pops() for prefix in prefixes]


def sample_egress(service, grid) -> dict:
    """Each sampled (PoP, prefix)'s egress decision (``None`` if unrouted)."""
    return {key: service.egress_decision(*key) for key in grid}


def outage_spec(scale: str, seed: int):
    """The canned regional outage on this benchmark's world."""
    return dataclasses.replace(
        canned_scenario("regional_outage"),
        world=WorldSpec(scale=scale, seed=WORLD_SEED),
        seed=seed,
    )


def draw_calls(world, n_users, calls_per_user_day, seed, phases, **arrival_options):
    """Sample users and draw their day of calls, timing both layers."""
    t0 = time.perf_counter()
    population = UserPopulation.sample(world.topology, n_users, seed=seed)
    t1 = time.perf_counter()
    calls = CallArrivalProcess(
        population, calls_per_user_day=calls_per_user_day, seed=seed + 1, **arrival_options
    ).generate(days=1)
    t2 = time.perf_counter()
    phases["workload.population_s"] = t1 - t0
    phases["workload.arrivals_s"] = t2 - t1
    return calls


def stream_slots(results, slot_s: float) -> int:
    """Stream-slots simulated, counted from the calls and the slot length.

    Every resolved call simulates a VNS and an Internet stream; every call
    in a group where some call takes a PoP detour also simulates a detour
    stream.
    """
    detour_groups = {
        group_key(result.spec)
        for result in results
        if result.decision is not None and result.decision.choice is PathChoice.POP_DETOUR
    }
    total = 0
    for result in results:
        streams = 3 if group_key(result.spec) in detour_groups else 2
        total += streams * math.ceil(result.spec.duration_s / slot_s - 1e-9)
    return total


def engine_counts(engine, run) -> dict[str, float]:
    """Per-layer counts of one finished campaign run."""
    stats = run.stats
    onward = stats.onward_hits + stats.onward_misses
    internet = stats.internet_hits + stats.internet_misses
    steering = run.report.steering or {}
    return {
        "workload.calls": stats.calls_total,
        "workload.onward_hit_ratio": stats.onward_hits / onward if onward else 0.0,
        "workload.internet_hit_ratio": stats.internet_hits / internet if internet else 0.0,
        "dataplane.stream_slots": stream_slots(run.results, engine.config.slot_s),
        "workload.cached_paths": sum(len(cache) for cache in engine.export_path_caches().values()),
        "steering.decisions": steering.get("steered_calls", 0),
        "steering.offloaded": steering.get("offloaded_calls", 0),
    }


def read_engine_timers(before, phases) -> None:
    """Copy the engine's phase timers since ``before`` into ``phases``."""
    spent = perf.snapshot().diff(before)
    for metric, timer in ENGINE_TIMERS.items():
        phases[metric] = spent.timer_s(timer)


def traceable(op):
    """Run ``op`` with :mod:`repro.perf` enabled when it is called ``traced``."""

    @functools.wraps(op)
    def run(*args, traced=False, **kwargs):
        if not traced:
            return op(*args, **kwargs)
        perf.enable()
        try:
            return op(*args, traced=True, **kwargs)
        finally:
            perf.disable()

    return run


def result_checks(calls, run, *, n_users, calls_per_user_day, allow_failed) -> list[str]:
    """The checks every campaign run's outputs go through."""
    return (
        checks.calls_in_poisson_band(len(calls), n_users, calls_per_user_day)
        + checks.accounting(len(calls), run, allow_failed=allow_failed)
        + checks.propagation_bound(run.results)
        + checks.loss_counts(run.results)
    )


@traceable
def campaign_op(world, seed, *, health=None, shuffle=False, traced=False) -> OpOutcome:
    """Draw a campaign day and run it through a fresh engine, then render.

    ``health`` steers every call with ``threshold_offload``; ``shuffle``
    runs the calls in a seeded random order, which must not change the
    report.
    """
    phases: dict[str, float] = {}
    started = time.perf_counter()
    calls = draw_calls(world, CAMPAIGN_USERS, CAMPAIGN_CALLS_PER_USER_DAY, seed, phases)
    if shuffle:
        random.Random(seed).shuffle(calls)
    config = CampaignConfig(seed=seed + 2)
    steering = None
    if health is not None:
        steering = SteeringEngine(
            health=health, policy=make_policy("threshold_offload"), seed=config.seed
        )
    engine = CampaignEngine(world.service, config, steering=steering)
    before = perf.snapshot() if traced else None
    run = engine.run(calls)
    rendered = time.perf_counter()
    report_json = run.report.to_json()
    finished = time.perf_counter()
    phases["workload.report_s"] = finished - rendered
    if traced:
        read_engine_timers(before, phases)
    outcome = OpOutcome(
        wall_s=finished - started,
        calls=len(calls),
        report_json=report_json,
        phases=phases,
        counts=engine_counts(engine, run) if traced else {},
    )
    outcome.failures = result_checks(
        calls,
        run,
        n_users=CAMPAIGN_USERS,
        calls_per_user_day=CAMPAIGN_CALLS_PER_USER_DAY,
        allow_failed=False,
    )
    return outcome


@traceable
def outage_op(world, spec, before_fault: dict, grid, *, shuffle=False, traced=False) -> OpOutcome:
    """Fail the region, run its campaign, restore; check every step.

    The op is ``load_scenario`` + ``run`` + ``restore``, made through the
    public steps those two calls are built from: ``apply_scenario_faults``
    and ``compose_scenario`` (``load_scenario``), then a sequential
    :class:`~repro.workload.engine.CampaignEngine` built as
    ``LoadedScenario.run`` builds it, so each step is timed apart and the
    engine's path caches can be counted.
    """
    service = world.service
    bgp = service.network.engine
    delivered_before = bgp.delivered
    snap = perf.snapshot() if traced else None
    t0 = time.perf_counter()
    applied = apply_scenario_faults(service, spec)
    try:
        t_applied = time.perf_counter()
        loaded = compose_scenario(spec, world, applied.degradations)
        t1 = time.perf_counter()
        if shuffle:
            random.Random(spec.seed).shuffle(loaded.calls)
        t2 = time.perf_counter()
        engine = CampaignEngine(
            service, loaded.config, steering=loaded.steering, path_model=loaded.path_model
        )
        before_run = perf.snapshot() if traced else None
        run = engine.run(loaded.calls)
        t3 = time.perf_counter()
        report_json = run.report.to_json()
        t4 = time.perf_counter()
        # Checks in the faulted state, outside the timed phases.
        failures = result_checks(
            loaded.calls,
            run,
            n_users=spec.n_users,
            calls_per_user_day=spec.calls_per_user_day,
            allow_failed=True,
        )
        failures += checks.outage_avoidance(
            run.results, service.network.pop_l2_path, DOWN_POP, CUT_LINK
        )
        during = sample_egress(service, grid)
        t5 = time.perf_counter()
        applied.restore()
        t6 = time.perf_counter()
    finally:
        applied.restore()  # idempotent: undoes the faults if the op raised
    failures += checks.exact_restore(before_fault, sample_egress(service, grid))
    moved = checks.moved_decisions(before_fault, during)
    if moved == 0:
        failures.append("restore: the fault moved no sampled egress decision")
    phases = {
        "faults.apply_s": t_applied - t0,
        "scenarios.compose_s": t1 - t_applied,
        "workload.report_s": t4 - t3,
        "faults.restore_s": t6 - t5,
    }
    counts = {"bgp.fault_msgs": bgp.delivered - delivered_before, "vns.egress_moved": moved}
    if traced:
        read_engine_timers(before_run, phases)
        spent = perf.snapshot().diff(snap)
        phases["bgp.engine_s"] = spent.timer_s("bgp.engine.run")
        if spent.counters.get("bgp.engine.delivered", 0) != counts["bgp.fault_msgs"]:
            failures.append("bgp: perf message counter disagrees with the engine's count")
        counts.update(engine_counts(engine, run))
    return OpOutcome(
        wall_s=(t1 - t0) + (t4 - t2) + (t6 - t5),
        calls=len(loaded.calls),
        report_json=report_json,
        phases=phases,
        counts=counts,
        failures=failures,
    )


@dataclass
class SetUpSplit:
    """The world rebuilt layer by layer: the layer figures, and what the
    rebuild converged to, for :func:`split_failures` to hold against the
    world ``build_world`` made."""

    layers: dict[str, float]
    delivered: int
    egress: dict


def decompose_set_up(scale: str) -> SetUpSplit:
    """Rebuild the benchmark's world through the public layer functions.

    Mirrors ``build_world`` (and ``VideoNetworkService.build``) call for
    call, timing topology generation, the VNS build with its AS-level
    route export, and iBGP convergence; the geo-LP counters come from
    :mod:`repro.perf`.  The probe telemetry is then collected on the
    rebuilt service and timed.  The rebuild is a world no op touches, so
    the ops' world keeps the state a timed run's set-up leaves.
    """
    scale = WorldScale(scale)
    perf.reset()
    perf.enable()
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(WORLD_SEED)
        topology = generate_topology(_TOPOLOGY_CONFIGS[scale], rng)
        t1 = time.perf_counter()
        routing = AsLevelRouting(topology.graph)
        geoip = topology.build_geoip()
        t2 = time.perf_counter()
        deployment = build_vns(
            topology,
            routing,
            geoip,
            VnsConfig(max_peers=_MAX_PEERS[scale]),
            rng,
            converge=False,
        )
        t3 = time.perf_counter()
        delivered = deployment.network.converge()
        t4 = time.perf_counter()
        deployment.messages_delivered = delivered
        service = VideoNetworkService(topology, routing, deployment, geoip)
        counters = perf.snapshot().counters
    finally:
        perf.disable()
        perf.reset()
    gc.collect()
    t5 = time.perf_counter()
    collect_health(service)
    t6 = time.perf_counter()
    lp_calls = counters.get("geo.assign.calls", 0)
    layers = {
        "net.topology_s": t1 - t0,
        "vns.build_s": t3 - t2,
        "bgp.converge_s": t4 - t3,
        "bgp.converge_msgs": delivered,
        "bgp.msgs_per_s": delivered / (t4 - t3),
        "vns.geo_lp_calls": lp_calls,
        "vns.geo_lp_memo_hit_ratio": counters.get("geo.assign.memo_hits", 0) / lp_calls
        if lp_calls
        else 0.0,
        "steering.telemetry_s": t6 - t5,
    }
    return SetUpSplit(layers, delivered, sample_egress(service, egress_grid(service)))


def split_failures(split: SetUpSplit, world) -> list[str]:
    """Where the rebuild differs from ``build_world``'s world: the
    convergence message count, or the egress decision on any sampled
    (PoP, prefix).  So the split cannot drift from what ``setup_s`` times."""
    failures = []
    expected = world.service.deployment.messages_delivered
    if split.delivered != expected:
        failures.append(
            f"set-up split: converged in {split.delivered} messages, build_world in {expected}"
        )
    if sample_egress(world.service, list(split.egress)) != split.egress:
        failures.append("set-up split: egress decisions differ from build_world's")
    return failures


# --------------------------------------------------------------------- #
# the workloads
# --------------------------------------------------------------------- #


class Workload:
    """One workload: what set-up builds and what an op does.

    ``setup_repeats`` is how many times a timed run sets up (the median
    is ``setup_s``); two keep a MEDIUM run under a minute.  A run sets
    up, calls :meth:`prepare`, then repeats :meth:`op`;
    :meth:`final_checks` runs once at the end.
    """

    name = ""
    scale = ""
    setup_repeats = 2
    steered = False

    def set_up(self) -> Ready:
        world = build_world(self.scale, seed=WORLD_SEED)
        return Ready(world, collect_health(world.service) if self.steered else None)

    def prepare(self, ready: Ready, seed: int) -> dict:
        return {"ready": ready, "seed": seed}

    def op(self, ctx: dict, *, shuffle: bool = False, traced: bool = False) -> OpOutcome:
        ready = ctx["ready"]
        return campaign_op(
            ready.world, ctx["seed"], health=ready.health, shuffle=shuffle, traced=traced
        )

    def final_checks(self, ctx: dict, reference_json: str) -> list[str]:
        return []

    def census(self, ctx: dict) -> OpOutcome:
        """Time, in a traced run, the layers this workload's op bypasses.

        A campaign day never fails a PoP, so its traced run replays the
        regional outage once on its own world to time the incremental
        control plane there.
        """
        world = ctx["ready"].world
        grid = egress_grid(world.service)
        spec = outage_spec(world.scale.value, ctx["seed"])
        return outage_op(world, spec, sample_egress(world.service, grid), grid, traced=True)


class CampaignDay(Workload):
    name = "campaign_day"
    scale = "medium"


class SteeredSmall(Workload):
    name = "steered_small"
    scale = "small"
    steered = True

    def final_checks(self, ctx: dict, reference_json: str) -> list[str]:
        """The steered report minus its steering blocks equals a plain run."""
        gc.collect()
        world, seed = ctx["ready"].world, ctx["seed"]
        calls = draw_calls(world, CAMPAIGN_USERS, CAMPAIGN_CALLS_PER_USER_DAY, seed, {})
        plain = CampaignEngine(world.service, CampaignConfig(seed=seed + 2)).run(calls)
        return checks.baseline_untouched(json.loads(reference_json), plain.report.to_dict())


class RegionalOutage(Workload):
    name = "regional_outage"
    scale = "small"

    def prepare(self, ready: Ready, seed: int) -> dict:
        service = ready.world.service
        grid = egress_grid(service)
        return {
            "ready": ready,
            "seed": seed,
            "spec": outage_spec(ready.world.scale.value, seed),
            "grid": grid,
            "before_fault": sample_egress(service, grid),
        }

    def census(self, ctx: dict) -> OpOutcome:
        """Time the population and arrival layers ``compose_scenario`` runs.

        The scenario draws its calls inside one call; drawing the same
        users and calls here times the two layers apart.
        """
        spec = ctx["spec"]
        phases: dict[str, float] = {}
        calls = draw_calls(
            ctx["ready"].world,
            spec.n_users,
            spec.calls_per_user_day,
            spec.seed,
            phases,
            multiparty_fraction=spec.multiparty_fraction,
        )
        return OpOutcome(wall_s=sum(phases.values()), calls=len(calls), report_json="", phases=phases)

    def op(self, ctx: dict, *, shuffle: bool = False, traced: bool = False) -> OpOutcome:
        return outage_op(
            ctx["ready"].world,
            ctx["spec"],
            ctx["before_fault"],
            ctx["grid"],
            shuffle=shuffle,
            traced=traced,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (CampaignDay(), RegionalOutage(), SteeredSmall())
}
