"""The benchmark's timing loops and its metric tables.

:func:`timed_run` gives the end-to-end metrics, :func:`traced_run` the
per-layer split; :func:`report` prints either, ending with the one-line
JSON result.  ``perfbench/run.py`` is the command that drives them.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy

import checks
import workloads
from repro.dataplane import columnar

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "cell_s": "s",
    "calls_per_s": "calls/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "net.topology_s": "s",
    "vns.build_s": "s",
    "bgp.converge_s": "s",
    "bgp.converge_msgs": "count",
    "bgp.msgs_per_s": "msgs/s",
    "vns.geo_lp_calls": "count",
    "vns.geo_lp_memo_hit_ratio": "ratio",
    "steering.telemetry_s": "s",
    "trace.setup_coverage": "ratio",
    "workload.population_s": "s",
    "workload.arrivals_s": "s",
    "workload.resolve_s": "s",
    "workload.simulate_s": "s",
    "workload.aggregate_s": "s",
    "workload.report_s": "s",
    "workload.onward_hit_ratio": "ratio",
    "workload.internet_hit_ratio": "ratio",
    "workload.calls": "count",
    "dataplane.stream_slots": "count",
    "dataplane.slots_per_s": "slots/s",
    "workload.first_op_s": "s",
    "steering.decisions": "count",
    "steering.offloaded": "count",
    "faults.apply_s": "s",
    "scenarios.compose_s": "s",
    "faults.restore_s": "s",
    "bgp.fault_msgs": "count",
    "bgp.engine_s": "s",
    "bgp.fault_msgs_per_s": "msgs/s",
    "vns.egress_moved": "count",
    "workload.cached_paths": "count",
    "trace.overhead_s": "s",
    "trace.op_coverage": "ratio",
}

#: The layer calls an op is made of; their sum over the op's wall time
#: is ``trace.op_coverage``.
OP_LAYERS = (
    "workload.population_s",
    "workload.arrivals_s",
    "faults.apply_s",
    "scenarios.compose_s",
    "workload.resolve_s",
    "workload.simulate_s",
    "workload.aggregate_s",
    "workload.report_s",
    "faults.restore_s",
)

#: The layer calls set-up is made of (plus the telemetry when steered);
#: their sum over the set-up's wall time is ``trace.setup_coverage``.
SETUP_LAYERS = ("net.topology_s", "vns.build_s", "bgp.converge_s")

#: The traced run rebuilds the world layer by layer until the rebuilds'
#: layer calls have taken this long (once at MEDIUM, three times at
#: SMALL), so that second-scale host noise on a few-second SMALL build
#: averages out of ``trace.setup_coverage``.
SPLIT_SECONDS = 10.0

#: Below this share of an op (or of set-up) covered by timed layer
#: calls, the split misses real work; the run says so.
MIN_COVERAGE = 0.9


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Ops attempted and failed, and every check that did not hold.

    The first op's report is the run's reference: every later op (same
    seed, same inputs) must render the identical report.
    """

    def __init__(self, workload, ctx) -> None:
        self.workload = workload
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None
        self.fault_msgs: int | None = None
        self.walls: list[float] = []

    def attempt(self, **options):
        self.attempted += 1
        gc.collect()
        try:
            outcome = self.workload.op(self.ctx, **options)
        except Exception:  # one failed op must not stop the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.problems += outcome.failures
        self.walls.append(outcome.wall_s)
        if self.reference is None:
            self.reference = outcome.report_json
        else:
            self.problems += checks.same_report(
                self.reference, outcome.report_json, "from the first op (shuffled calls)"
            )
        msgs = outcome.counts.get("bgp.fault_msgs")
        if msgs is not None:
            if self.fault_msgs is None:
                self.fault_msgs = msgs
            elif msgs != self.fault_msgs:
                self.problems.append(f"bgp: fault took {msgs} messages, first op {self.fault_msgs}")
        return outcome

    def repeat(self, seconds: float, **options) -> list:
        """Attempt at least one op, and more until ``seconds`` have passed.

        A timed run has one such stretch per set-up; a traced run has one
        untraced and one traced stretch.
        """
        outcomes = []
        deadline = time.perf_counter() + seconds
        tried = 0
        while not tried or time.perf_counter() < deadline:
            tried += 1
            outcome = self.attempt(**options)
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes


def timed_set_up(workload) -> tuple:
    """Set the workload up after a collection; what set-up made, and its seconds."""
    gc.collect()
    started = time.perf_counter()
    ready = workload.set_up()
    return ready, time.perf_counter() - started


def timed_run(workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Set up and run a stretch of ops, once per set-up.

    The host's speed drifts over tens of seconds, so ops spread between
    the set-ups sample more of it than one stretch would.  Each stretch
    runs on the world set up just before it, once the earlier world is
    released, so only one world is alive at a time and ``peak_rss_mb``
    follows one world and its ops.  The first op on each world, with its
    calls shuffled, fills the world's lazily built route tables; it is
    checked but left out of the medians.
    """
    setup_s = []
    tally = Tally(workload, None)
    outcomes = []
    stretches = workload.setup_repeats
    for _ in range(stretches):
        tally.ctx = None  # release the earlier world before the next set-up
        ready, spent = timed_set_up(workload)
        setup_s.append(spent)
        tally.ctx = workload.prepare(ready, seed)
        del ready
        tally.attempt(shuffle=True)
        outcomes += tally.repeat(seconds / stretches)
    if tally.reference is not None:
        tally.problems += workload.final_checks(tally.ctx, tally.reference)
    if not outcomes:
        return tally, {}
    return tally, {
        "cell_s": statistics.median(o.wall_s for o in outcomes),
        "calls_per_s": statistics.median(o.calls / o.wall_s for o in outcomes),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    """The separate traced run: the per-layer split of set-up and op.

    Set-ups as in a timed run alternate with rebuilds of the world layer
    by layer (:data:`SPLIT_SECONDS`), each world dropped before the next
    build, so all start from the same near-empty heap.
    ``trace.setup_coverage`` is the rebuilds' mean layer time over the
    mean set-up time, so the host's speed drifting between builds
    largely cancels.  The first op then runs on the last world as set-up
    left it, as a timed run's first op does.  Untraced and traced
    stretches of ops follow; only after them are the rebuilds checked
    against the ops' world and the layers the op bypasses timed
    (:meth:`Workload.census`).
    """
    setup_walls = [timed_set_up(workload)[1]]
    splits, covered = [], []
    while sum(covered) < SPLIT_SECONDS:
        ready = None  # drop the last world before the rebuild
        gc.collect()
        split = workloads.decompose_set_up(workload.scale)
        splits.append(split)
        covered.append(
            sum(split.layers[name] for name in SETUP_LAYERS)
            + (split.layers["steering.telemetry_s"] if workload.steered else 0.0)
        )
        ready, setup_s = timed_set_up(workload)
        setup_walls.append(setup_s)
    ctx = workload.prepare(ready, seed)
    tally = Tally(workload, ctx)

    first = tally.attempt(shuffle=True)
    plain = tally.repeat(seconds / 2)
    traced = tally.repeat(seconds / 2, traced=True)
    for split in splits:
        tally.problems += workloads.split_failures(split, ready.world)
    gc.collect()
    census = workload.census(ctx)
    tally.problems += census.failures
    if tally.reference is not None:
        tally.problems += workload.final_checks(ctx, tally.reference)
    if first is None or not plain or not traced:
        return tally, {}

    values = {**census.phases, **census.counts}
    for name in traced[0].phases:
        values[name] = statistics.median(o.phases[name] for o in traced)
    values.update(traced[-1].counts)
    for name in splits[0].layers:
        values[name] = statistics.median(split.layers[name] for split in splits)
    values["trace.setup_coverage"] = statistics.mean(covered) / statistics.mean(setup_walls)
    values["dataplane.slots_per_s"] = values["dataplane.stream_slots"] / values["workload.simulate_s"]
    values["bgp.fault_msgs_per_s"] = values["bgp.fault_msgs"] / values["bgp.engine_s"]
    values["workload.first_op_s"] = first.wall_s
    values["trace.overhead_s"] = statistics.median(o.wall_s for o in traced) - statistics.median(
        o.wall_s for o in plain
    )
    values["trace.op_coverage"] = statistics.median(
        sum(o.phases.get(name, 0.0) for name in OP_LAYERS) / o.wall_s for o in traced
    )
    for name in ("trace.op_coverage", "trace.setup_coverage"):
        if values[name] < MIN_COVERAGE:
            print(f"warning: {name} {values[name]:.3f} < {MIN_COVERAGE}: the layer split misses work")
    return tally, {name: values[name] for name in PER_LAYER}


def environment_line() -> str:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "missing"
    kernel = "columnar" if columnar.available() else "grouped (fallback)"
    return (
        f"environment: kernel={kernel} numpy={numpy.__version__} scipy={scipy_version}"
        f" python={platform.python_version()} PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}"
        f" threads={os.environ.get('OMP_NUM_THREADS')}"
    )


def report(workload, seed: int, trace: bool, tally: Tally, values: dict) -> int:
    """Print the checks, the metrics and the JSON result line; the exit code."""
    units = PER_LAYER if trace else END_TO_END
    for problem in tally.problems:
        print(f"check failed: {problem}")
    print(f"workload {workload.name} seed {seed}: {tally.attempted} ops attempted, {tally.failed} failed")
    print("op wall times (s), first op first: " + " ".join(f"{wall:.3f}" for wall in tally.walls))
    if not values:
        print("error: no op completed, so there is nothing to report", file=sys.stderr)
        return 1
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS.get(workload_name)
    if workload is None:
        known = sorted(workloads.WORKLOADS)
        print(f"error: unknown workload {workload_name!r} (known: {known})", file=sys.stderr)
        return 2
    print(environment_line())
    if not columnar.available():
        print(
            "error: the columnar kernel is unavailable (scipy cannot be imported); the engine"
            " would silently run the grouped kernel, with different reports at about half"
            " the speed, so this workload is not timed",
            file=sys.stderr,
        )
        return 3
    run = traced_run if trace else timed_run
    tally, values = run(workload, seed, seconds)
    return report(workload, seed, trace, tally, values)
