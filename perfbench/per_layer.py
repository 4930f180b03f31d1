"""Per-layer metrics of one traced pass.

Times come from the :class:`~layers.Tracer`'s spans; counts come from
the wrapped entry points' call counts and from the counters the
simulator already exposes.  Every ``*_per_job`` figure divides by the
jobs the pass offered.  Counts repeat exactly between runs of the same
seed; times do not.
"""

from __future__ import annotations

from typing import Dict, Tuple

from cells import paper_ratio_error, wasted_wg_fraction
from layers import LAYERS, Tracer

#: Layers whose self time is reported (``<layer>.self_us_per_job``).
TIMED_LAYERS = ("workloads", "engine", "cp", "dispatcher", "cu", "laxity",
                "admission", "policy", "collector", "job", "telemetry",
                "cluster")
#: Layers whose entry-point call count is reported.
CALLED_LAYERS = ("workloads", "cp", "cu", "laxity", "collector")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def program_counters(outcomes) -> Dict[str, int]:
    """The simulator's own counters, summed over a pass's cells."""
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        for name, value in outcome.counters.items():
            counts[name] = counts.get(name, 0) + value
    return counts


def layer_metrics(tracer: Tracer, outcomes, untraced) -> Dict[str, object]:
    """Per-layer metrics of the pass ``tracer`` just observed.

    ``untraced`` is the same pass run without wrappers; the ratio of
    the two run phases' CPU time is the tracing overhead.  Returns
    ``{"metrics": {name: (value, unit)}, "counts": {...}}``; ``counts``
    holds everything that must repeat exactly between runs.
    """
    jobs = sum(o.jobs for o in outcomes)
    index = tracer.layer_index
    counters = program_counters(outcomes)
    calls = dict(zip(LAYERS, tracer.calls))
    entry = {
        "cp_activations": tracer.calls_of("CommandProcessor._activate"),
        "pumps": tracer.calls_of("WGDispatcher._pump"),
        "cu_starts": (tracer.calls_of("ComputeUnit.start_wg")
                      + tracer.calls_of("ComputeUnit.issue_wgs")),
        "admission_evaluations": (
            tracer.calls_of("QueuingDelayAdmission.evaluate")),
        "decision_events": tracer.calls_of("DecisionLog.emit"),
        "trace_events": tracer.calls_of("TraceRecorder.emit"),
        "route_calls": tracer.calls_of(".route"),
    }
    traced_time = sum(tracer.self_time)
    wall = sum(o.wall_seconds for o in outcomes)

    def per_job(value: float) -> float:
        return value / jobs

    metrics: Dict[str, Tuple[float, str]] = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.self_us_per_job"] = (
            per_job(tracer.self_time[index[name]] * 1e6), "us")
    for name in CALLED_LAYERS:
        metrics[f"{name}.calls_per_job"] = (per_job(calls[name]), "calls")
    committed = counters["events_committed"]
    metrics.update({
        "engine.ns_per_event": (
            _ratio(tracer.self_time[index["engine"]] * 1e9, committed),
            "ns"),
        "engine.events_committed_per_job": (per_job(committed), "events"),
        "engine.events_fired_per_job": (
            per_job(counters["events_fired"]), "events"),
        "engine.coalesced_fraction": (
            _ratio(counters["events_coalesced"], committed), "fraction"),
        "engine.periodic_elided_fraction": (
            _ratio(counters["periodic_skipped"],
                   counters["periodic_fired"]
                   + counters["periodic_skipped"]), "fraction"),
        "cp.kernels_activated_per_job": (
            per_job(entry["cp_activations"]), "kernels"),
        "host.commands_per_job": (
            per_job(counters["host_commands"]), "commands"),
        "dispatcher.pumps_per_job": (per_job(entry["pumps"]), "calls"),
        "dispatcher.wgs_issued_per_job": (
            per_job(counters["wgs_issued"]), "wgs"),
        "dispatcher.wgs_preempted_per_job": (
            per_job(counters["wgs_preempted"]), "wgs"),
        "dispatcher.order_rebuilds_per_job": (
            per_job(counters["order_rebuilds"]), "rebuilds"),
        "cu.wg_starts_per_job": (per_job(entry["cu_starts"]), "calls"),
        "laxity.ticks_per_job": (per_job(counters["lax_ticks"]), "ticks"),
        "laxity.ticks_elided_fraction": (
            _ratio(counters["lax_ticks_elided"], counters["lax_ticks"]),
            "fraction"),
        "admission.evaluations_per_job": (
            per_job(entry["admission_evaluations"]), "calls"),
        "admission.reject_fraction": (
            _ratio(counters["admission_rejected"],
                   counters["admission_accepted"]
                   + counters["admission_rejected"]), "fraction"),
        "job.pool_hit_fraction": (
            _ratio(counters["pool_hits"],
                   counters["pool_hits"] + counters["pool_misses"]),
            "fraction"),
        "telemetry.cpu_share": (
            _ratio(tracer.self_time[index["telemetry"]], traced_time),
            "fraction"),
        "telemetry.decision_events_per_job": (
            per_job(entry["decision_events"]), "events"),
        "telemetry.trace_events_per_job": (
            per_job(entry["trace_events"]), "events"),
        "cluster.route_calls_per_job": (
            per_job(entry["route_calls"]), "calls"),
        "cluster.router_reject_fraction": (
            _ratio(counters["router_rejected"], counters["router_seen"]),
            "fraction"),
        # Simulated outcomes, exact per seed, whose spread across seeds
        # is too wide for an end-to-end bound.  The paper-ratio error is
        # 0 on workloads without the paper's LAX and RR cells.
        "sim.wasted_wg_fraction": (wasted_wg_fraction(outcomes),
                                   "fraction"),
        "sim.paper_ratio_error": (
            paper_ratio_error(outcomes) or 0.0, "ln-ratio"),
        "trace.overhead_ratio": (
            sum(o.cpu_seconds for o in outcomes)
            / sum(o.cpu_seconds for o in untraced), "ratio"),
        "trace.unattributed_share": (
            1.0 - _ratio(sum(o.traced_seconds for o in outcomes), wall),
            "fraction"),
    })
    counts = {"jobs": jobs, "layer_calls": calls, "entry_calls": entry,
              "counters": counters}
    return {"metrics": metrics, "counts": counts}
