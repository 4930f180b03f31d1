"""The benchmark's workloads: named lists of simulated cells.

A cell is one deterministic simulation.  :meth:`Cell.prepare` does what
a user pays before ``run()`` — input generation, system construction,
profiling-table warm-up — and returns a :class:`Prepared` whose
:meth:`~Prepared.run` is the timed phase.  Every cell takes its inputs
from the benchmark's ``--seed``; arrivals are open-loop in simulated
time (a seeded schedule that does not depend on progress).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster import ClusterSystem
from repro.config import SimConfig
from repro.core.calibration import warm_table
from repro.harness.experiment import CellResult, ExperimentSpec
from repro.harness.paper_expected import PAPER_GEOMEAN_CLAIMS
from repro.harness.summary import geomean_ratio
from repro.metrics.percentile import p99
from repro.schedulers.registry import make_scheduler
from repro.sim import job_pool
from repro.sim.device import GPUSystem
from repro.sim.engine import PeriodicTask
from repro.sim.time import to_ms
from repro.telemetry import TelemetryHub
from repro.units import MS
from repro.validation import InvariantChecker, audit_run
from repro.workloads.fleet import (build_fleet_jobs, fleet_config,
                                   fleet_warm_rates)
from repro.workloads.registry import BENCHMARK_ORDER, build_workload
from repro.workloads.streaming import (SUSTAINED_RATES,
                                       sustained_fleet_source,
                                       sustained_source)

#: Seed whose outcome digests are committed in ``goldens.json``.
DEFAULT_SEED = 1

SUSTAINED_RATE = SUSTAINED_RATES["high"]
#: Jobs per sustained-stream cell: long enough for a steady live
#: population, short enough for ~10 timed cells in one run.
SUSTAINED_JOBS = 10_000
#: The paper's jobs per Table-4 cell (Section 5.3).
PAPER_JOBS = 128
PAPER_SCHEDULERS = ("LAX", "RR")
#: Telemetry window of the paper battery's hub (the CLI's ``--window 2``).
PAPER_WINDOW = 2 * MS
CLUSTER_DEVICES = 4
#: Offered load per device, as a multiple of the SUSTAINED high rate:
#: past the knee, so the laxity router sheds at the router tier.
CLUSTER_LOAD = 2.0
CLUSTER_JOBS = 10_000

#: Reduced sizes for the invariant-checked validation pass (the
#: checker's per-event audit is far slower than the timed path).
VALIDATE_STREAM_JOBS = 500
VALIDATE_FLEET_JOBS = 20
VALIDATE_PAPER_JOBS = 2


@dataclass
class Outcome:
    """What one finished cell produced, reduced to what the bench needs."""

    label: str
    #: Jobs offered, rejected ones included.
    jobs: int
    sensitive: int
    met: int
    #: Completed-job response times, ticks.
    latencies: List[int]
    energy_joules: float
    wgs_executed: int
    useful_wgs: int
    #: SHA-256 of every simulated result the cell exposes.
    digest: str
    #: Broken conservation identities (empty when the cell is sound).
    identity_errors: List[str]
    #: The simulator's own counters (see :func:`_counters`).  The
    #: outcome keeps no system alive, so memory holds one live cell.
    counters: Dict[str, int]
    #: The paper battery's cells, for :func:`paper_ratio_error`.
    cell: Optional[CellResult] = None
    #: Invariant checks and violations (validation pass only).
    checks: int = 0
    violations: List[str] = field(default_factory=list)
    #: Host time of the run phase (``simulate()`` alone), filled in
    #: by the benchmark runner.
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: Part of ``wall_seconds`` covered by traced spans (traced runs).
    traced_seconds: float = 0.0
    #: The runner's handle for failure accounting.
    key: object = None


@dataclass(frozen=True)
class Prepared:
    """A constructed cell.

    ``simulate()`` is the run phase (the system's ``run()``), which the
    benchmark times; ``summarize(result)`` reduces its result to an
    :class:`Outcome`, untimed.
    """

    simulate: Callable[[], object]
    summarize: Callable[[object], Outcome]


@dataclass(frozen=True)
class Cell:
    """One simulation of a workload; ``prepare`` is its set-up."""

    label: str
    prepare: Callable[[], Prepared]


# ----------------------------------------------------------------------
# Outcome extraction
# ----------------------------------------------------------------------

def _device_record(system: GPUSystem, metrics) -> Dict[str, object]:
    """Every simulated result of one device, JSON-ready, for the digest."""
    admission = getattr(system.policy, "admission", None)
    record: Dict[str, object] = {
        "outcomes": [[o.job_id, o.accepted, o.completion, o.wgs_executed]
                     for o in metrics.outcomes],
        "events_committed": system.sim.events_committed,
        "now": system.sim.now,
        "end_time": metrics.end_time,
        "wgs_issued": system.dispatcher.wgs_issued,
        "wgs_preempted": system.dispatcher.wgs_preempted,
        "host_commands": system.host.commands_sent,
        "energy_joules": repr(metrics.total_energy_joules),
        "admission": None if admission is None else [
            admission.accepted, admission.rejected,
            admission.fast_accepted, admission.late_rejected],
    }
    stream = metrics.stream
    if stream is not None:
        fields = {f.name: getattr(stream, f.name)
                  for f in dataclasses.fields(stream) if f.name != "latencies"}
        fields = {k: repr(v) if isinstance(v, float) else v
                  for k, v in fields.items()}
        fields["latencies"] = sorted(stream.latencies.sample())
        record["stream"] = fields
    return record


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _wg_counts(metrics):
    executed = sum(o.wgs_executed for o in metrics.outcomes)
    useful = sum(o.wgs_executed for o in metrics.outcomes if o.met_deadline)
    if metrics.stream is not None:
        executed += metrics.stream.wgs_executed
        useful += metrics.stream.useful_wgs
    return executed, useful


def _periodic_tasks(system: GPUSystem) -> List[PeriodicTask]:
    return [value for value in vars(system.policy).values()
            if isinstance(value, PeriodicTask)]


def _counters(systems: List[GPUSystem], router=None) -> Dict[str, int]:
    """The simulator's own counters after a run, summed over devices.

    Read right after ``run()``, so the job-pool counters (zeroed when
    the cell is prepared) cover this cell alone.
    """
    counts = dict.fromkeys((
        "events_fired", "events_committed", "events_coalesced",
        "periodic_fired", "periodic_skipped", "host_commands", "wgs_issued",
        "wgs_preempted", "order_rebuilds", "lax_ticks", "lax_ticks_elided",
        "admission_accepted", "admission_rejected", "router_rejected",
        "router_seen"), 0)
    counts["pool_hits"] = job_pool.hits
    counts["pool_misses"] = job_pool.misses
    if router is not None:
        counts["router_rejected"] = router.rejected
        counts["router_seen"] = router.routed
    for system in systems:
        sim = system.sim
        counts["events_fired"] += sim.events_fired
        counts["events_committed"] += sim.events_committed
        counts["events_coalesced"] += sim.events_coalesced
        for task in _periodic_tasks(system):
            counts["periodic_fired"] += task.ticks_fired
            counts["periodic_skipped"] += task.ticks_elided + task.ticks_gated
        counts["host_commands"] += system.host.commands_sent
        dispatcher = system.dispatcher
        counts["wgs_issued"] += dispatcher.wgs_issued
        counts["wgs_preempted"] += dispatcher.wgs_preempted
        counts["order_rebuilds"] += dispatcher.order_rebuilds
        stats = getattr(system.policy, "tick_stats", None)
        if stats is not None:
            counts["lax_ticks"] += stats.ticks
            counts["lax_ticks_elided"] += stats.ticks_elided
        admission = getattr(system.policy, "admission", None)
        if admission is not None:
            counts["admission_accepted"] += admission.accepted
            counts["admission_rejected"] += admission.rejected
    return counts


def _arrival_identity(system: GPUSystem, offered: int,
                      where: str) -> List[str]:
    """Every offered job arrives once and gets exactly one final verdict.

    A late-rejected job was admitted first, so the collector counts it
    under both admitted and rejected.
    """
    collector = system.metrics
    admission = getattr(system.policy, "admission", None)
    late = 0 if admission is None else admission.late_rejected
    errors = []
    if collector.arrivals != offered:
        errors.append(f"{where}: {collector.arrivals} arrivals, "
                      f"{offered} offered")
    if collector.arrivals != collector.admitted + collector.rejected - late:
        errors.append(f"{where}: {collector.arrivals} arrivals != "
                      f"{collector.admitted} admitted + "
                      f"{collector.rejected} rejected - {late} late")
    return errors


def _device_outcome(label: str, system: GPUSystem, metrics,
                    offered: int) -> Outcome:
    executed, useful = _wg_counts(metrics)
    return Outcome(
        label=label, jobs=metrics.num_jobs,
        sensitive=metrics.num_latency_sensitive,
        met=metrics.jobs_meeting_deadline,
        latencies=metrics.completed_latencies(),
        energy_joules=metrics.total_energy_joules,
        wgs_executed=executed, useful_wgs=useful,
        digest=_digest(_device_record(system, metrics)),
        identity_errors=_arrival_identity(system, offered, label),
        counters=_counters([system]))


def _validated(outcome: Outcome, systems: List[GPUSystem], metrics_list,
               jobs_list) -> Outcome:
    """Fold the attached checkers' summaries and the oracles in.

    ``jobs_list`` holds each device's finite job list; streamed runs
    pass ``[]`` because retirement banked their ledger terms in the
    stream aggregate.
    """
    for system, metrics, jobs in zip(systems, metrics_list, jobs_list):
        summary = system.validator.summary()
        outcome.checks += summary["total_checks"]
        outcome.violations += [str(v) for v in summary["violations"]]
        outcome.violations += audit_run(system, jobs, metrics)
    return outcome


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------

def _single(label: str, build, validate: bool,
            spec: Optional[ExperimentSpec] = None) -> Cell:
    """A single-device cell.

    ``build(validator)`` returns the submitted system, the jobs offered
    and the job list it was given (empty for a lazy stream).  A cell of
    the paper's grid passes its ``spec``.
    """

    def prepare() -> Prepared:
        job_pool.clear()
        validator = InvariantChecker() if validate else None
        system, offered, jobs = build(validator)

        def summarize(metrics) -> Outcome:
            outcome = _device_outcome(label, system, metrics, offered)
            if spec is not None:
                outcome.cell = CellResult(spec, metrics)
            if validate:
                _validated(outcome, [system], [metrics], [jobs])
            return outcome

        return Prepared(system.run, summarize)

    return Cell(label, prepare)


def sustained_stream(seed: int, validate: bool = False) -> List[Cell]:
    """SUSTAINED Poisson stream, LAX, one device, retirement on."""
    jobs = VALIDATE_STREAM_JOBS if validate else SUSTAINED_JOBS

    def build(validator):
        system = GPUSystem(make_scheduler("LAX"), SimConfig(),
                           validator=validator, retire=True)
        system.submit_stream(sustained_source(SUSTAINED_RATE,
                                              seed=seed).jobs(),
                             max_jobs=jobs, lookahead=1)
        return system, jobs, []

    return [_single(f"SUSTAINED/LAX n={jobs}", build, validate)]


def fleet_backlog(seed: int, validate: bool = False) -> List[Cell]:
    """FLEET-1280: >= 1024 co-resident LAX jobs on a warmed table."""
    config = fleet_config()
    num_jobs = VALIDATE_FLEET_JOBS if validate else None

    def build(validator):
        kwargs = {} if num_jobs is None else {"num_jobs": num_jobs}
        jobs = build_fleet_jobs(seed=seed, gpu=config.gpu, **kwargs)
        system = GPUSystem(make_scheduler("LAX"), config,
                           validator=validator, retire=False)
        warm_table(system.profiler, fleet_warm_rates(config.gpu))
        system.submit_workload(jobs)
        return system, len(jobs), jobs

    return [_single(f"FLEET/LAX n={num_jobs or 'default'}", build, validate)]


def paper_battery(seed: int, validate: bool = False) -> List[Cell]:
    """The 8 Table-4 benchmarks x {LAX, RR} at the high rate."""
    num_jobs = VALIDATE_PAPER_JOBS if validate else PAPER_JOBS
    cells = []
    for benchmark in BENCHMARK_ORDER:
        for scheduler in PAPER_SCHEDULERS:
            spec = ExperimentSpec(benchmark, scheduler, "high",
                                  num_jobs=num_jobs, seed=seed)

            def build(validator, spec=spec):
                config = SimConfig()
                jobs = build_workload(spec.benchmark, spec.rate_level,
                                      num_jobs=spec.num_jobs, seed=spec.seed,
                                      gpu=config.gpu)
                # The --emit-telemetry defaults plus windows and the SLO
                # monitor.
                hub = TelemetryHub(window=PAPER_WINDOW, slo_monitor=True)
                system = GPUSystem(make_scheduler(spec.scheduler), config,
                                   telemetry=hub, validator=validator,
                                   retire=False)
                system.submit_workload(jobs)
                return system, len(jobs), jobs
            cells.append(_single(f"{benchmark}/{scheduler} n={num_jobs}",
                                 build, validate, spec))
    return cells


def cluster_knee(seed: int, validate: bool = False) -> List[Cell]:
    """4 devices behind the laxity router at 2x per-device load."""
    jobs = VALIDATE_STREAM_JOBS if validate else CLUSTER_JOBS
    label = f"cluster{CLUSTER_DEVICES}/laxity n={jobs}"

    def prepare() -> Prepared:
        job_pool.clear()
        fleet = ClusterSystem("LAX", SimConfig(),
                              num_devices=CLUSTER_DEVICES, router="laxity",
                              seed=seed, retire=True, validate=validate,
                              workers=1)
        fleet.submit_stream(
            sustained_fleet_source(CLUSTER_DEVICES,
                                   SUSTAINED_RATE * CLUSTER_LOAD, seed=seed),
            max_jobs=jobs)

        def summarize(metrics) -> Outcome:
            return _cluster_outcome(label, fleet, metrics, jobs, validate)

        return Prepared(fleet.run, summarize)

    return [Cell(label, prepare)]


def _cluster_outcome(label, fleet, metrics, offered, validate) -> Outcome:
    systems = [s for s in fleet.devices if s is not None]
    device_metrics = [m for m in metrics.per_device if m is not None]
    records = {"lane_sizes": list(metrics.lane_sizes),
               "router_rejected": metrics.router_rejected,
               "decision_reasons": metrics.decision_reasons,
               "devices": [_device_record(s, m)
                           for s, m in zip(systems, device_metrics)]}
    errors = []
    routed = sum(metrics.lane_sizes)
    if routed + metrics.router_rejected != offered:
        errors.append(f"{label}: {routed} routed + "
                      f"{metrics.router_rejected} router-rejected != "
                      f"{offered} offered")
    for index, system in enumerate(fleet.devices):
        lane = metrics.lane_sizes[index]
        if system is None:
            if lane:
                errors.append(f"{label}: device {index} lane of {lane} "
                              "never ran")
            continue
        errors += _arrival_identity(system, lane, f"{label} dev{index}")
    wgs = [_wg_counts(m) for m in device_metrics]
    outcome = Outcome(
        label=label, jobs=metrics.num_jobs,
        sensitive=metrics.num_latency_sensitive,
        met=metrics.jobs_meeting_deadline,
        latencies=metrics.completed_latencies(),
        energy_joules=sum(m.total_energy_joules for m in device_metrics),
        wgs_executed=sum(w[0] for w in wgs),
        useful_wgs=sum(w[1] for w in wgs),
        digest=_digest(records), identity_errors=errors,
        counters=_counters(systems, fleet.router))
    if validate:
        _validated(outcome, systems, device_metrics, [[]] * len(systems))
    return outcome


WORKLOADS: Dict[str, Callable[..., List[Cell]]] = {
    "sustained_stream": sustained_stream,
    "fleet_backlog": fleet_backlog,
    "paper_battery": paper_battery,
    "cluster_knee": cluster_knee,
}


# ----------------------------------------------------------------------
# Simulated end-to-end metrics
# ----------------------------------------------------------------------

def simulated_metrics(outcomes: List[Outcome]) -> Dict[str, tuple]:
    """Pool one pass's cells into the simulated end-to-end metrics.

    Returns ``{name: (value, unit)}``.
    """
    sensitive = sum(o.sensitive for o in outcomes)
    met = sum(o.met for o in outcomes)
    latencies = [t for o in outcomes for t in o.latencies]
    return {
        "slo_attainment": (met / sensitive if sensitive else 0.0,
                           "fraction"),
        "p99_latency_ms": (to_ms(p99(latencies)) if latencies else 0.0,
                           "ms"),
        "energy_per_success_mj": (
            sum(o.energy_joules for o in outcomes) / met * 1e3
            if met else 0.0, "mJ"),
    }


def wasted_wg_fraction(outcomes: List[Outcome]) -> float:
    """Share of executed WGs spent on jobs that missed (Figure 9), pooled."""
    executed = sum(o.wgs_executed for o in outcomes)
    useful = sum(o.useful_wgs for o in outcomes)
    return 1.0 - useful / executed if executed else 0.0


def paper_ratio_error(outcomes: List[Outcome]) -> Optional[float]:
    """|ln(LAX/RR geomean of jobs meeting deadline / the paper's 4.2)|.

    None unless the pass holds cells of the paper's grid.
    """
    grid: Dict[str, Dict[str, CellResult]] = {}
    for outcome in outcomes:
        if outcome.cell is not None:
            spec = outcome.cell.spec
            grid.setdefault(spec.benchmark, {})[spec.scheduler] = outcome.cell
    if not grid:
        return None
    ratio = geomean_ratio(grid, "LAX", "RR")
    return abs(math.log(ratio / PAPER_GEOMEAN_CLAIMS["LAX_vs_RR_high"]))
