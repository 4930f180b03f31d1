"""Event-core tick elision: the LAX updater's gate skips ticks, never outcomes.

``LaxityScheduler`` arms the updater's :attr:`PeriodicTask.gate` at the
end of every full tick by recording the rank-epoch key; the horizon up to
which later ticks may be skipped is computed only when the gate first
finds the key unchanged.  This module checks:

* whole streamed runs — one device, and four devices behind the laxity
  router — are identical with the gate installed and with it removed,
  and the gate does skip ticks on them;
* the deferred horizon equals the one the same scan yields at the tick
  that recorded the key;
* the margin scans read the cache through the read-only
  :meth:`RemainingTimeCache.cached`, and running jobs never bound the
  sweep margin through the Little's-Law rule.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import ClusterSystem
from repro.config import GPUConfig, SimConfig
from repro.core.job_table import JobTable
from repro.core.laxity import RemainingTimeCache
from repro.errors import SimulationError
from repro.schedulers.lax import LaxityScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.units import MS
from repro.workloads.fleet import fleet_kernel_specs
from repro.workloads.streaming import JobTemplate, PoissonSource

from conftest import make_descriptor, make_job
from test_scheduler_tick import cached_job, seeded_table

#: Streamed jobs per cell: a few hundred ticks, most of them quiet.
NUM_JOBS = 200


def slow_source(rate_jobs_per_s: float) -> PoissonSource:
    """Poisson arrivals of fleet-style jobs: 400-720 us WGs, 1 ms deadline.

    WGs far longer than the 100 us update period leave ticks with no WG
    issue or completion in between — the quiet epochs the gate skips.
    The deadline is tight enough that about half the jobs cross into
    predicted-miss and past-deadline during such epochs, so on the
    single-device cell a gate that skips past its horizon changes the
    outcomes.
    """
    gpu = GPUConfig()
    templates = [JobTemplate("SLOW", tuple(spec.descriptor(gpu)
                                           for spec in family), 1 * MS)
                 for family in fleet_kernel_specs(2, 2)]
    return PoissonSource(templates, rate_jobs_per_s, seed=3)


def _rows(metrics):
    return [dataclasses.astuple(outcome) for outcome in metrics.outcomes]


def run_single():
    system = GPUSystem(make_scheduler("LAX"), SimConfig(), retire=False)
    system.submit_stream(slow_source(2000).jobs(), max_jobs=NUM_JOBS)
    metrics = system.run()
    return [(system, metrics)]


def run_cluster():
    fleet = ClusterSystem("LAX", SimConfig(), num_devices=4,
                          router="laxity", seed=1, retire=False, workers=1)
    fleet.submit_stream(slow_source(8000), max_jobs=NUM_JOBS)
    metrics = fleet.run()
    return [(system, device) for system, device
            in zip(fleet.devices, metrics.per_device) if system is not None]


def _observe(devices):
    outcome = [(_rows(metrics), system.sim.events_committed, system.sim.now)
               for system, metrics in devices]
    updaters = [system.policy._updater for system, _ in devices]
    return outcome, updaters


@pytest.fixture
def ungated(monkeypatch):
    """Remove the updater's gate from every LAX policy started."""
    start = LaxityScheduler.start

    def start_without_gate(self):
        start(self)
        self._updater.gate = None

    monkeypatch.setattr(LaxityScheduler, "start", start_without_gate)


@pytest.mark.parametrize("cell", [run_single, run_cluster],
                         ids=["single", "cluster4-laxity"])
def test_gate_skips_ticks_and_changes_no_outcome(cell, request):
    gated, gated_updaters = _observe(cell())
    request.getfixturevalue("ungated")
    plain, plain_updaters = _observe(cell())
    assert sum(updater.ticks_gated for updater in gated_updaters) > 0
    assert gated == plain
    assert all(updater.ticks_gated == 0 for updater in plain_updaters)
    # The timer still fires every period; the gate only skips bodies.
    assert ([u.ticks_fired + u.ticks_gated for u in gated_updaters]
            == [u.ticks_fired for u in plain_updaters])


def test_deferred_horizon_matches_the_tick_time_scan(monkeypatch):
    """The gate's lazily computed horizon is the scan's value at the tick."""
    record = LaxityScheduler._record_elision_key
    horizon = LaxityScheduler._elision_horizon
    at_tick = {}
    deferred = []

    def record_and_scan(self, now):
        record(self, now)
        if self._elide_key is not None:
            at_tick[id(self)] = (now, horizon(self, now))

    def checked_horizon(self, now):
        value = horizon(self, now)
        deferred.append((now, value))
        assert at_tick[id(self)] == (now, value)
        return value

    monkeypatch.setattr(LaxityScheduler, "_record_elision_key",
                        record_and_scan)
    monkeypatch.setattr(LaxityScheduler, "_elision_horizon",
                        checked_horizon)
    _, updaters = _observe(run_single())
    assert deferred
    assert any(value > now for now, value in deferred)
    assert updaters[0].ticks_gated > 0


class TestReadOnlyCacheAccess:
    def test_cached_returns_the_entry_without_touching_the_table(self):
        table = seeded_table()
        cache = RemainingTimeCache(table)
        job = cached_job()
        value = cache.remaining(job, 0)
        mutations = table.mutations
        assert cache.cached(job) == value
        assert table.mutations == mutations
        assert (cache.recomputed, cache.reused) == (1, 0)

    def test_cached_raises_without_an_entry(self):
        cache = RemainingTimeCache(seeded_table())
        with pytest.raises(SimulationError):
            cache.cached(cached_job())

    def test_cached_raises_on_a_stale_entry(self):
        cache = RemainingTimeCache(seeded_table())
        job = cached_job()
        cache.remaining(job, 0)
        kernel = job.kernels[0]
        kernel.mark_active(0)
        kernel.note_wg_issued(0)
        kernel.note_wg_completed(10)
        with pytest.raises(SimulationError):
            cache.cached(job)


class TestSweepMargin:
    """:meth:`LaxityScheduler._sweep_margin` mirrors ``steady_state_pass``."""

    NOW = 1000

    def _margin(self, running: bool):
        # 2 kernels x 4 WGs at 0.001 WG/tick: 8000 ticks remaining
        # against a 5000-tick deadline, so the job is a predicted miss.
        policy = LaxityScheduler()
        policy.job_table = JobTable(4)
        cache = policy._remaining_cache = RemainingTimeCache(seeded_table())
        job = make_job(deadline=5000,
                       descriptors=[make_descriptor(num_wgs=4)] * 2)
        job.mark_enqueued(0, 0)
        job.mark_ready()
        if running:
            job.mark_running(0)
        policy.job_table.insert(job)
        remaining = cache.remaining(job, self.NOW)
        assert remaining + job.elapsed(self.NOW) > job.deadline
        return policy._sweep_margin(self.NOW), job, remaining

    def test_running_predicted_miss_does_not_bound_the_margin(self):
        # The sweep never estimate-rejects a running job; only the
        # past-deadline rule applies to it.
        margin, job, _ = self._margin(running=True)
        assert margin == job.deadline - job.elapsed(self.NOW)

    def test_ready_predicted_miss_bounds_the_margin(self):
        margin, job, remaining = self._margin(running=False)
        assert margin == job.deadline - (remaining + job.elapsed(self.NOW))
