"""The dispatcher's standing issue order: re-rank, backfill split, audit.

The bucketed pump keeps one suffix-sorted list of active kernels per
placement shape and, after every priority rewrite, re-ranks each list
with one stable argsort on the current priorities.  These tests pin:

* **the re-rank** — rebuilt buckets equal a per-shape
  ``sorted(..., key=default_issue_key)`` on priorities with ties, signed
  zeros and both infinities, with and without greedy occupancy;
* **one backfill predicate** — a policy writing ``-inf`` gets the same
  decisions from the vectorized and scalar pumps (both treat any
  infinite priority as backfill);
* **the backfill split under the bucketed pump** — latency-insensitive
  (infinite-priority) kernels and ``greedy_occupancy=False`` run
  bit-identically on the bucketed and scalar pumps;
* **the invariant-checker audit** — a forced-gate fleet cell runs
  clean, and a ``job.priority`` write that skips
  ``invalidate_order()`` is reported.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.config import SimConfig
from repro.core.calibration import warm_table
from repro.schedulers.base import default_issue_key
from repro.schedulers.registry import make_scheduler
from repro.schedulers.rr import RoundRobinScheduler
from repro.sim.device import GPUSystem
from repro.sim.modes import vectorized_mode
from repro.sim.trace import TraceRecorder
from repro.units import US
from repro.validation import InvariantChecker, InvariantViolation
from repro.workloads.fleet import (build_fleet_jobs, fleet_config,
                                   fleet_warm_rates)

from conftest import make_descriptor, make_job


@pytest.fixture(autouse=True)
def _engage_small_cells(monkeypatch):
    """Force the vectorized pump (and so the bucketed order) on mini cells."""
    monkeypatch.setattr("repro.schedulers.lax._VEC_MIN_JOBS", 1)
    monkeypatch.setattr("repro.sim.dispatcher._VEC_MIN_ACTIVE", 1)


def _fleet_run(policy, vectorized, config=None, insensitive_every=0,
               validator=None, num_jobs=96):
    """A scaled-down fleet cell with full WG tracing."""
    config = config or fleet_config()
    jobs = build_fleet_jobs(num_jobs=num_jobs, seed=3, gpu=config.gpu)
    if insensitive_every:
        for job in jobs[::insensitive_every]:
            job.deadline = None
    with vectorized_mode(vectorized):
        trace = TraceRecorder(wg_events=True)
        system = GPUSystem(policy, config, trace=trace, validator=validator)
        warm_table(system.profiler, fleet_warm_rates(config.gpu))
        system.submit_workload(jobs)
        metrics = system.run()
    return (dataclasses.asdict(metrics), trace.events, system.sim.now,
            system)


class _NegativeInfinityRR(RoundRobinScheduler):
    """RR that pins every third job at ``-inf`` priority.

    RR ranks by queue distance, so the priority only matters through the
    dispatcher's backfill predicate — the one place the scalar and
    vectorized pumps used to disagree (``isinf`` versus ``== inf``)."""

    name = "RR-NEGINF"

    def on_job_arrival(self, job):
        if job.job_id % 3 == 0:
            job.priority = -math.inf
        super().on_job_arrival(job)


class TestRerank:
    PRIORITIES = [0.0, -0.0, 5, 5.0, math.inf, -math.inf, 3.5, 3.5,
                  1e300, -2.0, math.inf, 0.0]

    def _dispatcher_with_kernels(self, greedy):
        gpu = dataclasses.replace(SimConfig().gpu, greedy_occupancy=greedy)
        config = dataclasses.replace(SimConfig(), gpu=gpu)
        dispatcher = GPUSystem(make_scheduler("LAX"), config).dispatcher
        wide = make_descriptor(name="wide", threads_per_wg=256)
        narrow = make_descriptor(name="narrow")
        # Same placement shape as "narrow" under another type name.
        twin = make_descriptor(name="twin")
        kernels = []
        for job_id, priority in enumerate(self.PRIORITIES):
            job = make_job(job_id=job_id,
                           descriptors=[(wide, narrow, twin)[job_id % 3],
                                        narrow],
                           arrival=(job_id * 7) % 5)
            job.start_time = 100 - (job_id % 4)
            job.priority = priority
            kernels.extend(job.kernels)
        # Activation order unrelated to key order.
        for kernel in kernels[::-1]:
            dispatcher._active.append(kernel)
        return dispatcher, kernels

    @pytest.mark.parametrize("greedy", [True, False])
    def test_buckets_equal_per_shape_sort(self, greedy):
        dispatcher, kernels = self._dispatcher_with_kernels(greedy)
        buckets = dispatcher._build_order_buckets()
        expected = {}
        for kernel in kernels:
            backfill = math.isinf(kernel.job.priority) or not greedy
            shape = kernel.descriptor.placement_shape + (backfill,)
            expected.setdefault(shape, []).append(kernel)
        for shape, members in expected.items():
            members.sort(key=default_issue_key)
        assert {shape: entry[1] for shape, entry in buckets.items()} \
            == expected
        assert all(entry[0] == 0 for entry in buckets.values())

    def test_rerank_follows_new_priorities(self):
        """The per-shape lists outlive an invalidation; a re-rank after a
        priority rewrite must still equal a fresh sort."""
        dispatcher, kernels = self._dispatcher_with_kernels(True)
        dispatcher._build_order_buckets()
        for kernel in kernels:
            kernel.job.priority = -kernel.job.priority
        dispatcher.invalidate_order()
        buckets = dispatcher._build_order_buckets()
        for entry in buckets.values():
            assert entry[1] == sorted(entry[1], key=default_issue_key)
        assert sum(len(entry[1]) for entry in buckets.values()) \
            == len(kernels)


class TestBackfillPredicate:
    def test_negative_infinity_same_on_both_pumps(self):
        vec = _fleet_run(_NegativeInfinityRR(), True)
        scalar = _fleet_run(_NegativeInfinityRR(), False)
        assert vec[:3] == scalar[:3]


class TestBackfillSplitDifferential:
    @pytest.mark.parametrize("greedy", [True, False])
    def test_bucketed_matches_scalar(self, greedy):
        config = fleet_config()
        config = dataclasses.replace(
            config, gpu=dataclasses.replace(config.gpu,
                                            greedy_occupancy=greedy))
        bucketed = _fleet_run(make_scheduler("LAX"), True, config,
                              insensitive_every=4)
        scalar = _fleet_run(make_scheduler("LAX"), False, config,
                            insensitive_every=4)
        assert bucketed[:3] == scalar[:3]
        dispatcher = bucketed[3].dispatcher
        assert dispatcher.bucketed_pumps > 0
        assert scalar[3].dispatcher.bucketed_pumps == 0


class TestStandingOrderAudit:
    def test_forced_gate_fleet_runs_clean(self):
        checker = InvariantChecker()
        *_, system = _fleet_run(make_scheduler("LAX"), True,
                                insensitive_every=4, validator=checker,
                                num_jobs=48)
        assert checker.violations == []
        assert checker.checks.get("standing_order", 0) > 0
        assert system.dispatcher.bucketed_pumps > 0

    def _mid_run(self):
        config = fleet_config()
        checker = InvariantChecker()
        system = GPUSystem(make_scheduler("LAX"), config, validator=checker)
        warm_table(system.profiler, fleet_warm_rates(config.gpu))
        system.submit_workload(build_fleet_jobs(num_jobs=48, seed=3,
                                                gpu=config.gpu))
        system.sim.run_until(250 * US + 50)
        dispatcher = system.dispatcher
        buckets = dispatcher._order_buckets or \
            dispatcher._build_order_buckets()
        head, kernels = next(entry for shape, entry in buckets.items()
                             if not shape[-1]
                             and len(entry[1]) - entry[0] >= 2)
        return checker, dispatcher, kernels[head], kernels[-1]

    def test_priority_write_without_invalidation_reported(self):
        checker, dispatcher, first, last = self._mid_run()
        checker.on_dispatch(dispatcher)   # consistent before the write
        last.job.priority = first.job.priority - 1.0
        with pytest.raises(InvariantViolation) as info:
            checker.on_dispatch(dispatcher)
        assert info.value.invariant == "standing_order"
        assert checker.violations[-1]["invariant"] == "standing_order"

    def test_priority_write_with_invalidation_clean(self):
        checker, dispatcher, first, last = self._mid_run()
        last.job.priority = first.job.priority - 1.0
        dispatcher.invalidate_order()
        checker.on_dispatch(dispatcher)
        dispatcher._build_order_buckets()
        checker.on_dispatch(dispatcher)
        assert checker.violations == []
