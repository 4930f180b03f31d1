"""Workgroup dispatcher (the GPU's WG scheduler).

The dispatcher owns the set of *active* kernels — launches the CP has
handed over — and fills free CU slots with their workgroups.  On every
state change (kernel activated, WG completed, preemption hold released) it
runs a *pump*: it asks the scheduling policy to rank the active kernels,
then walks the ranking issuing pending WGs to the least-loaded CU that can
accept them, until nothing more fits.

Pumps triggered inside one event timestamp are coalesced into a single
delay-0 event so bursts of WG completions cost one ranking pass.

The pump issues in **batches**: instead of one ``start_wg`` (full
O(residents) sync + timer cancel/re-push) and one all-CU rescan per WG,
it solves each kernel's placement against integer capacity counters
(:meth:`ComputeUnit.batch_capacity`), admits every WG bound for a CU in
one :meth:`ComputeUnit.issue_wgs` call, and re-arms each touched CU's
timer exactly once via :meth:`ComputeUnit.flush_issue` — in the order
the per-WG loop's surviving timer pushes would have happened, so the
event heap's FIFO tie-breaking (and therefore every simulated result) is
identical to the seed per-WG path.  ``docs/performance.md`` has the
argument in full; ``WGDispatcher.batched = False`` restores the seed
loop for benchmarking and differential testing.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from ..config import GPUConfig
from ..errors import SimulationError
from .compute_unit import ComputeUnit
from .cu_arrays import CUOccupancyArrays
from .engine import Simulator
from .energy import EnergyMeter
from .kernel import KernelInstance

try:  # pragma: no cover - exercised implicitly on numpy-less hosts
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Masked-load sentinel for the vectorized least-loaded argmin (beyond
#: any real resident count) and the "no kernel seen yet" thread floor.
_HUGE = 2 ** 62

#: Active-kernel count below which the scalar pump beats the array one
#: (numpy/heap setup per pump dominates tiny active sets) — the dispatch
#: analogue of ``compute_unit._VEC_MIN_RESIDENTS``.  Streaming cells
#: that retire jobs hold ~50 active kernels and stay on the PR-4 scalar
#: fast path; backlogged fleet cells cross over at once.  Both pumps are
#: bit-identical, so the gate is purely a cost model.
_VEC_MIN_ACTIVE = 64

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..schedulers.base import SchedulerPolicy


def _bisect_key(seq: Sequence, target: tuple, key: Callable,
                lo: int) -> int:
    """Leftmost index in ``seq[lo:]`` whose ``key`` is not below ``target``.

    ``bisect``'s ``key=`` argument needs Python 3.10; the simulator
    still supports 3.9.
    """
    hi = len(seq)
    while lo < hi:
        mid = (lo + hi) // 2
        if key(seq[mid]) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


class WGDispatcher:
    """Fills CU slots from active kernels in policy order."""

    #: Class-level engine-mode switch (see :mod:`repro.sim.modes`).
    #: ``False`` restores the seed per-WG issue loop.
    batched = True

    #: Event-core switch (see :mod:`repro.sim.modes`): ``True`` lets the
    #: pump consult the standing pending set — an insertion-ordered dict
    #: of active kernels with unissued WGs, maintained at the handful of
    #: sites that change issue counts — instead of re-scanning the whole
    #: active list on every pump.  The set's iteration order equals the
    #: active-list filter's output order (appends mirror ``add_kernel``;
    #: preemption, the only path that re-pends a consumed kernel, rebuilds
    #: the set from the active list), so both sources hand ``issue_order``
    #: the same sequence and the pumps are decision-for-decision
    #: identical.  ``False`` restores the seed per-pump scan.
    counted = True

    #: Engine-mode switch (see :mod:`repro.sim.modes`): ``True`` solves
    #: pump capacity against the dispatcher-owned per-CU occupancy arrays
    #: (``repro.sim.cu_arrays``) — one broadcast min-reduce per resource
    #: shape, a vectorized least-loaded placement and an O(1) saturation
    #: fast-out — instead of per-CU Python scans.  Decision-for-decision
    #: identical to the scalar batched pump (``docs/performance.md``).
    vectorized = True

    def __init__(self, sim: Simulator, gpu_config: GPUConfig,
                 energy: EnergyMeter) -> None:
        self._sim = sim
        self._config = gpu_config
        self.cus: List[ComputeUnit] = [
            ComputeUnit(cu_id, sim, gpu_config, energy,
                        self._completion_sink(cu_id))
            for cu_id in range(gpu_config.num_cus)
        ]
        for cu in self.cus:
            cu.on_capacity_freed = self.request_pump
        self._active: List[KernelInstance] = []
        #: Standing pending set: active kernels with WGs left to issue,
        #: in active-list order (see the ``counted`` flag).  Dict-as-set
        #: for O(1) membership plus insertion order.
        self._pending_set: dict = {}
        self._policy: Optional["SchedulerPolicy"] = None
        self._pump_pending = False
        #: Callback into the CP: a WG of ``kernel`` completed at ``now``.
        self.on_wg_complete: Optional[Callable[[KernelInstance, int], None]] = None
        #: Profiling table fed with issue/preempt events (set by GPUSystem;
        #: completions reach it through the CP).
        self.profiler = None
        #: Optional TraceRecorder mirroring WG/preemption events.
        self.trace = None
        #: Optional InvariantChecker auditing WG conservation after every
        #: pump / preemption / cancel (same off-path pattern as ``trace``).
        self.validator = None
        #: Total WGs issued to CUs (diagnostics; includes re-issues).
        self.wgs_issued = 0
        #: Total preemption evictions performed.
        self.wgs_preempted = 0
        self._wavefront_size = gpu_config.wavefront_size
        # Vectorized-mode state: the per-CU occupancy arrays (created
        # lazily by the first vectorized pump; never for seed/gated
        # systems) and a monotone lower bound on threads/WG over every
        # kernel ever activated, backing the O(1) saturation fast-out.
        self._occ: Optional[CUOccupancyArrays] = None
        self._min_threads_seen = _HUGE
        self._base_order = False
        self._issue_key = None
        #: Standing issue order for the bucketed vectorized pump:
        #: ``placement_shape + (backfill,)`` -> [head_index, [kernel, ...]]
        #: with the kernels in ``default_issue_key`` order.  ``None`` means
        #: "re-rank from ``_shape_lists``".  Valid only while every
        #: kernel's key matches its job's current priority and no
        #: consumed head can become pending again — hence the eager
        #: :meth:`invalidate_order` calls from priority-writing ticks,
        #: cancellation and preemption.
        self._order_buckets: Optional[dict] = None
        #: Active kernels per ``placement_shape``, each list sorted by the
        #: issue key's frozen suffix ``(start, job_id, kernel.index)`` —
        #: the re-rank's input.  Created by the first rebuild, kept in
        #: step with ``_active`` while it exists, and dropped with the
        #: cache when the pump falls below ``_VEC_MIN_ACTIVE``.
        self._shape_lists: Optional[dict] = None
        #: Bucketed-pump accounting (diagnostics; cheap integer adds).
        #: ``order_rebuilds`` re-ranks of the standing order,
        #: ``order_invalidations`` cache drops while a cache existed,
        #: ``bucketed_pumps`` merge pumps run, ``bucket_pops`` heap pops
        #: across them, ``bucket_parks`` whole-bucket capacity parks.
        self.order_rebuilds = 0
        self.order_invalidations = 0
        self.bucketed_pumps = 0
        self.bucket_pops = 0
        self.bucket_parks = 0

    def attach_policy(self, policy: "SchedulerPolicy") -> None:
        """Set the ranking policy; must happen before any activation."""
        self._policy = policy
        # The vectorized pump may rank lazily (heap-select instead of a
        # full sort) only when the policy uses the base issue_order —
        # a pure sort on default_issue_key, whose (job_id, kernel.index)
        # suffix makes every key unique, so heap pop order equals sorted
        # order exactly.  Overriding policies (RR, MLFQ, PREMA) keep
        # their own ranking verbatim.
        from ..schedulers.base import SchedulerPolicy, default_issue_key
        self._base_order = (type(policy).issue_order
                            is SchedulerPolicy.issue_order)
        self._issue_key = default_issue_key

    # ------------------------------------------------------------------
    # Kernel set
    # ------------------------------------------------------------------

    @property
    def active_kernels(self) -> Sequence[KernelInstance]:
        """Kernels currently eligible for WG issue."""
        return tuple(self._active)

    def add_kernel(self, kernel: KernelInstance) -> None:
        """Activate a kernel launch (CP handed it over)."""
        if kernel in self._active:
            raise SimulationError(f"kernel {kernel!r} activated twice")
        kernel.mark_active(self._sim.now)
        # Maintained regardless of the mode flag (one compare on a cold
        # path) so a mid-run flip cannot leave the bound too high, which
        # would make the vectorized saturation fast-out skip real work.
        threads = kernel.descriptor.threads_per_wg
        if threads < self._min_threads_seen:
            self._min_threads_seen = threads
        self._active.append(kernel)
        if kernel.descriptor.num_wgs > kernel.wgs_issued:
            self._pending_set[kernel] = None
        lists = self._shape_lists
        if lists is not None:
            shape = kernel.descriptor.placement_shape
            kernels = lists.get(shape)
            if kernels is None:
                lists[shape] = [kernel]
            else:
                suffix_key = self._suffix_key
                kernels.insert(_bisect_key(kernels, suffix_key(kernel),
                                           suffix_key, 0), kernel)
            buckets = self._order_buckets
            if buckets is not None:
                self._bucket_insert(buckets, kernel)
        self.request_pump()

    def request_pump(self) -> None:
        """Schedule a pump at the current timestamp (coalesced).

        Scheduled as a fusable continuation: under the event-core wheel
        the pump runs inline after the triggering handler whenever no
        queued event precedes it — the common case for WG-completion
        bursts — saving a queue round-trip per pump.  Outside the wheel
        run loop this is exactly ``schedule(0, ...)``; either way the
        committed event sequence is identical.
        """
        if not self._pump_pending:
            self._pump_pending = True
            self._sim.schedule_fusable(0, self._pump)

    # ------------------------------------------------------------------
    # Preemption (PREMA)
    # ------------------------------------------------------------------

    def preempt_kernel(self, kernel: KernelInstance, hold_time: int) -> int:
        """Evict every resident WG of ``kernel`` across all CUs.

        Evicted WGs return to the kernel's pending pool and re-execute from
        scratch; their CU resources stay held for ``hold_time`` ticks to
        model context-save traffic.  Returns the eviction count.
        """
        evicted = 0
        for cu in self.cus:
            evicted += cu.preempt_kernel(kernel, hold_time)
        self.wgs_preempted += evicted
        if evicted:
            # Eviction refills the kernel's pending pool, so a bucket head
            # consumed as "fully issued" may be pending again.
            self.invalidate_order()
            # Rebuild (rather than append to) the pending set: a kernel
            # re-pended out of order must re-enter at its active-list
            # position for the set to keep mirroring the per-pump scan.
            self._pending_set = {
                k: None for k in self._active
                if k.descriptor.num_wgs > k.wgs_issued}
            if self.profiler is not None:
                self.profiler.on_wgs_preempted(kernel.name, evicted,
                                               self._sim.now)
            if self.trace is not None:
                self.trace.emit(self._sim.now, "preemption",
                                job_id=kernel.job.job_id,
                                kernel=kernel.name, detail=evicted)
            self.request_pump()
        if self.validator is not None:
            self.validator.on_dispatch(self)
        return evicted

    def resident_wgs(self, kernel: KernelInstance) -> int:
        """Resident WG count of ``kernel`` across the device."""
        return sum(cu.residents_of(kernel) for cu in self.cus)

    def cancel_kernel(self, kernel: KernelInstance) -> None:
        """Drop an active kernel entirely (its job was late-rejected).

        Resident WGs are evicted with no context save (the results are
        discarded, not resumed) and the kernel leaves the active set.
        """
        for cu in self.cus:
            evicted = cu.preempt_kernel(kernel, hold_time=0)
            if evicted:
                if self.profiler is not None:
                    self.profiler.on_wgs_preempted(kernel.name, evicted,
                                                   self._sim.now)
                if self.trace is not None:
                    self.trace.emit(self._sim.now, "preemption",
                                    job_id=kernel.job.job_id,
                                    kernel=kernel.name, detail=evicted)
        if kernel in self._active:
            self._active.remove(kernel)
            if self._shape_lists is not None:
                self._shape_list_remove(kernel)
        self._pending_set.pop(kernel, None)
        # The kernel leaves the active set while still pending; drop the
        # cached order rather than search it.
        self.invalidate_order()
        self.request_pump()
        if self.validator is not None:
            self.validator.on_dispatch(self)

    def invalidate_order(self) -> None:
        """Drop the cached bucketed issue order.

        Must be called by any code that rewrites ``job.priority`` while
        the job's kernels are active — the scheduler ticks (LAX, SRF) and
        the host's priority-register writes do; admission-time initial
        priorities precede kernel activation and need not.  Cancellation
        and preemption invalidate internally.  A no-op outside
        ``vectorized_mode`` (the cache is never built).
        """
        if self._order_buckets is not None:
            self.order_invalidations += 1
            self._order_buckets = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _suffix_key(self, kernel: KernelInstance) -> tuple:
        """The issue key's frozen suffix ``(start, job_id, kernel.index)``.

        Fixed before activation (a job's start time is recorded when it
        binds a queue), so the per-shape lists never need re-sorting.
        """
        return self._issue_key(kernel)[1:]

    def _shape_list_remove(self, kernel: KernelInstance) -> None:
        """Drop a kernel leaving ``_active`` from its per-shape list."""
        kernels = self._shape_lists[kernel.descriptor.placement_shape]
        index = _bisect_key(kernels, self._suffix_key(kernel),
                            self._suffix_key, 0)
        if index == len(kernels) or kernels[index] is not kernel:
            raise SimulationError(
                f"kernel {kernel!r} missing from its standing shape list")
        del kernels[index]

    def _completion_sink(self, cu_id: int) -> Callable[[KernelInstance, int], None]:
        """Per-CU completion callback so traces can attribute the CU."""
        def sink(kernel: KernelInstance, now: int) -> None:
            self._wg_completed(kernel, now, cu_id)
        return sink

    def _wg_completed(self, kernel: KernelInstance, now: int,
                      cu_id: Optional[int] = None) -> None:
        if self.on_wg_complete is None:
            raise SimulationError("dispatcher has no completion sink")
        # wg_events checked here so disabled WG tracing costs nothing on
        # this per-workgroup path.
        if self.trace is not None and self.trace.wg_events:
            self.trace.emit(now, "wg_complete", job_id=kernel.job.job_id,
                            kernel=kernel.name, cu=cu_id)
        finished = kernel.note_wg_completed(now)
        if finished:
            self._active.remove(kernel)
            if self._shape_lists is not None:
                self._shape_list_remove(kernel)
        self.on_wg_complete(kernel, now)
        self.request_pump()

    def _pick_cu(self, kernel: KernelInstance) -> Optional[ComputeUnit]:
        """Least-loaded CU that can accept one WG of ``kernel``.

        Jobs parked at infinite priority (latency-insensitive work, or
        jobs a deadline-aware policy wrote off) are backfill: their WGs
        only go into slots where every resident keeps running at full
        rate, so they soak up spare capacity without ever slowing
        deadline work — resident WGs cannot be preempted by priority
        alone, so the protection must happen at issue time.
        """
        backfill_only = (math.isinf(kernel.job.priority)
                         or not self._config.greedy_occupancy)
        best: Optional[ComputeUnit] = None
        best_load = -1
        desc = kernel.descriptor
        if WGDispatcher.counted:
            # Flattened fit test: ``can_accept``'s four free-resource
            # compares inlined, with the wavefront rounding hoisted out
            # of the CU loop (every CU shares the config's wavefront
            # size).  Same predicates, same iteration order, same
            # least-loaded/first-on-tie argmin as the seed loop below.
            threads = desc.threads_per_wg
            vgpr = desc.vgpr_bytes_per_wg
            lds = desc.lds_bytes_per_wg
            concurrency = desc.cu_concurrency
            wavefronts = None
            for cu in self.cus:
                if wavefronts is None:
                    wavefronts = desc.wavefronts_per_wg(cu._wavefront_size)
                if (threads > (cu._threads_limit - cu.used_threads
                               - cu._held_threads)
                        or wavefronts > (cu._wavefronts_limit
                                         - cu.used_wavefronts
                                         - cu._held_wavefronts)
                        or vgpr > (cu._vgpr_limit - cu.used_vgpr
                                   - cu._held_vgpr)
                        or lds > (cu._lds_limit - cu.used_lds
                                  - cu._held_lds)):
                    continue
                if backfill_only and cu.free_full_rate_slots(
                        concurrency) <= 0:
                    continue
                load = len(cu._residents)
                if best is None or load < best_load:
                    best = cu
                    best_load = load
            return best
        for cu in self.cus:
            if not cu.can_accept(desc):
                continue
            if backfill_only and cu.free_full_rate_slots(
                    desc.cu_concurrency) <= 0:
                continue
            load = cu.num_residents
            if best is None or load < best_load:
                best = cu
                best_load = load
        return best

    def _pump(self) -> None:
        self._pump_pending = False
        self._pump_once()
        if self.validator is not None:
            self.validator.on_dispatch(self)

    def _pump_once(self) -> None:
        counted = self.counted
        if counted and not self._pending_set:
            # Nothing has WGs left to issue: the pump is a no-op on every
            # flavour, so skip even the mode probes.  (No cache to drop —
            # an idle pump never consumes standing-order heads.)
            return
        vectorized = (self.vectorized and _np is not None
                      and len(self._active) >= _VEC_MIN_ACTIVE)
        if not vectorized and self._shape_lists is not None:
            # Crossing below the gate: the scalar pump issues WGs without
            # maintaining the standing order, so drop it rather than let
            # a stale cache greet the next crossing back up — and the
            # per-shape lists with it, so sub-gate activations and
            # completions stop paying for their upkeep.
            self._shape_lists = None
            self.invalidate_order()
        if vectorized and self._active:
            # The O(1) array check runs *before* the O(active) pending
            # scan: a saturated device skips both it and the ranking
            # pass.  The reorder is outcome-neutral — either early-out
            # leaves every piece of state untouched.
            if not self._any_capacity_vec():
                return
            if self.batched and self._base_order:
                # Base-issue_order policies take the bucketed merge: the
                # standing shape-bucketed order replaces both the pending
                # scan and the per-pump ranking pass.
                self._pump_bucketed_vec()
                return
        # wgs_pending > 0: the standing pending set when counted, else
        # the seed per-pump scan with the property inlined.  Same
        # kernels, same order (see the ``counted`` flag).
        if counted:
            pending = list(self._pending_set)
        else:
            pending = [k for k in self._active
                       if k.descriptor.num_wgs > k.wgs_issued]
        if not pending:
            return
        if not vectorized and not self._any_capacity(pending):
            return
        if self._policy is None:
            raise SimulationError("dispatcher has no policy attached")
        if self.batched:
            if vectorized:
                self._pump_batched_vec(pending)
            elif (counted and len(pending) == 1
                    and not self._policy.filtering_issue):
                self._pump_single(pending[0])
            else:
                self._pump_batched(pending)
        else:
            self._pump_per_wg(pending)

    def _pump_single(self, kernel: KernelInstance) -> None:
        """Counted fast path: the entire pending set is one kernel.

        Ranking one kernel is the identity for every non-filtering
        policy, so :meth:`_pump_batched`'s sort, shape memo, blocked-set
        and served-list machinery all collapse; what remains is the same
        capacity solve (``batch_capacity`` per CU), the same
        least-loaded/first-on-tie argmin, and the same issue / flush /
        hook call sequence — streaming cells at ~1 pending kernel per
        completion spend most pumps here.  Decision-for-decision
        identical to handing ``[kernel]`` to the general loop.
        """
        desc = kernel.descriptor
        backfill_only = (math.isinf(kernel.job.priority)
                         or not self._config.greedy_occupancy)
        cus = self.cus
        num_cus = len(cus)
        now = self._sim.now
        profiler = self.profiler
        wg_trace = (self.trace
                    if self.trace is not None and self.trace.wg_events
                    else None)
        want = kernel.wgs_pending
        if want == 1:
            # One WG: ``batch_capacity > 0`` reduces to ``can_accept``
            # plus the backfill gate, which is exactly the seed
            # least-loaded pick — no division-heavy capacity vector.
            cu = self._pick_cu(kernel)
            if cu is None:
                return
            cu.issue_wgs(kernel, 1)
            self.wgs_issued += 1
            if profiler is not None:
                profiler.on_wgs_issued(kernel.name, 1, now)
            if wg_trace is not None:
                wg_trace.emit(now, "wg_issue", job_id=kernel.job.job_id,
                              kernel=kernel.name, cu=cu.cu_id)
            kernel.job.mark_running(now)
            cu.flush_issue()
            self._note_served([kernel])
            return
        caps = [cu.batch_capacity(desc, backfill_only) for cu in cus]
        loads = [cu.num_residents for cu in cus]
        assigned = [0] * num_cus
        first_pick = [-1] * num_cus
        last_pick = [-1] * num_cus
        pick_order = [] if wg_trace is not None else None
        issued = 0
        while issued < want:
            best = -1
            best_load = -1
            for index in range(num_cus):
                if caps[index] > 0:
                    load = loads[index]
                    if best < 0 or load < best_load:
                        best = index
                        best_load = load
            if best < 0:
                break
            caps[best] -= 1
            loads[best] += 1
            assigned[best] += 1
            if first_pick[best] < 0:
                first_pick[best] = issued
            last_pick[best] = issued
            if pick_order is not None:
                pick_order.append(best)
            issued += 1
        if issued == 0:
            return
        chosen = [index for index in range(num_cus) if assigned[index]]
        chosen.sort(key=first_pick.__getitem__)
        for index in chosen:
            cus[index].issue_wgs(kernel, assigned[index])
        self.wgs_issued += issued
        if profiler is not None:
            profiler.on_wgs_issued(kernel.name, issued, now)
        if wg_trace is not None:
            job_id = kernel.job.job_id
            name = kernel.name
            for index in pick_order:
                wg_trace.emit(now, "wg_issue", job_id=job_id,
                              kernel=name, cu=cus[index].cu_id)
        kernel.job.mark_running(now)
        chosen.sort(key=last_pick.__getitem__)
        for index in chosen:
            cus[index].flush_issue()
        self._note_served([kernel])

    def _pump_batched(self, pending: Sequence[KernelInstance]) -> None:
        """Batched issue: solve placement on counters, admit per CU.

        Decision-for-decision equivalent to :meth:`_pump_per_wg`: the
        inner loop replays the least-loaded/first-on-tie pick over
        integer capacity and load counters (``batch_capacity`` counts
        exactly the successive ``can_accept`` rounds that would pass),
        then commits each CU's WGs in one ``issue_wgs`` call.  Per-CU
        progress syncs happen in first-pick order and timer re-arms in
        last-pick order — the orders the per-WG loop produces — so float
        accumulation and event-heap FIFO ties are preserved exactly.
        Capacity vectors are memoized per descriptor resource shape
        between admissions (see the ``shape_caps`` comment below), which
        collapses the per-kernel ``batch_capacity`` rescans of fleets
        with many kernel types over few distinct shapes.
        """
        served: List[KernelInstance] = []
        now = self._sim.now
        cus = self.cus
        num_cus = len(cus)
        greedy = self._config.greedy_occupancy
        profiler = self.profiler
        wg_trace = (self.trace
                    if self.trace is not None and self.trace.wg_events
                    else None)
        # ``batch_capacity`` is a pure function of a descriptor's
        # *resource shape* — threads/WG, VGPR/WG, LDS/WG, and (when
        # backfilling) the concurrency class — against the CU's free
        # counters, so distinct kernel types sharing a shape share
        # capacity vectors.  ``shape_caps`` memoizes one vector per shape
        # between admissions: an admission shrinks budgets shared by
        # every shape, so it drops all *other* cached vectors, while the
        # admitting shape's own vector stays exact by decrement (each
        # same-shape WG admitted lowers every binding per-resource bound
        # by exactly one — the same algebra the inner placement loop
        # already relies on).  Resources only shrink within one pump, so
        # a shape whose vector bottoms out can be parked in
        # ``blocked_shapes`` for the rest of the round.
        shape_caps: dict = {}
        blocked_shapes = set()
        # CUs with admitted-but-unflushed WGs, ordered by most recent
        # admission (the per-WG loop's surviving timer-push order).
        touched: List[ComputeUnit] = []
        # Resident counts, carried across kernels: nothing but this
        # pump's own admissions changes residency mid-pump.
        loads = [cu.num_residents for cu in cus]
        for kernel in self._policy.issue_order(pending):
            desc = kernel.descriptor
            backfill_only = (math.isinf(kernel.job.priority) or not greedy)
            shape = desc.placement_shape + (backfill_only,)
            if shape in blocked_shapes:
                continue
            caps = shape_caps.get(shape)
            if caps is None:
                caps = [cu.batch_capacity(desc, backfill_only) for cu in cus]
                shape_caps[shape] = caps
            want = kernel.wgs_pending
            if want == 1:
                # Single-WG fast path: one least-loaded scan over the
                # capacity vector (``batch_capacity > 0`` iff
                # ``can_accept`` passes its backfill gate), no placement
                # arrays.
                best = -1
                best_load = -1
                for index in range(num_cus):
                    if caps[index] > 0:
                        load = loads[index]
                        if best < 0 or load < best_load:
                            best = index
                            best_load = load
                if best < 0:
                    blocked_shapes.add(shape)
                    continue
                cu = cus[best]
                caps[best] -= 1
                loads[best] += 1
                cu.issue_wgs(kernel, 1)
                if len(shape_caps) > 1:
                    shape_caps = {shape: caps}
                try:
                    touched.remove(cu)
                except ValueError:
                    pass
                touched.append(cu)
                self.wgs_issued += 1
                if profiler is not None:
                    profiler.on_wgs_issued(kernel.name, 1, now)
                if wg_trace is not None:
                    wg_trace.emit(now, "wg_issue", job_id=kernel.job.job_id,
                                  kernel=kernel.name, cu=cu.cu_id)
                kernel.job.mark_running(now)
                served.append(kernel)
                continue
            assigned = [0] * num_cus
            first_pick = [-1] * num_cus
            last_pick = [-1] * num_cus
            pick_order = [] if wg_trace is not None else None
            issued = 0
            while issued < want:
                best = -1
                best_load = -1
                for index in range(num_cus):
                    if caps[index] > 0:
                        load = loads[index]
                        if best < 0 or load < best_load:
                            best = index
                            best_load = load
                if best < 0:
                    break
                caps[best] -= 1
                loads[best] += 1
                assigned[best] += 1
                if first_pick[best] < 0:
                    first_pick[best] = issued
                last_pick[best] = issued
                if pick_order is not None:
                    pick_order.append(best)
                issued += 1
            if issued < want:
                blocked_shapes.add(shape)
            if issued == 0:
                continue
            if len(shape_caps) > 1:
                shape_caps = {shape: caps}
            chosen = [index for index in range(num_cus) if assigned[index]]
            chosen.sort(key=first_pick.__getitem__)
            for index in chosen:
                cus[index].issue_wgs(kernel, assigned[index])
            chosen.sort(key=last_pick.__getitem__)
            for index in chosen:
                cu = cus[index]
                try:
                    touched.remove(cu)
                except ValueError:
                    pass
                touched.append(cu)
            self.wgs_issued += issued
            if profiler is not None:
                profiler.on_wgs_issued(kernel.name, issued, now)
            if wg_trace is not None:
                job_id = kernel.job.job_id
                name = kernel.name
                for index in pick_order:
                    wg_trace.emit(now, "wg_issue", job_id=job_id,
                                  kernel=name, cu=cus[index].cu_id)
            kernel.job.mark_running(now)
            served.append(kernel)
        for cu in touched:
            cu.flush_issue()
        if served:
            self._note_served(served)

    def _build_order_buckets(self) -> dict:
        """Re-rank the standing issue order from the per-shape lists.

        Each list is already sorted by the issue key's frozen suffix, so
        one stable argsort on the current priorities yields exactly the
        ``default_issue_key`` order (NumPy and Python agree on every
        non-NaN float, -0.0 == 0.0 and both infinities included).  The
        infinite-priority kernels split off into the shape's backfill
        bucket — or the whole list goes there without greedy occupancy.
        """
        lists = self._shape_lists
        if lists is None:
            lists = self._shape_lists = {}
            for kernel in sorted(self._active, key=self._suffix_key):
                shape = kernel.descriptor.placement_shape
                kernels = lists.get(shape)
                if kernels is None:
                    lists[shape] = [kernel]
                else:
                    kernels.append(kernel)
        greedy = self._config.greedy_occupancy
        buckets: dict = {}
        for shape, kernels in lists.items():
            if not kernels:
                continue
            priorities = _np.array([k.job.priority for k in kernels])
            order = _np.argsort(priorities, kind="stable").tolist()
            ranked = [kernels[i] for i in order]
            if not greedy:
                buckets[shape + (True,)] = [0, ranked]
                continue
            backfill = _np.isinf(priorities)
            if not backfill.any():
                buckets[shape + (False,)] = [0, ranked]
                continue
            flags = backfill[order].tolist()
            greedy_kernels = [k for k, flag in zip(ranked, flags) if not flag]
            if greedy_kernels:
                buckets[shape + (False,)] = [0, greedy_kernels]
            buckets[shape + (True,)] = [
                0, [k for k, flag in zip(ranked, flags) if flag]]
        self._order_buckets = buckets
        self.order_rebuilds += 1
        return buckets

    def _bucket_insert(self, buckets: dict, kernel: KernelInstance) -> None:
        """Insert a newly activated kernel into the standing order."""
        backfill_only = (math.isinf(kernel.job.priority)
                         or not self._config.greedy_occupancy)
        shape = kernel.descriptor.placement_shape + (backfill_only,)
        entry = buckets.get(shape)
        if entry is None:
            buckets[shape] = [0, [kernel]]
            return
        index, kernels = entry
        # Searching only the unconsumed part keeps the insertion point
        # off the already-popped heads.
        issue_key = self._issue_key
        kernels.insert(_bisect_key(kernels, issue_key(kernel), issue_key,
                                   index), kernel)

    def _pump_bucketed_vec(self) -> None:
        """Bucketed-merge batched issue (``vectorized_mode``, base order).

        Decision-for-decision equivalent to :meth:`_pump_batched` when the
        policy ranks with the base ``issue_order`` (a pure sort on
        ``default_issue_key``, whose ``(job_id, kernel.index)`` suffix
        makes every key unique).  Instead of re-scanning and re-ranking
        the whole active set each pump, the sorted order is kept standing
        across pumps, bucketed by placement resource shape plus the
        backfill bit; each bucket holds bare kernels in key order
        (:meth:`_build_order_buckets` re-ranks them after an
        invalidation), and each pump runs a k-way merge over the bucket
        *heads*, computing ``default_issue_key`` only for the heads it
        pushes:

        * the bucket order always equals the fresh key order — every
          ``job.priority`` rewrite that can touch an active kernel
          invalidates the cache (scheduler ticks via
          :meth:`invalidate_order`; cancellation and preemption
          internally), and the remaining key fields
          (``start_time``/arrival, ids) are frozen before activation;
        * a head is consumed permanently only when it stops being pending
          (fully issued or finished) — monotone within the cache's
          lifetime because the one event that refills a pending pool,
          preemption, invalidates — so skipped entries are exactly the
          kernels the scalar pending scan drops;
        * a head whose shape has no capacity parks its whole bucket for
          the rest of the pump — exactly the scalar loop's
          ``blocked_shapes`` skip, which drops every later same-shape
          kernel anyway (resources only shrink within a pump);
        * therefore the merge pops pending heads in global key order
          restricted to unparked shapes: any kernel ranked ahead of a
          popped head is either non-pending (its bucket advanced past it)
          or same-shape-parked — precisely the kernels the full sorted
          walk would skip — so the admission sequence is identical.

        Per-pump work collapses from O(active) to O(admissions + shapes).
        The placement inner loops are the scalar ones verbatim; all state
        is integer, so there is no float tolerance on this path.
        """
        buckets = self._order_buckets
        if buckets is None:
            buckets = self._build_order_buckets()
        issue_key = self._issue_key
        heap = []
        for shape, entry in buckets.items():
            index, entries = entry
            if index < len(entries):
                heap.append((issue_key(entries[index]), shape))
        if not heap:
            return
        self.bucketed_pumps += 1
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        served: List[KernelInstance] = []
        now = self._sim.now
        cus = self.cus
        num_cus = len(cus)
        profiler = self.profiler
        wg_trace = (self.trace
                    if self.trace is not None and self.trace.wg_events
                    else None)
        occ = self._occ
        wavefront_size = self._wavefront_size
        # Same per-shape capacity memo (and reset-on-admission discipline)
        # as the scalar batched pump.
        shape_caps: dict = {}
        touched: List[ComputeUnit] = []
        loads = occ.loads.tolist()
        while heap:
            head = heappop(heap)
            self.bucket_pops += 1
            shape = head[1]
            entry = buckets[shape]
            index = entry[0]
            entries = entry[1]
            kernel = entries[index]
            desc = kernel.descriptor
            if kernel.wgs_issued >= desc.num_wgs:
                # Permanently non-pending: consume the head and surface
                # the bucket's next kernel.
                index += 1
                entry[0] = index
                if index < len(entries):
                    heappush(heap, (issue_key(entries[index]), shape))
                continue
            caps = shape_caps.get(shape)
            if caps is None:
                caps = occ.capacity(
                    shape[0], desc.wavefronts_per_wg(wavefront_size),
                    shape[1], shape[2], shape[3], shape[4]).tolist()
                shape_caps[shape] = caps
                if not any(caps):
                    # Shape blocked: park the bucket (no re-push) until
                    # the next pump.
                    self.bucket_parks += 1
                    continue
            want = kernel.wgs_pending
            if want == 1:
                best = -1
                best_load = -1
                for cu_index in range(num_cus):
                    if caps[cu_index] > 0:
                        load = loads[cu_index]
                        if best < 0 or load < best_load:
                            best = cu_index
                            best_load = load
                if best < 0:
                    continue
                cu = cus[best]
                caps[best] -= 1
                loads[best] += 1
                cu.issue_wgs(kernel, 1)
                if len(shape_caps) > 1:
                    shape_caps = {shape: caps}
                try:
                    touched.remove(cu)
                except ValueError:
                    pass
                touched.append(cu)
                self.wgs_issued += 1
                if profiler is not None:
                    profiler.on_wgs_issued(kernel.name, 1, now)
                if wg_trace is not None:
                    wg_trace.emit(now, "wg_issue", job_id=kernel.job.job_id,
                                  kernel=kernel.name, cu=cu.cu_id)
                kernel.job.mark_running(now)
                served.append(kernel)
                # The single pending WG is issued: consume the head.
                index += 1
                entry[0] = index
                if index < len(entries):
                    heappush(heap, (issue_key(entries[index]), shape))
                continue
            assigned = [0] * num_cus
            first_pick = [-1] * num_cus
            last_pick = [-1] * num_cus
            pick_order = [] if wg_trace is not None else None
            issued = 0
            while issued < want:
                best = -1
                best_load = -1
                for cu_index in range(num_cus):
                    if caps[cu_index] > 0:
                        load = loads[cu_index]
                        if best < 0 or load < best_load:
                            best = cu_index
                            best_load = load
                if best < 0:
                    break
                caps[best] -= 1
                loads[best] += 1
                assigned[best] += 1
                if first_pick[best] < 0:
                    first_pick[best] = issued
                last_pick[best] = issued
                if pick_order is not None:
                    pick_order.append(best)
                issued += 1
            if issued == 0:
                continue
            if len(shape_caps) > 1:
                shape_caps = {shape: caps}
            chosen = [cu_index for cu_index in range(num_cus)
                      if assigned[cu_index]]
            chosen.sort(key=first_pick.__getitem__)
            for cu_index in chosen:
                cus[cu_index].issue_wgs(kernel, assigned[cu_index])
            chosen.sort(key=last_pick.__getitem__)
            for cu_index in chosen:
                cu = cus[cu_index]
                try:
                    touched.remove(cu)
                except ValueError:
                    pass
                touched.append(cu)
            self.wgs_issued += issued
            if profiler is not None:
                profiler.on_wgs_issued(kernel.name, issued, now)
            if wg_trace is not None:
                job_id = kernel.job.job_id
                name = kernel.name
                for cu_index in pick_order:
                    wg_trace.emit(now, "wg_issue", job_id=job_id,
                                  kernel=name, cu=cus[cu_index].cu_id)
            kernel.job.mark_running(now)
            served.append(kernel)
            if issued == want:
                # Fully issued: consume the head.
                index += 1
                entry[0] = index
                if index < len(entries):
                    heappush(heap, (issue_key(entries[index]), shape))
            # else: partial issue — the shape is exhausted, the kernel
            # stays pending at its bucket's head (parked, no re-push).
        for cu in touched:
            cu.flush_issue()
        if served:
            self._note_served(served)

    def _pump_batched_vec(self, pending: Sequence[KernelInstance]) -> None:
        """Occupancy-array batched issue (``vectorized_mode``).

        Decision-for-decision equivalent to :meth:`_pump_batched` (which
        is itself equivalent to the seed per-WG loop), with three
        structural savings:

        * capacity vectors come from :meth:`CUOccupancyArrays.capacity` —
          the same integer floor-division algebra as
          ``ComputeUnit.batch_capacity``, evaluated for all CUs in one
          broadcast min-reduce (the write-through rows always equal the
          scalar counters);
        * a pre-filter memoizes feasibility per *descriptor* and drops
          kernels whose resource shape has zero device-wide capacity
          before the ranking pass — legal because resources only shrink
          within a pump, ``issue_order`` is pure in every policy
          (ranking a subset yields the subsequence), and a skipped
          kernel could only have been a no-op ``continue``; for the same
          reason the ranked loop stops outright once every feasible
          shape has blocked.

        Policies that override ``issue_order`` (RR, MLFQ, PREMA) take
        this path; the base-order policies take the standing bucketed
        merge (:meth:`_pump_bucketed_vec`) instead.

        The placement loops are the scalar ones verbatim (Python lists —
        integer work on 64 CUs beats numpy's per-op overhead); only
        integer state is involved, so there is no float tolerance
        anywhere on this path.
        """
        served: List[KernelInstance] = []
        now = self._sim.now
        cus = self.cus
        num_cus = len(cus)
        greedy = self._config.greedy_occupancy
        profiler = self.profiler
        wg_trace = (self.trace
                    if self.trace is not None and self.trace.wg_events
                    else None)
        occ = self._occ
        wavefront_size = self._wavefront_size
        isinf = math.isinf
        # Pre-filter, memoized per (descriptor, backfill) so the common
        # case costs one dict probe per kernel.  Shapes are shared
        # across descriptors, so capacity vectors are still computed at
        # most once per distinct resource shape.
        ok_greedy: dict = {}
        ok_backfill: dict = {}
        shape_caps: dict = {}
        live_shapes = set()
        blocked_shapes = set()
        feasible: List[KernelInstance] = []
        append_feasible = feasible.append
        for kernel in pending:
            desc = kernel.descriptor
            backfill_only = isinf(kernel.job.priority) or not greedy
            table = ok_backfill if backfill_only else ok_greedy
            did = id(desc)
            ok = table.get(did)
            if ok is None:
                shape = desc.placement_shape + (backfill_only,)
                if shape not in shape_caps:
                    caps = occ.capacity(
                        desc.threads_per_wg,
                        desc.wavefronts_per_wg(wavefront_size),
                        desc.vgpr_bytes_per_wg, desc.lds_bytes_per_wg,
                        desc.cu_concurrency, backfill_only).tolist()
                    shape_caps[shape] = caps
                    if any(caps):
                        live_shapes.add(shape)
                    else:
                        blocked_shapes.add(shape)
                ok = table[did] = shape in live_shapes
            if ok:
                append_feasible(kernel)
        if not feasible:
            return
        order = self._policy.issue_order(feasible)
        # Resident counts, carried across kernels (pump-local list; the
        # write-through keeps occ.loads equal after every issue_wgs).
        loads = occ.loads.tolist()
        touched: List[ComputeUnit] = []
        for kernel in order:
            if not live_shapes:
                # Every shape that survived the pre-filter has since
                # blocked; the remaining ranked kernels are all no-op
                # continues.
                break
            desc = kernel.descriptor
            shape = desc.placement_shape + (isinf(kernel.job.priority)
                                            or not greedy,)
            if shape in blocked_shapes:
                continue
            caps = shape_caps.get(shape)
            if caps is None:
                # Vector dropped by a reset below; occ reflects every
                # admission so far, exactly like a fresh batch_capacity
                # scan mid-pump.
                caps = occ.capacity(
                    shape[0], desc.wavefronts_per_wg(wavefront_size),
                    shape[1], shape[2], shape[3], shape[4]).tolist()
                shape_caps[shape] = caps
                if not any(caps):
                    blocked_shapes.add(shape)
                    live_shapes.discard(shape)
                    continue
            want = kernel.wgs_pending
            if want == 1:
                # Single-WG fast path: one least-loaded scan over the
                # capacity vector.
                best = -1
                best_load = -1
                for index in range(num_cus):
                    if caps[index] > 0:
                        load = loads[index]
                        if best < 0 or load < best_load:
                            best = index
                            best_load = load
                if best < 0:
                    blocked_shapes.add(shape)
                    live_shapes.discard(shape)
                    continue
                cu = cus[best]
                caps[best] -= 1
                loads[best] += 1
                cu.issue_wgs(kernel, 1)
                if len(shape_caps) > 1:
                    shape_caps = {shape: caps}
                try:
                    touched.remove(cu)
                except ValueError:
                    pass
                touched.append(cu)
                self.wgs_issued += 1
                if profiler is not None:
                    profiler.on_wgs_issued(kernel.name, 1, now)
                if wg_trace is not None:
                    wg_trace.emit(now, "wg_issue", job_id=kernel.job.job_id,
                                  kernel=kernel.name, cu=cu.cu_id)
                kernel.job.mark_running(now)
                served.append(kernel)
                continue
            assigned = [0] * num_cus
            first_pick = [-1] * num_cus
            last_pick = [-1] * num_cus
            pick_order = [] if wg_trace is not None else None
            issued = 0
            while issued < want:
                best = -1
                best_load = -1
                for index in range(num_cus):
                    if caps[index] > 0:
                        load = loads[index]
                        if best < 0 or load < best_load:
                            best = index
                            best_load = load
                if best < 0:
                    break
                caps[best] -= 1
                loads[best] += 1
                assigned[best] += 1
                if first_pick[best] < 0:
                    first_pick[best] = issued
                last_pick[best] = issued
                if pick_order is not None:
                    pick_order.append(best)
                issued += 1
            if issued < want:
                blocked_shapes.add(shape)
                live_shapes.discard(shape)
            if issued == 0:
                continue
            if len(shape_caps) > 1:
                shape_caps = {shape: caps}
            chosen = [index for index in range(num_cus) if assigned[index]]
            chosen.sort(key=first_pick.__getitem__)
            for index in chosen:
                cus[index].issue_wgs(kernel, assigned[index])
            chosen.sort(key=last_pick.__getitem__)
            for index in chosen:
                cu = cus[index]
                try:
                    touched.remove(cu)
                except ValueError:
                    pass
                touched.append(cu)
            self.wgs_issued += issued
            if profiler is not None:
                profiler.on_wgs_issued(kernel.name, issued, now)
            if wg_trace is not None:
                job_id = kernel.job.job_id
                name = kernel.name
                for index in pick_order:
                    wg_trace.emit(now, "wg_issue", job_id=job_id,
                                  kernel=name, cu=cus[index].cu_id)
            kernel.job.mark_running(now)
            served.append(kernel)
        for cu in touched:
            cu.flush_issue()
        if served:
            self._note_served(served)

    def _note_served(self, served: List[KernelInstance]) -> None:
        """Post-issue bookkeeping shared by every pump flavour.

        Kernels the pump drained completely leave the standing pending
        set (see ``_pending_set``); partially issued ones stay.  Runs
        unconditionally — the set is maintained in every mode so a
        mid-run ``counted`` flip can never observe a stale view — and
        ends with the policy's served hook, which every pump previously
        called directly from this exact point.
        """
        pend = self._pending_set
        for kernel in served:
            if kernel.wgs_issued >= kernel.descriptor.num_wgs:
                pend.pop(kernel, None)
        self._policy.on_kernels_served(served)

    def _pump_per_wg(self, pending: Sequence[KernelInstance]) -> None:
        """Seed issue loop: one full CU rescan and sync per WG.

        Kept verbatim as the reference implementation — the engine
        hot-path bench and the differential property suite run it against
        :meth:`_pump_batched` to prove bit-identity.
        """
        served: List[KernelInstance] = []
        now = self._sim.now
        blocked_shapes = set()
        for kernel in self._policy.issue_order(pending):
            if id(kernel.descriptor) in blocked_shapes:
                continue
            issued_here = False
            while kernel.wgs_pending > 0:
                cu = self._pick_cu(kernel)
                if cu is None:
                    blocked_shapes.add(id(kernel.descriptor))
                    break
                cu.start_wg(kernel)
                self.wgs_issued += 1
                issued_here = True
                if self.profiler is not None:
                    self.profiler.on_wg_issued(kernel.name, now)
                if self.trace is not None and self.trace.wg_events:
                    self.trace.emit(now, "wg_issue",
                                    job_id=kernel.job.job_id,
                                    kernel=kernel.name, cu=cu.cu_id)
            if issued_here:
                kernel.job.mark_running(now)
                served.append(kernel)
        if served:
            self._note_served(served)

    def _any_capacity(self, pending: Sequence[KernelInstance]) -> bool:
        """Cheap saturation check so no-op pumps exit early."""
        min_threads = min(k.descriptor.threads_per_wg for k in pending)
        for cu in self.cus:
            if cu.free_wavefronts() > 0 and cu.free_threads() >= min_threads:
                return True
        return False

    def _any_capacity_vec(self) -> bool:
        """O(1) saturation fast-out over the occupancy arrays.

        Uses the monotone ``threads_per_wg`` lower bound instead of the
        scalar check's min over *currently pending* kernels, so it can
        pass where the scalar check would not — a false pass only costs
        a ranking pass that issues nothing (per-shape capacities are
        exact), never a different decision.  A false *fail* is
        impossible: the bound never exceeds any pending kernel's
        threads/WG.
        """
        occ = self._occ
        if occ is None:
            occ = self._occ = CUOccupancyArrays(self.cus)
        return bool(((occ.free_wavefronts > 0)
                     & (occ.free_threads >= self._min_threads_seen)).any())
