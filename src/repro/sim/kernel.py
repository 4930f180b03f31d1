"""Kernel descriptors and kernel launch instances.

A :class:`KernelDescriptor` is the static shape of a kernel *type* — what
the CP reads out of a queue packet (thread dimensions, register and LDS
usage) plus the per-WG service demand the timing model consumes.  A
:class:`KernelInstance` is one launch of a descriptor inside a job's stream
and carries the dynamic state (WGs issued/completed, timestamps).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import ConfigError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import GPUConfig
    from .job import Job


@dataclass(frozen=True)
class KernelDescriptor:
    """Static description of a kernel type.

    ``wg_work`` is the dedicated-lane service demand of one workgroup in
    ticks: a WG running alone on a SIMD unit finishes in exactly
    ``wg_work`` ticks.  Under contention the processor-sharing CU model
    stretches this.
    """

    #: Kernel type name; the profiling-table key ("TensorKernel1", ...).
    name: str
    #: Number of workgroups in one launch.
    num_wgs: int
    #: Threads per workgroup.
    threads_per_wg: int
    #: Per-WG service demand in ticks (dedicated SIMD lane time).
    wg_work: int
    #: Vector-register footprint of one WG, bytes.
    vgpr_bytes_per_wg: int = 4096
    #: LDS footprint of one WG, bytes.
    lds_bytes_per_wg: int = 1024
    #: Total context size of the launch, bytes (Table 1; preemption cost).
    context_bytes: int = 64 * 1024
    #: Workgroups of this kernel one CU can run at full rate.  Compute-bound
    #: kernels are limited by the SIMD units (4); latency-bound kernels hide
    #: memory latency and keep scaling with occupancy (up to the wavefront
    #: slot limit of 10).
    cu_concurrency: int = 4
    #: Memory traffic of one WG, bytes; only consulted when the device's
    #: optional bandwidth cap (GPUConfig.memory_bw_bytes_per_ns) is on.
    bytes_per_wg: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("kernel name must be non-empty")
        if self.num_wgs <= 0:
            raise ConfigError(f"{self.name}: num_wgs must be positive")
        if self.threads_per_wg <= 0:
            raise ConfigError(f"{self.name}: threads_per_wg must be positive")
        if self.wg_work <= 0:
            raise ConfigError(f"{self.name}: wg_work must be positive")
        if self.vgpr_bytes_per_wg < 0 or self.lds_bytes_per_wg < 0:
            raise ConfigError(f"{self.name}: resource footprints must be >= 0")
        if self.context_bytes < 0:
            raise ConfigError(f"{self.name}: context_bytes must be >= 0")
        if self.cu_concurrency <= 0:
            raise ConfigError(f"{self.name}: cu_concurrency must be positive")
        if self.bytes_per_wg < 0:
            raise ConfigError(f"{self.name}: bytes_per_wg must be >= 0")
        # Precomputed wave64 occupancy (hot path: per-WG placement checks).
        object.__setattr__(self, "wavefronts64",
                           math.ceil(self.threads_per_wg / 64))
        # Placement resource shape: the dispatcher's capacity-memo and
        # standing-order bucket key (plus the backfill bit).
        object.__setattr__(self, "placement_shape", (
            self.threads_per_wg, self.vgpr_bytes_per_wg,
            self.lds_bytes_per_wg, self.cu_concurrency))
        # Full-rate bandwidth demand of one WG, bytes per tick.
        object.__setattr__(self, "bw_demand",
                           self.bytes_per_wg / self.wg_work)

    @property
    def total_threads(self) -> int:
        """Total threads in one launch."""
        return self.num_wgs * self.threads_per_wg

    def wavefronts_per_wg(self, wavefront_size: int = 64) -> int:
        """Wavefronts one WG occupies (ceil of threads / wave size)."""
        if wavefront_size == 64:
            return self.wavefronts64
        return math.ceil(self.threads_per_wg / wavefront_size)

    def isolated_time(self, gpu: "GPUConfig") -> int:
        """Wall time of one launch running alone on ``gpu``.

        The dispatcher spreads N WGs evenly (least-loaded CU first), so
        each CU holds ``ceil(N / num_cus)`` and every WG progresses at
        ``min(1, cu_concurrency / per_cu)`` under processor sharing:
        ``wall = wg_work * max(1, per_cu / cu_concurrency)``.  This is the
        calibration identity used to derive ``wg_work`` from Table 1
        isolated times.
        """
        per_cu = math.ceil(self.num_wgs / gpu.num_cus)
        slowdown = max(1.0, per_cu / self.cu_concurrency)
        return round(self.wg_work * slowdown)

    @property
    def total_work(self) -> int:
        """Aggregate lane-time demand of one launch, ticks."""
        return self.num_wgs * self.wg_work

    def context_bytes_per_wg(self) -> float:
        """Context footprint attributed to a single WG."""
        return self.context_bytes / self.num_wgs


class KernelPhase(enum.Enum):
    """Lifecycle of a kernel launch inside its stream."""

    #: Sitting in the stream behind unfinished predecessors (or on the host).
    QUEUED = "queued"
    #: Handed to the WG dispatcher; WGs may be issued.
    ACTIVE = "active"
    #: All WGs completed.
    DONE = "done"


class KernelInstance:
    """One launch of a kernel descriptor within a job."""

    __slots__ = (
        "descriptor", "job", "index", "phase", "wgs_issued", "wgs_completed",
        "activate_time", "first_issue_time", "finish_time", "wgs_preempted",
    )

    def __init__(self, descriptor: KernelDescriptor, job: "Job",
                 index: int) -> None:
        self.descriptor = descriptor
        self.job = job
        self.index = index
        self.phase = KernelPhase.QUEUED
        #: WGs handed to a CU and not preempted since.
        self.wgs_issued = 0
        #: WGs that ran to completion.
        self.wgs_completed = 0
        #: WGs evicted before finishing (PREMA); they re-issue from scratch.
        self.wgs_preempted = 0
        self.activate_time: Optional[int] = None
        self.first_issue_time: Optional[int] = None
        self.finish_time: Optional[int] = None

    @property
    def name(self) -> str:
        """Kernel type name (profiling key)."""
        return self.descriptor.name

    @property
    def num_wgs(self) -> int:
        """Workgroups in this launch."""
        return self.descriptor.num_wgs

    @property
    def wgs_pending(self) -> int:
        """WGs not yet issued to a CU."""
        return self.descriptor.num_wgs - self.wgs_issued

    @property
    def wgs_remaining(self) -> int:
        """WGs not yet completed (issued-but-running WGs still count)."""
        return self.descriptor.num_wgs - self.wgs_completed

    @property
    def is_done(self) -> bool:
        """Whether every WG has completed."""
        return self.wgs_completed >= self.descriptor.num_wgs

    def mark_active(self, now: int) -> None:
        """Transition QUEUED -> ACTIVE when the CP dispatches the launch."""
        if self.phase is not KernelPhase.QUEUED:
            raise SimulationError(
                f"kernel {self.name}#{self.index} activated twice")
        self.phase = KernelPhase.ACTIVE
        self.activate_time = now

    def note_wg_issued(self, now: int) -> None:
        """Account one WG handed to a CU."""
        if self.phase is not KernelPhase.ACTIVE:
            raise SimulationError(
                f"kernel {self.name}#{self.index} issued while {self.phase}")
        if self.wgs_pending <= 0:
            raise SimulationError(
                f"kernel {self.name}#{self.index} over-issued")
        if self.first_issue_time is None:
            self.first_issue_time = now
        self.wgs_issued += 1

    def note_wg_preempted(self) -> None:
        """Account one WG evicted from a CU before completion."""
        if self.wgs_issued <= self.wgs_completed:
            raise SimulationError(
                f"kernel {self.name}#{self.index} preempt without running WG")
        self.wgs_issued -= 1
        self.wgs_preempted += 1

    def note_wg_completed(self, now: int) -> bool:
        """Account one WG finishing; return True when the launch is done."""
        if self.wgs_completed >= self.wgs_issued:
            raise SimulationError(
                f"kernel {self.name}#{self.index} completed more WGs than issued")
        self.wgs_completed += 1
        # Remaining-work inputs changed: invalidate cached laxity estimates.
        self.job.rank_version += 1
        if self.is_done:
            self.phase = KernelPhase.DONE
            self.finish_time = now
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<KernelInstance {self.name}#{self.index} job={self.job.job_id} "
                f"{self.wgs_completed}/{self.num_wgs} {self.phase.value}>")
