"""Discrete-event Cobalt-like scheduler simulation.

Executes a stream of :class:`~repro.scheduler.workload.JobIntent` on a
:class:`~repro.bgq.partitions.PartitionAllocator`, producing the job
log the analyses consume.  The policy is FCFS with EASY-style
backfilling: the head job reserves a *shadow time* (the earliest
instant enough midplanes are projected free, assuming running jobs end
at their walltime), and queued jobs may jump ahead only if they can
start now and their walltime expires before the shadow time.

Fatal RAS incidents are injected as ground truth: an incident whose
midplane lies inside a running job's block terminates that job at the
incident timestamp with exit status 137 (SIGKILL) and origin SYSTEM —
overriding whatever the intent had planned.

Simplifications vs. production Cobalt (documented per DESIGN.md):
block placement ignores torus-wiring constraints beyond buddy
alignment, there is a single backfill queue rather than per-queue
policies, and draining reservations are approximated by the midplane
count (not exact block geometry).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.bgq.machine import MIRA, MachineSpec
from repro.bgq.partitions import Block, PartitionAllocator
from repro.ras.generator import Incident

from .jobs import FailureOrigin, JobRecord
from .workload import JobIntent

__all__ = ["SchedulerParams", "CobaltScheduler", "SimulationResult"]


@dataclass(frozen=True)
class SchedulerParams:
    """Scheduler policy knobs."""

    backfill_depth: int = 256
    system_kill_exit_status: int = 137
    # Teardown lag between a fatal incident's first RAS record and the
    # control system ending the job: the fatal events therefore fall
    # *inside* the job's execution window, as in the real logs.
    system_kill_delay_seconds: float = 60.0

    def __post_init__(self):
        if self.backfill_depth < 0:
            raise ValueError("backfill_depth must be >= 0")
        if self.system_kill_delay_seconds < 0:
            raise ValueError("system_kill_delay_seconds must be >= 0")


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a scheduler run."""

    jobs: list[JobRecord]
    n_submitted: int
    n_unstarted: int  # still queued at the horizon
    n_running_at_end: int  # started but not finished by the horizon
    n_system_failures: int

    @property
    def n_completed(self) -> int:
        """Jobs that ran to completion within the horizon."""
        return len(self.jobs)


@dataclass
class _Running:
    intent: JobIntent
    block: Block
    start_time: float
    end_time: float
    exit_status: int
    origin: FailureOrigin
    walltime_end: float


class _IncidentIndex:
    """Per-midplane sorted incident times for fast window queries."""

    def __init__(self, incidents: list[Incident]):
        self._by_midplane: dict[int, list[float]] = {}
        for incident in incidents:
            self._by_midplane.setdefault(incident.midplane_index, []).append(
                incident.timestamp
            )
        for times in self._by_midplane.values():
            times.sort()

    def first_in_window(
        self, midplanes: range, start: float, end: float
    ) -> float | None:
        """Earliest incident timestamp in (start, end) on any midplane."""
        earliest: float | None = None
        for midplane in midplanes:
            times = self._by_midplane.get(midplane)
            if not times:
                continue
            index = bisect_right(times, start)
            if index < len(times) and times[index] < end:
                if earliest is None or times[index] < earliest:
                    earliest = times[index]
        return earliest


class CobaltScheduler:
    """Run job intents against the machine; see module docstring."""

    def __init__(
        self,
        spec: MachineSpec = MIRA,
        params: SchedulerParams | None = None,
    ):
        self.spec = spec
        self.params = params or SchedulerParams()

    def run(
        self,
        intents: list[JobIntent],
        incidents: list[Incident] | None = None,
        horizon_days: float | None = None,
    ) -> SimulationResult:
        """Simulate until all jobs finish or ``horizon_days`` elapses.

        Jobs still queued or running at the horizon are counted but not
        emitted (the paper analyzes completed jobs only).
        """
        allocator = PartitionAllocator(self.spec)
        incident_index = _IncidentIndex(incidents or [])
        horizon = horizon_days * 86_400.0 if horizon_days is not None else float("inf")

        events: list[tuple[float, int, str, object]] = []
        sequence = 0
        for intent in sorted(intents, key=lambda i: i.submit_time):
            heapq.heappush(events, (intent.submit_time, sequence, "submit", intent))
            sequence += 1

        pending: list[JobIntent] = []
        running: dict[int, _Running] = {}
        finished: list[JobRecord] = []
        n_system = 0

        while events:
            time, _, kind, payload = heapq.heappop(events)
            if time > horizon:
                break
            if kind == "submit":
                # Size the request once, here: the scan below reads it
                # from the allocator's cache, and an oversize request
                # raises AllocationError at its submission.
                allocator.block_midplanes_for(payload.requested_nodes)  # type: ignore[union-attr]
                pending.append(payload)  # type: ignore[arg-type]
            else:  # "end"
                job_id = payload  # type: ignore[assignment]
                state = running.pop(job_id)
                allocator.release(state.block)
                record = self._finalize(state)
                if record.end_time <= horizon:
                    finished.append(record)
                    if record.origin is FailureOrigin.SYSTEM:
                        n_system += 1
            sequence = self._schedule(
                time, pending, running, allocator, incident_index, events, sequence
            )

        return SimulationResult(
            jobs=sorted(finished, key=lambda j: j.job_id),
            n_submitted=len(intents),
            n_unstarted=len(pending),
            n_running_at_end=len(running),
            n_system_failures=n_system,
        )

    # ------------------------------------------------------------------
    # scheduling policy
    # ------------------------------------------------------------------

    def _schedule(self, now, pending, running, allocator, incidents, events, sequence):
        sizes = allocator.block_size_cache
        free = allocator.free_midplanes
        # Failure of an allocation of s midplanes implies failure for any
        # larger allowed size (aligned windows nest), so remember the
        # smallest size that failed this round and skip hopeless requests.
        failed_size = allocator.spec.n_midplanes + 1
        # FCFS phase: start queue-head jobs while they fit.
        while pending:
            head_size = sizes[pending[0].requested_nodes]
            block = (
                allocator.allocate(pending[0].requested_nodes)
                if head_size <= free
                else None
            )
            if block is None:
                failed_size = head_size
                break
            intent = pending.pop(0)
            free = allocator.free_midplanes
            sequence = self._start(
                now, intent, block, running, incidents, events, sequence
            )
        if not pending:
            return sequence
        # EASY backfill phase.  No request is smaller than the smallest
        # allowed block, so once fewer midplanes than that are free, or
        # a request of that size has failed, no later candidate can
        # start and the scan ends.
        smallest = allocator.smallest_block_midplanes
        shadow = self._shadow_time(now, pending[0], running, allocator)
        depth = min(len(pending), 1 + self.params.backfill_depth)
        index = 1
        while index < depth and free >= smallest and failed_size > smallest:
            intent = pending[index]
            size = sizes[intent.requested_nodes]
            if (
                size < failed_size
                and size <= free
                and now + intent.requested_walltime <= shadow
            ):
                block = allocator.allocate(intent.requested_nodes)
                if block is not None:
                    pending.pop(index)
                    depth -= 1
                    free = allocator.free_midplanes
                    sequence = self._start(
                        now, intent, block, running, incidents, events, sequence
                    )
                    continue
                failed_size = size
            index += 1
        return sequence

    def _shadow_time(self, now, head, running, allocator) -> float:
        """Projected earliest start of the queue head (walltime-based)."""
        needed = allocator.block_midplanes_for(head.requested_nodes)
        free = allocator.free_midplanes
        if free >= needed:
            return now
        releases = sorted(
            (state.walltime_end, state.block.n_midplanes)
            for state in running.values()
        )
        for end_time, midplanes in releases:
            free += midplanes
            if free >= needed:
                return max(end_time, now)
        return float("inf")

    def _start(self, now, intent, block, running, incidents, events, sequence):
        planned_end = now + intent.planned_runtime
        incident_time = incidents.first_in_window(
            block.midplane_indices, now, planned_end
        )
        if incident_time is not None:
            end_time = incident_time + self.params.system_kill_delay_seconds
            exit_status = self.params.system_kill_exit_status
            origin = FailureOrigin.SYSTEM
        else:
            end_time = planned_end
            exit_status = intent.planned_exit_status
            origin = intent.planned_origin
        running[intent.job_id] = _Running(
            intent=intent,
            block=block,
            start_time=now,
            end_time=end_time,
            exit_status=exit_status,
            origin=origin,
            walltime_end=now + intent.requested_walltime,
        )
        heapq.heappush(events, (end_time, sequence, "end", intent.job_id))
        return sequence + 1

    def _finalize(self, state: _Running) -> JobRecord:
        intent = state.intent
        return JobRecord(
            job_id=intent.job_id,
            user=intent.user,
            project=intent.project,
            queue=intent.queue,
            submit_time=intent.submit_time,
            start_time=state.start_time,
            end_time=state.end_time,
            requested_nodes=intent.requested_nodes,
            allocated_nodes=state.block.n_nodes,
            requested_walltime=intent.requested_walltime,
            exit_status=state.exit_status,
            block=state.block.name,
            first_midplane=state.block.first_midplane,
            n_midplanes=state.block.n_midplanes,
            n_tasks=intent.n_tasks,
            origin=state.origin,
            cores_per_node=self.spec.cores_per_node,
        )
