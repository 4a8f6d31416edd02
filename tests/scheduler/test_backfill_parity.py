"""Parity of the Cobalt backfill scan with its pre-optimisation form.

The scheduler's EASY backfill loop (``CobaltScheduler._schedule``)
now leaves the scan early, reads request sizes from the allocator's
size cache, and the allocator keeps its busy map as an int bitmask.
The code before those changes is kept here verbatim — the numpy
allocator as ``_LegacyPartitionAllocator`` and ``run``, ``_schedule``
and ``_shadow_time`` on ``_LegacyCobaltScheduler`` — and every test
asserts both produce equal ``JobRecord`` lists: on seeded random
intent streams with incidents, on Mira and on every backend's machine,
and on the 30-day synthesis of every backend.
"""

import heapq
from dataclasses import replace

import numpy as np
import pytest

from repro.adapters import all_backend_names, get_backend
from repro.bgq.location import Location
from repro.bgq.machine import MIRA, MIRA_SMALL, MachineSpec
from repro.bgq.partitions import Block, PartitionAllocator, allowed_block_sizes
from repro.dataset import MiraDataset
from repro.errors import AllocationError
from repro.ras.generator import Incident
from repro.scheduler.cobalt import (
    CobaltScheduler,
    SchedulerParams,
    SimulationResult,
    _IncidentIndex,
)
from repro.scheduler.jobs import FailureOrigin
from repro.scheduler.workload import JobIntent

# ---------------------------------------------------------------------------
# reference implementations (pre-optimisation, kept verbatim)
# ---------------------------------------------------------------------------


class _LegacyPartitionAllocator:
    """Buddy-style allocator of midplane blocks.

    The allocator tracks a busy bitmap over midplanes.  ``allocate``
    rounds the node request up to the next allowed block size and
    returns the lowest-addressed aligned free block, mimicking a
    deterministic first-fit policy.
    """

    def __init__(self, spec: MachineSpec = MIRA):
        self.spec = spec
        self._n_midplanes = spec.n_midplanes
        self._nodes_per_midplane = spec.nodes_per_midplane
        self._busy = np.zeros(spec.n_midplanes, dtype=bool)
        self._n_busy = 0
        self._sizes = allowed_block_sizes(spec)
        self._size_cache: dict[int, int] = {}
        self._active: dict[str, Block] = {}

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------

    def block_midplanes_for(self, n_nodes: int) -> int:
        """Midplanes needed for an ``n_nodes`` request (rounded up to an
        allowed block size; sub-midplane requests get one midplane).

        Raises
        ------
        AllocationError
            If the request exceeds the machine.
        """
        cached = self._size_cache.get(n_nodes)
        if cached is not None:
            return cached
        if n_nodes < 1:
            raise AllocationError(f"cannot allocate {n_nodes} nodes")
        needed = -(-n_nodes // self._nodes_per_midplane)  # ceil division
        for size in self._sizes:
            if size >= needed:
                self._size_cache[n_nodes] = size
                return size
        raise AllocationError(
            f"request for {n_nodes} nodes exceeds {self.spec.name} "
            f"({self.spec.n_nodes} nodes)"
        )

    def _aligned_starts(self, size: int) -> range:
        # A size-s block must start at a multiple of s; this guarantees
        # any two blocks either nest or are disjoint (buddy property).
        return range(0, self.spec.n_midplanes - size + 1, size)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def allocate(self, n_nodes: int) -> Block | None:
        """Allocate a block for ``n_nodes`` nodes; None when nothing fits
        right now (caller queues and retries)."""
        size = self.block_midplanes_for(n_nodes)
        if size > self._n_midplanes - self._n_busy:
            return None
        for start in self._aligned_starts(size):
            window = self._busy[start : start + size]
            if not window.any():
                self._busy[start : start + size] = True
                self._n_busy += size
                block = self._make_block(start, size)
                self._active[block.name] = block
                return block
        return None

    def release(self, block: Block) -> None:
        """Return a block's midplanes to the free pool.

        Raises
        ------
        AllocationError
            If the block is not currently allocated (double release).
        """
        if block.name not in self._active:
            raise AllocationError(f"block {block.name} is not allocated")
        del self._active[block.name]
        self._busy[block.first_midplane : block.first_midplane + block.n_midplanes] = False
        self._n_busy -= block.n_midplanes

    def _make_block(self, start: int, size: int) -> Block:
        first = Location.from_midplane_index(start, self.spec)
        last = Location.from_midplane_index(start + size - 1, self.spec)
        nodes = size * self.spec.nodes_per_midplane
        name = f"{self.spec.name.upper()}-{first.code}-{last.code}-{nodes}"
        return Block(
            name=name, first_midplane=start, n_midplanes=size, spec=self.spec
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def busy_midplanes(self) -> int:
        """Number of currently allocated midplanes."""
        return self._n_busy

    @property
    def free_midplanes(self) -> int:
        """Number of currently free midplanes."""
        return self._n_midplanes - self._n_busy

    @property
    def active_blocks(self) -> list[Block]:
        """Currently allocated blocks."""
        return list(self._active.values())

    def utilization(self) -> float:
        """Fraction of midplanes allocated."""
        return self.busy_midplanes / self.spec.n_midplanes


class _LegacyCobaltScheduler(CobaltScheduler):
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
        allocator = _LegacyPartitionAllocator(self.spec)
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

    def _schedule(self, now, pending, running, allocator, incidents, events, sequence):
        # Failure of an allocation of s midplanes implies failure for any
        # larger allowed size (aligned windows nest), so remember the
        # smallest size that failed this round and skip hopeless requests.
        failed_size = allocator.spec.n_midplanes + 1
        # FCFS phase: start queue-head jobs while they fit.
        while pending:
            head_size = allocator.block_midplanes_for(pending[0].requested_nodes)
            block = (
                allocator.allocate(pending[0].requested_nodes)
                if head_size <= allocator.free_midplanes
                else None
            )
            if block is None:
                failed_size = head_size
                break
            intent = pending.pop(0)
            sequence = self._start(
                now, intent, block, running, incidents, events, sequence
            )
        if not pending:
            return sequence
        # EASY backfill phase.
        shadow = self._shadow_time(now, pending[0], running, allocator)
        depth = min(len(pending), 1 + self.params.backfill_depth)
        index = 1
        while index < depth:
            intent = pending[index]
            size = allocator.block_midplanes_for(intent.requested_nodes)
            if (
                size < failed_size
                and size <= allocator.free_midplanes
                and now + intent.requested_walltime <= shadow
            ):
                block = allocator.allocate(intent.requested_nodes)
                if block is not None:
                    pending.pop(index)
                    depth -= 1
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


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

SPECS = {MIRA.name: MIRA, MIRA_SMALL.name: MIRA_SMALL}
SPECS.update({get_backend(name).spec.name: get_backend(name).spec for name in all_backend_names()})

_WALLTIMES_S = (1800.0, 3600.0, 6 * 3600.0, 12 * 3600.0, 24 * 3600.0)
_OUTCOMES = ((0, FailureOrigin.NONE), (1, FailureOrigin.USER), (143, FailureOrigin.TIMEOUT))


def _log_uniform_nodes(rng, spec) -> int:
    """Sub-midplane requests up to the full machine, small ones likelier."""
    return int(np.clip(np.exp(rng.uniform(0.0, np.log(spec.n_nodes))), 1, spec.n_nodes))


def _random_intents(spec, seed: int, n_jobs: int = 400, days: float = 5.0):
    """A saturating stream: log-uniform sizes, submit times on a
    one-minute grid so some arrive together."""
    rng = np.random.default_rng(seed)
    intents = []
    for job_id in range(n_jobs):
        nodes = _log_uniform_nodes(rng, spec)
        walltime = float(_WALLTIMES_S[int(rng.integers(len(_WALLTIMES_S)))])
        status, origin = _OUTCOMES[int(rng.integers(len(_OUTCOMES)))]
        intents.append(
            JobIntent(
                job_id=job_id,
                user=f"u{int(rng.integers(20))}",
                project="p",
                queue="default",
                submit_time=60.0 * int(rng.uniform(0.0, days * 1440.0)),
                requested_nodes=nodes,
                requested_walltime=walltime,
                planned_runtime=walltime * float(rng.uniform(0.05, 1.0)),
                planned_exit_status=status,
                planned_origin=origin,
                n_tasks=1,
            )
        )
    return intents


def _random_incidents(spec, seed: int, n: int = 40, days: float = 5.0):
    rng = np.random.default_rng(seed + 1000)
    return [
        Incident(
            incident_id=i,
            timestamp=float(rng.uniform(0.0, days * 86_400.0)),
            msg_id="00080014",
            midplane_index=int(rng.integers(spec.n_midplanes)),
            n_events=1,
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------


class TestAllocatorParity:
    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_random_churn_gives_identical_blocks(self, spec_name):
        spec = SPECS[spec_name]
        rng = np.random.default_rng(5)
        new, old = PartitionAllocator(spec), _LegacyPartitionAllocator(spec)
        live: list[Block] = []
        for _ in range(3000):
            if live and rng.uniform() < 0.45:
                block = live.pop(int(rng.integers(len(live))))
                new.release(block)
                old.release(block)
            else:
                nodes = _log_uniform_nodes(rng, spec)
                got, want = new.allocate(nodes), old.allocate(nodes)
                assert got == want
                if got is not None:
                    live.append(got)
            assert new.free_midplanes == old.free_midplanes
        assert new.active_blocks == old.active_blocks

    def test_smallest_block_and_size_cache(self):
        allocator = PartitionAllocator(MIRA)
        assert allocator.smallest_block_midplanes == allowed_block_sizes(MIRA)[0]
        allocator.block_midplanes_for(9000)
        assert allocator.block_size_cache[9000] == 24


class TestSchedulerParity:
    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("backfill_depth", [0, 3, 256])
    def test_random_streams_with_incidents(self, spec_name, seed, backfill_depth):
        spec = SPECS[spec_name]
        params = SchedulerParams(backfill_depth=backfill_depth)
        intents = _random_intents(spec, seed)
        incidents = _random_incidents(spec, seed)
        horizon = None if seed == 0 else 3.0
        result = CobaltScheduler(spec, params).run(intents, incidents, horizon)
        legacy = _LegacyCobaltScheduler(spec, params).run(intents, incidents, horizon)
        assert result.jobs, "the stream must start some jobs"
        assert result == legacy

    @pytest.mark.parametrize("backend", all_backend_names())
    def test_thirty_day_synthesis(self, backend, monkeypatch):
        calls = []
        original = CobaltScheduler.run

        def capture(self, intents, incidents=None, horizon_days=None):
            result = original(self, intents, incidents, horizon_days)
            calls.append((self.spec, self.params, intents, incidents, horizon_days, result))
            return result

        monkeypatch.setattr(CobaltScheduler, "run", capture)
        MiraDataset.synthesize(30.0, seed=7, backend=backend, cache=False)
        ((spec, params, intents, incidents, horizon, result),) = calls
        legacy = _LegacyCobaltScheduler(spec, params).run(intents, incidents, horizon)
        assert result.n_system_failures > 0
        assert result == legacy

    def test_oversize_request_raises_in_both(self):
        intents = _random_intents(MIRA, 0, n_jobs=5)
        oversize = replace(intents[0], job_id=99, requested_nodes=MIRA.n_nodes + 1)
        for scheduler in (CobaltScheduler(MIRA), _LegacyCobaltScheduler(MIRA)):
            with pytest.raises(AllocationError, match="exceeds"):
                scheduler.run(intents + [oversize])
