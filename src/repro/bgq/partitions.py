"""Partition (block) allocation over midplanes.

Cobalt schedules Mira jobs onto *blocks*: aligned groups of midplanes
whose sizes are 512, 1024, 2048, 4096, 8192, 16384, 24576, or 49152
nodes (1, 2, 4, 8, 16, 32, 48, or 96 midplanes).  The minimum
allocation is one midplane, so a 13-node job still occupies 512 nodes —
a property several of the paper's core-hour analyses depend on.

:class:`PartitionAllocator` is a buddy-style allocator over the
machine's midplane array: a block of size ``s`` midplanes must start at
a multiple of ``s`` (half- and full-machine blocks anchored at 0/half),
which guarantees blocks either nest or are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError

from .location import Location
from .machine import MIRA, MachineSpec

__all__ = ["Block", "PartitionAllocator", "allowed_block_sizes"]


def allowed_block_sizes(spec: MachineSpec = MIRA) -> list[int]:
    """Allocatable block sizes in midplanes, ascending.

    Mira exposed blocks of 512, 1024, 2048, 4096, 8192, 12288, 16384,
    24576, 32768 and 49152 nodes — i.e. 1, 2, 4, 8, 16, 24, 32, 48, 64
    and 96 midplanes: every power of two that fits, plus the 3x2^k
    "row" blocks (24, 48, 96) the rack geometry allows.
    """
    total = spec.n_midplanes
    sizes = set()
    size = 1
    while size <= total:
        sizes.add(size)
        if size >= 8 and 3 * size <= total:
            sizes.add(3 * size)
        size *= 2
    sizes.add(total)
    return sorted(sizes)


@dataclass(frozen=True)
class Block:
    """An allocated block of contiguous midplanes."""

    name: str
    first_midplane: int
    n_midplanes: int
    spec: MachineSpec = field(default=MIRA, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        """Compute nodes in the block."""
        return self.n_midplanes * self.spec.nodes_per_midplane

    @property
    def midplane_indices(self) -> range:
        """Global midplane indices covered by this block."""
        return range(self.first_midplane, self.first_midplane + self.n_midplanes)

    @property
    def locations(self) -> list[Location]:
        """Midplane-level locations covered by this block."""
        return [
            Location.from_midplane_index(i, self.spec) for i in self.midplane_indices
        ]

    def contains_midplane(self, midplane_index: int) -> bool:
        """True when the global midplane index lies in this block."""
        return self.first_midplane <= midplane_index < self.first_midplane + self.n_midplanes


class PartitionAllocator:
    """Buddy-style allocator of midplane blocks.

    The allocator tracks a busy bitmap over midplanes, held as one
    Python int (bit ``i`` set: midplane ``i`` is allocated), so testing
    or flipping a window is a single mask operation.  ``allocate``
    rounds the node request up to the next allowed block size and
    returns the lowest-addressed aligned free block, mimicking a
    deterministic first-fit policy.
    """

    def __init__(self, spec: MachineSpec = MIRA):
        self.spec = spec
        self._n_midplanes = spec.n_midplanes
        self._nodes_per_midplane = spec.nodes_per_midplane
        self._busy = 0
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
        busy = self._busy
        window = (1 << size) - 1
        for start in self._aligned_starts(size):
            if not busy & (window << start):
                self._busy = busy | (window << start)
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
        window = (1 << block.n_midplanes) - 1
        self._busy &= ~(window << block.first_midplane)
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
    def block_size_cache(self) -> dict[int, int]:
        """Node count → block midplanes for every request sized so far.

        The live memo behind :meth:`block_midplanes_for`, exposed so a
        hot loop can look sizes up without a method call; treat it as
        read-only.
        """
        return self._size_cache

    @property
    def smallest_block_midplanes(self) -> int:
        """Midplanes in the smallest allocatable block."""
        return self._sizes[0]

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
