"""The Table 1 memory hierarchy.

* L1-D: 8-way 32 KB, 64 B lines, 4-cycle latency
* L1-I: 4-way 32 KB, 64 B lines, 4-cycle latency (hits are pipelined and
  charged as zero added front-end delay; misses pay the L2+ path)
* L2:   16-way 256 KB unified, 12-cycle latency
* L3:   32-way 4 MB, 25-cycle latency
* DRAM: 140-cycle latency
* 64-entry miss buffer bounds outstanding data misses (Table 1's Miss
  Buffer / Load Fill Request Queue pair, collapsed into one limit).

Latencies are load-to-use totals for a hit at that level, as Table 1 lists
them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from .cache import Cache


#: The cache levels, by field prefix; each is ``<prefix>_bytes`` split
#: into ``<prefix>_assoc`` ways of ``line_bytes`` lines.
_LEVELS = ("l1d", "l1i", "l2", "l3")

#: Smallest legal value of each checked field.  A zero size, way count
#: or line divides by zero in :class:`Cache`, an empty miss buffer
#: indexes an empty heap, and a negative latency would time a hit
#: before its access.
_FIELD_MINIMUMS = {
    **{
        f"{level}_{part}": 1
        for level in _LEVELS
        for part in ("bytes", "assoc")
    },
    "line_bytes": 1,
    "miss_buffer_entries": 1,
    "l1_latency": 0,
    "l2_latency": 0,
    "l3_latency": 0,
    "dram_latency": 0,
}


@dataclass
class HierarchyConfig:
    l1d_bytes: int = 32 * 1024
    l1d_assoc: int = 8
    l1i_bytes: int = 32 * 1024
    l1i_assoc: int = 4
    l2_bytes: int = 256 * 1024
    l2_assoc: int = 16
    l3_bytes: int = 4 * 1024 * 1024
    l3_assoc: int = 32
    line_bytes: int = 64
    l1_latency: int = 4
    l2_latency: int = 12
    l3_latency: int = 25
    dram_latency: int = 140
    miss_buffer_entries: int = 64
    #: Simple next-line prefetch on L1-D misses, so sequential streams
    #: behave as they would on real hardware (stride-17 cold walks in the
    #: workloads deliberately defeat it).
    next_line_prefetch: bool = True

    def __post_init__(self) -> None:
        for name, minimum in _FIELD_MINIMUMS.items():
            value = getattr(self, name)
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        line = self.line_bytes
        if line & (line - 1):
            # Cache derives its line shift from the bit length.
            raise ValueError(f"line_bytes must be a power of two, got {line}")
        for level in _LEVELS:
            size = getattr(self, f"{level}_bytes")
            assoc = getattr(self, f"{level}_assoc")
            if size % (assoc * line):
                raise ValueError(
                    f"{level}_bytes {size} is not a multiple of "
                    f"{level}_assoc * line_bytes ({assoc} * {line})"
                )


class MemoryHierarchy:
    """Assigns a completion time to each instruction/data access."""

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config or HierarchyConfig()
        c = self.config
        self.l1d = Cache("L1D", c.l1d_bytes, c.l1d_assoc, c.line_bytes)
        self.l1i = Cache("L1I", c.l1i_bytes, c.l1i_assoc, c.line_bytes)
        self.l2 = Cache("L2", c.l2_bytes, c.l2_assoc, c.line_bytes)
        self.l3 = Cache("L3", c.l3_bytes, c.l3_assoc, c.line_bytes)
        self._outstanding: List[int] = []  # completion-time min-heap

    # -- internals ---------------------------------------------------------

    def _data_latency(self, byte_address: int) -> int:
        if self.l1d.access(byte_address):
            return self.config.l1_latency
        if self.l2.access(byte_address):
            return self.config.l2_latency
        if self.l3.access(byte_address):
            return self.config.l3_latency
        return self.config.dram_latency

    def _inst_latency(self, byte_address: int) -> int:
        if self.l1i.access(byte_address):
            return 0  # pipelined I$ hit: no added front-end delay
        if self.l2.access(byte_address):
            return self.config.l2_latency
        if self.l3.access(byte_address):
            return self.config.l3_latency
        return self.config.dram_latency

    def _miss_buffer_start(self, cycle: int) -> int:
        """Earliest cycle a new miss may begin, honouring the buffer limit."""
        heap = self._outstanding
        while heap and heap[0] <= cycle:
            heapq.heappop(heap)
        if len(heap) >= self.config.miss_buffer_entries:
            return heap[0]
        return cycle

    # -- public API ----------------------------------------------------------

    def access_data(self, byte_address: int, cycle: int) -> int:
        """Return the cycle the loaded value becomes available."""
        latency = self._data_latency(byte_address)
        if latency <= self.config.l1_latency:
            return cycle + latency
        if self.config.next_line_prefetch:
            next_line = byte_address + self.config.line_bytes
            self.l1d.install(next_line)
            self.l2.install(next_line)
        start = self._miss_buffer_start(cycle)
        done = start + latency
        heapq.heappush(self._outstanding, done)
        return done

    def access_inst(self, byte_address: int, cycle: int) -> int:
        """Return the cycle the fetched line is available to decode."""
        return cycle + self._inst_latency(byte_address)

    def data_miss_rate(self) -> float:
        return self.l1d.miss_rate

    def inst_miss_rate(self) -> float:
        return self.l1i.miss_rate

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l1i, self.l2, self.l3):
            cache.reset_stats()
        self._outstanding.clear()
