"""Per-node private caches with **no** hardware coherence.

This is the heart of the substrate's fidelity to the paper: a store by
node A lands in A's cache and does not reach backing memory until A
flushes the line; a load by node B returns whatever B's cache holds, even
if that is stale, until B invalidates.  All FlacDK synchronisation
protocols are therefore forced to issue explicit cache maintenance — and
the test suite observes real staleness when they do not.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Tuple


@dataclass
class CacheStats:
    """Counters exposed for benchmarks and tests."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    invalidations: int = 0
    evictions: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Line:
    data: bytearray
    dirty: bool = False


class NodeCache:
    """A write-back, write-allocate cache with LRU replacement.

    ``read_backing`` / ``write_backing`` are callbacks into the machine so
    the cache itself stays ignorant of the address map; they take rack
    physical addresses aligned to the line size.
    """

    def __init__(
        self,
        capacity_lines: int,
        line_size: int,
        read_backing: Callable[[int, int], bytes],
        write_backing: Callable[[int, bytes], None],
    ) -> None:
        if capacity_lines <= 0:
            raise ValueError("cache needs at least one line")
        if line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        self.capacity_lines = capacity_lines
        self.line_size = line_size
        self._read_backing = read_backing
        self._write_backing = write_backing
        self._lines: "OrderedDict[int, _Line]" = OrderedDict()
        self.stats = CacheStats()

    # -- address helpers ---------------------------------------------------

    def line_base(self, addr: int) -> int:
        return addr & ~(self.line_size - 1)

    # -- core operations ---------------------------------------------------

    def load(self, addr: int, size: int) -> Tuple[bytes, int, int]:
        """Read through the cache.  Returns ``(data, hits, misses)``."""
        if size <= 0:
            return b"", 0, 0
        line_size = self.line_size
        base = addr & ~(line_size - 1)
        if addr + size <= base + line_size:
            # fast path: the overwhelmingly common single-line access —
            # one dict probe, one move_to_end, one slice.
            lines = self._lines
            line = lines.get(base)
            lo = addr - base
            if line is not None:
                lines.move_to_end(base)
                self.stats.hits += 1
                return bytes(line.data[lo : lo + size]), 1, 0
            line = _Line(bytearray(self._read_backing(base, line_size)))
            self._insert(base, line)
            self.stats.misses += 1
            return bytes(line.data[lo : lo + size]), 0, 1
        # multi-line span: one pass over the line bases with the hit/miss
        # probe inlined.  Each part is copied as its line is visited, so
        # the bytes returned are those the lines held at that moment.
        lines = self._lines
        get = lines.get
        move = lines.move_to_end
        read_backing = self._read_backing
        parts = []
        append = parts.append
        hits = misses = 0
        for line_base in range(base, addr + size, line_size):
            line = get(line_base)
            if line is not None:
                move(line_base)
                hits += 1
                append(bytes(line.data))
            else:
                raw = read_backing(line_base, line_size)
                self._insert(line_base, _Line(bytearray(raw)))
                misses += 1
                append(raw)
        self.stats.hits += hits
        self.stats.misses += misses
        lo = addr - base
        return b"".join(parts)[lo : lo + size], hits, misses

    def store(self, addr: int, data: bytes) -> Tuple[int, int, int]:
        """Write into the cache (write-allocate).

        Returns ``(hits, misses, allocs)``: *misses* fetched the line from
        backing memory (partial-line write to a non-resident line);
        *allocs* installed a full line without fetching — the common case
        for bulk writes, and the reason streaming writes to global memory
        are not charged a read round trip.
        """
        size = len(data)
        if size <= 0:
            return 0, 0, 0
        line_size = self.line_size
        base = addr & ~(line_size - 1)
        if addr + size <= base + line_size:
            # fast path: single-line store (hit, full-line allocate, or
            # partial-line fetch) without the span loop.
            lines = self._lines
            line = lines.get(base)
            lo = addr - base
            if line is not None:
                lines.move_to_end(base)
                line.data[lo : lo + size] = data
                line.dirty = True
                self.stats.hits += 1
                return 1, 0, 0
            if size == line_size:  # lo == 0 implied by the span check
                self._insert(base, _Line(bytearray(data), dirty=True))
                self.stats.hits += 1  # allocs are charged like hits
                return 0, 0, 1
            line = _Line(bytearray(self._read_backing(base, line_size)))
            self._insert(base, line)
            line.data[lo : lo + size] = data
            line.dirty = True
            self.stats.misses += 1
            return 0, 1, 0
        # multi-line span: as in load, one pass with the probe inlined
        lines = self._lines
        get = lines.get
        move = lines.move_to_end
        end = addr + size
        hits = misses = allocs = 0
        pos = 0
        src = memoryview(data)
        for line_base in range(base, end, line_size):
            lo = addr - line_base if line_base < addr else 0
            hi = end - line_base if end < line_base + line_size else line_size
            line = get(line_base)
            if line is not None:
                move(line_base)
                hits += 1
            elif hi - lo == line_size:
                self._insert(
                    line_base, _Line(bytearray(src[pos : pos + line_size]), dirty=True)
                )
                allocs += 1
                pos += line_size
                continue
            else:
                line = _Line(bytearray(self._read_backing(line_base, line_size)))
                self._insert(line_base, line)
                misses += 1
            line.data[lo:hi] = src[pos : pos + (hi - lo)]
            line.dirty = True
            pos += hi - lo
        self.stats.hits += hits + allocs
        self.stats.misses += misses
        return hits, misses, allocs

    def flush(self, addr: int, size: int) -> int:
        """Write back dirty lines in range, keeping them valid and clean.

        Returns the number of lines written back.  Models ``dc cvac``.
        """
        if size <= 0:
            return 0
        line_size = self.line_size
        get = self._lines.get
        written = 0
        for base in range(addr & ~(line_size - 1), addr + size, line_size):
            line = get(base)
            if line is not None and line.dirty:
                self._write_backing(base, bytes(line.data))
                line.dirty = False
                written += 1
        self.stats.writebacks += written
        return written

    def invalidate(self, addr: int, size: int) -> int:
        """Drop lines in range *without* writing them back (``dc ivac``).

        Dirty data in the range is lost — exactly like the hardware
        instruction.  Protocols that must not lose writes use
        :meth:`flush_invalidate`.
        """
        if size <= 0:
            return 0
        line_size = self.line_size
        pop = self._lines.pop
        dropped = 0
        for base in range(addr & ~(line_size - 1), addr + size, line_size):
            if pop(base, None) is not None:
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def flush_invalidate(self, addr: int, size: int) -> Tuple[int, int]:
        """Write back then drop (``dc civac``).  Returns ``(written, dropped)``."""
        written = self.flush(addr, size)
        dropped = self.invalidate(addr, size)
        return written, dropped

    def flush_all(self) -> int:
        """Write back every dirty line (context switch / checkpoint path)."""
        written = 0
        for base, line in self._lines.items():
            if line.dirty:
                self._write_backing(base, bytes(line.data))
                line.dirty = False
                written += 1
        self.stats.writebacks += written
        return written

    def invalidate_all(self) -> int:
        dropped = len(self._lines)
        self._lines.clear()
        self.stats.invalidations += dropped
        return dropped

    # -- introspection (tests) ----------------------------------------------

    def contains(self, addr: int) -> bool:
        return self.line_base(addr) in self._lines

    def is_dirty(self, addr: int) -> bool:
        line = self._lines.get(self.line_base(addr))
        return bool(line and line.dirty)

    def resident_lines(self) -> int:
        return len(self._lines)

    # -- internals -----------------------------------------------------------

    def _insert(self, base: int, line: _Line) -> None:
        while len(self._lines) >= self.capacity_lines:
            victim_base, victim = self._lines.popitem(last=False)
            if victim.dirty:
                self._write_backing(victim_base, bytes(victim.data))
                self.stats.writebacks += 1
            self.stats.evictions += 1
        self._lines[base] = line
        self._lines.move_to_end(base)
