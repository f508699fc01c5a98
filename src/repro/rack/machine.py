"""The rack machine: the facade every layer above talks to.

A :class:`RackMachine` owns the nodes, the global memory, the fabric, the
fault injector, and the latency accounting.  All software in this
repository — FlacDK, the FlacOS kernel, the applications — touches rack
memory exclusively through this class (usually via a bound
:class:`NodeContext`), so the substrate's incoherence and latency rules
apply uniformly.

Hardware contract reproduced from the paper (§2.1):

* plain loads/stores go through the issuing node's private cache and are
  **not** coherent across nodes;
* atomic instructions bypass caches and are serialised rack-wide (the
  libfam-atomic model), working on global memory and the node's own
  local memory;
* cache maintenance (flush / invalidate / write-back-invalidate) is
  explicit and per-address-range.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cache import NodeCache
from .faults import FaultInjector
from .interconnect import Interconnect, node_vertex
from .memory import (
    AddressMap,
    MemoryKind,
    MemoryError_,
    PhysicalMemory,
    ProtectionError,
    Region,
    UncorrectableMemoryError,
    build_address_map,
)
from .node import Node
from .params import GLOBAL_BASE, LOCAL_STRIDE, RackConfig
from . import topology as topo
from ..telemetry import TELEMETRY as _TEL


#: Per-width precompiled codecs the single atomics apply to the device slab.
_INT_STRUCT = {
    1: struct.Struct("<B"),
    2: struct.Struct("<H"),
    4: struct.Struct("<I"),
    8: struct.Struct("<Q"),
}
_INT_DTYPE = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}

#: Telemetry subsystem for the data plane (metric naming convention:
#: DESIGN.md §8).  Cache hit/miss accounting is routed through these
#: counters *symmetrically* — fast-path hits and general-path hits and
#: misses all land here — while ``NodeCache.stats`` stays as the
#: compatibility view tests and benches already read.
_SUB = "rack.machine"


class RackMachine:
    """A simulated memory-interconnected rack."""

    def __init__(self, config: Optional[RackConfig] = None) -> None:
        self.config = config or RackConfig()
        cfg = self.config
        gmem_kind = MemoryKind.PMEM if cfg.global_kind == "pmem" else MemoryKind.GLOBAL
        self.global_mem = PhysicalMemory(cfg.global_mem_size, gmem_kind, "gmem")
        self.nodes: Dict[int, Node] = {}
        local_devices: Dict[int, PhysicalMemory] = {}
        for node_id in range(cfg.n_nodes):
            dev = PhysicalMemory(cfg.local_mem_size, MemoryKind.LOCAL_DRAM, f"local{node_id}")
            local_devices[node_id] = dev
            cache = NodeCache(
                cfg.cache_lines,
                cfg.cache_line_size,
                read_backing=self._make_backing_reader(node_id),
                write_backing=self._make_backing_writer(node_id),
            )
            self.nodes[node_id] = Node(node_id, cfg.cores_per_node, dev, cache)
        self.address_map: AddressMap = build_address_map(local_devices, self.global_mem)
        self.fabric: Interconnect = topo.build(cfg.topology, cfg.n_nodes)
        self.faults = FaultInjector(cfg.faults, seed=cfg.seed)
        self.latency = cfg.latency
        self.line_size = cfg.cache_line_size
        # -- data-plane fast path state (see DESIGN.md) --------------------
        # Hoisted constants: the line mask and hit charge never change for
        # a built machine (LatencyModel is fixed at construction).
        self._line_mask = cfg.cache_line_size - 1
        self._hit_ns = cfg.latency.cache_hit_ns
        self._global_atomic_ns = cfg.latency.global_atomic_ns
        self._local_atomic_ns = cfg.latency.local_atomic_ns
        # Software TLB: per-node memo of the last region resolved, dropped
        # when the address map's generation moves.
        self._tlb: Dict[int, Tuple[int, int, Region]] = {}
        self._tlb_gen = self.address_map.generation
        # Charge table: (first_line_ns, rest_line_ns) per (node, region),
        # dropped when the fabric's generation moves (link/topology change).
        self._charge_memo: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._charge_gen = self.fabric.generation
        # -- self-healing hook (see flacdk.reliability.repair) --------------
        # When set, a poisoned access invokes the handler instead of raising
        # immediately; the access retries (bounded, with backoff) after a
        # claimed repair.  The reentrancy guard keeps the handler's own
        # memory traffic from recursing into another repair.
        self._repair_handler: Optional[Callable[[int, int], bool]] = None
        self._in_repair = False
        self.repair_max_retries = 3
        self.repair_backoff_ns = 500.0
        # -- crash hooks (flight recorder et al.) ---------------------------
        # Called as hook(node_id, now_ns) *after* the node is dead and the
        # crash is in the fault log, so observers see the final state.
        self._crash_hooks: List[Callable[[int, float], None]] = []

    # -- address helpers -------------------------------------------------------

    @property
    def global_base(self) -> int:
        return GLOBAL_BASE

    @property
    def global_size(self) -> int:
        return self.global_mem.size

    def local_base(self, node_id: int) -> int:
        self._node(node_id)
        return node_id * LOCAL_STRIDE

    def local_size(self, node_id: int) -> int:
        return self._node(node_id).local_mem.size

    def is_global_addr(self, addr: int) -> bool:
        return addr >= GLOBAL_BASE

    def context(self, node_id: int) -> "NodeContext":
        """A view of the machine bound to one node (the common handle)."""
        self._node(node_id)
        return NodeContext(self, node_id)

    # -- time -------------------------------------------------------------------

    def now(self, node_id: int) -> float:
        return self._node(node_id).clock.now_ns

    def advance(self, node_id: int, ns: float) -> float:
        """Charge computation time unrelated to memory (software overhead)."""
        return self._node(node_id).clock.advance(ns)

    def max_time(self) -> float:
        return max(n.clock.now_ns for n in self.nodes.values())

    # -- data path ----------------------------------------------------------------

    def load(self, node_id: int, addr: int, size: int, *, bypass_cache: bool = False) -> bytes:
        """Read ``size`` bytes at physical ``addr`` through the node's cache."""
        if not bypass_cache and 0 < size:
            # fast path: single-line cache hit.  A resident line proves the
            # address resolved and passed protection when it was filled, so
            # no resolve, no fault roll, and a hits-only charge — identical
            # observables to the general path, an order less Python.
            node = self.nodes.get(node_id)
            if node is not None and node.alive:
                mask = self._line_mask
                base = addr & ~mask
                if addr + size <= base + mask + 1:
                    cache = node.cache
                    lines = cache._lines
                    line = lines.get(base)
                    if line is not None:
                        lines.move_to_end(base)
                        cache.stats.hits += 1
                        if _TEL.enabled:
                            _TEL.count(node_id, _SUB, "cache.hit")
                        if _TEL.atlas is not None:
                            _TEL.atlas.touch(addr, size)
                        # == _charge_cached(node, region, hits=1, misses=0)
                        node.clock._now_ns += self._hit_ns
                        lo = addr - base
                        return bytes(line.data[lo : lo + size])
        node, region, offset = self._access(node_id, addr, size)
        if _TEL.atlas is not None:
            _TEL.atlas.touch(addr, size)
        if bypass_cache:
            self._charge_bulk(node, region, size)
            self._maybe_fault(region, offset, size, node_id)
            self._check_poison(region, offset, size, node_id)
            if _TEL.enabled:
                _TEL.count(node_id, _SUB, "bypass.load")
            return region.device.read(offset, size)
        data, hits, misses = node.cache.load(addr, size)
        self._charge_cached(node, region, hits, misses)
        return data

    def store(
        self, node_id: int, addr: int, data: bytes, *, bypass_cache: bool = False
    ) -> None:
        """Write ``data`` at physical ``addr``.

        Cached stores dirty the node's cache and reach backing memory only
        on flush/eviction; ``bypass_cache`` models non-temporal stores
        that go straight to the device (still leaving any stale cached
        copy in place — callers must invalidate if they mix modes).
        """
        size = len(data)
        if not bypass_cache and 0 < size:
            # fast path: single-line cache hit (see load)
            node = self.nodes.get(node_id)
            if node is not None and node.alive:
                mask = self._line_mask
                base = addr & ~mask
                if addr + size <= base + mask + 1:
                    cache = node.cache
                    lines = cache._lines
                    line = lines.get(base)
                    if line is not None:
                        lines.move_to_end(base)
                        lo = addr - base
                        line.data[lo : lo + size] = data
                        line.dirty = True
                        cache.stats.hits += 1
                        if _TEL.enabled:
                            _TEL.count(node_id, _SUB, "cache.hit")
                        if _TEL.atlas is not None:
                            _TEL.atlas.touch(addr, size)
                        # == _charge_cached(node, region, hits=1, misses=0)
                        node.clock._now_ns += self._hit_ns
                        return
        node, region, offset = self._access(node_id, addr, size)
        if _TEL.atlas is not None:
            _TEL.atlas.touch(addr, size)
        if bypass_cache:
            self._charge_bulk(node, region, len(data))
            self._maybe_fault(region, offset, len(data), node_id)
            region.device.clear_poison(offset, len(data))
            region.device.write(offset, data)
            if _TEL.enabled:
                _TEL.count(node_id, _SUB, "bypass.store")
            return
        hits, misses, allocs = node.cache.store(addr, data)
        # full-line allocations never fetch: charged like hits
        self._charge_cached(node, region, hits + allocs, misses)

    # -- atomics ---------------------------------------------------------------------

    def atomic_cas(
        self, node_id: int, addr: int, expected: int, new: int, width: int = 8
    ) -> Tuple[bool, int]:
        """Compare-and-swap directly on backing memory.

        Returns ``(swapped, observed_value)``.  The issuing node's cached
        copy of the line is invalidated so subsequent cached loads observe
        the device value.
        """
        buf, offset, st = self._atomic_prologue(node_id, addr, width)
        current = st.unpack_from(buf, offset)[0]
        swapped = current == expected
        if swapped:
            st.pack_into(buf, offset, new & _mask(width))
        return swapped, current

    def atomic_fetch_add(self, node_id: int, addr: int, delta: int, width: int = 8) -> int:
        """Atomically add ``delta`` (wrapping); returns the *old* value."""
        buf, offset, st = self._atomic_prologue(node_id, addr, width)
        current = st.unpack_from(buf, offset)[0]
        st.pack_into(buf, offset, (current + delta) & _mask(width))
        return current

    def atomic_swap(self, node_id: int, addr: int, new: int, width: int = 8) -> int:
        """Atomically exchange; returns the old value."""
        buf, offset, st = self._atomic_prologue(node_id, addr, width)
        current = st.unpack_from(buf, offset)[0]
        st.pack_into(buf, offset, new & _mask(width))
        return current

    def atomic_load(self, node_id: int, addr: int, width: int = 8) -> int:
        """Coherent (cache-bypassing) integer load."""
        buf, offset, st = self._atomic_prologue(node_id, addr, width)
        return st.unpack_from(buf, offset)[0]

    def atomic_store(self, node_id: int, addr: int, value: int, width: int = 8) -> None:
        """Coherent (cache-bypassing) integer store."""
        buf, offset, st = self._atomic_prologue(node_id, addr, width)
        st.pack_into(buf, offset, value & _mask(width))

    # -- bulk data plane (DESIGN.md §10) -----------------------------------------------
    #
    # The bulk APIs are *semantically* a loop of single ops: returned
    # bytes, charged simulated ns, cache state, fault-log contents, and
    # telemetry counters are bit-identical to issuing each access alone.
    # What they amortise is host CPU: one resolve per distinct region,
    # one coalesced fault/poison pass per region, vectorized charge
    # arithmetic (``np.add.accumulate`` is a strict left fold, so the
    # float rounding matches the sequential clock adds), and one
    # aggregated telemetry record per batch.  Exact duplicate store
    # targets stay vectorized: every op is charged and fed to the atlas,
    # and only the last payload per address is written (last writer
    # wins, as in the loop).  Whenever a batch needs the sequential
    # machinery to stay exact — fault injection armed for a touched
    # region kind, poison in a touched window, partially overlapping
    # writes, unmapped or misaligned addresses — it falls back to the
    # single-op loop, which reproduces every observable including the
    # op index at which an error surfaces.  Each fallback is counted
    # under ``bulk.fallback/<reason>`` (see :meth:`_fallback`).

    def load_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        size: int,
        *,
        bypass_cache: bool = False,
        concat: bool = False,
    ) -> Union[List[bytes], bytes]:
        """Read ``size`` bytes at each address (scatter-gather read).

        Returns one ``bytes`` per address, or a single packed buffer
        when ``concat`` is true.  Equivalent to a loop of :meth:`load`.
        ``addrs`` may be an int sequence or a 1-D integer ndarray; an
        ``int64`` array reaches the vector path without a copy.
        """
        n = len(addrs)
        if n == 0:
            return b"" if concat else []
        node = self._node(node_id)
        node.check_alive()
        if bypass_cache:
            buf = self._bulk_bypass_load(node, addrs, size)
            if buf is not None:
                return buf if concat else _split(buf, size)
            parts = [self.load(node_id, a, size, bypass_cache=True) for a in _ints(addrs)]
        else:
            parts = self._bulk_cached_load(node, addrs, size)
        return b"".join(parts) if concat else parts

    def store_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        data: Union[Sequence[bytes], bytes],
        *,
        bypass_cache: bool = False,
        size: Optional[int] = None,
    ) -> None:
        """Write ``data[i]`` at ``addrs[i]`` (scatter write).

        ``data`` is one payload per address, or — when ``size`` is given
        — a single packed buffer of ``len(addrs) * size`` bytes (the
        write-side twin of ``load_many(..., concat=True)``; skips all
        per-payload bookkeeping).  Equivalent to a loop of :meth:`store`;
        per-payload batches need not share one size, though only
        uniform-size bypass batches vectorize.  ``addrs`` is as for
        :meth:`load_many`; duplicate addresses stay vectorized (last
        writer wins), partially overlapping windows go sequential.
        """
        n = len(addrs)
        if size is not None:
            if size <= 0:
                raise ValueError("packed store_many needs a positive size")
            if len(data) != n * size:
                raise ValueError(
                    f"store_many got {n} addresses but a packed buffer of "
                    f"{len(data)} bytes (need {n * size})"
                )
            if n == 0:
                return
            node = self._node(node_id)
            node.check_alive()
            if bypass_cache and self._bulk_bypass_store_packed(node, addrs, data, size):
                return
            data = _split(bytes(data), size)
        else:
            if len(data) != n:
                raise ValueError(f"store_many got {n} addresses but {len(data)} payloads")
            if n == 0:
                return
            node = self._node(node_id)
            node.check_alive()
            if bypass_cache and self._bulk_bypass_store(node, addrs, data):
                return
        if bypass_cache:
            for a, d in zip(_ints(addrs), data):
                self.store(node_id, a, d, bypass_cache=True)
            return
        self._bulk_cached_store(node, addrs, data)

    def copy(
        self, node_id: int, dst: int, src: int, size: int, *, bypass_cache: bool = False
    ) -> None:
        """Copy ``size`` bytes from ``src`` to ``dst`` through the node.

        Semantically ``store(dst, load(src, size))``; the bypass form
        moves the bytes device-to-device as one slab slice instead of
        materialising them in Python.
        """
        if size <= 0:
            return
        if not bypass_cache:
            self.store(node_id, dst, self.load(node_id, src, size))
            return
        node, sregion, soff = self._access(node_id, src, size)
        self._charge_bulk(node, sregion, size)
        self._maybe_fault(sregion, soff, size, node_id)
        self._check_poison(sregion, soff, size, node_id)
        node, dregion, doff = self._access(node_id, dst, size)
        self._charge_bulk(node, dregion, size)
        self._maybe_fault(dregion, doff, size, node_id)
        dregion.device.clear_poison(doff, size)
        dregion.device.copy_from(doff, sregion.device, soff, size)
        if _TEL.enabled:
            _TEL.count(node_id, _SUB, "bypass.load")
            _TEL.count(node_id, _SUB, "bypass.store")
        if _TEL.atlas is not None:
            _TEL.atlas.touch(src, size)
            _TEL.atlas.touch(dst, size)

    def fill(
        self, node_id: int, addr: int, size: int, value: int, *, bypass_cache: bool = False
    ) -> None:
        """Set ``size`` bytes at ``addr`` to ``value`` (memset).

        Semantically ``store(addr, bytes([value]) * size)``; the bypass
        form broadcasts into the device slab without building a payload.
        """
        if size <= 0:
            return
        if not bypass_cache:
            self.store(node_id, addr, bytes([value & 0xFF]) * size)
            return
        node, region, offset = self._access(node_id, addr, size)
        self._charge_bulk(node, region, size)
        self._maybe_fault(region, offset, size, node_id)
        region.device.clear_poison(offset, size)
        region.device.fill(offset, size, value & 0xFF)
        if _TEL.enabled:
            _TEL.count(node_id, _SUB, "bypass.store")
        if _TEL.atlas is not None:
            _TEL.atlas.touch(addr, size)

    def atomic_fetch_add_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        deltas: Union[int, Sequence[int]] = 1,
        width: int = 8,
    ) -> List[int]:
        """Batched :meth:`atomic_fetch_add`; returns the old values.

        ``deltas`` may be one int (broadcast) or a parallel sequence.
        Batches with duplicate addresses chain read-modify-writes, so
        they take the sequential path; unique-address batches vectorize.
        """
        n = len(addrs)
        if n == 0:
            return []
        if isinstance(deltas, int):
            delta_seq: Sequence[int] = [deltas] * n
        else:
            delta_seq = deltas
            if len(delta_seq) != n:
                raise ValueError(f"{n} addresses but {len(delta_seq)} deltas")
        plan = self._bulk_atomic_plan(node_id, addrs, width)
        if plan is not None:
            try:
                # int64 wrap-around then uintN truncation == ``& _mask(width)``
                d_arr = np.asarray(delta_seq, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                self._fallback(plan[0], "operand_range", n)
                plan = None
        if plan is None:
            return [
                self.atomic_fetch_add(node_id, a, d, width)
                for a, d in zip(_ints(addrs), delta_seq)
            ]
        node, groups = plan
        dtype = np.dtype(_INT_DTYPE[width])
        old = np.empty(n, dtype=dtype)
        d_arr = d_arr.astype(dtype)
        for region, idx, offs in groups:
            rows = region.device.gather(offs, width)
            vals = rows.view(dtype).ravel()
            old[idx] = vals
            new = vals + d_arr[idx]
            region.device.scatter(offs, new.reshape(-1, 1).view(np.uint8))
        self._bulk_atomic_epilogue(node, addrs, groups, width)
        return old.tolist()

    def atomic_load_many(
        self, node_id: int, addrs: Sequence[int], width: int = 8
    ) -> List[int]:
        """Batched :meth:`atomic_load` (coherent scatter-gather read).

        The read-only member of the bulk atomics family: one plan, one
        gather per region, charges accumulated in op order — identical
        observables to a loop of single ``atomic_load`` calls.  Batches
        the plan rejects (duplicates, cached lines, armed faults, ...)
        fall back to that loop.
        """
        n = len(addrs)
        if n == 0:
            return []
        plan = self._bulk_atomic_plan(node_id, addrs, width)
        if plan is None:
            return [self.atomic_load(node_id, a, width) for a in _ints(addrs)]
        node, groups = plan
        dtype = np.dtype(_INT_DTYPE[width])
        out = np.empty(n, dtype=dtype)
        for region, idx, offs in groups:
            rows = region.device.gather(offs, width)
            out[idx] = rows.view(dtype).ravel()
        self._bulk_atomic_epilogue(node, addrs, groups, width)
        return out.tolist()

    def atomic_cas_many(
        self,
        node_id: int,
        addrs: Sequence[int],
        expected: Sequence[int],
        new: Sequence[int],
        width: int = 8,
    ) -> List[Tuple[bool, int]]:
        """Batched :meth:`atomic_cas`; returns ``(swapped, observed)`` pairs."""
        n = len(addrs)
        if len(expected) != n or len(new) != n:
            raise ValueError("atomic_cas_many needs parallel addrs/expected/new")
        if n == 0:
            return []
        plan = self._bulk_atomic_plan(node_id, addrs, width)
        if plan is not None:
            try:
                e_raw = np.asarray(expected, dtype=np.int64)
                v_arr = np.asarray(new, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                self._fallback(plan[0], "operand_range", n)
                plan = None
        if plan is None:
            return [
                self.atomic_cas(node_id, a, e, v, width)
                for a, e, v in zip(_ints(addrs), expected, new)
            ]
        node, groups = plan
        dtype = np.dtype(_INT_DTYPE[width])
        old = np.empty(n, dtype=dtype)
        swapped = np.empty(n, dtype=bool)
        # the single op compares ``expected`` *unmasked* — an expected
        # value outside [0, 2^bits) can never match the device value —
        # so range-check before comparing in the truncated domain
        in_range = e_raw >= 0
        if width < 8:
            in_range &= e_raw <= _mask(width)
        e_arr = e_raw.astype(dtype)
        v_arr = v_arr.astype(dtype)  # truncation == ``new & _mask(width)``
        for region, idx, offs in groups:
            rows = region.device.gather(offs, width)
            vals = rows.view(dtype).ravel()
            old[idx] = vals
            hit = in_range[idx] & (vals == e_arr[idx])
            swapped[idx] = hit
            result = np.where(hit, v_arr[idx], vals)
            region.device.scatter(offs, result.reshape(-1, 1).view(np.uint8))
        self._bulk_atomic_epilogue(node, addrs, groups, width)
        return list(zip(swapped.tolist(), old.tolist()))

    # -- cache maintenance -------------------------------------------------------------

    def flush(self, node_id: int, addr: int, size: int) -> int:
        """Write back dirty lines (``dc cvac``); returns lines written."""
        node, region, _ = self._access(node_id, addr, size)
        written = node.cache.flush(addr, size)
        if written:
            self._charge_writeback(node, region, written)
        return written

    def invalidate(self, node_id: int, addr: int, size: int) -> int:
        """Drop cached lines without write-back (``dc ivac``)."""
        node = self._node(node_id)
        node.check_alive()
        dropped = node.cache.invalidate(addr, size)
        node.clock.advance(dropped * self.latency.invalidate_line_ns)
        return dropped

    def flush_invalidate(self, node_id: int, addr: int, size: int) -> Tuple[int, int]:
        """Write back then drop (``dc civac``)."""
        node, region, _ = self._access(node_id, addr, size)
        written, dropped = node.cache.flush_invalidate(addr, size)
        if written:
            self._charge_writeback(node, region, written)
        node.clock.advance(dropped * self.latency.invalidate_line_ns)
        return written, dropped

    def flush_all(self, node_id: int) -> int:
        """Write back every dirty line in the node's cache (context-switch
        and migration path).  Charged as a global-memory write burst —
        conservative when some victims are local."""
        node = self._node(node_id)
        node.check_alive()
        written = node.cache.flush_all()
        if written:
            lat = self.latency
            cost = self.fabric.path_to_gmem(node_id)
            first = lat.device_ns(is_global=True, hops=cost.hops, switches=cost.switches)
            rest = (written - 1) * lat.pipelined_line_ns(self.line_size, is_global=True)
            node.clock.advance(first + rest + written * lat.writeback_line_ns)
        return written

    def fence(self, node_id: int) -> None:
        """Full memory barrier (ordering is already strict here; cost only)."""
        node = self._node(node_id)
        node.check_alive()
        node.clock.advance(self.latency.fence_ns)

    # -- fault management ------------------------------------------------------------------

    def on_crash(self, hook: "Callable[[int, float], None]") -> None:
        """Register ``hook(node_id, now_ns)`` to run after any node crash."""
        self._crash_hooks.append(hook)

    def crash_node(self, node_id: int) -> None:
        node = self._node(node_id)
        node.crash()
        self.faults.record_node_crash(node_id, now_ns=node.clock.now_ns)
        for hook in self._crash_hooks:
            hook(node_id, node.clock.now_ns)

    def restart_node(self, node_id: int) -> None:
        node = self._node(node_id)
        node.restart(at_ns=self.max_time())

    def power_cycle(self) -> None:
        """Power the whole rack off and on.

        Every node restarts with a cold cache and zeroed local DRAM.
        The global pool keeps its bytes only when it is persistent
        memory (``global_kind="pmem"``) — the paper's simulated
        platform; a DRAM pool comes back zeroed.  Clocks keep running
        (wall time does not reset).
        """
        latest = self.max_time()
        for node in self.nodes.values():
            node.restart(at_ns=latest)
            node.local_mem.write(0, bytes(node.local_mem.size))
            node.local_mem.poisoned.clear()
        if self.global_mem.kind is not MemoryKind.PMEM:
            self.global_mem.write(0, bytes(self.global_mem.size))
            self.global_mem.poisoned.clear()

    def set_repair_handler(self, handler: Optional[Callable[[int, int], bool]]) -> None:
        """Install the self-healing hook: ``handler(rack_addr, node_id) -> repaired``.

        Called when an access trips on poison; a True return means the
        poisoned range was rewritten from a redundancy source and the
        access may retry.  Pass ``None`` to disable (faults surface
        immediately again).
        """
        self._repair_handler = handler

    def poisoned_addrs(self, addr: int, size: int) -> List[int]:
        """Rack addresses poisoned within ``[addr, addr+size)`` (scrub query).

        The window must lie inside one region.  This is a *diagnostic*
        read of the poison metadata — the ECC scrub engine's view — so
        it does not roll fault dice or charge data-path latency.
        """
        region, offset = self.address_map.resolve(addr, 1)
        size = min(size, region.size - offset)
        return [region.base + o for o in region.device.poisoned_in(offset, size)]

    def repair_write(self, node_id: int, addr: int, data: bytes) -> None:
        """Rewrite a (possibly poisoned) range with known-good bytes.

        The repair path: clears poison, writes the recovered content to
        the backing device, and drops the repairing node's stale cached
        lines.  Charged like a non-temporal store burst.
        """
        node, region, offset = self._access(node_id, addr, len(data))
        self._charge_bulk(node, region, len(data))
        region.device.clear_poison(offset, len(data))
        region.device.write(offset, data)
        node.cache.invalidate(addr, len(data))

    def set_link_state(self, u: str, v: str, up: bool) -> None:
        now_ns = self.max_time()
        self.fabric.set_link_state(u, v, up, now_ns=now_ns)
        self.faults.record_link_change(u, v, up, now_ns=now_ns)

    def sever_node_link(self, node_id: int, up: bool = False) -> None:
        """Take down (or restore) the first live link on the node's port."""
        src = node_vertex(node_id)
        for neighbor in self.fabric.graph.neighbors(src):
            self.set_link_state(src, neighbor, up)
            return
        raise KeyError(f"node {node_id} has no fabric links")

    # -- internals ------------------------------------------------------------------------------

    def _node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id} in rack of {len(self.nodes)}") from None

    def _access(self, node_id: int, addr: int, size: int) -> Tuple[Node, Region, int]:
        node = self._node(node_id)
        node.check_alive()
        region, offset = self._resolve_fast(node_id, addr, size if size > 0 else 1)
        return node, region, offset

    def _resolve_fast(self, node_id: int, addr: int, size: int) -> Tuple[Region, int]:
        """Software TLB in front of :meth:`AddressMap.resolve`.

        Memoizes the last region each node touched; only regions the node
        may legally access are ever memoized, so a memo hit needs no
        protection re-check.  The memo drops when the address map changes.
        """
        tlb = self._tlb
        amap = self.address_map
        if amap.generation != self._tlb_gen:
            tlb.clear()
            self._tlb_gen = amap.generation
        entry = tlb.get(node_id)
        if entry is not None:
            base, end, region = entry
            if base <= addr and addr + size <= end:
                return region, addr - base
        region, offset = amap.resolve(addr, size)
        if region.owner is not None and region.owner != node_id:
            raise ProtectionError(
                f"node {node_id} cannot access node {region.owner}'s local memory at {addr:#x}"
            )
        tlb[node_id] = (region.base, region.base + region.size, region)
        return region, offset

    def _atomic_prologue(self, node_id: int, addr: int, width: int):
        """Check, charge and count one atomic; returns ``(buf, offset, st)``.

        ``buf`` is the target device's byte slab, ``offset`` the target's
        position in it (resolved, so in bounds) and ``st`` the width's
        precompiled :class:`struct.Struct`.

        Fast path: a known, aligned width that fits in one cache line, on
        a live node whose current TLB entry covers the target.  Resolve
        would return that entry unchanged, the target sits in exactly one
        line, and the fault roll and poison check are skipped only when
        they are no-ops — so every observable matches the general path.
        """
        st = _INT_STRUCT.get(width)
        if st is not None and not addr % width and width <= self.line_size:
            node = self.nodes.get(node_id)
            entry = self._tlb.get(node_id)
            if (
                node is not None
                and node.alive
                and entry is not None
                and self.address_map.generation == self._tlb_gen
            ):
                base, end, region = entry
                if base <= addr and addr + width <= end:
                    is_global = region.owner is None
                    node.clock._now_ns += (
                        self._global_atomic_ns if is_global else self._local_atomic_ns
                    )
                    if _TEL.enabled:
                        _TEL.count(
                            node_id, _SUB, "atomic.global" if is_global else "atomic.local"
                        )
                    if _TEL.atlas is not None:
                        _TEL.atlas.touch(addr, width)
                    # == node.cache.invalidate(addr, width): one line
                    cache = node.cache
                    if cache._lines.pop(addr & ~self._line_mask, None) is not None:
                        cache.stats.invalidations += 1
                    offset = addr - base
                    device = region.device
                    if not self.faults.is_noop(is_global):
                        self._maybe_fault(region, offset, width, node_id)
                    if device.poisoned:
                        self._check_poison(region, offset, width, node_id)
                    return device._buf, offset, st
        if width not in _INT_STRUCT:
            raise ValueError(f"atomic width must be one of {sorted(_INT_STRUCT)}, got {width}")
        if addr % width:
            raise ValueError(f"atomic access at {addr:#x} not {width}-byte aligned")
        node, region, offset = self._access(node_id, addr, width)
        cost = self.latency.global_atomic_ns if region.is_global else self.latency.local_atomic_ns
        node.clock.advance(cost)
        if _TEL.enabled:
            _TEL.count(
                node_id, _SUB, "atomic.global" if region.is_global else "atomic.local"
            )
        if _TEL.atlas is not None:
            _TEL.atlas.touch(addr, width)
        node.cache.invalidate(addr, width)
        self._maybe_fault(region, offset, width, node_id)
        self._check_poison(region, offset, width, node_id)
        return region.device._buf, offset, _INT_STRUCT[width]

    def _path_cost(self, node_id: int, region: Region) -> Tuple[int, int]:
        if not region.is_global:
            return 0, 0
        cost = self.fabric.path_to_gmem(node_id)
        return cost.hops, cost.switches

    def _is_pmem(self, region: Region) -> bool:
        return region.device.kind is MemoryKind.PMEM

    def _first_line_ns(self, node: Node, region: Region) -> float:
        hops, switches = self._path_cost(node.node_id, region)
        ns = self.latency.device_ns(is_global=region.is_global, hops=hops, switches=switches)
        if self._is_pmem(region):
            ns += self.latency.pmem_extra_ns
        return ns

    def _rest_line_ns(self, region: Region) -> float:
        if self._is_pmem(region):
            return self.line_size / self.latency.pmem_bw_bytes_per_ns
        return self.latency.pipelined_line_ns(self.line_size, is_global=region.is_global)

    def _line_pair_ns(self, node: Node, region: Region) -> Tuple[float, float]:
        """Memoized ``(first_line_ns, rest_line_ns)`` for one (node, region).

        Both values depend only on the latency model, the region's kind,
        and the node's fabric path, so they are computed once and reused
        until the fabric's generation moves (link or topology change).
        """
        if self.fabric.generation != self._charge_gen:
            self._charge_memo.clear()
            self._charge_gen = self.fabric.generation
        key = (node.node_id, region.base)
        pair = self._charge_memo.get(key)
        if pair is None:
            pair = (self._first_line_ns(node, region), self._rest_line_ns(region))
            self._charge_memo[key] = pair
        return pair

    def _charge_cached(self, node: Node, region: Region, hits: int, misses: int) -> None:
        if _TEL.enabled and (hits or misses):
            if hits:
                _TEL.count(node.node_id, _SUB, "cache.hit", hits)
            if misses:
                _TEL.count(node.node_id, _SUB, "cache.miss", misses)
                if region.is_global:
                    _TEL.count(node.node_id, _SUB, "cache.remote_fetch", misses)
        lat = self.latency
        ns = hits * lat.cache_hit_ns
        if misses:
            first, rest = self._line_pair_ns(node, region)
            ns += first
            ns += (misses - 1) * rest
            ns += misses * lat.cache_miss_overhead_ns
        node.clock.advance(ns)

    def _bulk_ns(self, node: Node, region: Region, size: int) -> float:
        """Charge of one non-temporal (cache-bypassing) burst.

        Loads and stores are symmetric: the first line pays full device
        latency, the rest pay bandwidth.  ``writeback_line_ns`` is *not*
        charged here — that cost models writing back lines that were
        cached, and a bypass access to a region that was never cached
        has no such lines; charging it double-counted the per-line
        transfer already covered by the bandwidth term (the old
        ``bypass_store_4k`` vs ``bypass_load_4k`` asymmetry).
        """
        n_lines = max(1, (size + self.line_size - 1) // self.line_size)
        first, rest_line = self._line_pair_ns(node, region)
        return first + (n_lines - 1) * rest_line

    def _charge_bulk(self, node: Node, region: Region, size: int) -> None:
        node.clock.advance(self._bulk_ns(node, region, size))

    # -- bulk internals ----------------------------------------------------------------

    def _advance_vec(self, node: Node, charges: np.ndarray) -> None:
        """Advance the clock by ``charges`` in op order, bit-identically.

        ``np.add.accumulate`` is a strict left fold over float64, so the
        final clock value reproduces the rounding of a sequential
        ``advance`` per element exactly — the property the golden
        latency tests pin.
        """
        acc = np.empty(charges.shape[0] + 1, dtype=np.float64)
        acc[0] = node.clock._now_ns
        acc[1:] = charges
        np.add.accumulate(acc, out=acc)
        node.clock._now_ns = float(acc[-1])

    def _fallback(self, node: Node, reason: str, n: int) -> None:
        """Count ``n`` ops of one batch routed to the per-op loop.

        ``bulk.fallback/<reason>`` is an aggregated record (exact, zero
        simulated ns) of *ops*, so its sum over reasons
        divided by the bulk op count is the share of bulk traffic that
        left the vector path.  The reasons are listed in DESIGN.md §10.
        """
        if _TEL.enabled:
            _TEL.count(node.node_id, _SUB, "bulk.fallback/" + reason, float(n))

    def _bulk_plan(
        self, node: Node, addrs: Sequence[int], size: int
    ) -> Optional[List[Tuple[Region, np.ndarray, np.ndarray]]]:
        """Group a batch by region: ``[(region, op_indices, offsets)]``.

        ``addrs`` is an int sequence or a 1-D integer ndarray; an
        ``int64`` array passes through without a copy.  Returns ``None``
        (and counts the fallback) whenever only the sequential path
        preserves exact semantics: an unmapped / foreign-local /
        region-straddling address (the error must surface at its op
        index, after the prior ops' side effects), fault injection armed
        for a touched region kind (RNG draws and timestamps interleave
        per op), or poison anywhere in a touched region's coalesced
        window (the raise happens mid-batch with the clock mid-way).
        """
        try:
            arr = np.asarray(addrs, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            arr = None  # not int64-representable: no rack address
        if arr is None or arr.ndim != 1:
            return self._fallback(node, "unmapped_or_straddle", len(addrs))
        n = arr.shape[0]
        faults = self.faults
        if n:
            # fast path: the whole batch inside one region (the common
            # shape).  min/max bound every address, so one resolve of the
            # span replaces the per-region mask walk below.
            lo = int(arr.min())
            hi = int(arr.max())
            try:
                region, _ = self.address_map.resolve(lo, 1)
            except MemoryError_:
                return self._fallback(node, "unmapped_or_straddle", n)
            if lo >= region.base and hi + size <= region.end:
                if region.owner is not None and region.owner != node.node_id:
                    # ProtectionError belongs to one op index
                    return self._fallback(node, "foreign_local", n)
                if not faults.is_noop(region.owner is None):
                    return self._fallback(node, "armed_faults", n)
                base = region.base
                if region.device.is_poisoned(lo - base, hi + size - lo):
                    return self._fallback(node, "poison", n)
                return [(region, np.arange(n, dtype=np.int64), arr - base)]
        groups: List[Tuple[Region, np.ndarray, np.ndarray]] = []
        matched = 0
        for region in self.address_map.regions:
            if region.owner is not None and region.owner != node.node_id:
                if bool(np.any((arr >= region.base) & (arr < region.end))):
                    return self._fallback(node, "foreign_local", n)
                continue
            mask = (arr >= region.base) & (arr + size <= region.end)
            idx = np.nonzero(mask)[0]
            if idx.shape[0] == 0:
                continue
            matched += idx.shape[0]
            if not faults.is_noop(region.owner is None):
                return self._fallback(node, "armed_faults", n)
            offs = arr[idx] - region.base
            lo = int(offs.min())
            span = int(offs.max()) + size - lo
            if region.device.is_poisoned(lo, span):
                return self._fallback(node, "poison", n)
            groups.append((region, idx, offs))
        if matched != n:
            # some address is unmapped or straddles a region
            return self._fallback(node, "unmapped_or_straddle", n)
        return groups

    def _bulk_bypass_load(
        self, node: Node, addrs: Sequence[int], size: int
    ) -> Optional[bytes]:
        """Vectorized non-temporal gather; ``None`` means go sequential."""
        if size <= 0:
            return self._fallback(node, "ragged", len(addrs))
        groups = self._bulk_plan(node, addrs, size)
        if groups is None:
            return None
        n = len(addrs)
        charges = np.empty(n, dtype=np.float64)
        if len(groups) == 1 and groups[0][1].shape[0] == n:
            # whole batch in one region: idx is the identity permutation
            region, _idx, offs = groups[0]
            charges.fill(self._bulk_ns(node, region, size))
            out = region.device.gather(offs, size)
        else:
            out = np.empty((n, size), dtype=np.uint8)
            for region, idx, offs in groups:
                charges[idx] = self._bulk_ns(node, region, size)
                out[idx] = region.device.gather(offs, size)
        self._advance_vec(node, charges)
        if _TEL.enabled:
            _TEL.count(node.node_id, _SUB, "bypass.load", float(n))
        if _TEL.atlas is not None:
            _TEL.atlas.touch_many(addrs, size)
        return out.tobytes()

    def _bulk_bypass_store(
        self, node: Node, addrs: Sequence[int], data: Sequence[bytes]
    ) -> bool:
        """Vectorized non-temporal scatter; False means go sequential."""
        n = len(data)
        size = len(data[0])
        lens = np.fromiter(map(len, data), dtype=np.int64, count=n)
        if size <= 0 or bool(np.any(lens != size)):
            # ragged sizes: each op charges its own burst
            self._fallback(node, "ragged", n)
            return False
        groups = self._bulk_plan(node, addrs, size)
        if groups is None:
            return False
        rows = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(n, size)
        return self._bulk_scatter(node, groups, rows, size)

    def _bulk_bypass_store_packed(
        self, node: Node, addrs: Sequence[int], packed, size: int
    ) -> bool:
        """Packed-buffer variant: no per-payload sizes to validate."""
        try:
            rows = np.frombuffer(packed, dtype=np.uint8).reshape(-1, size)
        except (TypeError, ValueError, BufferError):
            self._fallback(node, "ragged", len(addrs))
            return False
        groups = self._bulk_plan(node, addrs, size)
        if groups is None:
            return False
        return self._bulk_scatter(node, groups, rows, size)

    def _bulk_scatter(
        self,
        node: Node,
        groups: List[Tuple[Region, np.ndarray, np.ndarray]],
        rows: np.ndarray,
        size: int,
    ) -> bool:
        """Charge and apply a planned scatter write; False = go sequential.

        Within a region the target windows must be disjoint or exact
        duplicates.  Duplicates resolve last writer wins: every op is
        still charged in op order and fed to the atlas, but only the
        last payload per offset is scattered — the bytes the loop
        leaves.  ``np.unique`` over the reversed offsets gives both the
        sorted distinct offsets (for the overlap check) and each one's
        last writer.  Windows closer than ``size`` but not equal
        (partial overlap) must apply in op order: go sequential.
        """
        n = rows.shape[0]
        writes = []
        for region, idx, offs in groups:
            m = idx.shape[0]
            sel = None if m == n else idx  # None: identity, scatter rows as-is
            if m > 1:
                uniq, first = np.unique(offs[::-1], return_index=True)
                if uniq.shape[0] > 1 and int((uniq[1:] - uniq[:-1]).min()) < size:
                    self._fallback(node, "partial_overlap", n)
                    return False
                if uniq.shape[0] < m:
                    last = (m - 1) - first  # op position of each last writer
                    sel = last if sel is None else sel[last]
                    offs = uniq
            writes.append((region, offs, sel))
        charges = np.empty(n, dtype=np.float64)
        if len(groups) == 1 and groups[0][1].shape[0] == n:
            charges.fill(self._bulk_ns(node, groups[0][0], size))
        else:
            for region, idx, _offs in groups:
                charges[idx] = self._bulk_ns(node, region, size)
        # plan proved no poison in the window: per-op clear_poison would
        # be a no-op, so skipping it is exact
        for region, offs, sel in writes:
            region.device.scatter(offs, rows if sel is None else rows[sel])
        self._advance_vec(node, charges)
        if _TEL.enabled:
            _TEL.count(node.node_id, _SUB, "bypass.store", float(n))
        atlas = _TEL.atlas
        if atlas is not None:
            # every op's address, duplicates included (the loop touches each)
            for region, _idx, offs in groups:
                atlas.touch_many(region.base + offs, size)
        return True

    def _bulk_cached_load(
        self, node: Node, addrs: Sequence[int], size: int
    ) -> List[bytes]:
        """Fused cached-load loop: the single-op hit fast path with the
        per-op call overhead hoisted out.  Clock, stats and telemetry
        accumulate locally and flush whenever an op leaves the fast path
        (miss, multi-line, dead node), so every observable matches the
        sequential loop exactly — including the clock value any general
        -path op reads mid-batch."""
        addrs = _ints(addrs)
        out: List[bytes] = []
        append = out.append
        node_id = node.node_id
        if size <= 0:
            for a in addrs:
                append(self.load(node_id, a, size))
            return out
        mask = self._line_mask
        line_sz = mask + 1
        hit_ns = self._hit_ns
        cache = node.cache
        lines = cache._lines
        get = lines.get
        move = lines.move_to_end
        clock = node.clock
        atlas = _TEL.atlas
        hit_addrs: Optional[List[int]] = [] if atlas is not None else None
        t = clock._now_ns
        pend = 0
        for a in addrs:
            base = a & ~mask
            if node.alive and a + size <= base + line_sz:
                line = get(base)
                if line is not None:
                    move(base)
                    pend += 1
                    t += hit_ns
                    if hit_addrs is not None:
                        hit_addrs.append(a)
                    lo = a - base
                    append(bytes(line.data[lo : lo + size]))
                    continue
            if pend:
                clock._now_ns = t
                cache.stats.hits += pend
                if _TEL.enabled:
                    _TEL.count(node_id, _SUB, "cache.hit", float(pend))
                pend = 0
            append(self.load(node_id, a, size))
            t = clock._now_ns
        if pend:
            clock._now_ns = t
            cache.stats.hits += pend
            if _TEL.enabled:
                _TEL.count(node_id, _SUB, "cache.hit", float(pend))
        if hit_addrs:
            # misses routed through self.load fed the sketch already;
            # hits flush as one aggregated batch (like a batch count)
            atlas.touch_many(hit_addrs, size)
        return out

    def _bulk_cached_store(
        self, node: Node, addrs: Sequence[int], data: Sequence[bytes]
    ) -> None:
        """Fused cached-store loop (see :meth:`_bulk_cached_load`)."""
        addrs = _ints(addrs)
        node_id = node.node_id
        mask = self._line_mask
        line_sz = mask + 1
        hit_ns = self._hit_ns
        cache = node.cache
        lines = cache._lines
        get = lines.get
        move = lines.move_to_end
        clock = node.clock
        atlas = _TEL.atlas
        hit_addrs: Optional[List[int]] = [] if atlas is not None else None
        hit_sizes: List[int] = []
        t = clock._now_ns
        pend = 0
        for a, d in zip(addrs, data):
            size = len(d)
            base = a & ~mask
            if 0 < size and node.alive and a + size <= base + line_sz:
                line = get(base)
                if line is not None:
                    move(base)
                    lo = a - base
                    line.data[lo : lo + size] = d
                    line.dirty = True
                    pend += 1
                    t += hit_ns
                    if hit_addrs is not None:
                        hit_addrs.append(a)
                        hit_sizes.append(size)
                    continue
            if pend:
                clock._now_ns = t
                cache.stats.hits += pend
                if _TEL.enabled:
                    _TEL.count(node_id, _SUB, "cache.hit", float(pend))
                pend = 0
            self.store(node_id, a, d)
            t = clock._now_ns
        if pend:
            clock._now_ns = t
            cache.stats.hits += pend
            if _TEL.enabled:
                _TEL.count(node_id, _SUB, "cache.hit", float(pend))
        if hit_addrs:
            atlas.touch_many(hit_addrs, hit_sizes)

    def _bulk_atomic_plan(
        self, node_id: int, addrs: Sequence[int], width: int
    ) -> Optional[Tuple[Node, List[Tuple[Region, np.ndarray, np.ndarray]]]]:
        """Plan a batched atomic; ``None`` means go sequential.

        On top of :meth:`_bulk_plan`'s rules, atomics also go sequential
        on a dead node (the raise), a misaligned address (the raise at
        its index), duplicate addresses (chained read-modify-writes),
        or any touched line resident in the issuing node's cache (the
        per-op invalidate is observable in eviction order).
        """
        if width not in _INT_DTYPE:
            raise ValueError(
                f"atomic width must be one of {sorted(_INT_STRUCT)}, got {width}"
            )
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            if node is not None:
                self._fallback(node, "dead_node", len(addrs))
            return None
        try:
            arr = np.asarray(addrs, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is None or arr.ndim != 1:
            return self._fallback(node, "unmapped_or_straddle", len(addrs))
        if width > 1 and bool(np.any(arr % width)):
            return self._fallback(node, "dup_or_misaligned_atomic", len(addrs))
        srt = np.sort(arr)
        if srt.shape[0] > 1 and bool(np.any(srt[1:] == srt[:-1])):
            # duplicates: chained read-modify-writes
            return self._fallback(node, "dup_or_misaligned_atomic", len(addrs))
        lines = node.cache._lines
        if lines:
            bases = srt & ~self._line_mask  # sorted, possibly repeated
            if bases.shape[0] > 1:
                keep = np.empty(bases.shape[0], dtype=bool)
                keep[0] = True
                np.not_equal(bases[1:], bases[:-1], out=keep[1:])
                bases = bases[keep]
            # membership test over the smaller side
            if len(lines) < bases.shape[0]:
                base_set = set(bases.tolist())
                cached = any(line in base_set for line in lines)
            else:
                cached = any(base in lines for base in bases.tolist())
            if cached:
                return self._fallback(node, "cached_atomic_line", len(addrs))
        groups = self._bulk_plan(node, arr, width)
        if groups is None:
            return None
        return node, groups

    def _bulk_atomic_epilogue(
        self,
        node: Node,
        addrs: Sequence[int],
        groups: List[Tuple[Region, np.ndarray, np.ndarray]],
        width: int = 8,
    ) -> None:
        """Charge and count a vectorized atomic batch.

        The plan proved no fault, poison, or cached line is involved, so
        only the final clock value is observable — accumulated in op
        order to keep float rounding identical to the sequential loop.
        """
        n = len(addrs)
        lat = self.latency
        charges = np.empty(n, dtype=np.float64)
        n_global = 0
        for region, idx, _offs in groups:
            if region.is_global:
                charges[idx] = lat.global_atomic_ns
                n_global += idx.shape[0]
            else:
                charges[idx] = lat.local_atomic_ns
        self._advance_vec(node, charges)
        if _TEL.enabled:
            if n_global:
                _TEL.count(node.node_id, _SUB, "atomic.global", float(n_global))
            if n > n_global:
                _TEL.count(node.node_id, _SUB, "atomic.local", float(n - n_global))
        if _TEL.atlas is not None:
            _TEL.atlas.touch_many(addrs, width)

    def _charge_writeback(self, node: Node, region: Region, lines: int) -> None:
        if _TEL.enabled:
            _TEL.count(node.node_id, _SUB, "cache.writeback_lines", lines)
        first, rest_line = self._line_pair_ns(node, region)
        rest = (lines - 1) * rest_line
        node.clock.advance(first + rest + lines * self.latency.writeback_line_ns)

    def _maybe_fault(self, region: Region, offset: int, size: int, node_id: int) -> None:
        faults = self.faults
        if faults.is_noop(region.owner is None):
            # no fault can fire for this region kind: skip the path-cost
            # lookup and the injector call without touching the RNG stream
            return
        hops, switches = self._path_cost(node_id, region)
        faults.on_access(
            region, offset, size, node_id, self.now(node_id), path_cost=hops + switches
        )

    def _check_poison(self, region: Region, offset: int, size: int, node_id: int) -> None:
        device = region.device
        if not device.is_poisoned(offset, size):
            return
        handler = self._repair_handler
        if handler is not None and not self._in_repair:
            # bounded retry-after-repair: hand the poisoned address to the
            # self-healing pipeline, back off, and re-check.  The guard
            # stops the handler's own reads from re-entering this path.
            node = self.nodes.get(node_id)
            for attempt in range(1, self.repair_max_retries + 1):
                victims = device.poisoned_in(offset, size)
                if not victims:
                    return
                if _TEL.enabled:
                    _TEL.count(node_id, _SUB, "fault.retry")
                self._in_repair = True
                try:
                    repaired = handler(region.base + victims[0], node_id)
                finally:
                    self._in_repair = False
                if node is not None:
                    node.clock.advance(self.repair_backoff_ns * attempt)
                if not repaired:
                    break
            if not device.is_poisoned(offset, size):
                return
        if _TEL.enabled:
            _TEL.count(node_id, _SUB, "fault.ue_raised")
        raise UncorrectableMemoryError(region.base + offset, node_id)

    def _make_backing_reader(self, node_id: int):
        def read_backing(addr: int, size: int) -> bytes:
            # short-circuit: a current TLB entry covers the fill, no fault
            # can fire for the region kind and the device holds no poison,
            # so the general path below would return exactly this slice
            entry = self._tlb.get(node_id)
            if entry is not None and self.address_map.generation == self._tlb_gen:
                base, end, region = entry
                if base <= addr and addr + size <= end:
                    device = region.device
                    if not device.poisoned and self.faults.is_noop(region.owner is None):
                        offset = addr - base
                        return device._buf[offset : offset + size]
            region, offset = self._resolve_fast(node_id, addr, size)
            self._maybe_fault(region, offset, size, node_id)
            self._check_poison(region, offset, size, node_id)
            return region.device.read(offset, size)

        return read_backing

    def _make_backing_writer(self, node_id: int):
        def write_backing(addr: int, data: bytes) -> None:
            region, offset = self._resolve_fast(node_id, addr, len(data))
            region.device.clear_poison(offset, len(data))
            region.device.write(offset, data)

        return write_backing


class NodeContext:
    """All machine operations bound to one node — the handle software holds."""

    __slots__ = ("machine", "node_id")

    def __init__(self, machine: RackMachine, node_id: int) -> None:
        self.machine = machine
        self.node_id = node_id

    # data path
    def load(self, addr: int, size: int, *, bypass_cache: bool = False) -> bytes:
        return self.machine.load(self.node_id, addr, size, bypass_cache=bypass_cache)

    def store(self, addr: int, data: bytes, *, bypass_cache: bool = False) -> None:
        self.machine.store(self.node_id, addr, data, bypass_cache=bypass_cache)

    # bulk data plane
    def load_many(
        self,
        addrs: Sequence[int],
        size: int,
        *,
        bypass_cache: bool = False,
        concat: bool = False,
    ) -> Union[List[bytes], bytes]:
        return self.machine.load_many(
            self.node_id, addrs, size, bypass_cache=bypass_cache, concat=concat
        )

    def store_many(
        self,
        addrs: Sequence[int],
        data: Union[Sequence[bytes], bytes],
        *,
        bypass_cache: bool = False,
        size: Optional[int] = None,
    ) -> None:
        self.machine.store_many(
            self.node_id, addrs, data, bypass_cache=bypass_cache, size=size
        )

    def copy(self, dst: int, src: int, size: int, *, bypass_cache: bool = False) -> None:
        self.machine.copy(self.node_id, dst, src, size, bypass_cache=bypass_cache)

    def fill(self, addr: int, size: int, value: int, *, bypass_cache: bool = False) -> None:
        self.machine.fill(self.node_id, addr, size, value, bypass_cache=bypass_cache)

    def fetch_add_many(
        self,
        addrs: Sequence[int],
        deltas: Union[int, Sequence[int]] = 1,
        width: int = 8,
    ) -> List[int]:
        return self.machine.atomic_fetch_add_many(self.node_id, addrs, deltas, width)

    def cas_many(
        self,
        addrs: Sequence[int],
        expected: Sequence[int],
        new: Sequence[int],
        width: int = 8,
    ) -> List[Tuple[bool, int]]:
        return self.machine.atomic_cas_many(self.node_id, addrs, expected, new, width)

    def atomic_load_many(self, addrs: Sequence[int], width: int = 8) -> List[int]:
        return self.machine.atomic_load_many(self.node_id, addrs, width)

    # atomics
    def cas(self, addr: int, expected: int, new: int, width: int = 8) -> Tuple[bool, int]:
        return self.machine.atomic_cas(self.node_id, addr, expected, new, width)

    def fetch_add(self, addr: int, delta: int, width: int = 8) -> int:
        return self.machine.atomic_fetch_add(self.node_id, addr, delta, width)

    def swap(self, addr: int, new: int, width: int = 8) -> int:
        return self.machine.atomic_swap(self.node_id, addr, new, width)

    def atomic_load(self, addr: int, width: int = 8) -> int:
        return self.machine.atomic_load(self.node_id, addr, width)

    def atomic_store(self, addr: int, value: int, width: int = 8) -> None:
        self.machine.atomic_store(self.node_id, addr, value, width)

    # maintenance
    def flush(self, addr: int, size: int) -> int:
        return self.machine.flush(self.node_id, addr, size)

    def invalidate(self, addr: int, size: int) -> int:
        return self.machine.invalidate(self.node_id, addr, size)

    def flush_invalidate(self, addr: int, size: int) -> Tuple[int, int]:
        return self.machine.flush_invalidate(self.node_id, addr, size)

    def fence(self) -> None:
        self.machine.fence(self.node_id)

    # time
    def now(self) -> float:
        return self.machine.now(self.node_id)

    def advance(self, ns: float) -> float:
        return self.machine.advance(self.node_id, ns)

    @property
    def node(self) -> Node:
        return self.machine.nodes[self.node_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeContext(node={self.node_id})"


def _mask(width: int) -> int:
    return (1 << (8 * width)) - 1


def _ints(addrs: Sequence[int]) -> Sequence[int]:
    """``addrs`` as Python ints for a per-op loop.

    An ndarray batch converts once with ``tolist()``, so no ``np.int64``
    reaches a single-op path, a fault-log entry or an error message
    (numpy's scalar ``repr`` differs from ``int``'s).
    """
    return addrs.tolist() if isinstance(addrs, np.ndarray) else addrs


def _split(buf: bytes, size: int) -> List[bytes]:
    """Cut a packed gather result into per-op ``bytes`` chunks."""
    return [buf[i : i + size] for i in range(0, len(buf), size)]
