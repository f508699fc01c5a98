"""Differential test: the single-op fast paths against the general path.

The atomic fast path, the span-wide cache fills and the backing-read
short-circuit all promise observables identical to the general path.
Two machines built from the same config and seed run the same random
single-op sequence.  The second one is held on the general path without
any knob: each of its devices carries one poisoned byte far from every
address the ops touch (so ``device.poisoned`` is never empty), and its
software TLB is dropped before every op.  After every op the returned
value or error, the node clocks, the cache stats, the resident lines
(in LRU order, with data and dirty bits), the device bytes, the fault
log, the telemetry counters and the atlas touches must all match.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.rack import RackConfig, RackMachine
from repro.rack.params import FaultModel
from repro.telemetry import TELEMETRY

_GLOBAL_SIZE = 1 << 16
_LOCAL_SIZE = 1 << 14
_WINDOW = 128  # every op starts in the first 128 bytes of a window ...
_FAR = _LOCAL_SIZE // 2  # ... and the poisoned byte sits at this offset

#: (window, offset) targets, weighted towards legal accesses: the global
#: pool's head, the issuing node's own local DRAM, the pool's tail (which
#: straddles the pool's end, so unmapped accesses occur) and the other
#: node's local DRAM (a protection error).
_WINDOWS = ("global", "global", "own", "own", "global_end", "other")

_ATOMICS = ("cas", "fetch_add", "swap", "atomic_load", "atomic_store")

_node = st.integers(0, 1)
_where = st.tuples(st.sampled_from(_WINDOWS), st.integers(0, _WINDOW - 1))
_value = st.one_of(st.integers(0, 3), st.integers(-(1 << 64), 1 << 65))

_load = st.tuples(st.just("load"), _node, _where, st.integers(0, 300))
_store = st.tuples(st.just("store"), _node, _where, st.binary(min_size=0, max_size=300))
_atomic = st.tuples(
    st.sampled_from(_ATOMICS),
    _node,
    _where,
    st.sampled_from((1, 2, 4, 8)),
    st.sampled_from((True, True, True, False)),  # aligned
    _value,
    _value,
)
_maintenance = st.tuples(
    st.sampled_from(("flush", "invalidate", "flush_invalidate")),
    _node,
    _where,
    st.integers(0, 300),
)
_lifecycle = st.tuples(st.sampled_from(("crash", "restart", "restart")), _node)
#: poison one byte on both machines (a UE the fast machine must honour)
_poison = st.tuples(st.just("poison"), _node, _where)
#: branches repeat to weight the mix towards data-path ops
_op = st.one_of(
    _load, _load, _store, _store, _atomic, _atomic, _atomic, _maintenance, _lifecycle, _poison
)


def _config(line_size: int, lines: int, armed: bool) -> RackConfig:
    faults = FaultModel(global_ce_rate=0.02, global_ue_rate=0.005) if armed else FaultModel()
    return RackConfig(
        n_nodes=2,
        global_mem_size=_GLOBAL_SIZE,
        local_mem_size=_LOCAL_SIZE,
        cache_line_size=line_size,
        cache_lines=lines,
        faults=faults,
        seed=7,
    )


def _addr(machine: RackMachine, node: int, where) -> int:
    window, offset = where
    if window == "global":
        return machine.global_base + offset
    if window == "global_end":
        return machine.global_base + _GLOBAL_SIZE - _WINDOW // 2 + offset
    return machine.local_base(node if window == "own" else 1 - node) + offset


def _run(machine: RackMachine, op):
    kind, node = op[0], op[1]
    if kind == "crash":
        return machine.crash_node(node)
    if kind == "restart":
        return machine.restart_node(node)
    addr = _addr(machine, node, op[2])
    if kind == "poison":
        region, offset = machine.address_map.resolve(addr)
        return region.device.poison(offset)
    if kind == "load":
        return machine.load(node, addr, op[3])
    if kind == "store":
        return machine.store(node, addr, op[3])
    if kind in _ATOMICS:
        _, _, _, width, aligned, a, b = op
        if aligned:
            addr -= addr % width
        if kind == "cas":
            return machine.atomic_cas(node, addr, a, b, width)
        if kind == "fetch_add":
            return machine.atomic_fetch_add(node, addr, a, width)
        if kind == "swap":
            return machine.atomic_swap(node, addr, a, width)
        if kind == "atomic_load":
            return machine.atomic_load(node, addr, width)
        return machine.atomic_store(node, addr, a, width)
    return getattr(machine, kind)(node, addr, op[3])


class _AtlasRecorder:
    """Stands in for the attribution atlas and records what it is fed."""

    def __init__(self) -> None:
        self.calls = []

    def touch(self, addr, n_bytes):
        self.calls.append(("touch", addr, n_bytes))

    def touch_many(self, addrs, n_bytes):
        self.calls.append(("touch_many", list(addrs), n_bytes))


def _observe(machine: RackMachine, op):
    """Run one op; return every observable it leaves behind."""
    telemetry.reset()
    atlas = TELEMETRY.atlas = _AtlasRecorder()
    try:
        outcome = ("ok", _run(machine, op))
    except Exception as exc:  # compared by type and message
        outcome = ("raise", type(exc), str(exc))
    finally:
        TELEMETRY.atlas = None
    devices = [machine.global_mem] + [machine.nodes[i].local_mem for i in (0, 1)]
    return {
        "outcome": outcome,
        "clocks": [machine.nodes[i].clock.now_ns for i in (0, 1)],
        "alive": [machine.nodes[i].alive for i in (0, 1)],
        "stats": [dataclasses.asdict(machine.nodes[i].cache.stats) for i in (0, 1)],
        "lines": [
            [(b, bytes(line.data), line.dirty) for b, line in machine.nodes[i].cache._lines.items()]
            for i in (0, 1)
        ],
        "devices": [bytes(dev._buf) for dev in devices],
        "poison": [sorted(o for o in dev.poisoned if o != _FAR) for dev in devices],
        "fault_log": machine.faults.log.events(),
        "counters": dict(TELEMETRY.registry.counters),
        "atlas": atlas.calls,
    }


@pytest.fixture
def telemetry_on():
    telemetry.reset()
    telemetry.enable()
    try:
        yield
    finally:
        telemetry.disable()
        telemetry.reset()


@pytest.mark.parametrize("armed", [False, True], ids=["quiet", "faults"])
@pytest.mark.parametrize("lines", [4, 4096])
@pytest.mark.parametrize("line_size", [4, 64])
def test_fast_path_matches_general_path(telemetry_on, line_size, lines, armed):
    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(_op, min_size=20, max_size=80))
    def check(ops):
        fast = RackMachine(_config(line_size, lines, armed))
        general = RackMachine(_config(line_size, lines, armed))
        for dev in [general.global_mem] + [general.nodes[i].local_mem for i in (0, 1)]:
            dev.poison(_FAR)
        for i, op in enumerate(ops):
            general._tlb.clear()
            want = _observe(general, op)
            got = _observe(fast, op)
            # name the diverging observables instead of diffing them:
            # the device snapshots are far too large for a readable diff
            diverged = [key for key in want if got[key] != want[key]]
            assert not diverged, f"op {i} {op!r} diverged in {diverged}"

    check()
