"""Property tests: the bulk data plane is a loop of single ops.

Seeded randomized equivalence (ISSUE 6 satellite): for every batch shape
— cached and bypass, loads and stores, batched atomics — the bulk API
must match a loop of single ops in *every* observable:

* returned bytes / returned atomic values,
* charged simulated ns, bit for bit,
* full cache state (resident lines, their bytes, dirty bits, **LRU
  order** — it steers future evictions — and the stats counters),
* backing-memory bytes,
* fault-log contents, and
* telemetry counters.

Batches deliberately include region-straddling addresses (errors must
surface at the same op index with the same partial side effects) and
poisoned lines hit mid-batch.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import telemetry
from repro.bench.harness import build_rig
from repro.rack import NodeCrashedError, RackConfig, RackMachine, UncorrectableMemoryError
from repro.rack.machine import RackMachine as _RM  # noqa: F401 (import sanity)
from repro.rack.memory import MemoryError_, MemoryKind, PhysicalMemory
from repro.rack.params import FaultModel
from repro.workloads.traffic import TenantSpec, TrafficEngine

LINE = 64
GSIZE = 1 << 16
LSIZE = 1 << 16


def _config(seed: int, faults: FaultModel = None) -> RackConfig:
    return RackConfig(
        n_nodes=2,
        local_mem_size=LSIZE,
        global_mem_size=GSIZE,
        cache_lines=64,  # small enough that batches force evictions
        faults=faults or FaultModel(),
        seed=seed,
    )


def _state(m: RackMachine) -> dict:
    """Every observable of a machine, snapshot for equality checks."""
    out = {}
    for nid, node in m.nodes.items():
        s = node.cache.stats
        out[f"cache{nid}"] = [
            (base, bytes(line.data), line.dirty)
            for base, line in node.cache._lines.items()  # insertion order == LRU order
        ]
        out[f"stats{nid}"] = (s.hits, s.misses, s.writebacks, s.invalidations, s.evictions)
        out[f"clock{nid}"] = node.clock.now_ns
        out[f"local{nid}"] = bytes(node.local_mem._buf)
        out[f"poison{nid}"] = sorted(node.local_mem.poisoned)
    out["gmem"] = bytes(m.global_mem._buf)
    out["gpoison"] = sorted(m.global_mem.poisoned)
    out["faults"] = [
        (e.kind.value, e.addr, e.node_id, e.time_ns) for e in m.faults.log.events()
    ]
    return out


def _addr_batch(rng: random.Random, m: RackMachine, n: int, size: int, straddle: bool) -> list:
    """Addresses across both legal regions; optionally one that falls
    off the end of the global region mid-batch."""
    g = m.global_base
    loc = m.local_base(0)
    addrs = []
    for _ in range(n):
        if rng.random() < 0.3:
            addrs.append(loc + rng.randrange(0, LSIZE - size))
        else:
            addrs.append(g + rng.randrange(0, GSIZE - size))
    if straddle and n >= 2:
        addrs[rng.randrange(1, n)] = g + GSIZE - max(1, size // 2)
    return addrs


def _apply(fn):
    """Run ``fn``, capturing a raised error as a comparable value."""
    try:
        return ("ok", fn())
    except (MemoryError_, ValueError, NodeCrashedError) as e:
        return ("err", type(e).__name__, str(e))


def _loop(fn, items):
    """Run ``fn`` per item for effect (a store loop returns nothing)."""
    for it in items:
        fn(it)


def _pair(seed: int, faults: FaultModel = None):
    cfg = _config(seed, faults)
    return RackMachine(cfg), RackMachine(cfg)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("bypass", [False, True])
def test_load_many_equals_loop(seed, bypass):
    ma, mb = _pair(seed)
    rng = random.Random(seed * 31 + 7)
    for batch in range(8):
        size = rng.choice([1, 7, 8, 64, 100, 256])
        n = rng.randrange(1, 40)
        straddle = batch == 5
        addrs = _addr_batch(rng, ma, n, size, straddle)
        # seed some content so loads return non-trivial bytes
        blob = bytes(rng.randrange(256) for _ in range(size))
        for m in (ma, mb):
            m.store(0, addrs[0], blob, bypass_cache=True)
        ra = _apply(lambda: ma.load_many(0, addrs, size, bypass_cache=bypass))
        rb = _apply(lambda: [mb.load(0, a, size, bypass_cache=bypass) for a in addrs])
        assert ra == rb
        assert _state(ma) == _state(mb)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("bypass", [False, True])
def test_store_many_equals_loop(seed, bypass):
    ma, mb = _pair(seed)
    rng = random.Random(seed * 137 + 3)
    for batch in range(8):
        if rng.random() < 0.7:
            size = rng.choice([1, 8, 64, 100])
            sizes = [size] * rng.randrange(1, 40)
        else:  # ragged payload sizes (sequential-only shape)
            sizes = [rng.choice([1, 8, 64, 100]) for _ in range(rng.randrange(1, 20))]
        addrs = _addr_batch(rng, ma, len(sizes), max(sizes), batch == 5)
        if batch == 6 and len(addrs) >= 2:
            addrs[-1] = addrs[0]  # duplicate target: op order must win
        data = [bytes(rng.randrange(256) for _ in range(s)) for s in sizes]
        ra = _apply(lambda: ma.store_many(0, addrs, data, bypass_cache=bypass))
        rb = _apply(
            lambda: _loop(
                lambda ad: mb.store(0, ad[0], ad[1], bypass_cache=bypass),
                zip(addrs, data),
            )
        )
        assert ra == rb
        assert _state(ma) == _state(mb)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("bypass", [True, False])
def test_store_many_packed_equals_loop(seed, bypass):
    """The packed-buffer form (one blob + explicit size) must match the
    loop of single stores of the split payloads, including the
    region-straddling fallback and duplicate-target sequential shapes."""
    ma, mb = _pair(seed)
    rng = random.Random(seed * 211 + 5)
    for batch in range(6):
        size = rng.choice([1, 8, 64, 100])
        n = rng.randrange(1, 40)
        addrs = _addr_batch(rng, ma, n, size, batch == 3)
        if batch == 4 and n >= 2:
            addrs[-1] = addrs[0]
        packed = bytes(rng.randrange(256) for _ in range(n * size))
        chunks = [packed[i * size : (i + 1) * size] for i in range(n)]
        ra = _apply(
            lambda: ma.store_many(0, addrs, packed, bypass_cache=bypass, size=size)
        )
        rb = _apply(
            lambda: _loop(
                lambda ad: mb.store(0, ad[0], ad[1], bypass_cache=bypass),
                zip(addrs, chunks),
            )
        )
        assert ra == rb
        assert _state(ma) == _state(mb)
    # arity errors: wrong packed length, bad size
    with pytest.raises(ValueError):
        ma.store_many(0, [ma.global_base], b"\x00" * 7, size=8)
    with pytest.raises(ValueError):
        ma.store_many(0, [ma.global_base], b"", size=0)


@pytest.mark.parametrize("seed", range(4))
def test_bulk_with_poison_mid_batch(seed):
    ma, mb = _pair(seed)
    rng = random.Random(seed + 99)
    g = ma.global_base
    addrs = [g + i * LINE for i in range(24)]
    victim = addrs[rng.randrange(4, 20)] - g
    for m in (ma, mb):
        m.global_mem.poison(victim + 3)
    ra = _apply(lambda: ma.load_many(0, addrs, 8, bypass_cache=True))
    rb = _apply(lambda: [mb.load(0, a, 8, bypass_cache=True) for a in addrs])
    assert ra == rb and ra[0] == "err" and ra[1] == "UncorrectableMemoryError"
    assert _state(ma) == _state(mb)
    # stores clear poison per window, in op order
    data = [b"\xee" * 8] * len(addrs)
    ra = _apply(lambda: ma.store_many(0, addrs, data, bypass_cache=True))
    rb = _apply(
        lambda: _loop(lambda a: mb.store(0, a, b"\xee" * 8, bypass_cache=True), addrs)
    )
    assert ra == rb
    assert _state(ma) == _state(mb)


@pytest.mark.parametrize("seed", range(4))
def test_bulk_under_fault_injection_equals_loop(seed):
    """With fault rates armed the bulk path must defer to the sequential
    machinery: RNG draws and event timestamps interleave per op."""
    faults = FaultModel(global_ce_rate=0.05, global_ue_rate=0.02, local_ce_rate=0.01)
    ma, mb = _pair(seed, faults)
    rng = random.Random(seed * 7 + 1)
    for _ in range(4):
        addrs = _addr_batch(rng, ma, 20, 8, False)
        ra = _apply(lambda: ma.load_many(0, addrs, 8, bypass_cache=True))
        rb = _apply(lambda: [mb.load(0, a, 8, bypass_cache=True) for a in addrs])
        assert ra == rb
        assert _state(ma) == _state(mb)


@pytest.mark.parametrize("seed", range(5))
def test_atomic_many_equals_loop(seed):
    ma, mb = _pair(seed)
    rng = random.Random(seed * 11 + 5)
    g = ma.global_base
    loc = ma.local_base(0)
    for batch in range(6):
        width = rng.choice([1, 2, 4, 8])
        n = rng.randrange(1, 24)
        pool = [g + rng.randrange(0, GSIZE // width - 1) * width for _ in range(n)]
        if rng.random() < 0.4:
            pool[0] = loc + rng.randrange(0, LSIZE // width - 1) * width
        if batch == 3 and n >= 2:
            pool[-1] = pool[0]  # duplicates chain: must go sequential
        if batch == 4:
            pool[0] += 1 if width > 1 else 0  # misalignment raises at index 0
        deltas = [rng.randrange(-300, 300) for _ in range(n)]
        ra = _apply(lambda: ma.atomic_fetch_add_many(0, pool, deltas, width))
        rb = _apply(
            lambda: [mb.atomic_fetch_add(0, a, d, width) for a, d in zip(pool, deltas)]
        )
        if ra[0] == "err":
            assert ra[1] == rb[1]
        else:
            assert ra == rb
        assert _state(ma) == _state(mb)
        exp = [rng.choice([0, 1, -1, 255, rng.randrange(1 << 8 * width)]) for _ in range(n)]
        new = [rng.randrange(1 << 8 * width) for _ in range(n)]
        ra = _apply(lambda: ma.atomic_cas_many(0, pool, exp, new, width))
        rb = _apply(
            lambda: [mb.atomic_cas(0, a, e, v, width) for a, e, v in zip(pool, exp, new)]
        )
        if ra[0] == "err":
            assert ra[1] == rb[1]
        else:
            assert ra == rb
        assert _state(ma) == _state(mb)


def test_atomic_many_with_cached_line_invalidates_like_loop():
    """A batch touching a line the node has cached must still invalidate
    it (sequential path), leaving cache state identical to the loop."""
    ma, mb = _pair(0)
    g = ma.global_base
    for m in (ma, mb):
        m.load(0, g, 8)  # cache the line the atomics will hit
    addrs = [g, g + 8, g + 16]
    ra = ma.atomic_fetch_add_many(0, addrs, 1)
    rb = [mb.atomic_fetch_add(0, a, 1) for a in addrs]
    assert ra == rb
    assert _state(ma) == _state(mb)
    assert g & ~63 not in ma.nodes[0].cache._lines


def test_copy_and_fill_equal_load_store():
    ma, mb = _pair(0)
    g = ma.global_base
    blob = bytes(range(256)) * 16
    for m in (ma, mb):
        m.store(0, g, blob, bypass_cache=True)
    ma.copy(0, g + 8192, g, len(blob), bypass_cache=True)
    mb.store(0, g + 8192, mb.load(0, g, len(blob), bypass_cache=True), bypass_cache=True)
    assert ma.now(0) == mb.now(0)
    assert ma.load(0, g + 8192, len(blob), bypass_cache=True) == blob
    mb.load(0, g + 8192, len(blob), bypass_cache=True)  # keep clocks in step
    ma.fill(0, g + 4096, 1024, 0xAB, bypass_cache=True)
    mb.store(0, g + 4096, b"\xab" * 1024, bypass_cache=True)
    assert _state(ma) == _state(mb)
    # overlapping same-device copy behaves as read-then-write
    ma.copy(0, g + 16, g, 256, bypass_cache=True)
    assert ma.load(0, g + 16, 256, bypass_cache=True) == blob[:256]
    mb.copy(0, g + 16, g, 256, bypass_cache=True)
    mb.load(0, g + 16, 256, bypass_cache=True)
    # cached variants route through the cached load/store pair
    ma.copy(0, g + 20480, g + 8192, 128)
    mb.store(0, g + 20480, mb.load(0, g + 8192, 128))
    assert _state(ma) == _state(mb)
    ma.fill(0, g + 21504, 64, 0x11)
    mb.store(0, g + 21504, b"\x11" * 64)
    assert _state(ma) == _state(mb)


def test_bulk_telemetry_counters_match_loop():
    """Aggregated batch records must land on exactly the counter values
    the single-op loop produces (sampling off: exact by construction)."""
    telemetry.reset()
    telemetry.enable()
    try:
        ma, mb = _pair(0)
        g = ma.global_base
        addrs = [g + i * 8 for i in range(64)]
        reg = telemetry.TELEMETRY.registry
        ma.load_many(0, addrs, 8, bypass_cache=True)
        a_ctrs = dict(reg.counters)
        reg.clear()
        for a in addrs:
            mb.load(0, a, 8, bypass_cache=True)
        assert dict(reg.counters) == a_ctrs
        reg.clear()
        ma.load_many(0, addrs, 8)  # cold: misses
        ma.load_many(0, addrs, 8)  # warm: fused hit loop
        a_ctrs = dict(reg.counters)
        reg.clear()
        for _ in range(2):
            for a in addrs:
                mb.load(0, a, 8)
        assert dict(reg.counters) == a_ctrs
    finally:
        telemetry.disable()
        telemetry.reset()


def test_load_many_concat_and_empty():
    m = RackMachine(_config(0))
    g = m.global_base
    m.store(0, g, bytes(range(64)), bypass_cache=True)
    addrs = [g, g + 16, g + 32]
    parts = m.load_many(0, addrs, 16, bypass_cache=True)
    packed = m.load_many(0, addrs, 16, bypass_cache=True, concat=True)
    assert b"".join(parts) == packed == bytes(range(48))
    assert m.load_many(0, [], 8) == []
    assert m.load_many(0, [], 8, concat=True) == b""
    m.store_many(0, [], [])
    assert m.atomic_fetch_add_many(0, [], 1) == []
    assert m.atomic_cas_many(0, [], [], []) == []
    with pytest.raises(ValueError):
        m.store_many(0, [g], [b"x", b"y"])
    with pytest.raises(ValueError):
        m.atomic_fetch_add_many(0, [g], [1, 2])
    with pytest.raises(ValueError):
        m.atomic_cas_many(0, [g, g + 8], [1], [2, 3])


# -- duplicate targets: last writer wins on the vector path ---------------------


@pytest.fixture
def registry():
    """Telemetry on for one test; yields the (cleared) registry."""
    telemetry.reset()
    telemetry.enable()
    try:
        yield telemetry.TELEMETRY.registry
    finally:
        telemetry.disable()
        telemetry.reset()


def _fallbacks(reg) -> dict:
    return {
        name: v for (_n, _sub, name), v in reg.counters.items()
        if name.startswith("bulk.fallback/")
    }


def _dup_batch(rng: random.Random, m: RackMachine, n: int, size: int) -> list:
    """``n`` draws over six disjoint ``size``-byte slots in both regions,
    so most targets repeat (pigeonhole: ``n > 6`` forces a duplicate)."""
    g = m.global_base
    loc = m.local_base(0)
    slots = [g + k * size for k in rng.sample(range(GSIZE // size), 4)]
    slots += [loc + k * size for k in rng.sample(range(LSIZE // size), 2)]
    return [rng.choice(slots) for _ in range(n)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("packed", [False, True])
def test_duplicate_store_batches_stay_vectorized_and_exact(seed, packed, registry):
    """Duplicate-heavy batches with a distinct payload per duplicate
    match the single-op loop in bytes, clocks, fault log and counters,
    and never touch the per-op ``store``."""
    ma, mb = _pair(seed)
    rng = random.Random(seed * 53 + 11)
    for batch in range(6):
        size = rng.choice([1, 8, 64, 100])
        n = rng.randrange(8, 60)
        addrs = _dup_batch(rng, ma, n, size)
        if batch % 2:
            addrs = [a for a in addrs if a >= ma.global_base] or addrs  # one region
        assert len(set(addrs)) < len(addrs)
        # first byte 7*i mod 256 is distinct for every i < 256
        data = [bytes((7 * i + j) % 256 for j in range(size)) for i in range(len(addrs))]
        calls = []
        ma.store = lambda *a, **kw: calls.append(a)  # spy: the loop must not run
        try:
            if packed:
                ma.store_many(0, addrs, b"".join(data), bypass_cache=True, size=size)
            else:
                ma.store_many(0, addrs, data, bypass_cache=True)
        finally:
            del ma.store
        assert calls == []
        a_ctrs = dict(registry.counters)
        registry.clear()
        for a, d in zip(addrs, data):
            mb.store(0, a, d, bypass_cache=True)
        assert dict(registry.counters) == a_ctrs
        registry.clear()
        assert _state(ma) == _state(mb)


def test_partial_overlap_still_falls_back(registry):
    ma, mb = _pair(0)
    g = ma.global_base
    addrs = [g, g + 32, g + 256, g + 32]  # g and g+32 overlap at 64 B
    data = [bytes([i + 1]) * 64 for i in range(len(addrs))]
    ma.store_many(0, addrs, data, bypass_cache=True)
    assert _fallbacks(registry) == {"bulk.fallback/partial_overlap": 4.0}
    for a, d in zip(addrs, data):
        mb.store(0, a, d, bypass_cache=True)
    assert _state(ma) == _state(mb)


@pytest.mark.parametrize("size", [1, 64, 100, 4096])
def test_row_view_gather_scatter_edges(size):
    """Strided row view: size 1, a payload ending at the device's last
    byte, and odd/large payloads all read and write the exact bytes."""
    mem = PhysicalMemory(3 * 4096, MemoryKind.GLOBAL)
    rng = np.random.default_rng(size)
    mem.slab[:] = rng.integers(0, 256, mem.size, dtype=np.uint8)
    last = mem.size - size  # payload ends at the device's last byte
    offs = np.array([last, 0, size * (mem.size // size // 2)], dtype=np.int64)
    got = mem.gather(offs, size)
    assert got.shape == (3, size)
    assert [r.tobytes() for r in got] == [mem.read(o, size) for o in offs.tolist()]
    rows = rng.integers(0, 256, (3, size), dtype=np.uint8)
    want = bytearray(mem._buf)
    for o, r in zip(offs.tolist(), rows):
        want[o : o + size] = r.tobytes()
    mem.scatter(offs, rows)
    assert bytes(mem._buf) == bytes(want)
    view = mem.row_view(size)
    assert view is mem.row_view(size) and np.shares_memory(view, mem.slab)
    # through the machine: the last global window, duplicated, and the first
    ma, mb = _pair(0)
    g = ma.global_base
    addrs = [g + GSIZE - size, g, g + GSIZE - size]
    data = [bytes([i + 1]) * size for i in range(3)]
    ma.store_many(0, addrs, data, bypass_cache=True)
    for a, d in zip(addrs, data):
        mb.store(0, a, d, bypass_cache=True)
    assert _state(ma) == _state(mb)
    assert ma.load_many(0, addrs, size, bypass_cache=True) == [data[2], data[1], data[2]]


# -- fallback reasons -------------------------------------------------------------


_ARMED = FaultModel(global_ce_rate=0.5)


def _force(reason: str, m: RackMachine):
    """A batch that must leave the vector path for ``reason``; returns
    ``(n_ops, thunk)``."""
    g = m.global_base
    pair = [g, g + 64]
    eight = [b"\xab" * 8] * 2
    if reason == "unmapped_or_straddle":
        return 2, lambda: m.store_many(0, [g, g + GSIZE - 4], eight, bypass_cache=True)
    if reason == "foreign_local":
        return 2, lambda: m.load_many(0, [g, m.local_base(1)], 8, bypass_cache=True)
    if reason == "armed_faults":
        return 2, lambda: m.load_many(0, pair, 8, bypass_cache=True)
    if reason == "poison":
        m.global_mem.poison(64 + 3)
        return 2, lambda: m.load_many(0, pair, 8, bypass_cache=True)
    if reason == "partial_overlap":
        return 2, lambda: m.store_many(0, [g, g + 4], eight, bypass_cache=True)
    if reason == "ragged":
        return 2, lambda: m.store_many(0, pair, [b"x" * 8, b"y" * 16], bypass_cache=True)
    if reason == "dup_or_misaligned_atomic":
        return 3, lambda: m.atomic_fetch_add_many(0, [g, g + 8, g], 1)
    if reason == "misaligned":
        return 2, lambda: m.atomic_load_many(0, [g, g + 3])
    if reason == "cached_atomic_line":
        m.load(0, g, 8)
        return 2, lambda: m.atomic_load_many(0, pair)
    if reason == "dead_node":
        m.crash_node(0)
        return 2, lambda: m.atomic_load_many(0, pair)
    if reason == "operand_range":
        return 2, lambda: m.atomic_fetch_add_many(0, [g, g + 8], 1 << 70)
    raise AssertionError(reason)


@pytest.mark.parametrize(
    "reason",
    [
        "unmapped_or_straddle", "foreign_local", "armed_faults", "poison",
        "partial_overlap", "ragged", "dup_or_misaligned_atomic", "misaligned",
        "cached_atomic_line", "dead_node", "operand_range",
    ],
)
def test_each_fallback_reason_is_counted_and_free(reason):
    """Every sequential fallback bumps exactly its ``bulk.fallback/``
    counter by the batch's op count, and the run is bit-identical —
    clocks included — with telemetry off."""
    faults = _ARMED if reason == "armed_faults" else None
    counter = "bulk.fallback/" + (
        "dup_or_misaligned_atomic" if reason == "misaligned" else reason
    )
    runs = []
    for enabled in (True, False):
        telemetry.reset()
        if enabled:
            telemetry.enable()
        try:
            m = RackMachine(_config(3, faults))
            n, thunk = _force(reason, m)
            result = _apply(thunk)
            if enabled:
                assert _fallbacks(telemetry.TELEMETRY.registry) == {counter: float(n)}
            runs.append((result, _state(m)))
        finally:
            telemetry.disable()
            telemetry.reset()
    assert runs[0] == runs[1]


def test_traffic_digest_and_clocks_identical_with_telemetry_on_and_off():
    """A duplicate-heavy open-loop run (64 keys, ~100 requests a batch)
    keeps every batch on the vector path and is identical with
    telemetry on and off."""
    def run(enabled: bool):
        telemetry.reset()
        if enabled:
            telemetry.enable()
        try:
            rig = build_rig()
            tenants = [
                TenantSpec(name="web", rate_rps=200_000.0, n_clients=5_000, node=0,
                           n_keys=64),
                TenantSpec(name="batch", rate_rps=100_000.0, n_clients=5_000, node=1,
                           get_ratio=0.5, n_keys=64),
            ]
            engine = TrafficEngine(rig.kernel, tenants, seed=7, batch_window_ns=500_000.0)
            report = engine.run(max_requests=10_000)
            clocks = [n.clock.now_ns for n in rig.machine.nodes.values()]
            return report.digest(), clocks, _fallbacks(telemetry.TELEMETRY.registry)
        finally:
            telemetry.disable()
            telemetry.reset()

    digest_on, clocks_on, fallbacks = run(True)
    digest_off, clocks_off, _ = run(False)
    assert (digest_on, clocks_on) == (digest_off, clocks_off)
    assert fallbacks == {}


# -- ndarray batches on the sequential branches -----------------------------------


@pytest.mark.parametrize("case", ["armed_faults", "poison", "straddle"])
@pytest.mark.parametrize("op", ["load", "store", "cached_load", "cached_store"])
def test_ndarray_fallback_matches_list(case, op):
    """An ndarray batch that falls back leaves the same state, fault log
    (down to ``repr``: no ``np.int64`` leaks into it) and error as the
    same batch passed as a list."""
    faults = FaultModel(global_ce_rate=0.3, global_ue_rate=0.1) if case == "armed_faults" else None
    ma, mb = _pair(1, faults)
    g = ma.global_base
    addrs = [g + i * LINE for i in range(16)]
    if case == "straddle":
        addrs[9] = g + GSIZE - 4
    if case == "poison":
        for m in (ma, mb):
            m.global_mem.poison(9 * LINE + 3)
    bypass = not op.startswith("cached")
    data = [bytes([i]) * 8 for i in range(len(addrs))]

    def go(m, batch):
        if op.endswith("load"):
            return m.load_many(0, batch, 8, bypass_cache=bypass)
        return m.store_many(0, batch, data, bypass_cache=bypass)

    ra = _apply(lambda: go(ma, np.array(addrs, dtype=np.int64)))
    rb = _apply(lambda: go(mb, addrs))
    assert ra == rb
    assert repr(_state(ma)) == repr(_state(mb))
    if case == "straddle" or (case == "poison" and op != "store"):
        assert ra[0] == "err"  # bypass stores clear poison instead
