"""Golden-latency regression tests for the data-plane fast path.

The fast path (bisect resolve + software TLB, single-line cache fast
path, zero-fault short-circuit, precomputed charge tables) must not
change a single observable: charged simulated nanoseconds, cache-stat
counters, or the seeded fault-event sequence.  These tests pin all three
against values recorded by running the *pre-optimization* data plane
over a scripted access pattern.

Bypass (non-temporal) stores charge symmetrically with bypass loads
(ISSUE 6 satellite): the interim write-flag adjustment double-counted
``writeback_line_ns`` on lines that were never cached, so the recorded
``bypass_store_*`` values — equal to their ``bypass_load_*`` twins — are
exact again and every step must match the recording bit for bit.

Regenerate (only if the latency *model* intentionally changes)::

    PYTHONPATH=src:tests python -c "from rack.test_golden_latency import _dump; _dump()"
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.rack import RackConfig, RackMachine, UncorrectableMemoryError
from repro.rack.params import FaultModel


# -- scripted access pattern -------------------------------------------------


def _run_latency_pattern(cfg: RackConfig) -> Tuple[List[Tuple[str, int, float]], Dict[str, Tuple[int, ...]]]:
    """Drive one machine through every data-plane shape.

    Returns ``(steps, stats)`` where each step is
    ``(label, node_id, charged_ns_delta)`` for the issuing node, and
    ``stats`` maps ``"node<i>"`` to the node's final cache counters
    ``(hits, misses, writebacks, invalidations, evictions)``.
    """
    m = RackMachine(cfg)
    g = m.global_base
    loc = m.local_base(0)
    steps: List[Tuple[str, int, float]] = []

    def run(label: str, node_id: int, fn) -> None:
        before = m.now(node_id)
        fn()
        steps.append((label, node_id, m.now(node_id) - before))

    # cached loads: miss, hit, line-crossing, multi-line burst
    run("load_miss_1line", 0, lambda: m.load(0, g, 8))
    run("load_hit_1line", 0, lambda: m.load(0, g, 8))
    run("load_cross_2line", 0, lambda: m.load(0, g + 60, 8))
    run("load_burst_4line", 0, lambda: m.load(0, g + 128, 256))
    run("load_unaligned_tail", 0, lambda: m.load(0, g + 129, 63))

    # cached stores: hit, partial-line miss, full-line allocate
    run("store_hit_1line", 0, lambda: m.store(0, g, b"\x11" * 8))
    run("store_partial_miss", 0, lambda: m.store(0, g + 512, b"\x22" * 8))
    run("store_full_alloc", 0, lambda: m.store(0, g + 1024, b"\x33" * 64))
    run("store_burst_alloc_4line", 0, lambda: m.store(0, g + 4096, b"\x44" * 256))

    # bypass (non-temporal) loads
    run("bypass_load_4k", 0, lambda: m.load(0, g + 8192, 4096, bypass_cache=True))
    run("bypass_load_local", 0, lambda: m.load(0, loc, 4096, bypass_cache=True))

    # atomics: global (fabric round trip) and local
    run("atomic_fa_global", 0, lambda: m.atomic_fetch_add(0, g + 16384, 1))
    run("atomic_cas_global", 0, lambda: m.atomic_cas(0, g + 16384, 1, 2))
    run("atomic_swap_local", 0, lambda: m.atomic_swap(0, loc + 64, 9))
    run("atomic_load_global", 0, lambda: m.atomic_load(0, g + 16384))
    run("atomic_store_local", 0, lambda: m.atomic_store(0, loc + 64, 3))

    # maintenance: flush dirty, flush clean, invalidate, civac, fence
    run("flush_dirty_range", 0, lambda: m.flush(0, g, 600))
    run("flush_clean_range", 0, lambda: m.flush(0, g, 600))
    run("invalidate_range", 0, lambda: m.invalidate(0, g, 600))
    run("flush_invalidate_line", 0, lambda: m.flush_invalidate(0, g + 1024, 64))
    run("fence", 0, lambda: m.fence(0))
    run("store_then_flush_all", 0, lambda: (m.store(0, g + 2048, b"\x88" * 64), m.flush_all(0)))

    # local cached accesses (no fabric charge)
    run("local_load_miss", 0, lambda: m.load(0, loc + 128, 8))
    run("local_load_hit", 0, lambda: m.load(0, loc + 128, 8))
    run("local_store_hit", 0, lambda: m.store(0, loc + 128, b"\x99" * 8))

    # bypass stores last on node 0 (recorded order; moving them would
    # shift later steps' clock bases and their float subtraction)
    run("bypass_store_4k", 0, lambda: m.store(0, g + 8192, b"\x55" * 4096, bypass_cache=True))
    run("bypass_store_1line", 0, lambda: m.store(0, g + 8192, b"\x66" * 8, bypass_cache=True))
    run("bypass_store_local", 0, lambda: m.store(0, loc, b"\x77" * 4096, bypass_cache=True))

    # second node: its own clock, global path from a different port
    run("n1_load_miss", 1, lambda: m.load(1, g, 64))
    run("n1_store_hit", 1, lambda: m.store(1, g, b"\xaa" * 8))
    run("n1_atomic_fa", 1, lambda: m.atomic_fetch_add(1, g + 16384, 1))
    run("n1_flush", 1, lambda: m.flush(1, g, 64))

    stats = {}
    for nid in (0, 1):
        s = m.nodes[nid].cache.stats
        stats[f"node{nid}"] = (s.hits, s.misses, s.writebacks, s.invalidations, s.evictions)
    return steps, stats


def _run_eviction_pattern() -> Tuple[List[Tuple[str, int, float]], Dict[str, Tuple[int, ...]]]:
    """A 4-line cache forced through clean and dirty evictions."""
    cfg = RackConfig(n_nodes=2, cache_lines=4)
    m = RackMachine(cfg)
    g = m.global_base
    steps: List[Tuple[str, int, float]] = []

    def run(label: str, fn) -> None:
        before = m.now(0)
        fn()
        steps.append((label, 0, m.now(0) - before))

    for i in range(6):  # 4 fills then 2 clean evictions
        run(f"fill_{i}", lambda i=i: m.load(0, g + i * 64, 8))
    run("dirty_all", lambda: m.store(0, g + 2 * 64, b"\xbb" * 8))
    for i in range(6, 10):  # dirty + clean victims pushed out
        run(f"evict_{i}", lambda i=i: m.load(0, g + i * 64, 8))
    s = m.nodes[0].cache.stats
    return steps, {"node0": (s.hits, s.misses, s.writebacks, s.invalidations, s.evictions)}


def _run_fault_pattern() -> List[Tuple[str, int, int, float]]:
    """Seeded fault-injecting run; returns the full FaultLog sequence.

    Uses only cached ops, atomics, and bypass *loads*, so the recorded
    event times do not depend on how bypass stores are priced.
    """
    cfg = RackConfig(
        n_nodes=2,
        faults=FaultModel(global_ce_rate=0.02, global_ue_rate=0.01, local_ce_rate=0.001),
        seed=1234,
    )
    m = RackMachine(cfg)
    g = m.global_base
    loc = m.local_base(0)
    for i in range(400):
        addr = g + (i % 97) * 64
        try:
            op = i % 4
            if op == 0:
                m.load(0, addr, 8)
            elif op == 1:
                m.store(0, addr, b"\xcd" * 8)
            elif op == 2:
                m.atomic_fetch_add(0, g + 64 * 128 + (i % 7) * 8, 1)
            else:
                m.load(0, addr, 64, bypass_cache=True)
            if i % 16 == 15:
                m.load(0, loc + (i % 31) * 64, 8)
        except UncorrectableMemoryError:
            pass
    return [
        (e.kind.value, -1 if e.addr is None else e.addr, -1 if e.node_id is None else e.node_id,
         round(e.time_ns, 3))
        for e in m.faults.log.events()
    ]


# -- golden recordings (pre-optimization data plane) -------------------------

_GOLDEN = {'dual_direct_1hop': {'stats': {'node0': (12, 8, 8, 8, 0), 'node1': (1, 1, 1, 0, 0)},
                      'steps': [('load_miss_1line', 0, 322.0),
                                ('load_hit_1line', 0, 2.0),
                                ('load_cross_2line', 0, 324.0),
                                ('load_burst_4line', 0, 336.0),
                                ('load_unaligned_tail', 0, 2.0),
                                ('store_hit_1line', 0, 2.0),
                                ('store_partial_miss', 0, 322.0),
                                ('store_full_alloc', 0, 2.0),
                                ('store_burst_alloc_4line', 0, 8.0),
                                ('bypass_load_4k', 0, 488.0),
                                ('bypass_load_local', 0, 251.2800000000002),
                                ('atomic_fa_global', 0, 450.0),
                                ('atomic_cas_global', 0, 450.0),
                                ('atomic_swap_local', 0, 20.0),
                                ('atomic_load_global', 0, 450.0),
                                ('atomic_store_local', 0, 20.0),
                                ('flush_dirty_range', 0, 326.6666666666665),
                                ('flush_clean_range', 0, 0.0),
                                ('invalidate_range', 0, 10.5),
                                ('flush_invalidate_line', 0, 323.5),
                                ('fence', 0, 8.0),
                                ('store_then_flush_all', 0, 342.66666666666697),
                                ('local_load_miss', 0, 92.0),
                                ('local_load_hit', 0, 2.0),
                                ('local_store_hit', 0, 2.0),
                                ('bypass_store_4k', 0, 488.0),
                                ('bypass_store_1line', 0, 320.0),
                                ('bypass_store_local', 0, 251.27999999999975),
                                ('n1_load_miss', 1, 322.0),
                                ('n1_store_hit', 1, 2.0),
                                ('n1_atomic_fa', 1, 450.0),
                                ('n1_flush', 1, 322.0)]},
 'eviction_4line': {'stats': {'node0': (1, 10, 1, 0, 6)},
                    'steps': [('fill_0', 0, 322.0),
                              ('fill_1', 0, 322.0),
                              ('fill_2', 0, 322.0),
                              ('fill_3', 0, 322.0),
                              ('fill_4', 0, 322.0),
                              ('fill_5', 0, 322.0),
                              ('dirty_all', 0, 2.0),
                              ('evict_6', 0, 322.0),
                              ('evict_7', 0, 322.0),
                              ('evict_8', 0, 322.0),
                              ('evict_9', 0, 322.0)]},
 'fault_sequence': [('ue', 1099511627844, 0, 322.0),
                    ('ce', 1099511628286, 0, 2506.0),
                    ('ce', 1099511632957, 0, 28418.0),
                    ('ce', 1099511628420, 0, 37448.0),
                    ('ce', 1099511636021, 0, 40502.0),
                    ('ce', 1099511631257, 0, 49758.0),
                    ('ce', 1099511632628, 0, 55320.0),
                    ('ce', 1099511630259, 0, 72098.0),
                    ('ce', 1099511632822, 0, 83314.0)],
 'pmem_pool': {'stats': {'node0': (12, 8, 8, 8, 0), 'node1': (1, 1, 1, 0, 0)},
               'steps': [('load_miss_1line', 0, 442.0),
                         ('load_hit_1line', 0, 2.0),
                         ('load_cross_2line', 0, 444.0),
                         ('load_burst_4line', 0, 472.0),
                         ('load_unaligned_tail', 0, 2.0),
                         ('store_hit_1line', 0, 2.0),
                         ('store_partial_miss', 0, 442.0),
                         ('store_full_alloc', 0, 2.0),
                         ('store_burst_alloc_4line', 0, 8.0),
                         ('bypass_load_4k', 0, 944.0),
                         ('bypass_load_local', 0, 251.2800000000002),
                         ('atomic_fa_global', 0, 450.0),
                         ('atomic_cas_global', 0, 450.0),
                         ('atomic_swap_local', 0, 20.0),
                         ('atomic_load_global', 0, 450.00000000000045),
                         ('atomic_store_local', 0, 20.0),
                         ('flush_dirty_range', 0, 452.0),
                         ('flush_clean_range', 0, 0.0),
                         ('invalidate_range', 0, 10.5),
                         ('flush_invalidate_line', 0, 443.5),
                         ('fence', 0, 8.0),
                         ('store_then_flush_all', 0, 342.66666666666697),
                         ('local_load_miss', 0, 92.0),
                         ('local_load_hit', 0, 2.0),
                         ('local_store_hit', 0, 2.0),
                         ('bypass_store_4k', 0, 944.0),
                         ('bypass_store_1line', 0, 440.0),
                         ('bypass_store_local', 0, 251.27999999999975),
                         ('n1_load_miss', 1, 442.0),
                         ('n1_store_hit', 1, 2.0),
                         ('n1_atomic_fa', 1, 450.0),
                         ('n1_flush', 1, 442.0)]},
 'single_switch': {'stats': {'node0': (12, 8, 8, 8, 0), 'node1': (1, 1, 1, 0, 0)},
                   'steps': [('load_miss_1line', 0, 432.0),
                             ('load_hit_1line', 0, 2.0),
                             ('load_cross_2line', 0, 434.0),
                             ('load_burst_4line', 0, 446.0),
                             ('load_unaligned_tail', 0, 2.0),
                             ('store_hit_1line', 0, 2.0),
                             ('store_partial_miss', 0, 432.0),
                             ('store_full_alloc', 0, 2.0),
                             ('store_burst_alloc_4line', 0, 8.0),
                             ('bypass_load_4k', 0, 598.0),
                             ('bypass_load_local', 0, 251.2800000000002),
                             ('atomic_fa_global', 0, 450.0),
                             ('atomic_cas_global', 0, 450.0),
                             ('atomic_swap_local', 0, 20.0),
                             ('atomic_load_global', 0, 450.0),
                             ('atomic_store_local', 0, 20.0),
                             ('flush_dirty_range', 0, 436.6666666666665),
                             ('flush_clean_range', 0, 0.0),
                             ('invalidate_range', 0, 10.5),
                             ('flush_invalidate_line', 0, 433.5),
                             ('fence', 0, 8.0),
                             ('store_then_flush_all', 0, 452.66666666666697),
                             ('local_load_miss', 0, 92.0),
                             ('local_load_hit', 0, 2.0),
                             ('local_store_hit', 0, 2.0),
                             ('bypass_store_4k', 0, 598.0),
                             ('bypass_store_1line', 0, 430.0),
                             ('bypass_store_local', 0, 251.27999999999975),
                             ('n1_load_miss', 1, 432.0),
                             ('n1_store_hit', 1, 2.0),
                             ('n1_atomic_fa', 1, 450.0),
                             ('n1_flush', 1, 432.0)]},
 'two_tier_2switch': {'stats': {'node0': (12, 8, 8, 8, 0), 'node1': (1, 1, 1, 0, 0)},
                      'steps': [('load_miss_1line', 0, 542.0),
                                ('load_hit_1line', 0, 2.0),
                                ('load_cross_2line', 0, 544.0),
                                ('load_burst_4line', 0, 556.0),
                                ('load_unaligned_tail', 0, 2.0),
                                ('store_hit_1line', 0, 2.0),
                                ('store_partial_miss', 0, 542.0),
                                ('store_full_alloc', 0, 2.0),
                                ('store_burst_alloc_4line', 0, 8.0),
                                ('bypass_load_4k', 0, 708.0),
                                ('bypass_load_local', 0, 251.2800000000002),
                                ('atomic_fa_global', 0, 450.0),
                                ('atomic_cas_global', 0, 450.0),
                                ('atomic_swap_local', 0, 20.0),
                                ('atomic_load_global', 0, 450.00000000000045),
                                ('atomic_store_local', 0, 20.0),
                                ('flush_dirty_range', 0, 546.666666666667),
                                ('flush_clean_range', 0, 0.0),
                                ('invalidate_range', 0, 10.5),
                                ('flush_invalidate_line', 0, 543.5),
                                ('fence', 0, 8.0),
                                ('store_then_flush_all', 0, 562.666666666667),
                                ('local_load_miss', 0, 92.0),
                                ('local_load_hit', 0, 2.0),
                                ('local_store_hit', 0, 2.0),
                                ('bypass_store_4k', 0, 708.0),
                                ('bypass_store_1line', 0, 540.0),
                                ('bypass_store_local', 0, 251.27999999999975),
                                ('n1_load_miss', 1, 542.0),
                                ('n1_store_hit', 1, 2.0),
                                ('n1_atomic_fa', 1, 450.0),
                                ('n1_flush', 1, 542.0)]}}


def _topologies():
    return {
        "dual_direct_1hop": RackConfig(n_nodes=2, topology="dual_direct"),
        "single_switch": RackConfig(n_nodes=2, topology="single_switch"),
        "two_tier_2switch": RackConfig(n_nodes=5, topology="two_tier"),
        "pmem_pool": RackConfig(n_nodes=2, global_kind="pmem"),
    }


def _dump() -> None:  # pragma: no cover - regeneration helper
    import pprint

    golden = {}
    for name, cfg in _topologies().items():
        steps, stats = _run_latency_pattern(cfg)
        golden[name] = {"steps": steps, "stats": stats}
    ev_steps, ev_stats = _run_eviction_pattern()
    golden["eviction_4line"] = {"steps": ev_steps, "stats": ev_stats}
    golden["fault_sequence"] = _run_fault_pattern()
    print("_GOLDEN = ", end="")
    pprint.pprint(golden, width=100, sort_dicts=True)


# -- tests -------------------------------------------------------------------


def _assert_steps_match(recorded, live):
    assert len(recorded) == len(live)
    for (glabel, gnode, gdelta), (label, node, delta) in zip(recorded, live):
        assert label == glabel and node == gnode
        # bit-identical to the pre-optimization data plane
        assert delta == gdelta, f"{label}: charged {delta} ns, golden {gdelta} ns"


def test_golden_latency_all_topologies():
    for name, cfg in _topologies().items():
        steps, stats = _run_latency_pattern(cfg)
        golden = _GOLDEN[name]
        _assert_steps_match(golden["steps"], steps)
        assert stats == golden["stats"], f"{name}: cache counters diverged"


def test_golden_eviction_charges():
    steps, stats = _run_eviction_pattern()
    golden = _GOLDEN["eviction_4line"]
    _assert_steps_match(golden["steps"], steps)
    assert stats == golden["stats"]


def test_bypass_store_load_charge_symmetry():
    """ISSUE 6 satellite: a non-temporal store charges exactly what the
    equivalent non-temporal load does — no writeback term for lines that
    were never cached (flush still charges write-back per dirty line)."""
    for name, cfg in _topologies().items():
        m = RackMachine(cfg)
        g = m.global_base
        for size in (8, 64, 4096):
            before = m.now(0)
            m.load(0, g, size, bypass_cache=True)
            load_ns = m.now(0) - before
            before = m.now(1)
            m.store(1, g, b"\x5a" * size, bypass_cache=True)
            store_ns = m.now(1) - before
            assert store_ns == load_ns, (name, size)
        # the golden recording pins the same equality
        steps = dict((lbl, d) for lbl, _n, d in _GOLDEN[name]["steps"])
        assert steps["bypass_store_4k"] == steps["bypass_load_4k"]


def test_golden_bulk_charges_bit_identical_to_loop():
    """ISSUE 6 tentpole invariant: every bulk op charges simulated ns
    bit-identically to the loop of single ops it replaces, on every
    recorded topology, for bypass, cached, and atomic batches."""
    for name, cfg in _topologies().items():
        ma, mb = RackMachine(cfg), RackMachine(cfg)
        g = ma.global_base
        loc = ma.local_base(0)
        addrs = [g + i * 64 for i in range(32)] + [loc + i * 64 for i in range(8)]

        ma.load_many(0, addrs, 8, bypass_cache=True)
        for a in addrs:
            mb.load(0, a, 8, bypass_cache=True)
        assert ma.now(0) == mb.now(0), (name, "bypass load")

        payload = [b"\x5a" * 8] * len(addrs)
        ma.store_many(0, addrs, payload, bypass_cache=True)
        for a in addrs:
            mb.store(0, a, b"\x5a" * 8, bypass_cache=True)
        assert ma.now(0) == mb.now(0), (name, "bypass store")

        # cached: cold pass (misses) then warm pass (fused hit loop)
        for _ in range(2):
            ma.load_many(0, addrs, 8)
            for a in addrs:
                mb.load(0, a, 8)
            assert ma.now(0) == mb.now(0), (name, "cached load")
        ma.store_many(0, addrs, payload)
        for a in addrs:
            mb.store(0, a, b"\x5a" * 8)
        assert ma.now(0) == mb.now(0), (name, "cached store")

        loc1 = ma.local_base(1)
        atomics = [g + 65536 + i * 8 for i in range(16)] + [loc1 + 8192 + i * 8 for i in range(4)]
        ma.atomic_fetch_add_many(1, atomics, 3)
        for a in atomics:
            mb.atomic_fetch_add(1, a, 3)
        assert ma.now(1) == mb.now(1), (name, "fetch_add batch")
        ma.atomic_cas_many(1, atomics, [3] * len(atomics), [7] * len(atomics))
        for a in atomics:
            mb.atomic_cas(1, a, 3, 7)
        assert ma.now(1) == mb.now(1), (name, "cas batch")


def test_seeded_fault_sequence_identical():
    """The zero-fault short-circuit must leave injecting configs untouched:
    identical event kinds, addresses, nodes, and timestamps."""
    assert _run_fault_pattern() == _GOLDEN["fault_sequence"]


def test_zero_rate_config_produces_no_events():
    cfg = RackConfig(n_nodes=2)
    m = RackMachine(cfg)
    g = m.global_base
    for i in range(100):
        m.load(0, g + i * 64, 8)
        m.store(0, g + i * 64, b"\x01" * 8)
    assert len(m.faults.log) == 0
    # the RNG stream is untouched when no fault can fire
    assert m.faults.rng.random() == type(m.faults.rng)(cfg.seed).random()


# -- observability must not perturb the data plane (ISSUE 4 satellite) -------


def test_telemetry_disabled_by_default():
    """A fresh process never pays more than the ``enabled`` attribute check."""
    from repro import telemetry

    assert not telemetry.TELEMETRY.enabled
    assert not telemetry.TELEMETRY.tracing
    # nothing above accidentally recorded while disabled
    assert not telemetry.TELEMETRY.registry.counters


def test_golden_latency_with_telemetry_enabled():
    """Recording metrics must add zero simulated time: the golden charged
    ns and cache counters hold bit for bit with telemetry (and tracing)
    on — instrumentation costs host CPU only."""
    from repro import telemetry

    telemetry.reset()
    telemetry.enable(tracing=True)
    try:
        for name, cfg in _topologies().items():
            steps, stats = _run_latency_pattern(cfg)
            golden = _GOLDEN[name]
            _assert_steps_match(golden["steps"], steps)
            assert stats == golden["stats"], f"{name}: cache counters diverged"
        # and the registry actually saw the traffic
        reg = telemetry.TELEMETRY.registry
        assert reg.counter_total("rack.machine", "cache.hit") > 0
        assert reg.counter_total("rack.machine", "cache.miss") > 0
    finally:
        telemetry.disable()
        telemetry.reset()


def test_telemetry_cache_counters_match_cache_stats():
    """Satellite fix: hit/miss accounting routed through telemetry must
    agree with the per-node ``cache.stats`` compatibility view."""
    from repro import telemetry

    telemetry.reset()
    telemetry.enable()
    try:
        cfg = RackConfig(n_nodes=2)
        steps, stats = _run_latency_pattern(cfg)
        reg = telemetry.TELEMETRY.registry
        for nid in (0, 1):
            hits, misses = stats[f"node{nid}"][0], stats[f"node{nid}"][1]
            assert reg.counter(nid, "rack.machine", "cache.hit") == hits
            assert reg.counter(nid, "rack.machine", "cache.miss") == misses
    finally:
        telemetry.disable()
        telemetry.reset()
