"""The benchmark's four workloads.

Each workload is a *round*: ``setup`` builds a fresh two-node rack,
boots FlacOS and prepares or loads the workload (timed as set-up);
``execute`` is the timed phase; ``finish`` checks the outputs, digests
the simulated outcome and counts what the per-layer trace needs.  The
benchmark, not the program, draws every input from the round's seed
(``numpy.random.default_rng``), so the program only ever sees generated
requests.

Why each workload exists (see README.md for the metric table):

* ``kv-openloop`` -- large open-loop batches put nearly all host time in
  the bulk data plane (``load_many``/``store_many`` and the sequential
  ``store`` fallback); the single-op path, IPC and FS stay idle.
* ``redis-ipc`` -- every request crosses the single-op substrate through
  the SPSC ring and FlacOS IPC, with 4 KiB values on the zero-copy
  buffer path and 64 B values inline; bulk plane and event heap idle.
* ``chaos-resilient`` -- the only workload with recurring patrols,
  scrub/repair, health windows, retries, hedges, breakers, failover and
  a non-zero error share; small batches, so per-batch fixed cost rules.
* ``fs-shared`` -- FlacFS writes beside reads on the same pages: page
  cache version swaps, write-back and fsync.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

import numpy as np

from repro.apps.redis import connect_over_flacos, connect_over_tcp
from repro.chaos.schedule import ChaosCampaign, event
from repro.core import FlacOS
from repro.net import TcpNetwork
from repro.rack import RackConfig, RackMachine
from repro.workloads import TenantSpec, TrafficEngine
from repro.workloads.resilience import ChaosUnderLoad, ResilientTrafficEngine, default_spec


@dataclass
class Setup:
    """A prepared round: the booted rack plus the workload's own state."""

    machine: RackMachine
    kernel: FlacOS
    rack_build_s: float
    kernel_boot_s: float
    workload_prepare_s: float = 0.0
    state: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one round produced, checked and digested."""

    ops: int
    #: requests the system dropped, failed or shed (simulated losses)
    lost: int
    #: outputs that disagree with the benchmark's shadow copy
    wrong: int
    latencies_ns: np.ndarray
    sim_duration_ns: float
    digest: str
    #: workload counts the per-layer metrics read
    counts: Dict[str, float] = field(default_factory=dict)


def boot_rack(seed: int) -> Setup:
    """The paper's two-node testbed, timed in two parts."""
    t0 = perf_counter()
    machine = RackMachine(
        RackConfig(
            n_nodes=2,
            topology="dual_direct",
            global_mem_size=1 << 26,
            local_mem_size=1 << 23,
            seed=seed,
        )
    )
    t1 = perf_counter()
    kernel = FlacOS.boot(machine)
    return Setup(machine, kernel, rack_build_s=t1 - t0, kernel_boot_s=perf_counter() - t1)


def _latency_digest(lat: np.ndarray, *extra) -> str:
    h = hashlib.sha256(np.ascontiguousarray(lat, dtype=np.float64).tobytes())
    h.update(repr(extra).encode())
    return h.hexdigest()


class Workload:
    """One benchmark workload; subclasses fill in the three phases."""

    name = ""
    #: runs with the process-wide telemetry registry enabled
    telemetry = False
    #: operations in a full round
    ops = 0
    #: distinct round seeds per run; the simulated metrics pool them
    rounds = 3

    def setup(self, seed: int, scale: float = 1.0) -> Setup:
        raise NotImplementedError

    def execute(self, s: Setup) -> None:
        raise NotImplementedError

    def finish(self, s: Setup) -> Outcome:
        raise NotImplementedError

    def accuracy_lines(self, seed: int) -> List[str]:
        return [f"model-accuracy {self.name}: no reference measurement exists "
                "for this workload; the model is unvalidated here"]


# -- kv-openloop ----------------------------------------------------------------
#
# The tenant and campaign specs below repeat those of benchmarks/bench_traffic.py
# and benchmarks/bench_resilience.py on purpose: they are this benchmark's
# inputs, and must not change when those scripts do.


def _fleet(n_clients: int) -> List[TenantSpec]:
    """The 4-tenant open-loop fleet: web/api/feed-diurnal/batch."""
    per = n_clients // 4
    return [
        TenantSpec(name="web", rate_rps=600_000.0, n_clients=per, node=0, get_ratio=0.9),
        TenantSpec(name="api", rate_rps=400_000.0, n_clients=per, node=1, get_ratio=0.7),
        TenantSpec(name="feed", rate_rps=300_000.0, n_clients=per, node=0,
                   arrival="diurnal", amplitude=0.6, period_s=0.2),
        TenantSpec(name="batch", rate_rps=200_000.0, n_clients=per, node=1, get_ratio=0.5),
    ]


def _pooled_latencies(engine) -> np.ndarray:
    return np.concatenate([lat for st in engine.tenants.values() for lat in st.latencies])


class KvOpenLoop(Workload):
    """Open loop over the default bulk data-plane backend, 1 ms windows."""

    name = "kv-openloop"
    ops = 1_000_000

    def setup(self, seed: int, scale: float = 1.0) -> Setup:
        s = boot_rack(seed)
        t0 = perf_counter()
        engine = TrafficEngine(s.kernel, _fleet(100_000), seed=seed, batch_window_ns=1e6)
        s.workload_prepare_s = perf_counter() - t0
        s.state.update(engine=engine, n=int(self.ops * scale))
        return s

    def execute(self, s: Setup) -> None:
        s.state["report"] = s.state["engine"].run(max_requests=s.state["n"])

    def finish(self, s: Setup) -> Outcome:
        engine, rep = s.state["engine"], s.state["report"]
        lat = _pooled_latencies(engine)
        wrong = 0
        # read every tenant slab back: SETs rewrite each key's preloaded
        # content, so the slab must still equal it byte for byte
        for st in engine.tenants.values():
            slab, values = st.backend_state
            size = st.spec.value_size
            addrs = [slab + k * size for k in range(st.spec.n_keys)]
            got = np.frombuffer(
                s.machine.load_many(st.spec.node, addrs, size, bypass_cache=True, concat=True),
                dtype=np.uint8,
            ).reshape(values.shape)
            wrong += int((got != values).any(axis=1).sum())
        if rep.total_admitted + rep.total_dropped != rep.total_requests or len(lat) != rep.total_admitted:
            wrong += 1
        return Outcome(
            ops=rep.total_requests,
            lost=rep.total_dropped,
            wrong=wrong,
            latencies_ns=lat,
            sim_duration_ns=rep.duration_ns,
            digest=rep.digest(),
            counts=_traffic_counts(rep),
        )


def _traffic_counts(rep) -> Dict[str, float]:
    tenants = rep.tenants.values()
    return {
        "dropped": rep.total_dropped,
        "queue_delay_ns": sum(t["queue_delay_ns"] for t in tenants),
        "retries": sum(t["retries"] for t in tenants),
        "hedges": sum(t["hedges"] for t in tenants),
        "hedge_wins": sum(t["hedge_wins"] for t in tenants),
        "failovers": sum(t["failovers"] for t in tenants),
    }


# -- chaos-resilient --------------------------------------------------------------


def _chaos_tenants() -> List[TenantSpec]:
    return [
        TenantSpec(name="web", rate_rps=200_000.0, node=0, n_keys=256,
                   get_ratio=0.9, max_backlog_ns=5e6),
        TenantSpec(name="api", rate_rps=150_000.0, node=0, n_keys=256,
                   get_ratio=0.7, max_backlog_ns=5e6),
        TenantSpec(name="batch", rate_rps=100_000.0, node=0, n_keys=256,
                   get_ratio=0.5, max_backlog_ns=5e6),
    ]


def _crash_storm(seed: int) -> ChaosCampaign:
    """Flap the primary's fabric port, storm it with CEs, crash it,
    restart it; the replica (node 1) keeps a live path throughout."""
    return ChaosCampaign(
        name="crash-storm",
        seed=seed,
        events=(
            event("link_down", at_ns=1e6, node=0),
            event("link_up", at_ns=3e6, node=0),
            event("ce_storm", at_ns=3.5e6, node=0, count=32),
            event("node_crash", at_ns=4e6, node=0),
            event("node_restart", at_ns=60e6),
        ),
    )


class ChaosResilient(Workload):
    """The crash-storm shape under the full resilience spec, with
    telemetry and the health engine on."""

    name = "chaos-resilient"
    telemetry = True
    ops = 200_000
    #: losses cluster in one crash window per round, so the error share
    #: needs more rounds than the other workloads to pool steadily
    rounds = 6
    #: every campaign event must land inside a full round
    events = 5

    def setup(self, seed: int, scale: float = 1.0) -> Setup:
        s = boot_rack(seed)
        t0 = perf_counter()
        s.kernel.attach_health()
        engine = ResilientTrafficEngine(
            s.kernel, _chaos_tenants(), resilience=default_spec(replica_node=1), seed=seed
        )
        cul = ChaosUnderLoad(s.kernel, engine, _crash_storm(seed))
        s.workload_prepare_s = perf_counter() - t0
        s.state.update(engine=engine, cul=cul, n=int(self.ops * scale), full=scale >= 1.0)
        return s

    def execute(self, s: Setup) -> None:
        s.state["report"] = s.state["cul"].run(max_requests=s.state["n"])

    def finish(self, s: Setup) -> Outcome:
        rep = s.state["report"]
        t = rep.traffic
        lat = _pooled_latencies(s.state["engine"])
        wrong = 0
        if s.state["full"] and len(rep.fired) != self.events:
            wrong += 1
        # every offered request is admitted, dropped, failed or shed
        if t.total_admitted + t.total_dropped + t.total_failed != t.total_requests:
            wrong += 1
        if len(lat) != t.total_admitted:
            wrong += 1
        counts = _traffic_counts(t)
        counts.update(
            breaker_transitions=len(rep.breaker_transitions),
            events_fired=len(rep.fired),
        )
        return Outcome(
            ops=t.total_requests,
            lost=t.total_dropped + t.total_failed,
            wrong=wrong,
            latencies_ns=lat,
            sim_duration_ns=t.duration_ns,
            digest=rep.digest,
            counts=counts,
        )


# -- redis-ipc -------------------------------------------------------------------

N_KEYS = 1_000
BIG_VALUE = 4096
SMALL_VALUE = 64
ZIPF_S = 0.99


def _zipf_keys(rng: np.random.Generator, n_keys: int, n: int) -> np.ndarray:
    """``n`` draws over ``n_keys`` keys, zipf(0.99) over a seeded ranking."""
    p = 1.0 / np.arange(1, n_keys + 1) ** ZIPF_S
    rank = rng.permutation(n_keys)
    return rank[rng.choice(n_keys, size=n, p=p / p.sum())]


class RedisIpc(Workload):
    """One closed-loop client on node 0, MiniRedis on node 1, FlacOS IPC;
    a load phase, then YCSB-A (50% GET / 50% SET, zipf over 1000 keys)."""

    name = "redis-ipc"
    ops = 4_000

    def setup(self, seed: int, scale: float = 1.0) -> Setup:
        s = boot_rack(seed)
        t0 = perf_counter()
        rng = np.random.default_rng(seed)
        big = np.zeros(N_KEYS, dtype=bool)
        big[rng.choice(N_KEYS, N_KEYS // 10, replace=False)] = True
        sizes = np.where(big, BIG_VALUE, SMALL_VALUE)
        keys = [b"user%06d" % k for k in range(N_KEYS)]
        n = int(self.ops * scale)
        key_idx = _zipf_keys(rng, N_KEYS, n).tolist()
        is_get = (rng.random(n) < 0.5).tolist()
        values = [None if g else rng.bytes(int(sizes[k])) for k, g in zip(key_idx, is_get)]
        client, _server = connect_over_flacos(
            s.kernel.ipc, s.machine.context(0), s.machine.context(1)
        )
        shadow = {}
        for k in range(N_KEYS):  # load phase
            shadow[k] = rng.bytes(int(sizes[k]))
            client.set(keys[k], shadow[k])
        s.workload_prepare_s = perf_counter() - t0
        s.state.update(client=client, keys=keys, ops=list(zip(key_idx, is_get, values)),
                       shadow=shadow, t0_ns=s.machine.max_time())
        return s

    def execute(self, s: Setup) -> None:
        st = s.state
        client, keys, shadow = st["client"], st["keys"], st["shadow"]
        clock = s.machine.nodes[0].clock
        lat = np.empty(len(st["ops"]))
        wrong = 0
        for i, (k, get, value) in enumerate(st["ops"]):
            start = clock.now_ns
            if get:
                if client.get(keys[k]) != shadow[k]:
                    wrong += 1
            else:
                client.set(keys[k], value)
                shadow[k] = value
            lat[i] = clock.now_ns - start
        st.update(lat=lat, wrong=wrong)

    def finish(self, s: Setup) -> Outcome:
        st = s.state
        sim = s.machine.max_time() - st["t0_ns"]
        return Outcome(
            ops=len(st["ops"]),
            lost=0,
            wrong=st["wrong"],
            latencies_ns=st["lat"],
            sim_duration_ns=sim,
            digest=_latency_digest(st["lat"], st["wrong"], sim),
        )

    def accuracy_lines(self, seed: int) -> List[str]:
        """E1-shaped check: FlacOS IPC vs kernel TCP against the paper."""
        low, high = 1.75, 2.4
        lines = []
        for size in (SMALL_VALUE, BIG_VALUE):
            means = {}
            for kind in ("flacos", "tcp"):
                rng = np.random.default_rng(seed)
                s = boot_rack(seed)
                c0, c1 = s.machine.context(0), s.machine.context(1)
                if kind == "flacos":
                    client, _ = connect_over_flacos(s.kernel.ipc, c0, c1)
                else:
                    client, _ = connect_over_tcp(TcpNetwork(), c0, c1)
                set_ns, get_ns = [], []
                for i in range(64):
                    key, value = b"e1:%04d" % i, rng.bytes(size)
                    set_ns.append(client.timed_request(b"SET", key, value)[1])
                    reply, ns = client.timed_request(b"GET", key)
                    if reply != value:
                        raise AssertionError(f"E1 check: GET {key!r} over {kind} returned wrong bytes")
                    get_ns.append(ns)
                means[kind] = (float(np.mean(set_ns)), float(np.mean(get_ns)))
            for j, op in enumerate(("SET", "GET")):
                ratio = means["tcp"][j] / means["flacos"][j]
                where = "inside" if low <= ratio <= high else "outside"
                lines.append(
                    f"model-accuracy redis-ipc {op}@{size}B: FlacOS {means['flacos'][j] / 1e3:.2f} us, "
                    f"TCP {means['tcp'][j] / 1e3:.2f} us, reduction {ratio:.2f}x "
                    f"({where} the paper's {low}-{high}x band)"
                )
        return lines


# -- fs-shared ------------------------------------------------------------------

N_FILES = 64
FILE_BYTES = 4 * 4096
IO_BYTES = 1024
WRITE_SHARE = 0.3
FSYNC_EVERY = 16


class FsShared(Workload):
    """FlacFS closed loop: a writer on node 0 overwrites 1 KiB at random
    offsets (30% of ops, fsync every 16 writes); a reader on node 1 reads
    1 KiB (70%); 64 four-page files written once in set-up."""

    name = "fs-shared"
    ops = 10_000

    def setup(self, seed: int, scale: float = 1.0) -> Setup:
        s = boot_rack(seed)
        t0 = perf_counter()
        rng = np.random.default_rng(seed)
        fs = s.kernel.fs
        writer, reader = s.machine.context(0), s.machine.context(1)
        shadow, wfd = [], []
        fs.mkdir(writer, "/bench")
        for f in range(N_FILES):
            data = rng.bytes(FILE_BYTES)
            fd = fs.open(writer, f"/bench/{f:03d}", create=True)
            fs.write(writer, fd, 0, data)
            wfd.append(fd)
            shadow.append(bytearray(data))
        fs.fsync(writer)
        rfd = [fs.open(reader, f"/bench/{f:03d}") for f in range(N_FILES)]
        n = int(self.ops * scale)
        writes = (rng.random(n) < WRITE_SHARE).tolist()
        files = rng.integers(0, N_FILES, n).tolist()
        offsets = (rng.integers(0, FILE_BYTES // IO_BYTES, n) * IO_BYTES).tolist()
        payloads = [rng.bytes(IO_BYTES) if w else None for w in writes]
        s.workload_prepare_s = perf_counter() - t0
        s.state.update(ops=list(zip(writes, files, offsets, payloads)), shadow=shadow,
                       wfd=wfd, rfd=rfd, t0_ns=s.machine.max_time(),
                       pc0=_page_cache_counts(fs))
        return s

    def execute(self, s: Setup) -> None:
        st = s.state
        fs, shadow, wfd, rfd = s.kernel.fs, st["shadow"], st["wfd"], st["rfd"]
        writer, reader = s.machine.context(0), s.machine.context(1)
        wclock, rclock = s.machine.nodes[0].clock, s.machine.nodes[1].clock
        lat: List[float] = []
        wrong = fsyncs = writes = 0
        for write, f, off, payload in st["ops"]:
            if write:
                start = wclock.now_ns
                fs.write(writer, wfd[f], off, payload)
                shadow[f][off:off + IO_BYTES] = payload
                lat.append(wclock.now_ns - start)
                writes += 1
                if writes % FSYNC_EVERY == 0:
                    start = wclock.now_ns
                    fs.fsync(writer)
                    lat.append(wclock.now_ns - start)
                    fsyncs += 1
            else:
                start = rclock.now_ns
                if fs.read(reader, rfd[f], off, IO_BYTES) != shadow[f][off:off + IO_BYTES]:
                    wrong += 1
                lat.append(rclock.now_ns - start)
        st.update(lat=np.array(lat), wrong=wrong, fsyncs=fsyncs)

    def finish(self, s: Setup) -> Outcome:
        st = s.state
        sim = s.machine.max_time() - st["t0_ns"]
        pc = _page_cache_counts(s.kernel.fs)
        return Outcome(
            ops=len(st["lat"]),
            lost=0,
            wrong=st["wrong"],
            latencies_ns=st["lat"],
            sim_duration_ns=sim,
            digest=_latency_digest(st["lat"], st["wrong"], sim),
            counts={k: pc[k] - st["pc0"][k] for k in pc},
        )


def _page_cache_counts(fs) -> Dict[str, int]:
    stats = fs.page_cache.stats
    return {"version_swaps": stats.version_swaps, "writebacks": stats.writebacks}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (KvOpenLoop(), RedisIpc(), ChaosResilient(), FsShared())
}
