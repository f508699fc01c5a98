"""Open-loop, multi-tenant traffic engine over the rack substrate.

The paper's evaluation drives the rack with a handful of cooperative
clients; real racks serve *fleets* — hundreds of thousands of logical
clients whose requests arrive whether or not the system keeps up.  This
module is that load: tenants declare an offered rate and a client
population (:class:`TenantSpec`), arrivals are pre-sampled in bulk
(:mod:`repro.workloads.arrivals`), and a discrete-event core
(:mod:`repro.core.events`) wakes each tenant only when arrivals are due
— so a million simulated requests cost O(batches) Python, not
O(clients x ticks).

Per tenant, every batch flows through:

1. **VNI accounting** — the tenant's traffic is tagged with its
   Slingshot-style VNI on the fabric
   (:class:`~repro.rack.interconnect.VniTable`) so the rack knows which
   tenant is driving each byte;
2. **admission control** — a batch is refused admission when the fabric
   is saturated *and* this tenant runs past its weighted fair share
   (link guard), and individual requests are shed when their queueing
   delay behind the tenant's server would exceed ``max_backlog_ns``
   (backlog bound).  Drops are counted per tenant, never silently;
3. **the request path** — admitted requests run as *one* batch through
   the bulk data plane (``load_many`` / ``store_many``), a coalesced
   MiniRedis ``MGET``/``MSET``, or one serverless invocation — the bulk
   batch APIs are what make a wake O(1) substrate calls.

Global memory fails more often than local DRAM, so faults are the
normal case and the request path has one failure semantics: a batch
whose target cannot serve (crashed node, severed link) is counted as
lost, never raised.  A tenant's :class:`ResilienceSpec` adds, each
independently:

* **deadlines** — a per-request latency budget; requests that blow it
  are counted ``timed_out`` and excluded from the served population
  (the work was still charged: the substrate did it before the overrun
  was observable, same contract as :class:`repro.core.ipc.rpc.RpcTimeout`);
* **retries** — failed batch attempts are retried on a seeded
  exponential-backoff schedule
  (:class:`~repro.core.backoff.BackoffPolicy`, deterministic jitter),
  budget-capped by a per-tenant token bucket so retry storms cannot
  amplify an outage;
* **hedging** — requests predicted to land past a p99-derived delay are
  duplicated to a replica node; first response wins, the loser is
  cancelled via :meth:`EventCore.cancel <repro.core.events.EventCore.cancel>`;
* **circuit breakers** — per (tenant, target-node) closed→open→half-open
  state machines over an error-rate window, tripped instantly by the
  machine's crash hook and by health-engine SLO burn alerts, routing
  traffic to the replica (failover) or shedding it (degraded mode)
  instead of paying the failure-detection latency on every batch.

Queueing is an explicit single-server model per (tenant, target): request
``i`` starts at ``max(arrival_i, completion_{i-1})`` and completes one
service time later.  The recurrence is computed vectorized (a running
max over ``arrival_i - svc*i``), with the drop pass applied against the
undropped queue (pessimistic admission) and latencies recomputed over
the survivors — two numpy passes, no per-request Python, and survivor
waits are bounded by construction.

Determinism: arrivals, key draws and op mixes are seeded per tenant;
the event heap breaks ties by insertion order; service costs come from
the machine's charged nanoseconds; every resilience decision is a pure
function of simulated state.  Same seed, same report —
:meth:`TrafficReport.digest` is the bit the tests pin.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.backoff import BackoffPolicy
from ..core.events import EventCore
from ..flacdk.arena import ArenaExhausted
from ..rack.interconnect import InterconnectError, check_positive
from ..rack.machine import NodeContext
from ..rack.node import NodeCrashedError
from ..telemetry import TELEMETRY as _TEL
from .arrivals import ArrivalProcess, make_process

#: exceptions that mean "the target cannot serve" (retryable/failover)
FAILURES = (NodeCrashedError, InterconnectError)


class AdmissionError(Exception):
    """A tenant could not be admitted (memory or policy)."""


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's offered load and placement.

    ``rate_rps`` is the *aggregate* offered rate over the tenant's
    ``n_clients`` logical clients (open-loop: arrivals do not wait for
    completions).  ``weight`` is the tenant's VNI fair-share weight on
    the fabric; ``max_backlog_ns`` bounds how long a request may queue
    behind the tenant's server before admission control sheds it.
    """

    name: str
    rate_rps: float
    n_clients: int = 1_000
    node: int = 0
    arrival: str = "poisson"  # "poisson" | "diurnal"
    amplitude: float = 0.5
    period_s: float = 60.0
    phase: float = 0.0
    get_ratio: float = 0.9
    n_keys: int = 1_024
    value_size: int = 64
    weight: float = 1.0
    max_backlog_ns: float = 2e6


# -- resilience policies -------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Budget-capped retry of failed batch attempts.

    ``backoff`` prices the wait between attempts (charged to the
    request path as queueing delay, never to a dead node's clock).  The
    token bucket — ``burst`` capacity, refilled ``budget_ratio`` tokens
    per offered request — bounds the *fraction* of traffic that may be
    retried, the standard guard against retry amplification.
    """

    backoff: BackoffPolicy = BackoffPolicy(
        base_ns=50_000.0, multiplier=2.0, max_attempts=3, jitter=0.5
    )
    budget_ratio: float = 0.2
    burst: int = 4_096

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget_ratio <= 1.0:
            raise ValueError(f"budget_ratio must be in [0,1], got {self.budget_ratio}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


@dataclass(frozen=True)
class HedgePolicy:
    """Tail-latency hedging: duplicate the slowest requests to a replica.

    The hedge delay is ``max(min_delay_ns, p99_ewma * multiplier)``
    where ``p99_ewma`` tracks the tenant's observed batch p99; at most
    ``max_fraction`` of a batch is hedged (worst predicted latencies
    first), so hedging cost is bounded by construction.
    """

    multiplier: float = 1.0
    min_delay_ns: float = 100_000.0
    max_fraction: float = 0.05
    #: EWMA weight of the newest batch p99
    alpha: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.max_fraction <= 1.0:
            raise ValueError(f"max_fraction must be in (0,1], got {self.max_fraction}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0,1], got {self.alpha}")


@dataclass(frozen=True)
class BreakerPolicy:
    """Error-rate circuit breaker per (tenant, target node)."""

    window: int = 8
    failure_threshold: float = 0.5
    min_volume: int = 4
    cooldown_ns: float = 5e6

    def __post_init__(self) -> None:
        if self.window < 1 or self.min_volume < 1:
            raise ValueError("window and min_volume must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0,1], got {self.failure_threshold}"
            )


@dataclass(frozen=True)
class ResilienceSpec:
    """One tenant's fault-tolerance configuration.

    Every field defaults to off; ``ResilienceSpec()`` (aka
    :data:`DISABLED`) serves each batch on the tenant's node once and
    counts a failed attempt as lost requests.
    """

    deadline_ns: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    hedge: Optional[HedgePolicy] = None
    breaker: Optional[BreakerPolicy] = None
    #: alternate node for failover and hedging (backends that keep
    #: per-node state advertise ``supports_failover = False``)
    replica_node: Optional[int] = None
    #: charged cost of *discovering* a target is unreachable (the
    #: connect-timeout analogue) before failing over or retrying
    failure_detect_ns: float = 20_000.0


#: count-losses-only spec: no deadlines, retries, hedges, or breakers
DISABLED = ResilienceSpec()


def default_spec(replica_node: Optional[int] = None) -> ResilienceSpec:
    """The everything-on spec the benchmarks and docs use."""
    return ResilienceSpec(
        retry=RetryPolicy(),
        hedge=HedgePolicy(),
        breaker=BreakerPolicy(),
        replica_node=replica_node,
    )


class CircuitBreaker:
    """Closed → open → half-open error-rate breaker for one target.

    *Closed*: outcomes feed a sliding window; once ``min_volume``
    outcomes are in and the failure rate reaches the threshold, the
    breaker opens.  *Open*: requests are refused (routed elsewhere or
    shed) until ``cooldown_ns`` elapses.  *Half-open*: exactly one
    probe batch is admitted; success closes the breaker, failure
    re-opens it for another cooldown.  :meth:`trip` force-opens on
    out-of-band evidence (node crash hook, SLO burn alert).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = ("policy", "tenant", "target", "state", "window", "opened_at_ns",
                 "opens", "_probing")

    def __init__(self, policy: BreakerPolicy, tenant: str, target: int) -> None:
        self.policy = policy
        self.tenant = tenant
        self.target = target
        self.state = self.CLOSED
        self.window: deque = deque(maxlen=policy.window)
        self.opened_at_ns = 0.0
        #: lifetime count of transitions into OPEN
        self.opens = 0
        self._probing = False

    def _line(self, prev: str, now_ns: float, reason: str) -> str:
        return (
            f"breaker tenant={self.tenant} target={self.target} "
            f"{prev}->{self.state} t={now_ns:.1f} reason={reason}"
        )

    def _open(self, now_ns: float, reason: str) -> str:
        prev = self.state
        self.state = self.OPEN
        self.opened_at_ns = now_ns
        self.opens += 1
        self.window.clear()
        self._probing = False
        return self._line(prev, now_ns, reason)

    def allow(self, now_ns: float) -> bool:
        """May a batch be routed at this target right now?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now_ns - self.opened_at_ns < self.policy.cooldown_ns:
                return False
            self.state = self.HALF_OPEN
            self._probing = False
        # half-open: admit exactly one probe until its outcome lands
        if self._probing:
            return False
        self._probing = True
        return True

    def record(self, now_ns: float, ok: bool) -> Optional[str]:
        """Feed one batch outcome; returns a transition line or None."""
        if self.state == self.HALF_OPEN:
            if ok:
                prev = self.state
                self.state = self.CLOSED
                self.window.clear()
                self._probing = False
                return self._line(prev, now_ns, "probe-ok")
            return self._open(now_ns, "probe-failed")
        if self.state == self.OPEN:
            return None
        self.window.append(ok)
        if len(self.window) >= self.policy.min_volume:
            failures = sum(1 for o in self.window if not o)
            if failures / len(self.window) >= self.policy.failure_threshold:
                return self._open(now_ns, "error-rate")
        return None

    def trip(self, now_ns: float, reason: str) -> Optional[str]:
        """Force open on external evidence; no-op when already open."""
        if self.state == self.OPEN:
            return None
        return self._open(now_ns, reason)


# -- per-tenant state ----------------------------------------------------------


@dataclass
class _TenantState:
    """Everything the engine tracks per tenant between wakes."""

    spec: TenantSpec
    vni: int
    arrivals: ArrivalProcess
    rng: np.random.Generator
    #: pre-sampled arrival timestamps not yet consumed
    queue: np.ndarray
    resilience: ResilienceSpec = DISABLED
    #: candidate targets in routing preference order (primary first)
    targets: Tuple[int, ...] = ()
    breakers: Dict[int, CircuitBreaker] = field(default_factory=dict)
    pos: int = 0
    #: single-server model of the target that served last
    busy_until_ns: float = 0.0
    #: per-target single-server model
    busy_by_node: Dict[int, float] = field(default_factory=dict)
    #: retry token bucket (unused without a retry policy)
    tokens: float = 0.0
    #: EWMA of observed batch p99 latency, feeds the hedge delay
    p99_ewma: float = 0.0
    #: per-request service estimate used for the *next* batch's queue math
    svc_est_ns: float = 1_000.0
    next_client: int = 0
    offered: int = 0
    admitted: int = 0
    dropped_backlog: int = 0
    dropped_link: int = 0
    failed: int = 0
    timed_out: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    dropped_shed: int = 0
    latency_sum_ns: float = 0.0
    #: total queueing delay suffered (latency beyond pure service time) —
    #: the victim side of the atlas's contention-blame ledger
    queue_delay_ns: float = 0.0
    latencies: List[np.ndarray] = field(default_factory=list)
    wake: Optional[object] = None
    backend_state: object = None


@dataclass
class TrafficReport:
    """What one :meth:`TrafficEngine.run` produced."""

    duration_ns: float
    events_dispatched: int
    tenants: Dict[str, dict]

    @property
    def total_requests(self) -> int:
        return sum(t["offered"] for t in self.tenants.values())

    @property
    def total_admitted(self) -> int:
        return sum(t["admitted"] for t in self.tenants.values())

    @property
    def total_dropped(self) -> int:
        return sum(t["dropped"] for t in self.tenants.values())

    @property
    def total_failed(self) -> int:
        return sum(t["failed"] + t["dropped_shed"] for t in self.tenants.values())

    @property
    def availability(self) -> float:
        """Fraction of executed-or-shed requests that got an answer.

        Admission drops (backlog/link) are policy, not failures; a
        request counts against availability only when it entered the
        request path and came back empty — terminal execution failure,
        deadline exhaustion, or breaker-degraded shedding.
        """
        served = self.total_admitted
        lost = self.total_failed
        return served / max(1, served + lost)

    def digest(self) -> str:
        """SHA-256 over every deterministic per-tenant outcome."""
        lines = []
        for name in sorted(self.tenants):
            t = self.tenants[name]
            lines.append(
                f"{name} {t['offered']} {t['admitted']} {t['dropped']} "
                f"{t['latency_sum_ns']:.3f} {t['busy_until_ns']:.3f} "
                f"{t['failed']} {t['timed_out']} {t['retries']} {t['hedges']} "
                f"{t['hedge_wins']} {t['failovers']} {t['dropped_shed']}"
            )
        lines.append(f"duration {self.duration_ns:.3f}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- backends ------------------------------------------------------------------


class DataPlaneBackend:
    """Requests are bulk loads/stores against a per-tenant memory slab.

    Each tenant gets ``n_keys * value_size`` bytes of global memory
    (its namespace); key ``k`` lives at ``slab + k*value_size``.  A
    batch becomes one ``load_many`` for the GETs and one packed
    ``store_many`` for the SETs on the vectorized bulk paths, with the
    ``int64`` address arrays passed through as they are.
    """

    #: the slab lives in *global* memory, so any live node can serve the
    #: tenant's keys — a breaker can route batches to a replica node
    supports_failover = True

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def prepare(self, st: _TenantState) -> None:
        spec = st.spec
        try:
            slab = self.kernel.arena.take(spec.n_keys * spec.value_size, align=64)
        except ArenaExhausted as exc:
            raise AdmissionError(
                f"tenant {spec.name!r}: no global memory for its namespace "
                f"({spec.n_keys}x{spec.value_size}B)"
            ) from exc
        # deterministic per-key content, preloaded so GETs always hit data
        blocks = [
            hashlib.blake2b(b"%s:%d" % (spec.name.encode(), k), digest_size=8).digest()
            for k in range(spec.n_keys)
        ]
        reps = (spec.value_size + 7) // 8
        values = np.frombuffer(
            b"".join((blk * reps)[: spec.value_size] for blk in blocks), dtype=np.uint8
        ).reshape(spec.n_keys, spec.value_size)
        ctx = self.kernel.machine.context(spec.node)
        ctx.store_many(
            [slab + k * spec.value_size for k in range(spec.n_keys)],
            values.tobytes(),
            size=spec.value_size,
            bypass_cache=True,
        )
        st.backend_state = (slab, values)

    def run_batch(
        self, ctx: NodeContext, st: _TenantState, key_idx: np.ndarray, is_get: np.ndarray
    ) -> int:
        slab, values = st.backend_state
        size = st.spec.value_size
        addrs = slab + key_idx.astype(np.int64) * size
        gets = addrs[is_get]
        sets = addrs[~is_get]
        if len(gets):
            ctx.load_many(gets, size, bypass_cache=True, concat=True)
        if len(sets):
            payload = values[key_idx[~is_get]].tobytes()
            ctx.store_many(sets, payload, size=size, bypass_cache=True)
        return len(key_idx) * size


class RedisBackend:
    """Requests hit a per-tenant MiniRedis server on the tenant's node.

    A wake's GETs coalesce into one ``MGET`` and its SETs into one
    ``MSET`` (one command dispatch each), executed through
    ``MiniRedisServer.execute_batch`` — the Redis-protocol shape of the
    same batching the data plane does with ``load_many``.
    """

    #: the MiniRedis server object is bound to the tenant node's context
    #: at prepare time — state dies with the node, so no failover
    supports_failover = False

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def prepare(self, st: _TenantState) -> None:
        from ..apps.redis import MiniRedisServer

        spec = st.spec
        server = MiniRedisServer(self.kernel.machine.context(spec.node))
        keys = [b"%s:%012d" % (spec.name.encode(), k) for k in range(spec.n_keys)]
        pad = spec.value_size
        for k, key in enumerate(keys):
            server._cmd_set(key, (key * ((pad // len(key)) + 1))[:pad])
        st.backend_state = (server, keys)

    def run_batch(
        self, ctx: NodeContext, st: _TenantState, key_idx: np.ndarray, is_get: np.ndarray
    ) -> int:
        server, keys = st.backend_state
        commands = []
        get_keys = [keys[k] for k in key_idx[is_get]]
        if get_keys:
            commands.append([b"MGET", *get_keys])
        set_keys = [keys[k] for k in key_idx[~is_get]]
        if set_keys:
            pairs = []
            for key in set_keys:
                pairs.append(key)
                pairs.append((key * ((st.spec.value_size // len(key)) + 1))[: st.spec.value_size])
            commands.append([b"MSET", *pairs])
        if commands:
            server.execute_batch(commands)
        return len(key_idx) * st.spec.value_size


class ServerlessBackend:
    """Each wake's batch triggers one serverless invocation on the
    tenant's node (a batch-triggered function), so the platform's
    startup/exec model prices the batch."""

    #: function code contexts live in the platform registry, not on the
    #: tenant's node — a replica node can invoke the same function
    supports_failover = True

    def __init__(
        self, kernel, platform, image: str, exec_ns_per_req: float = 2_000.0
    ) -> None:
        self.kernel = kernel
        self.platform = platform
        self.image = image  # must exist in the platform's registry
        self.exec_ns_per_req = exec_ns_per_req

    def prepare(self, st: _TenantState) -> None:
        from ..apps.serverless import FunctionSpec

        fn_name = f"traffic-{st.spec.name}"
        if fn_name not in self.platform.functions():
            self.platform.deploy(
                FunctionSpec(
                    name=fn_name,
                    image=self.image,
                    handler=lambda ctx, payload: payload[:8],
                    exec_ns=self.exec_ns_per_req,
                )
            )
        st.backend_state = fn_name

    def run_batch(
        self, ctx: NodeContext, st: _TenantState, key_idx: np.ndarray, is_get: np.ndarray
    ) -> int:
        fn_name = st.backend_state
        # one invocation per batch; its exec cost scales with batch size
        payload = key_idx.astype(np.uint32).tobytes()
        ctx.advance(self.exec_ns_per_req * max(0, len(key_idx) - 1))
        self.platform.invoke(ctx, fn_name, payload)
        return len(key_idx) * st.spec.value_size


# -- hedging -------------------------------------------------------------------


class _HedgeOp:
    """One in-flight hedge: a primary result racing a replica duplicate.

    Two events sit on the heap — ``primary done`` at the predicted
    primary completion and ``hedge fire`` at arrival + hedge delay.
    Whichever dispatches first resolves the op and cancels the loser
    (first response wins).  On a hedge firing, the
    duplicate batch really executes on the replica (charged, VNI
    accounted) and each request keeps the *earlier* of its two
    completions; recorded latencies are patched in place.
    """

    __slots__ = ("engine", "st", "latency_arr", "idx", "arrivals",
                 "key_idx", "is_get", "primary_latency", "fire_ns",
                 "ev_primary", "ev_hedge", "done", "parent_span")

    def __init__(self, engine, st, latency_arr, idx, arrivals,
                 key_idx, is_get, primary_latency, fire_ns,
                 parent_span=None) -> None:
        self.engine = engine
        self.st = st
        self.latency_arr = latency_arr
        self.idx = idx
        self.arrivals = arrivals
        self.key_idx = key_idx
        self.is_get = is_get
        self.primary_latency = primary_latency
        self.fire_ns = fire_ns
        self.ev_primary = None
        self.ev_hedge = None
        self.done = False
        #: span id of the batch that launched the hedge — fire() runs
        #: later from the event heap with an empty span stack, so the
        #: causal link must be carried explicitly
        self.parent_span = parent_span

    def _finish(self) -> None:
        self.done = True
        if self.ev_primary is not None:
            EventCore.cancel(self.ev_primary)
        if self.ev_hedge is not None:
            EventCore.cancel(self.ev_hedge)
        self.engine._hedge_ops.discard(self)

    def primary_wins(self) -> None:
        """Primary completed before the hedge delay elapsed."""
        if self.done:
            return
        self._finish()  # recorded latencies already hold the primary result

    def fire(self) -> None:
        """Hedge delay elapsed first: launch the replica duplicate."""
        if self.done:
            return
        self._finish()
        engine, st = self.engine, self.st
        replica = st.resilience.replica_node
        now = engine.events.now_ns
        k = len(self.idx)
        ctx = engine.machine.context(replica)
        before = ctx.now()
        sp = None
        if _TEL.tracing:
            # explicit parent: the batch span closed long ago and the
            # stack is empty at event dispatch — without the carried id
            # the hedge would orphan into its own root (the span-context
            # propagation bug this parameter fixes)
            sp = _TEL.trace.begin(
                "traffic.hedge", replica, max(before, self.fire_ns),
                parent_id=self.parent_span,
                tenant=st.spec.name, target=replica, n=k, outcome="failed",
            )
        try:
            try:
                n_bytes = engine.backend.run_batch(ctx, st, self.key_idx, self.is_get)
            except FAILURES:
                engine._breaker_outcome(st, replica, now, ok=False)
                return  # primary result stands
            if sp is not None:
                _TEL.trace.annotate(sp, outcome="ok")
        finally:
            if sp is not None:
                _TEL.trace.end(sp, ctx.now())
        charged = ctx.now() - before
        engine._breaker_outcome(st, replica, now, ok=True)
        svc = max(1.0, charged / k)
        start = max(self.fire_ns, st.busy_by_node.get(replica, 0.0))
        completion = start + svc * np.arange(1, k + 1, dtype=np.float64)
        st.busy_by_node[replica] = float(completion[-1])
        hedge_latency = completion - self.arrivals
        wins = hedge_latency < self.primary_latency
        n_wins = int(wins.sum())
        # hedge traffic rides the replica's fabric path, not the primary's
        engine.fabric.charge(st.vni, replica, n_bytes, 0, now)
        if n_wins:
            st.hedge_wins += n_wins
            won_idx = self.idx[wins]
            delta = hedge_latency[wins] - self.latency_arr[won_idx]
            self.latency_arr[won_idx] = hedge_latency[wins]
            st.latency_sum_ns += float(delta.sum())
            if _TEL.enabled:
                _TEL.tenant_add(st.spec.node, st.spec.name,
                                "resilience.hedge_wins", n_wins)


# -- the engine ----------------------------------------------------------------


class TrafficEngine:
    """Open-loop load over a booted :class:`~repro.core.kernel.FlacOS`.

    ``batch_window_ns`` is the wake cadence: a tenant's wake at time
    ``T`` serves every arrival with timestamp <= ``T``, so larger
    windows trade per-request wake precision for bigger (cheaper)
    batches.  Latency accounting always uses exact per-request arrival
    times, so the window changes *host* cost, not simulated truth.

    ``resilience`` is one :class:`ResilienceSpec` applied to every
    tenant, or a ``{tenant_name: spec}`` mapping (missing names get
    :data:`DISABLED`).  ``crash_detection`` wires the machine's crash
    hook into the breakers (fail-fast on out-of-band evidence).  Turning
    it off — the incident benchmark's detection-off arm — leaves
    mitigation with only inline evidence: breakers must *infer* a dead
    node from failed attempts, paying the error-rate window before
    failing over.
    """

    def __init__(
        self,
        kernel,
        tenants: List[TenantSpec],
        seed: int = 0,
        batch_window_ns: float = 200_000.0,
        chunk: int = 4_096,
        link_capacity_bytes_per_s: Optional[float] = None,
        backend=None,
        resilience: Union[ResilienceSpec, Dict[str, ResilienceSpec]] = DISABLED,
        crash_detection: bool = True,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        self.kernel = kernel
        self.machine = kernel.machine
        self.events = kernel.events
        self.batch_window_ns = float(batch_window_ns)
        self.chunk = int(chunk)
        self.backend = backend if backend is not None else DataPlaneBackend(kernel)
        self.fabric = self.machine.fabric
        self.vnis = self.machine.fabric.vnis
        if link_capacity_bytes_per_s is not None:
            self.vnis.capacity_bytes_per_s = check_positive(
                "link_capacity_bytes_per_s", link_capacity_bytes_per_s
            )
        self.tenants: Dict[str, _TenantState] = {}
        #: breaker transition lines in occurrence order (journal fodder)
        self.breaker_log: List[str] = []
        #: the same transitions, structured (flight-recorder fodder):
        #: dicts with tenant/target/from/to/t_ns/reason
        self.breaker_events: List[dict] = []
        self._hedge_ops: set = set()
        self._stop_at_requests: Optional[int] = None
        start_ns = self.events.now_ns
        for idx, spec in enumerate(tenants):
            if spec.node not in self.machine.nodes:
                raise AdmissionError(f"tenant {spec.name!r}: no node {spec.node}")
            if isinstance(resilience, dict):
                rspec = resilience.get(spec.name, DISABLED)
            else:
                rspec = resilience
            targets = self._targets(spec, rspec)
            vni = self.vnis.register(spec.name, weight=spec.weight)
            arrivals = make_process(
                spec.arrival,
                spec.rate_rps,
                seed=seed * 65_537 + idx,
                start_ns=start_ns,
                amplitude=spec.amplitude,
                period_s=spec.period_s,
                phase=spec.phase,
            )
            st = _TenantState(
                spec=spec,
                vni=vni,
                arrivals=arrivals,
                rng=np.random.default_rng(seed * 92_821 + idx),
                queue=np.empty(0, dtype=np.float64),
                resilience=rspec,
                targets=targets,
            )
            if rspec.breaker is not None:
                for target in targets:
                    st.breakers[target] = CircuitBreaker(rspec.breaker, spec.name, target)
            if rspec.retry is not None:
                st.tokens = float(rspec.retry.burst)
            self.backend.prepare(st)
            self.tenants[spec.name] = st
            self._arm(st)
        # the hook only trips breakers: an engine without any leaves the
        # machine's hook list (which holds it alive) alone
        if crash_detection and any(st.breakers for st in self.tenants.values()):
            self.machine.on_crash(self._on_node_crash)

    def _targets(self, spec: TenantSpec, rspec: ResilienceSpec) -> Tuple[int, ...]:
        """The tenant's routing candidates: its node, then the replica
        when the backend can serve the tenant from another node."""
        replica = rspec.replica_node
        if replica is None:
            return (spec.node,)
        if replica not in self.machine.nodes:
            raise ValueError(f"tenant {spec.name!r}: replica node {replica} not in rack")
        if replica == spec.node:
            raise ValueError(f"tenant {spec.name!r}: replica must differ from primary")
        if self.backend.supports_failover:
            return (spec.node, replica)
        return (spec.node,)

    # -- event plumbing --------------------------------------------------------

    def _refill(self, st: _TenantState) -> None:
        """Top up the tenant's pre-sampled arrival buffer."""
        fresh = st.arrivals.next_chunk(self.chunk)
        while len(fresh) == 0:  # thinning may reject a whole chunk
            fresh = st.arrivals.next_chunk(self.chunk)
        left = st.queue[st.pos:]
        st.queue = np.concatenate((left, fresh)) if len(left) else fresh
        st.pos = 0

    def _next_arrival(self, st: _TenantState) -> float:
        if st.pos >= len(st.queue):
            self._refill(st)
        return float(st.queue[st.pos])

    def _arm(self, st: _TenantState) -> None:
        """Schedule the tenant's next wake: first pending arrival plus
        one batch window (so the wake serves a whole window's worth)."""
        when = self._next_arrival(st) + self.batch_window_ns
        st.wake = self.events.at(when, lambda s=st: self._wake(s), node=st.spec.node)

    def _wake(self, st: _TenantState) -> None:
        now = self.events.now_ns
        # take every pre-sampled arrival due by now (extending the
        # buffer until it provably covers the window)
        while st.queue[len(st.queue) - 1] <= now:
            self._refill(st)
            st.queue = st.queue[st.pos:]
            st.pos = 0
        end = int(np.searchsorted(st.queue, now, side="right"))
        batch = st.queue[st.pos:end]
        st.pos = end
        if len(batch):
            self._serve(st, batch)
        self._arm(st)

    # -- breakers --------------------------------------------------------------

    def _log_breaker(self, st: _TenantState, line: Optional[str]) -> None:
        if line is None:
            return
        self.breaker_log.append(line)
        # the line format is the stable journal contract; parse it back
        # into a structured event rather than threading a second payload
        # through every transition site
        parts = line.split()
        prev, _, state = parts[3].partition("->")
        self.breaker_events.append(
            {
                "tenant": parts[1][len("tenant="):],
                "target": int(parts[2][len("target="):]),
                "from": prev,
                "to": state,
                "t_ns": float(parts[4][len("t="):]),
                "reason": parts[5][len("reason="):],
            }
        )
        if _TEL.enabled and "->open" in line:
            _TEL.tenant_add(st.spec.node, st.spec.name, "resilience.breaker_opens")

    def _breaker_outcome(
        self, st: _TenantState, target: int, now_ns: float, ok: bool
    ) -> None:
        br = st.breakers.get(target)
        if br is not None:
            self._log_breaker(st, br.record(now_ns, ok))

    def _trip(self, names, node_id: int, now_ns: float, reason: str) -> None:
        """Force open the named tenants' breakers on ``node_id``."""
        for name in names:
            st = self.tenants[name]
            br = st.breakers.get(node_id)
            if br is not None:
                self._log_breaker(st, br.trip(now_ns, reason))

    def _on_node_crash(self, node_id: int, now_ns: float) -> None:
        """Machine crash hook: fail fast — open the breaker immediately
        instead of waiting for an error-rate window to fill."""
        self._trip(self.tenants, node_id, now_ns, "node-crash")

    def feed_health_alerts(self, health) -> None:
        """Trip breakers from the health engine's active SLO burn alerts
        (the alert stream is the breaker's out-of-band evidence)."""
        for (objective, node), _alert in sorted(health.slo.active.items()):
            self._trip(sorted(self.tenants), node, self.events.now_ns, f"slo:{objective}")

    def _route(self, st: _TenantState, now_ns: float) -> Optional[int]:
        """First candidate target whose breaker admits traffic."""
        for target in st.targets:
            br = st.breakers.get(target)
            if br is None or br.allow(now_ns):
                return target
        return None

    # -- the per-batch pipeline ------------------------------------------------

    def _serve(self, st: _TenantState, arrivals: np.ndarray) -> None:
        spec = st.spec
        n = len(arrivals)
        st.offered += n
        st.next_client = (st.next_client + n) % max(1, spec.n_clients)
        tel = _TEL.enabled
        if tel:
            _TEL.tenant_add(spec.node, spec.name, "requests", n)

        # link guard: fabric saturated AND this tenant past its fair
        # share -> shed the whole batch before it touches the substrate
        # (now-aware so a long-idle fabric never sheds on a stale rate)
        now = self.events.now_ns
        if self.vnis.saturated(now) and self.vnis.over_share(st.vni, now):
            st.dropped_link += n
            self.vnis.drop(st.vni, n)
            if tel:
                _TEL.tenant_add(spec.node, spec.name, "dropped.link", n)
            return

        # backlog bound (pessimistic admission): waits computed against
        # the undropped queue; anything over the bound is shed
        svc = max(1.0, st.svc_est_ns)
        completion = self._completions(arrivals, svc, st.busy_until_ns)
        wait = completion - svc - arrivals
        keep = wait <= spec.max_backlog_ns
        n_drop = int(n - keep.sum())
        if n_drop:
            st.dropped_backlog += n_drop
            self.vnis.drop(st.vni, n_drop)
            if tel:
                _TEL.tenant_add(spec.node, spec.name, "dropped.backlog", n_drop)
            arrivals = arrivals[keep]
            n = len(arrivals)
            if n == 0:
                return

        # the admitted batch's key/op draws happen exactly once, here,
        # before any routing or retry decision
        key_idx = st.rng.integers(0, spec.n_keys, size=n)
        is_get = st.rng.random(n) < spec.get_ratio
        if not _TEL.tracing:
            self._run_admitted(st, arrivals, key_idx, is_get)
        else:
            # root of the batch's causal tree: attempts, retries, hedges
            # and data-plane spans all chain under it, so a failed
            # request walks back to the node that dropped it.  Tracing
            # reads clocks, never advances them — simulated outcomes
            # are bit-identical either way.
            now = self.events.now_ns
            sp = _TEL.trace.begin(
                "traffic.batch", spec.node, now, tenant=spec.name, n=n
            )
            try:
                self._run_admitted(st, arrivals, key_idx, is_get)
            finally:
                _TEL.trace.end(sp, max(now, st.busy_until_ns))
        if self._stop_at_requests is not None and self._total_offered() >= self._stop_at_requests:
            self._halt()

    @staticmethod
    def _completions(
        arrivals: np.ndarray, svc: float, busy_until_ns: float
    ) -> np.ndarray:
        """Single-server completion times: request ``i`` starts at
        ``max(arrival_i, completion_{i-1})``, runs ``svc`` ns."""
        k = np.arange(len(arrivals), dtype=np.float64)
        adj = arrivals - svc * k
        adj[0] = max(adj[0], busy_until_ns)
        return np.maximum.accumulate(adj) + svc * (k + 1.0)

    def _run_admitted(
        self,
        st: _TenantState,
        arrivals: np.ndarray,
        key_idx: np.ndarray,
        is_get: np.ndarray,
    ) -> None:
        """Execute one admitted batch and record its outcomes: route,
        attempt and retry, queue model, deadline, record, hedge.  Each
        stage past the first attempt is a no-op unless the tenant's
        :class:`ResilienceSpec` turns it on."""
        spec = st.resilience
        retry = spec.retry
        n = len(arrivals)
        now = self.events.now_ns
        tel = _TEL.enabled
        if retry is not None:
            st.tokens = min(float(retry.burst), st.tokens + retry.budget_ratio * n)

        # -- route + attempt loop (batch granularity: node/link failures
        #    take out the whole batch's target at once) ----------------
        target = self._route(st, now)
        if target is None:
            # degraded mode: every target's breaker is open — shed at
            # the admission path instead of queueing doomed work
            self._fail_batch(st, n, shed=True)
            return
        penalty = 0.0  # detection + backoff time the batch head absorbs
        attempt = 0
        while True:
            ctx = self.machine.context(target)
            before = ctx.now()
            try:
                n_bytes = self._traced_attempt(
                    ctx, st, key_idx, is_get, target=target, attempt=attempt
                )
                charged = ctx.now() - before
                self._breaker_outcome(st, target, now, ok=True)
                break
            except FAILURES:
                self._breaker_outcome(st, target, now, ok=False)
                penalty += spec.failure_detect_ns
                can_retry = (
                    retry is not None
                    and attempt < retry.backoff.max_attempts
                    and st.tokens >= n
                )
                next_target = self._route(st, now) if can_retry else None
                if next_target is None:
                    self._fail_batch(st, n)
                    return
                st.tokens -= n
                penalty += retry.backoff.delay_ns(attempt, st.spec.name, target)
                st.retries += n
                if tel:
                    _TEL.tenant_add(st.spec.node, st.spec.name, "resilience.retries", n)
                attempt += 1
                target = next_target

        if target != st.spec.node:
            st.failovers += n
            if tel:
                _TEL.tenant_add(st.spec.node, st.spec.name, "resilience.failovers", n)

        # -- queue model on the serving target ------------------------
        svc_actual = max(1.0, charged / n)
        st.svc_est_ns = svc_actual
        busy = st.busy_by_node.get(target, st.busy_until_ns if target == st.spec.node else 0.0)
        if penalty:
            # the server could not start before detection + backoff ended
            busy = max(busy, float(arrivals[0])) + penalty
        completion = self._completions(arrivals, svc_actual, busy)
        st.busy_by_node[target] = float(completion[-1])
        st.busy_until_ns = float(completion[-1])
        latency = completion - arrivals

        # -- deadline: overruns are charged-but-lost ------------------
        if spec.deadline_ns is not None:
            ok = latency <= spec.deadline_ns
            n_late = int(n - ok.sum())
            if n_late:
                st.timed_out += n_late
                st.failed += n_late
                self.vnis.drop(st.vni, n_late)
                if tel:
                    _TEL.tenant_add(st.spec.node, st.spec.name,
                                    "resilience.timed_out", n_late)
                    _TEL.tenant_add(st.spec.node, st.spec.name,
                                    "resilience.lost", n_late)
                arrivals = arrivals[ok]
                latency = latency[ok]
                key_idx = key_idx[ok]
                is_get = is_get[ok]
                if len(arrivals) == 0:
                    return

        self._record(st, arrivals, latency, n_bytes)

        # -- hedging: duplicate the predicted tail to the replica -----
        hedge = spec.hedge
        if hedge is None:
            return
        recorded = st.latencies[-1]
        replica = spec.replica_node
        if replica is not None and replica in st.targets and replica != target:
            self._launch_hedge(st, recorded, arrivals, key_idx, is_get, now)
        # p99 EWMA feeds the *next* batch's hedge delay
        batch_p99 = float(np.percentile(recorded, 99))
        if st.p99_ewma == 0.0:
            st.p99_ewma = batch_p99
        else:
            st.p99_ewma += hedge.alpha * (batch_p99 - st.p99_ewma)

    def _fail_batch(self, st: _TenantState, n: int, shed: bool = False) -> None:
        if shed:
            st.dropped_shed += n
        else:
            st.failed += n
        self.vnis.drop(st.vni, n)
        if _TEL.enabled:
            name = "resilience.shed" if shed else "resilience.failed"
            _TEL.tenant_add(st.spec.node, st.spec.name, name, n)
            # aggregate loss counter: the availability SLO and the
            # incident scorer read exactly one "bad" series per tenant
            _TEL.tenant_add(st.spec.node, st.spec.name, "resilience.lost", n)

    def _traced_attempt(
        self,
        ctx: NodeContext,
        st: _TenantState,
        key_idx: np.ndarray,
        is_get: np.ndarray,
        target: int,
        attempt: int,
    ) -> int:
        """One backend execution attempt, wrapped in a ``traffic.attempt``
        span when tracing is on.  The span carries the target node and
        outcome, so a trace walks a failed request back to the node (or
        severed link) that refused it.  Exceptions propagate unchanged."""
        if not _TEL.tracing:
            return self.backend.run_batch(ctx, st, key_idx, is_get)
        trace = _TEL.trace
        sp = trace.begin(
            "traffic.attempt", target, ctx.now(),
            tenant=st.spec.name, target=target, attempt=attempt, outcome="failed",
        )
        try:
            n_bytes = self.backend.run_batch(ctx, st, key_idx, is_get)
            trace.annotate(sp, outcome="ok")
            return n_bytes
        finally:
            trace.end(sp, ctx.now())

    def _record(
        self,
        st: _TenantState,
        arrivals: np.ndarray,
        latency: np.ndarray,
        n_bytes: int,
    ) -> None:
        spec = st.spec
        n = len(arrivals)
        st.admitted += n
        st.latency_sum_ns += float(np.add.accumulate(latency)[-1])
        st.latencies.append(latency)
        # charged along the actual routed path: aggregate VNI accounting
        # plus every link between the tenant's node and global memory
        self.fabric.charge(st.vni, spec.node, n_bytes, n, self.events.now_ns)
        # queueing delay = latency beyond the batch's measured service
        # time: the contention signal the atlas attributes to culprits
        wait = float(np.maximum(latency - st.svc_est_ns, 0.0).sum())
        st.queue_delay_ns += wait
        if _TEL.enabled:
            _TEL.tenant_add(spec.node, spec.name, "admitted", n)
            _TEL.tenant_add(spec.node, spec.name, "bytes", n_bytes)
            _TEL.tenant_add(spec.node, spec.name, "queue_delay_ns", wait)
            _TEL.tenant_observe_batch(spec.node, spec.name, "latency_ns", latency)
        atlas = _TEL.atlas
        if atlas is not None:
            atlas.note_queue_delay(spec.name, wait)

    def _launch_hedge(self, st, recorded, arrivals, key_idx, is_get, now) -> None:
        hedge = st.resilience.hedge
        delay = max(hedge.min_delay_ns, st.p99_ewma * hedge.multiplier)
        # only requests still queued are worth duplicating: a batch wake
        # serves a window retroactively, so predicted completions in the
        # past already "responded" and the primary wins by definition
        over = np.flatnonzero((recorded > delay) & (arrivals + recorded > now))
        if len(over) == 0:
            return
        cap = max(1, int(hedge.max_fraction * len(recorded)))
        if len(over) > cap:
            # worst predicted latencies first; stable sort keeps ties
            # in arrival order so the pick is deterministic
            order = np.argsort(recorded[over], kind="stable")[::-1]
            over = over[order[:cap]]
            over.sort()
        k = len(over)
        st.hedges += k
        if _TEL.enabled:
            _TEL.tenant_add(st.spec.node, st.spec.name, "resilience.hedges", k)
        arr_sub = arrivals[over]
        parent = None
        if _TEL.tracing:
            cur = _TEL.trace.current()
            parent = cur.span_id if cur is not None else None
        op = _HedgeOp(
            engine=self,
            st=st,
            latency_arr=recorded,
            idx=over,
            arrivals=arr_sub,
            key_idx=key_idx[over],
            is_get=is_get[over],
            primary_latency=recorded[over].copy(),
            fire_ns=max(now, float(arr_sub[0]) + delay),
            parent_span=parent,
        )
        primary_done = float(np.max(arr_sub + op.primary_latency))
        # primary scheduled first: on a tie the response already in
        # hand wins and the duplicate is never sent
        op.ev_primary = self.events.at(primary_done, op.primary_wins)
        op.ev_hedge = self.events.at(op.fire_ns, op.fire, node=st.resilience.replica_node)
        self._hedge_ops.add(op)

    def finalize(self) -> None:
        """Resolve in-flight hedges (primary stands) and cancel their
        events — call before treating a report as final."""
        for op in list(self._hedge_ops):
            op.primary_wins()

    def _total_offered(self) -> int:
        return sum(st.offered for st in self.tenants.values())

    def _halt(self) -> None:
        for st in self.tenants.values():
            if st.wake is not None:
                EventCore.cancel(st.wake)
                st.wake = None

    # -- driving ----------------------------------------------------------------

    def run(
        self,
        duration_ns: Optional[float] = None,
        max_requests: Optional[int] = None,
    ) -> TrafficReport:
        """Pump the event core until a bound is hit; returns the report.

        ``duration_ns`` bounds simulated time (from the core's current
        position); ``max_requests`` bounds total *offered* requests
        across tenants.  At least one bound is required (an open loop
        never drains on its own).
        """
        if duration_ns is None and max_requests is None:
            raise ValueError("open-loop run needs duration_ns and/or max_requests")
        start = self.events.now_ns
        started = self.events.dispatched
        deadline = start + duration_ns if duration_ns is not None else None
        self._stop_at_requests = (
            self._total_offered() + max_requests if max_requests is not None else None
        )
        try:
            while True:
                if deadline is not None and (
                    self.events.peek_ns() is None or self.events.peek_ns() > deadline
                ):
                    break
                if (
                    self._stop_at_requests is not None
                    and self._total_offered() >= self._stop_at_requests
                ):
                    break
                if not self.events.step():
                    break
        finally:
            self._stop_at_requests = None
            # keep the loop armed for a subsequent run() call
            for st in self.tenants.values():
                if st.wake is None:
                    self._arm(st)
        if deadline is not None and deadline > self.events.now_ns:
            self.events.now_ns = deadline
        return self.report(duration_ns=self.events.now_ns - start,
                           events=self.events.dispatched - started)

    def report(self, duration_ns: float = 0.0, events: int = 0) -> TrafficReport:
        tenants = {}
        for name, st in self.tenants.items():
            lat = (
                np.concatenate(st.latencies)
                if st.latencies
                else np.empty(0, dtype=np.float64)
            )
            tenants[name] = {
                "offered": st.offered,
                "admitted": st.admitted,
                "dropped": st.dropped_backlog + st.dropped_link,
                "dropped_backlog": st.dropped_backlog,
                "dropped_link": st.dropped_link,
                "failed": st.failed,
                "timed_out": st.timed_out,
                "retries": st.retries,
                "hedges": st.hedges,
                "hedge_wins": st.hedge_wins,
                "failovers": st.failovers,
                "dropped_shed": st.dropped_shed,
                "latency_sum_ns": st.latency_sum_ns,
                "queue_delay_ns": st.queue_delay_ns,
                "busy_until_ns": st.busy_until_ns,
                "p50_ns": float(np.percentile(lat, 50)) if len(lat) else 0.0,
                "p99_ns": float(np.percentile(lat, 99)) if len(lat) else 0.0,
                "vni": st.vni,
            }
        return TrafficReport(
            duration_ns=duration_ns, events_dispatched=events, tenants=tenants
        )
