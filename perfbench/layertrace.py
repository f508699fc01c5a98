"""Per-layer trace of one benchmark round, taken from outside the program.

The tracer wraps the *public* entry points of each layer (the table
:data:`ENTRY_POINTS`) for the duration of a traced round and restores
the originals afterwards; nothing under ``src/`` knows it exists.  Each
wrapped call records a span: host start/end (``time.perf_counter``),
simulated start/end, and the enclosing span.  The simulated clock of a
span is the sum of every node clock, so a span's simulated duration is
the node-ns the rack charged while it was open, on any node.

Self time is a span's duration minus its children's durations, on both
clocks.  A layer's self time is the sum over its spans; whatever the
round spent outside every top-level span is *unattributed*.  By
construction the layer self times plus the unattributed remainder equal
the round (the root span) on both clocks, and :func:`aggregate` checks
that they do.

Three rules keep the attribution meaningful without wrapping private
names:

* event handlers are private closures, so ``EventCore.at`` and
  ``EventCore.every`` are wrapped to wrap each handler they schedule in
  a span attributed to the handler's module (the traffic engine's wake
  lambdas land in ``workloads.traffic``, the kernel's patrol closures
  in ``core.kernel``);
* a single-op ``RackMachine.load``/``store`` entered while a bulk span
  is innermost is the bulk plane falling back to its per-op loop: it
  marks the bulk span as a fallback and its time stays with the bulk
  span, so ``rack.machine.single`` measures only single ops that
  callers issued;
* spans are kept in memory and written out once, after the round.
"""

from __future__ import annotations

import importlib
import json
import pathlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

SINGLE = "rack.machine.single"
BULK = "rack.machine.bulk"


def _n_addrs(args, kwargs, result) -> int:  # (self, node_id, addrs, ...)
    return len(args[2])


def _n_requests(args, kwargs, result) -> int:  # (self, ctx, st, key_idx, is_get)
    return len(args[3])


def _is_none(args, kwargs, result) -> int:
    return 1 if result is None else 0


def _is_true(args, kwargs, result) -> int:
    return 1 if result else 0


#: (module, class, method, layer, extra).  ``extra(args, kwargs, result)``
#: returns the per-span count that layer metrics sum (elements, requests,
#: empty pops, dispatched events).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.workloads", "TrafficEngine", "run", "workloads.traffic", None),
    ("repro.workloads", "DataPlaneBackend", "run_batch", "workloads.traffic", _n_requests),
    ("repro.workloads", "RedisBackend", "run_batch", "workloads.traffic", _n_requests),
    ("repro.workloads", "ServerlessBackend", "run_batch", "workloads.traffic", _n_requests),
    ("repro.workloads", "ChaosUnderLoad", "run", "workloads.resilience", None),
    ("repro.core.events", "EventCore", "step", "core.events", _is_true),
    ("repro.rack", "RackMachine", "load", SINGLE, None),
    ("repro.rack", "RackMachine", "store", SINGLE, None),
    ("repro.rack", "RackMachine", "atomic_cas", SINGLE, None),
    ("repro.rack", "RackMachine", "atomic_fetch_add", SINGLE, None),
    ("repro.rack", "RackMachine", "atomic_swap", SINGLE, None),
    ("repro.rack", "RackMachine", "atomic_load", SINGLE, None),
    ("repro.rack", "RackMachine", "atomic_store", SINGLE, None),
    ("repro.rack", "RackMachine", "flush", SINGLE, None),
    ("repro.rack", "RackMachine", "invalidate", SINGLE, None),
    ("repro.rack", "RackMachine", "load_many", BULK, _n_addrs),
    ("repro.rack", "RackMachine", "store_many", BULK, _n_addrs),
    ("repro.rack", "Interconnect", "charge", "rack.interconnect", None),
    ("repro.flacdk.structures", "SpscRing", "try_push", "flacdk.structures.ring", None),
    ("repro.flacdk.structures", "SpscRing", "try_pop", "flacdk.structures.ring", _is_none),
    ("repro.core.ipc", "Connection", "send", "core.ipc", None),
    ("repro.core.ipc", "Connection", "recv", "core.ipc", None),
    ("repro.core.ipc", "BufferPool", "put", "core.ipc", None),
    ("repro.core.ipc", "BufferPool", "get", "core.ipc", None),
    ("repro.apps.redis", "MiniRedisClient", "request", "apps.redis", None),
    ("repro.apps.redis", "MiniRedisServer", "serve_pending", "apps.redis", None),
    ("repro.apps.redis", "MiniRedisServer", "execute", "apps.redis", None),
    ("repro.core.fs", "FlacFS", "read", "core.fs", None),
    ("repro.core.fs", "FlacFS", "write", "core.fs", None),
    ("repro.core.fs", "FlacFS", "fsync", "core.fs", None),
    ("repro.flacdk.reliability", "MemoryScrubber", "step", "flacdk.reliability.scrub", None),
    ("repro.flacdk.reliability", "RepairCoordinator", "repair", "flacdk.reliability.repair", None),
    ("repro.telemetry.health", "HealthEngine", "tick", "telemetry.health", None),
)

# span record fields (a list per span, mutated in place on exit)
KEY, LAYER, PARENT, H0, H1, S0, S1, EXTRA, FALLBACK, IDX = range(10)


class Tracer:
    """Span recorder for one traced round at a time."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.recording = False
        self._stack: List[list] = []
        self._clocks: tuple = ()
        self.root: Optional[Tuple[float, float, float, float]] = None

    def sim_now(self) -> float:
        t = 0.0
        for clock in self._clocks:
            t += clock.now_ns
        return t

    # -- wrapping --------------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry point; restore the originals on exit."""
        saved = []
        try:
            for module, cls_name, attr, layer, extra in ENTRY_POINTS:
                cls = getattr(importlib.import_module(module), cls_name)
                owner = next(c for c in cls.__mro__ if attr in c.__dict__)
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                key = f"{cls_name}.{attr}"
                setattr(owner, attr, self._wrap(key, layer, orig, extra))
            events = importlib.import_module("repro.core.events").EventCore
            for attr in ("at", "every"):
                orig = events.__dict__[attr]
                saved.append((events, attr, orig))
                setattr(events, attr, self._wrap_scheduler(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _wrap(self, key: str, layer: str, fn: Callable, extra: Optional[Callable]):
        tracer = self
        single = layer == SINGLE

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if single and parent is not None and parent[LAYER] == BULK:
                parent[FALLBACK] = 1
                return fn(*args, **kwargs)
            rec = [key, layer, parent[IDX] if parent is not None else -1,
                   perf_counter(), 0.0, tracer.sim_now(), 0.0, 0, 0,
                   len(tracer.spans)]
            tracer.spans.append(rec)
            stack.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[S1] = tracer.sim_now()
                rec[H1] = perf_counter()
                stack.pop()
                if extra is not None:
                    rec[EXTRA] = extra(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def _wrap_scheduler(self, schedule: Callable):
        """``EventCore.at``/``every`` with the handler wrapped in a span
        attributed to the module that defined it."""
        tracer = self

        def traced(core, when, fn, *args, **kwargs):
            module = getattr(fn, "__module__", None) or "unknown"
            if module != "repro.core.events":
                layer = module[len("repro."):] if module.startswith("repro.") else module
                fn = tracer._wrap(f"handler:{layer}", layer, fn, None)
            return schedule(core, when, fn, *args, **kwargs)

        traced.__wrapped__ = schedule
        return traced

    # -- one traced round ------------------------------------------------------

    @contextmanager
    def recording_round(self, machine) -> Iterator["Tracer"]:
        """Record spans while the body runs; the body is the root span."""
        self.spans = []
        self._stack = []
        self._clocks = tuple(node.clock for node in machine.nodes.values())
        h0, s0 = perf_counter(), self.sim_now()
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False
            self.root = (h0, perf_counter(), s0, self.sim_now())

    def write_chrome_trace(self, path: pathlib.Path) -> None:
        """Write the round's spans as Chrome ``trace_event`` JSON."""
        h0 = self.root[0]
        events = [
            {
                "name": rec[KEY], "cat": rec[LAYER], "ph": "X", "pid": 0, "tid": 0,
                "ts": (rec[H0] - h0) * 1e6, "dur": (rec[H1] - rec[H0]) * 1e6,
                "args": {"sim_ns": rec[S1] - rec[S0]},
            }
            for rec in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class LayerTotals:
    """Per-layer and per-entry-point sums over one traced round."""

    def __init__(self) -> None:
        self.host_s: Dict[str, float] = {}
        self.sim_ns: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.extra: Dict[str, int] = {}
        self.fallbacks = 0
        self.root_host_s = 0.0
        self.root_sim_ns = 0.0
        self.unattributed_host_s = 0.0
        self.unattributed_sim_ns = 0.0

    def layer_host_ms(self, layer: str) -> float:
        return self.host_s.get(layer, 0.0) * 1e3

    def layer_sim_ns(self, layer: str) -> float:
        return self.sim_ns.get(layer, 0.0)

    def count(self, *keys: str) -> int:
        return sum(self.calls.get(k, 0) for k in keys)

    def extra_sum(self, *keys: str) -> int:
        return sum(self.extra.get(k, 0) for k in keys)


def aggregate(tracer: Tracer) -> LayerTotals:
    """Self times per layer, checked to sum to the root on both clocks."""
    spans = tracer.spans
    child_h = [0.0] * len(spans)
    child_s = [0.0] * len(spans)
    top_h = top_s = 0.0
    for rec in spans:
        dh, ds = rec[H1] - rec[H0], rec[S1] - rec[S0]
        parent = rec[PARENT]
        if parent < 0:
            top_h += dh
            top_s += ds
        else:
            child_h[parent] += dh
            child_s[parent] += ds
    out = LayerTotals()
    for i, rec in enumerate(spans):
        layer, key = rec[LAYER], rec[KEY]
        out.host_s[layer] = out.host_s.get(layer, 0.0) + (rec[H1] - rec[H0]) - child_h[i]
        out.sim_ns[layer] = out.sim_ns.get(layer, 0.0) + (rec[S1] - rec[S0]) - child_s[i]
        out.calls[key] = out.calls.get(key, 0) + 1
        out.extra[key] = out.extra.get(key, 0) + rec[EXTRA]
        out.fallbacks += rec[FALLBACK]
    h0, h1, s0, s1 = tracer.root
    out.root_host_s, out.root_sim_ns = h1 - h0, s1 - s0
    out.unattributed_host_s = out.root_host_s - top_h
    out.unattributed_sim_ns = out.root_sim_ns - top_s
    for name, parts, whole in (
        ("host", sum(out.host_s.values()) + out.unattributed_host_s, out.root_host_s),
        ("simulated", sum(out.sim_ns.values()) + out.unattributed_sim_ns, out.root_sim_ns),
    ):
        if abs(parts - whole) > 1e-6 * max(1.0, abs(whole)):
            raise AssertionError(
                f"layer self times do not sum to the round on the {name} clock: "
                f"{parts!r} != {whole!r}"
            )
    if out.unattributed_host_s < -1e-6 or out.unattributed_sim_ns < -1e-3:
        raise AssertionError("top-level spans outlast the round they ran in")
    return out
