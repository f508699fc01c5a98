"""Span-context propagation through the resilient request path.

The regression this file pins: spans opened from the event heap (hedge
duplicates) or across a retry loop must chain to their *causal* parent
— the batch or retry span that launched them — not to whatever happens
to sit on the open-span stack at dispatch time.
"""

import pytest

from repro import telemetry
from repro.bench.harness import build_rig
from repro.core.backoff import BackoffPolicy
from repro.core.ipc import IpcSystem, NameRegistry, RpcSystem
from repro.flacdk.sync import OperationLog
from repro.telemetry import TELEMETRY, STACK_PARENT, TraceBuffer
from repro.workloads import HedgePolicy, ResilienceSpec, TenantSpec, TrafficEngine

pytestmark = pytest.mark.telemetry


# module-level so the handler stays picklable (shared code contexts are
# pickled into global memory)
_FLAKY = {"failures_left": 0}


def _flaky(ctx):
    if _FLAKY["failures_left"] > 0:
        _FLAKY["failures_left"] -= 1
        raise RuntimeError("transient")
    return b"ok"


class TestExplicitParent:
    def test_explicit_parent_overrides_stack(self):
        buf = TraceBuffer()
        a = buf.begin("batch", 0, 0.0)
        buf.end(a, 10.0)
        b = buf.begin("unrelated", 0, 20.0)
        # fired later from the event heap: stack top is "unrelated", the
        # causal parent is the closed batch span
        h = buf.begin("hedge", 1, 25.0, parent_id=a.span_id)
        buf.end(h, 30.0)
        buf.end(b, 35.0)
        assert h.parent_id == a.span_id

    def test_parent_none_forces_root(self):
        buf = TraceBuffer()
        a = buf.begin("outer", 0, 0.0)
        r = buf.begin("detached", 0, 5.0, parent_id=None)
        buf.end(r, 6.0)
        buf.end(a, 10.0)
        assert r.parent_id is None

    def test_stack_parent_is_the_default(self):
        buf = TraceBuffer()
        a = buf.begin("outer", 0, 0.0)
        b = buf.begin("inner", 0, 1.0, parent_id=STACK_PARENT)
        buf.end(b, 2.0)
        buf.end(a, 3.0)
        assert b.parent_id == a.span_id

    def test_annotate_merges_and_overwrites(self):
        buf = TraceBuffer()
        s = buf.begin("op", 0, 0.0, outcome="failed", n=4)
        buf.annotate(s, outcome="ok")
        buf.end(s, 1.0)
        assert dict(s.args) == {"outcome": "ok", "n": 4}

    def test_critical_path_picks_heaviest_chain(self):
        buf = TraceBuffer()
        a = buf.begin("root", 0, 0.0)
        light = buf.begin("light", 0, 0.0)
        buf.end(light, 10.0)
        heavy = buf.begin("heavy", 0, 10.0)
        leaf = buf.begin("leaf", 0, 10.0)
        buf.end(leaf, 90.0)
        buf.end(heavy, 100.0)
        buf.end(a, 100.0)
        path = [s.name for s in buf.critical_path()]
        assert path == ["root", "heavy", "leaf"]
        summary = buf.critical_path_summary()
        assert summary.startswith("critical path: 3 spans")
        assert "heavy" in summary and "light" not in summary


def _hedging_run(seed=11, tracing=False):
    rig = build_rig(n_nodes=2)
    spec = ResilienceSpec(
        hedge=HedgePolicy(min_delay_ns=2_000.0, max_fraction=0.1),
        replica_node=1,
    )
    tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                          max_backlog_ns=1e9)]
    if tracing:
        telemetry.enable(tracing=True)
    eng = TrafficEngine(rig.kernel, tenants, resilience=spec, seed=seed)
    rep = eng.run(max_requests=30_000)
    eng.finalize()
    return eng, rep


class TestHedgeSpanPropagation:
    def test_hedge_spans_parent_to_their_batch(self):
        _, rep = _hedging_run(tracing=True)
        assert sum(t["hedges"] for t in rep.tenants.values()) > 0
        spans = TELEMETRY.trace.spans
        by_id = {s.span_id: s for s in spans}
        hedges = [s for s in spans if s.name == "traffic.hedge"]
        assert hedges, "overloaded run produced no hedge spans"
        for h in hedges:
            # the regression: a hedge fires from the event heap after
            # its batch span closed — it must still chain to the batch
            assert h.parent_id is not None
            assert by_id[h.parent_id].name == "traffic.batch"
            assert dict(h.args)["target"] == 1  # replica, not primary

    def test_hedge_outcomes_annotated(self):
        _, rep = _hedging_run(tracing=True)
        hedges = [s for s in TELEMETRY.trace.spans if s.name == "traffic.hedge"]
        outcomes = {dict(s.args)["outcome"] for s in hedges}
        assert outcomes <= {"ok", "failed"}
        assert "ok" in outcomes  # wins exist in this overloaded run

    def test_attempt_spans_nest_under_batches(self):
        _, _ = _hedging_run(tracing=True)
        spans = TELEMETRY.trace.spans
        by_id = {s.span_id: s for s in spans}
        attempts = [s for s in spans if s.name == "traffic.attempt"]
        assert attempts
        assert all(by_id[s.parent_id].name == "traffic.batch" for s in attempts)

    def test_tracing_adds_zero_simulated_time(self):
        _, plain = _hedging_run(tracing=False)
        telemetry.reset()
        telemetry.disable()
        _, traced = _hedging_run(tracing=True)
        assert plain.digest() == traced.digest()


class TestRetrySpanChain:
    @pytest.fixture
    def rpc(self, rack2):
        machine, c0, c1, arena = rack2
        log = OperationLog(arena.take(OperationLog.region_size(256)), 256).format(c0)
        registry = NameRegistry(log)
        ipc = IpcSystem(machine, arena, registry)
        rpc = RpcSystem(machine, registry, ipc.buffers)
        rpc.register(c1, "flaky", _flaky)
        return c0, rpc

    def test_attempts_chain_under_one_retry_span(self, rpc):
        c0, rpc = rpc
        telemetry.enable(tracing=True)
        _FLAKY["failures_left"] = 2
        policy = BackoffPolicy(base_ns=1_000.0, multiplier=2.0, max_attempts=4)
        assert rpc.call_with_retry(
            c0, "flaky", backoff=policy, retry_on=(RuntimeError,)
        ) == b"ok"
        spans = TELEMETRY.trace.spans
        retries = [s for s in spans if s.name == "ipc.rpc.retry"]
        calls = [s for s in spans if s.name == "ipc.rpc.call"]
        assert len(retries) == 1
        assert len(calls) == 3  # two failures + the success
        assert all(c.parent_id == retries[0].span_id for c in calls)
        assert dict(retries[0].args)["service"] == "flaky"

    def test_no_tracing_no_spans_same_result(self, rpc):
        c0, rpc = rpc
        _FLAKY["failures_left"] = 1
        policy = BackoffPolicy(base_ns=1_000.0, multiplier=2.0, max_attempts=4)
        assert rpc.call_with_retry(
            c0, "flaky", backoff=policy, retry_on=(RuntimeError,)
        ) == b"ok"
        assert not TELEMETRY.trace.spans
