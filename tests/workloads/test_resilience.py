"""The fault-tolerant request path: deadlines, retries, hedging,
circuit breakers, and failure semantics under injected faults."""

import numpy as np
import pytest

import repro.telemetry as tel
from repro.bench.harness import build_rig
from repro.telemetry.dashboard import render_resilience
from repro.workloads import (
    DISABLED,
    BreakerPolicy,
    CircuitBreaker,
    HedgePolicy,
    ResilienceSpec,
    RetryPolicy,
    TenantSpec,
    TrafficEngine,
    default_spec,
)
from repro.workloads.resilience import ResilientTrafficEngine

pytestmark = pytest.mark.resilience


def _tenants(**kw):
    base = dict(rate_rps=200_000.0, node=0, n_keys=256, max_backlog_ns=5e6)
    base.update(kw)
    return [TenantSpec(name="web", **base),
            TenantSpec(name="batch", **dict(base, rate_rps=100_000.0, get_ratio=0.5))]


class TestDisabledSpec:
    def test_disabled_run_digest_is_pinned(self):
        """The default spec serves each batch once on the tenant's node;
        its seeded report is pinned, and the old resilient-engine name is
        the one engine class."""
        assert ResilientTrafficEngine is TrafficEngine
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _tenants(), seed=7)
        rep = eng.run(max_requests=15_000)
        assert rep.digest() == (
            "650f4bfc3e729d91ea3930a6b243bf6e628cc49c0267c6a97f467ff379db6de0"
        )
        rig2 = build_rig(n_nodes=2)
        explicit = TrafficEngine(rig2.kernel, _tenants(), resilience=DISABLED, seed=7)
        assert explicit.run(max_requests=15_000).tenants == rep.tenants

    def test_faults_become_counted_losses_not_crashes(self):
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _tenants(), seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        failed = sum(t["failed"] for t in rep.tenants.values())
        assert failed > 0  # open-loop arrivals kept coming and were lost
        assert rep.availability < 1.0


class TestCircuitBreaker:
    def test_closed_to_open_on_error_rate(self):
        br = CircuitBreaker(BreakerPolicy(window=4, min_volume=4,
                                          failure_threshold=0.5), "t", 0)
        for _ in range(2):
            assert br.record(0.0, ok=True) is None
        assert br.record(0.0, ok=False) is None
        line = br.record(0.0, ok=False)  # 2/4 failures -> threshold
        assert line is not None and "closed->open" in line
        assert not br.allow(1.0)

    def test_cooldown_then_half_open_probe(self):
        pol = BreakerPolicy(window=4, min_volume=2, failure_threshold=0.5,
                            cooldown_ns=1_000.0)
        br = CircuitBreaker(pol, "t", 0)
        br.record(0.0, ok=False)
        assert "closed->open" in br.record(0.0, ok=False)
        assert not br.allow(500.0)          # cooling down
        assert br.allow(1_500.0)            # one probe admitted
        assert not br.allow(1_500.0)        # second concurrent probe refused
        assert "half-open->closed" in br.record(1_600.0, ok=True)
        assert br.allow(1_700.0)

    def test_failed_probe_reopens(self):
        pol = BreakerPolicy(window=4, min_volume=2, failure_threshold=0.5,
                            cooldown_ns=1_000.0)
        br = CircuitBreaker(pol, "t", 0)
        br.record(0.0, ok=False)
        br.record(0.0, ok=False)
        assert br.allow(1_500.0)
        assert "half-open->open" in br.record(1_600.0, ok=False)
        assert not br.allow(1_700.0)
        assert br.opens == 2

    def test_trip_forces_open(self):
        br = CircuitBreaker(BreakerPolicy(), "t", 0)
        line = br.trip(42.0, "node-crash")
        assert "closed->open" in line and "node-crash" in line
        assert br.trip(43.0, "again") is None  # already open


class TestFailover:
    def test_crash_fails_over_to_replica_and_survives(self):
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(
            rig.kernel, _tenants(), resilience=default_spec(replica_node=1),
            seed=7,
        )
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=10_000)
        failovers = sum(t["failovers"] for t in rep.tenants.values())
        failed = sum(t["failed"] for t in rep.tenants.values())
        assert failovers > 0
        assert rep.availability >= 0.99
        assert failed < failovers
        # the crash hook tripped the primary's breakers immediately
        assert any("node-crash" in line for line in eng.breaker_log)

    def test_degraded_mode_sheds_when_no_target_routable(self):
        rig = build_rig(n_nodes=2)
        spec = ResilienceSpec(breaker=BreakerPolicy(cooldown_ns=1e15),
                              retry=RetryPolicy())  # no replica
        eng = TrafficEngine(rig.kernel, _tenants(), resilience=spec, seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        shed = sum(t["dropped_shed"] for t in rep.tenants.values())
        assert shed > 0  # breaker opened, everything sheds at admission

    def test_retry_tokens_bound_amplification(self):
        rig = build_rig(n_nodes=2)
        spec = ResilienceSpec(retry=RetryPolicy(burst=64, budget_ratio=0.0))
        eng = TrafficEngine(rig.kernel, _tenants(), resilience=spec, seed=7)
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        retries = sum(t["retries"] for t in rep.tenants.values())
        assert retries <= 2 * 64  # per-tenant bucket never refills at ratio 0


class TestDeadlines:
    def test_overruns_counted_and_excluded(self):
        rig = build_rig(n_nodes=2)
        # deadline far below queueing delay under overload
        spec = ResilienceSpec(deadline_ns=500.0)
        tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                              max_backlog_ns=1e9)]
        eng = TrafficEngine(rig.kernel, tenants, resilience=spec, seed=7)
        rep = eng.run(max_requests=20_000)
        t = rep.tenants["web"]
        assert t["timed_out"] > 0
        assert t["failed"] >= t["timed_out"]
        if t["admitted"]:
            lat = np.concatenate(eng.tenants["web"].latencies)
            assert lat.max() <= 500.0  # survivors all inside the budget


class TestHedging:
    def _spec(self):
        return ResilienceSpec(
            hedge=HedgePolicy(min_delay_ns=2_000.0, max_fraction=0.1),
            replica_node=1,
        )

    def _overloaded(self, seed=11):
        rig = build_rig(n_nodes=2)
        tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                              max_backlog_ns=1e9)]
        eng = TrafficEngine(rig.kernel, tenants, resilience=self._spec(), seed=seed)
        rep = eng.run(max_requests=30_000)
        eng.finalize()
        return eng, rep

    def test_tail_requests_hedge_and_win(self):
        eng, rep = self._overloaded()
        t = rep.tenants["web"]
        assert t["hedges"] > 0
        assert t["hedge_wins"] > 0
        assert t["hedge_wins"] <= t["hedges"]
        # hedged fraction respects the cap (per batch, so aggregate holds)
        assert t["hedges"] <= 0.1 * t["admitted"] + 64

    def test_hedging_is_deterministic(self):
        _, a = self._overloaded()
        _, b = self._overloaded()
        assert a.digest() == b.digest()

    def test_hedging_improves_recorded_tail(self):
        eng, rep = self._overloaded()
        rig2 = build_rig(n_nodes=2)
        tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                              max_backlog_ns=1e9)]
        base = TrafficEngine(rig2.kernel, tenants, resilience=DISABLED, seed=11)
        rep_base = base.run(max_requests=30_000)
        assert rep.tenants["web"]["latency_sum_ns"] < rep_base.tenants["web"]["latency_sum_ns"]


class TestTelemetry:
    def test_resilience_counters_and_zero_sim_ns_impact(self):
        def run():
            rig = build_rig(n_nodes=2)
            eng = TrafficEngine(
                rig.kernel, _tenants(), resilience=default_spec(replica_node=1),
                seed=7,
            )
            eng.run(max_requests=2_000)
            rig.machine.crash_node(0)
            rep = eng.run(max_requests=8_000)
            eng.finalize()
            return rep

        r_off = run()
        tel.enable()
        tel.reset()
        try:
            r_on = run()
            reg = tel.TELEMETRY.registry
            assert reg.counter_total("traffic/web", "resilience.failovers") > 0
            assert reg.counter_total("traffic/web", "resilience.breaker_opens") > 0
            panel = render_resilience(reg)
            assert "per-tenant resilience" in panel
            assert "web" in panel
        finally:
            tel.reset()
            tel.disable()
        # telemetry must not move simulated time: identical digests
        assert r_off.digest() == r_on.digest()


class TestValidation:
    def test_replica_must_exist(self):
        rig = build_rig(n_nodes=2)
        with pytest.raises(ValueError):
            TrafficEngine(
                rig.kernel, _tenants(),
                resilience=ResilienceSpec(replica_node=9), seed=1,
            )

    def test_replica_must_differ_from_primary(self):
        rig = build_rig(n_nodes=2)
        with pytest.raises(ValueError):
            TrafficEngine(
                rig.kernel, _tenants(),
                resilience=ResilienceSpec(replica_node=0), seed=1,
            )

    def test_per_tenant_spec_mapping(self):
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(
            rig.kernel, _tenants(),
            resilience={"web": default_spec(replica_node=1)}, seed=7,
        )
        eng.run(max_requests=2_000)
        rig.machine.crash_node(0)
        rep = eng.run(max_requests=8_000)
        assert rep.tenants["web"]["failovers"] > 0      # spec applied
        assert rep.tenants["batch"]["failed"] > 0       # DISABLED fallback
