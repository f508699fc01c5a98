"""Chaos-under-load campaigns: seeded faults interleaved with open-loop
traffic on one event heap, journals byte-identical per seed."""

from types import SimpleNamespace

import pytest

import repro.telemetry as tel
from repro.bench.harness import build_rig
from repro.chaos.schedule import ChaosCampaign, event
from repro.telemetry.health import FlightRecorder
from repro.workloads import (
    DISABLED,
    ChaosUnderLoad,
    HedgePolicy,
    ResilienceSpec,
    TenantSpec,
    TrafficEngine,
    default_spec,
)

pytestmark = pytest.mark.resilience


def _tenants():
    return [TenantSpec(name="web", rate_rps=200_000.0, node=0, n_keys=256,
                       max_backlog_ns=5e6),
            TenantSpec(name="batch", rate_rps=100_000.0, node=0, n_keys=256,
                       get_ratio=0.5, max_backlog_ns=5e6)]


def _crash_campaign(seed=3):
    # flap the primary's fabric port, then kill the node outright; the
    # replica (node 1) keeps a live path, so survivors exist throughout
    return ChaosCampaign(
        name="crash-storm",
        seed=seed,
        events=(
            event("link_down", at_ns=1e6, node=0),
            event("link_up", at_ns=3e6, node=0),
            event("node_crash", at_ns=4e6, node=0),
            event("node_restart", at_ns=40e6),
        ),
    )


def _run(spec, seed=7, max_requests=40_000, campaign=None, health=False):
    rig = build_rig(n_nodes=2)
    if health:
        rig.kernel.attach_health()
    eng = TrafficEngine(rig.kernel, _tenants(), resilience=spec, seed=seed)
    cul = ChaosUnderLoad(rig.kernel, eng, campaign or _crash_campaign())
    return cul.run(max_requests=max_requests)


class TestByteIdentity:
    def test_same_seed_byte_identical_journal_and_digest(self):
        a = _run(default_spec(replica_node=1))
        b = _run(default_spec(replica_node=1))
        assert a.journal == b.journal
        assert a.digest == b.digest
        assert a.traffic.digest() == b.traffic.digest()

    def test_different_engine_seed_different_journal(self):
        a = _run(default_spec(replica_node=1), seed=7)
        b = _run(default_spec(replica_node=1), seed=8)
        assert a.journal != b.journal

    def test_telemetry_does_not_change_simulated_outcomes(self):
        a = _run(default_spec(replica_node=1))
        tel.enable()
        tel.reset()
        try:
            b = _run(default_spec(replica_node=1))
        finally:
            tel.reset()
            tel.disable()
        # journals differ (telemetry digest line) but the simulation
        # must not: traffic digests are bit-identical
        assert a.traffic.digest() == b.traffic.digest()


class TestCampaignMechanics:
    def test_chaos_lands_mid_run_between_batches(self):
        rep = _run(default_spec(replica_node=1))
        assert any("node_crash" in line for line in rep.fired)
        assert any("link_down" in line for line in rep.fired)
        # faults really happened: the log renders them in the journal
        assert "-- fault log --" in rep.journal
        assert "NODE_CRASH" in rep.journal or "node_crash" in rep.journal

    def test_breaker_transitions_journaled(self):
        rep = _run(default_spec(replica_node=1))
        assert rep.breaker_transitions
        assert "-- breaker transitions --" in rep.journal
        # the link flap filled the error window before the crash hook
        # could trip anything: error-rate opens come first
        assert any("->open" in line and "error-rate" in line
                   for line in rep.breaker_transitions)

    def test_resilience_on_survives_where_off_loses(self):
        on = _run(default_spec(replica_node=1))
        off = _run(DISABLED)
        assert on.traffic.availability >= 0.99
        assert off.traffic.availability < on.traffic.availability
        assert off.traffic.total_failed > 0

    def test_unfired_events_counted(self):
        camp = ChaosCampaign(name="late", seed=1, events=(
            event("node_crash", at_ns=1e15, node=0),
        ))
        rep = _run(default_spec(replica_node=1), campaign=camp)
        assert "unfired=1" in rep.journal

    def test_requires_at_ns_triggers(self):
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _tenants(), seed=1)
        camp = ChaosCampaign(name="step", seed=1, events=(
            event("node_crash", at_step=3, node=0),
        ))
        with pytest.raises(ValueError):
            ChaosUnderLoad(rig.kernel, eng, camp)

    def test_works_with_base_engine_too(self):
        """The runner composes with an engine on the default spec (no
        retries, hedges or breakers): a campaign with only link flaps on
        a non-tenant node runs to completion and journals
        deterministically."""
        camp = ChaosCampaign(name="flap", seed=5, events=(
            event("link_down", at_ns=2e6, node=1),
            event("link_up", at_ns=4e6, node=1),
        ))

        def run():
            rig = build_rig(n_nodes=2)
            eng = TrafficEngine(rig.kernel, _tenants(), seed=7)
            return ChaosUnderLoad(rig.kernel, eng, camp).run(max_requests=20_000)

        a, b = run(), run()
        assert a.journal == b.journal

    def test_health_ticks_ride_the_shared_heap(self):
        rep = _run(default_spec(replica_node=1), health=True)
        rep2 = _run(default_spec(replica_node=1), health=True)
        assert rep.journal == rep2.journal

    def test_patrols_cleaned_up_after_run(self):
        """The runner owns its background work only while it runs:
        pumping the heap afterwards scrubs nothing more."""
        rig, calls = _scrub_rig()
        eng = TrafficEngine(rig.kernel, _node1_tenants(), seed=7)
        ChaosUnderLoad(rig.kernel, eng, _late_campaign()).run(duration_ns=3e6)
        assert len(calls) == 3
        rig.kernel.events.run_until(rig.kernel.events.now_ns + 10e6)
        assert len(calls) == 3


def _node1_tenants():
    # node 1 carries the load, so crashing node 0 leaves traffic flowing
    return [TenantSpec(name="web", rate_rps=100_000.0, node=1, n_keys=64)]


def _late_campaign():
    return ChaosCampaign(name="late", seed=1, events=(
        event("node_crash", at_ns=1e15, node=0),
    ))


def _scrub_rig():
    """A rig whose scrubber logs ``(heap time, driving node)`` per step."""
    rig = build_rig(n_nodes=2)
    calls = []
    step = rig.kernel.scrubber.step

    def logged(ctx, max_bytes=None):
        calls.append((rig.kernel.events.now_ns, ctx.node_id))
        return step(ctx, max_bytes=max_bytes)

    rig.kernel.scrubber.step = logged
    return rig, calls


class _LineHealth:
    """A health engine stand-in that reports one line per tick and
    holds the given SLO alerts (none by default) active throughout."""

    def __init__(self, alerts=None):
        self.recorder = FlightRecorder()
        self.slo = SimpleNamespace(active=dict(alerts or {}))
        self.ticks = 0

    def tick(self, now_ns):
        self.ticks += 1
        return [f"health tick={self.ticks}"]


class TestControlEvent:
    """One recurring control event carries the background work that the
    kernel's heap patrols used to: scrub, health tick, breaker feed."""

    def test_scrub_runs_once_per_control_period(self):
        rig, calls = _scrub_rig()
        eng = TrafficEngine(rig.kernel, _node1_tenants(), seed=7)
        start = rig.kernel.events.now_ns
        ChaosUnderLoad(rig.kernel, eng, _late_campaign(),
                       control_period_ns=1e6).run(duration_ns=5e6)
        assert [t for t, _ in calls] == [start + k * 1e6 for k in range(1, 6)]
        assert {node for _, node in calls} == {0}

    def test_node1_drives_scrub_after_node0_crash(self):
        rig, calls = _scrub_rig()
        eng = TrafficEngine(rig.kernel, _node1_tenants(), seed=7)
        camp = ChaosCampaign(name="kill0", seed=1, events=(
            event("node_crash", at_ns=2.5e6, node=0),
        ))
        ChaosUnderLoad(rig.kernel, eng, camp).run(duration_ns=5e6)  # no raise
        assert [node for _, node in calls] == [0, 0, 1, 1, 1]

    def test_health_lines_reach_the_journal(self):
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _node1_tenants(), seed=7)
        health = _LineHealth()
        rep = ChaosUnderLoad(rig.kernel, eng, _late_campaign(),
                             health=health).run(duration_ns=3e6)
        assert health.ticks == 3
        for k in range(1, 4):
            assert f"t={k * 1e6:.1f} health tick={k}\n" in rep.journal

    def test_active_slo_alerts_trip_breakers(self):
        """The control event feeds active SLO alerts to the engine's
        breakers: an alert on node 0 opens the primary's breaker at the
        first tick, and traffic fails over to the replica."""
        rig = build_rig(n_nodes=2)
        eng = TrafficEngine(rig.kernel, _tenants(),
                            resilience=default_spec(replica_node=1), seed=7)
        health = _LineHealth(alerts={("availability", 0): object()})
        rep = ChaosUnderLoad(rig.kernel, eng, _late_campaign(),
                             health=health).run(duration_ns=3e6)
        assert sorted(rep.breaker_transitions) == [
            f"breaker tenant={name} target=0 closed->open t={1e6:.1f} "
            "reason=slo:availability"
            for name in ("batch", "web")
        ]
        assert rep.traffic.tenants["web"]["failovers"] > 0

    def test_in_flight_hedges_resolved_when_run_returns(self):
        """``run()`` resolves hedges still racing at its bound (the
        primary result stands), so none outlives the run."""
        rig = build_rig(n_nodes=2)
        tenants = [TenantSpec(name="web", rate_rps=5e6, node=0, n_keys=256,
                              max_backlog_ns=1e9)]
        spec = ResilienceSpec(
            hedge=HedgePolicy(min_delay_ns=2_000.0, max_fraction=0.1),
            replica_node=1,
        )
        eng = TrafficEngine(rig.kernel, tenants, resilience=spec, seed=11)
        rep = ChaosUnderLoad(rig.kernel, eng, _late_campaign()).run(max_requests=30_000)
        assert rep.traffic.tenants["web"]["hedges"] > 0
        assert not eng._hedge_ops
