"""Chaos under load: a seeded chaos campaign interleaved with open-loop
traffic on one event heap.

The fault-tolerant request path itself — deadlines, budgeted retries,
hedging, circuit breakers and failover — lives in
:mod:`repro.workloads.traffic`, in the one :class:`TrafficEngine`; this
module keeps the runner.  :class:`ChaosUnderLoad` schedules a
:class:`~repro.chaos.schedule.ChaosCampaign` beside the engine's batch
windows and journals everything: same seed, byte-identical journal and
digest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..chaos.runner import CampaignRunner, render_fault_log
from ..core.events import EventCore
from ..core.kernel import PATROL_SCRUB_BYTES
from ..telemetry import TELEMETRY as _TEL
from .traffic import TrafficEngine, TrafficReport
from .traffic import default_spec  # noqa: F401  (importable from here too)

#: the fault-tolerant request path is the traffic engine itself; the
#: old name stays importable for callers that spell it out
ResilientTrafficEngine = TrafficEngine


@dataclass
class ChaosLoadReport:
    """One chaos-under-load run: the traffic report plus the journal."""

    campaign: str
    seed: int
    traffic: TrafficReport
    fired: List[str]
    breaker_transitions: List[str]
    journal: str

    @property
    def digest(self) -> str:
        """SHA-256 of the journal — the byte-identity witness."""
        return hashlib.sha256(self.journal.encode("utf-8")).hexdigest()


class ChaosUnderLoad:
    """Interleave a seeded chaos campaign with open-loop traffic.

    Unlike :class:`~repro.chaos.runner.CampaignRunner` (which steps a
    workload callback and polls triggers between steps), this runner
    puts *everything on the kernel's one event heap*: chaos events are
    scheduled at their ``at_ns`` triggers, one recurring control event
    runs the background work (scrub patrol, health tick, breaker feed,
    recorder sync), and the traffic engine pumps the heap.  Faults
    therefore land *mid-run, between batch windows*, exactly where the
    heap ordering puts them — deterministically.  The control event is
    armed by :meth:`run` and cancelled before it returns: the runner is
    the only owner of background work during its run.

    Every chaos event must carry an ``at_ns`` trigger (access- and
    step-based triggers belong to the step-loop runner).  Same
    (campaign, engine seed) ⇒ byte-identical journal and digest.
    """

    def __init__(
        self,
        kernel,
        engine: TrafficEngine,
        campaign,
        health=None,
        control_period_ns: float = 1e6,
    ) -> None:
        for ev in campaign.events:
            if ev.at_ns is None:
                raise ValueError(
                    f"chaos-under-load needs at_ns triggers; event "
                    f"{ev.action!r} has {ev.trigger_str()!r}"
                )
        self.kernel = kernel
        self.engine = engine
        self.campaign = campaign
        self.health = health if health is not None else kernel.health
        self.control_period_ns = float(control_period_ns)
        self.events = engine.events
        # reuse the step-runner's action handlers + seeded RNG contract
        self._runner = CampaignRunner(kernel.machine, kernel, health=self.health)
        # flight-recorder sync cursors (see sync_recorder)
        self._breaker_synced = 0
        self._res_last: Dict[str, tuple] = {}

    def run(
        self,
        duration_ns: Optional[float] = None,
        max_requests: Optional[int] = None,
    ) -> ChaosLoadReport:
        rng = random.Random(self.campaign.seed)
        lines: List[str] = [
            f"chaos-under-load campaign={self.campaign.name} "
            f"seed={self.campaign.seed}"
        ]
        fired: List[str] = []
        tel_baseline = _TEL.registry.counter_baseline() if _TEL.enabled else None
        breaker_mark = len(self.engine.breaker_log)

        chaos_events = []
        for ev in self.campaign.events:
            def _fire(ev=ev) -> None:
                detail = self._runner._apply(ev, rng)
                line = f"t={self.events.now_ns:.1f} action={ev.action} {detail}"
                lines.append(line)
                fired.append(line)

            chaos_events.append(self.events.at(ev.at_ns, _fire))

        control = self.events.every(
            self.control_period_ns, lambda: self._control_tick(lines)
        )
        try:
            report = self.engine.run(
                duration_ns=duration_ns, max_requests=max_requests
            )
        finally:
            control.cancel()
            for ev in chaos_events:
                EventCore.cancel(ev)
        self.engine.finalize()
        self.sync_recorder()
        unfired = len(self.campaign.events) - len(fired)
        if unfired:
            lines.append(f"unfired={unfired}")
        breakers = self.engine.breaker_log[breaker_mark:]
        if breakers:
            lines.append("-- breaker transitions --")
            lines.extend(breakers)
        lines.append(f"traffic digest={report.digest()}")
        if tel_baseline is not None:
            lines.append(
                f"telemetry digest={_TEL.registry.delta_digest(tel_baseline)}"
            )
        lines.append("-- fault log --")
        lines.append(render_fault_log(self.kernel.machine.faults.log))
        return ChaosLoadReport(
            campaign=self.campaign.name,
            seed=self.campaign.seed,
            traffic=report,
            fired=fired,
            breaker_transitions=breakers,
            journal="\n".join(lines) + "\n",
        )

    def _control_tick(self, lines: List[str]) -> None:
        """One control period's background work, in order: a scrub
        quantum from the driver (or first live) node, a health tick
        whose transition lines go to the journal, then the breaker feed
        and the flight-recorder sync."""
        ctx = self._runner._alive_ctx()
        if ctx is not None:
            self.kernel.scrubber.step(ctx, max_bytes=PATROL_SCRUB_BYTES)
        if self.health is None:
            return
        for line in self.health.tick(self.kernel.machine.max_time()):
            lines.append(f"t={self.events.now_ns:.1f} {line}")
        self.engine.feed_health_alerts(self.health)
        self.sync_recorder()

    def sync_recorder(self) -> None:
        """Mirror the engine's mitigation state into the flight recorder.

        Pushes breaker transitions not yet recorded and a per-tenant
        resilience-counter sample whenever the counters moved since the
        last sync — so a crash dump shows *mitigation in flight*, not
        just the detection side.  Idempotent.
        """
        if self.health is None:
            return
        rec = self.health.recorder
        events = self.engine.breaker_events
        for event in events[self._breaker_synced:]:
            rec.record_breaker(event)
        self._breaker_synced = len(events)
        now = self.events.now_ns
        for name in sorted(self.engine.tenants):
            st = self.engine.tenants[name]
            sample = (
                st.offered, st.admitted, st.failed, st.timed_out,
                st.retries, st.hedges, st.hedge_wins, st.failovers,
                st.dropped_shed,
            )
            if self._res_last.get(name) == sample:
                continue
            self._res_last[name] = sample
            rec.record_resilience(
                {
                    "t_ns": now,
                    "tenant": name,
                    "offered": st.offered,
                    "admitted": st.admitted,
                    "failed": st.failed,
                    "timed_out": st.timed_out,
                    "retries": st.retries,
                    "hedges": st.hedges,
                    "hedge_wins": st.hedge_wins,
                    "failovers": st.failovers,
                    "shed": st.dropped_shed,
                }
            )
