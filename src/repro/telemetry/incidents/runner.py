"""Run one incident scenario end-to-end and score it.

One :func:`run_scenario` call is the whole ops loop on the simulated
clock: boot a rack, attach the health stack (detection on) or just its
windows (detection off), drive the fault-tolerant request path through
the scenario's chaos campaign on one event heap, snapshot the flight
recorder, and score the dump.  Tracing is always on — request-path
spans are part of the dump — and the global telemetry switches are
restored afterwards, so a scenario run never leaks state into the
caller's process.

The two arms differ *only* in detection wiring:

* **detection on** — stock SLO objectives plus one availability SLO per
  tenant, anomaly detectors, and the machine crash hook wired into the
  circuit breakers (fail fast on out-of-band evidence);
* **detection off** — no objectives, no detectors, no crash hook: the
  breakers see only inline evidence (failed attempts), so every fault
  costs the full retry ladder before failover.

Everything else — seeds, tenants, campaign, spec — is shared, so score
deltas between the arms measure detection, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...bench.harness import build_rig
from ...workloads.resilience import ChaosUnderLoad
from ...workloads.traffic import TrafficEngine, default_spec
from .. import TELEMETRY as _TEL
from ..health.recorder import FlightRecorder
from ..health.slo import default_objectives
from .scenarios import IncidentScenario, availability_objective
from .scoring import score_dump


@dataclass
class IncidentResult:
    """One scored scenario run (one arm)."""

    scenario: str
    detection: bool
    report: object  # ChaosLoadReport
    dump: dict
    score: dict
    chrome_trace: dict
    critical_path: str

    @property
    def journal(self) -> str:
        return self.report.journal


def run_scenario(
    scenario: IncidentScenario, detection: bool = True
) -> IncidentResult:
    """Run one arm of one scenario; deterministic per (scenario, arm)."""
    prev_enabled, prev_tracing = _TEL.enabled, _TEL.tracing
    _TEL.reset()
    _TEL.enable(tracing=True)
    try:
        rig = build_rig(n_nodes=scenario.n_nodes)
        recorder = FlightRecorder(capacity_windows=256, span_tail=256)
        if detection:
            objectives = default_objectives() + tuple(
                availability_objective(t.name, scenario.availability_target)
                for t in scenario.tenants
            )
            detectors = None  # HealthEngine default set
        else:
            objectives = ()
            detectors = []
        health = rig.kernel.attach_health(
            window_ns=scenario.window_ns,
            objectives=objectives,
            detectors=detectors,
            recorder=recorder,
        )
        engine = TrafficEngine(
            rig.kernel,
            list(scenario.tenants),
            resilience=default_spec(replica_node=scenario.replica_node),
            seed=scenario.campaign.seed,
            crash_detection=detection,
        )
        cul = ChaosUnderLoad(
            rig.kernel, engine, scenario.campaign,
            health=health, control_period_ns=scenario.window_ns,
        )
        report = cul.run(duration_ns=scenario.horizon_ns)
        # close any window still open at the horizon, then mirror the
        # final mitigation state, so the dump covers the whole run
        health.tick(rig.machine.max_time())
        cul.sync_recorder()
        arm = "on" if detection else "off"
        dump = recorder.snapshot(
            f"incident:{scenario.name}:{arm}",
            rig.machine.max_time(),
            machine=rig.machine,
            trace=_TEL.trace,
        )
        score = score_dump(
            dump, scenario.availability_target, scenario=scenario.name
        )
        chrome_trace = _TEL.trace.to_chrome_trace()
        critical_path = _TEL.trace.critical_path_summary()
        return IncidentResult(
            scenario=scenario.name,
            detection=detection,
            report=report,
            dump=dump,
            score=score,
            chrome_trace=chrome_trace,
            critical_path=critical_path,
        )
    finally:
        _TEL.reset()
        _TEL.enabled, _TEL.tracing = prev_enabled, prev_tracing
