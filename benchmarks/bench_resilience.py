"""Resilience benchmark — availability under a seeded crash storm.

Drives the fault-tolerant request path (:mod:`repro.workloads.resilience`)
through a :class:`ChaosUnderLoad` campaign — link flaps and a node crash
interleaved with open-loop multi-tenant traffic on one event heap — and
measures availability with the resilience spec on (deadlines, retries,
hedging, breakers, failover) versus off (faults become counted losses).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_resilience.py            # full run
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke    # CI gate

A full run writes ``BENCH_resilience.json`` at the repo root (override
with ``--json``); smoke runs only write when ``--json`` is given.  The
gate (both modes) requires: two same-seed chaos runs byte-identical
journal-for-journal; resilience-on availability at or above
``MIN_AVAILABILITY_ON``; and resilience-off showing measurable loss
below the on-path (exit 1 otherwise).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List

if __name__ == "__main__" and __package__ is None:  # allow running from a checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.harness import build_rig
from repro.chaos.schedule import ChaosCampaign, event
from repro.workloads import (
    DISABLED,
    ChaosUnderLoad,
    TenantSpec,
    TrafficEngine,
    default_spec,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_resilience.json"

SCHEMA_VERSION = 1

#: Gate: with the full resilience spec, availability under the crash
#: storm must not dip below this.
MIN_AVAILABILITY_ON = 0.99


def _tenants() -> List[TenantSpec]:
    return [
        TenantSpec(name="web", rate_rps=200_000.0, node=0, n_keys=256,
                   get_ratio=0.9, max_backlog_ns=5e6),
        TenantSpec(name="api", rate_rps=150_000.0, node=0, n_keys=256,
                   get_ratio=0.7, max_backlog_ns=5e6),
        TenantSpec(name="batch", rate_rps=100_000.0, node=0, n_keys=256,
                   get_ratio=0.5, max_backlog_ns=5e6),
    ]


def _campaign(seed: int) -> ChaosCampaign:
    """Flap the primary's fabric port, then crash it outright; the
    replica (node 1) keeps a live path throughout."""
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


def bench_chaos(spec, n_requests: int, seed: int = 7) -> Dict[str, object]:
    """One seeded chaos-under-load run; returns outcome + journal digest."""
    rig = build_rig(n_nodes=2)
    engine = TrafficEngine(rig.kernel, _tenants(), resilience=spec, seed=seed)
    cul = ChaosUnderLoad(rig.kernel, engine, _campaign(seed))
    t0 = time.perf_counter()
    rep = cul.run(max_requests=n_requests)
    wall = time.perf_counter() - t0
    t = rep.traffic
    retries = sum(x["retries"] for x in t.tenants.values())
    hedges = sum(x["hedges"] for x in t.tenants.values())
    hedge_wins = sum(x["hedge_wins"] for x in t.tenants.values())
    failovers = sum(x["failovers"] for x in t.tenants.values())
    timed_out = sum(x["timed_out"] for x in t.tenants.values())
    return {
        "requests": t.total_requests,
        "admitted": t.total_admitted,
        "dropped": t.total_dropped,
        "failed": t.total_failed,
        "timed_out": timed_out,
        "retries": retries,
        "hedges": hedges,
        "hedge_wins": hedge_wins,
        "failovers": failovers,
        "breaker_transitions": len(rep.breaker_transitions),
        "chaos_events_fired": len(rep.fired),
        "availability": round(t.availability, 6),
        "wall_s": round(wall, 4),
        "sim_duration_ns": round(t.duration_ns, 3),
        "digest": rep.digest,
        "traffic_digest": t.digest(),
    }


def run(smoke: bool = False) -> dict:
    n_requests = 30_000 if smoke else 200_000
    on = bench_chaos(default_spec(replica_node=1), n_requests)
    replay = bench_chaos(default_spec(replica_node=1), n_requests)
    off = bench_chaos(DISABLED, n_requests)
    return {
        "resilience_on": on,
        "resilience_off": off,
        "determinism": {
            "journals_match": on["digest"] == replay["digest"],
            "traffic_digests_match": on["traffic_digest"] == replay["traffic_digest"],
            "digest": on["digest"],
        },
        "availability_gain": round(on["availability"] - off["availability"], 6),
    }


def check_gate(report: dict, smoke: bool) -> List[str]:
    failures = []
    det = report["determinism"]
    if not (det["journals_match"] and det["traffic_digests_match"]):
        failures.append(
            "gate: two same-seed chaos-under-load runs were not byte-identical"
        )
    on, off = report["resilience_on"], report["resilience_off"]
    if on["availability"] < MIN_AVAILABILITY_ON:
        failures.append(
            f"gate: resilience-on availability {on['availability']:.4f} "
            f"(need >= {MIN_AVAILABILITY_ON})"
        )
    if off["availability"] >= on["availability"]:
        failures.append(
            "gate: resilience-off shows no measurable loss versus on "
            f"({off['availability']:.4f} >= {on['availability']:.4f})"
        )
    if off["failed"] <= 0:
        failures.append("gate: the crash storm failed zero requests with "
                        "resilience off — campaign too gentle")
    if on["failovers"] <= 0:
        failures.append("gate: resilience-on never failed over to the replica")
    return failures


def render(report: dict) -> str:
    on, off = report["resilience_on"], report["resilience_off"]
    lines = [
        "== availability under crash storm ==",
        f"{'':>10}  {'offered':>8}  {'failed':>7}  {'availability':>12}  "
        f"{'failovers':>9}  {'retries':>7}  {'hedges':>6}  {'wall_s':>7}",
        f"{'on':>10}  {on['requests']:>8,}  {on['failed']:>7,}  "
        f"{on['availability']:>12.4f}  {on['failovers']:>9,}  "
        f"{on['retries']:>7,}  {on['hedges']:>6,}  {on['wall_s']:>7.2f}",
        f"{'off':>10}  {off['requests']:>8,}  {off['failed']:>7,}  "
        f"{off['availability']:>12.4f}  {off['failovers']:>9,}  "
        f"{off['retries']:>7,}  {off['hedges']:>6,}  {off['wall_s']:>7.2f}",
        f"availability gain: {report['availability_gain']:+.4f}",
        f"breaker transitions (on): {on['breaker_transitions']}, "
        f"chaos events fired: {on['chaos_events_fired']}",
        f"replay byte-identical: {report['determinism']['journals_match']}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="short runs (<60 s); the CI gate")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help=f"output path (default {DEFAULT_JSON.name} at repo root; "
                         "smoke runs skip writing unless set)")
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    report = run(smoke=args.smoke)
    report_doc = {
        "schema_version": SCHEMA_VERSION,
        "bench": "resilience",
        "mode": mode,
        **report,
        "note": (
            "Both rows drive the same seeded crash storm (link flap + CE "
            "storm + node crash on the primary) against the same open-loop "
            "tenants.  'on' enables the full fault-tolerant request path "
            "(deadlines, budgeted retries, tail hedging, circuit breakers "
            "with failover to the replica node); 'off' serves the identical "
            "arrival process with faults counted as losses.  Availability is "
            "admitted / (admitted + failed); admission drops are policy, not "
            "failures.  Journals are byte-identical per seed."
        ),
    }
    print(render(report))

    out = args.json
    if out is None and not args.smoke:
        out = DEFAULT_JSON
    if out is not None:
        out.write_text(json.dumps(report_doc, indent=2) + "\n")
        print(f"\nwrote {out}")

    failures = check_gate(report, smoke=args.smoke)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
