"""Traffic-engine benchmark — event-driven open loop vs naive polling.

The discrete-event traffic engine (:mod:`repro.workloads.traffic`)
multiplexes 100k open-loop clients over the rack in O(batches) Python;
the architecture it replaced visits every client every tick, and
:class:`NaivePollingDriver` below keeps that architecture as the
baseline (``pytest benchmarks/bench_traffic.py`` checks it runs).  This
bench measures both on identical tenant specs and reports the
wall-clock ratio, plus an open-loop saturation sweep showing admission
control engaging (bounded p99, counted drops) as offered load crosses
the service capacity.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_traffic.py            # full run
    PYTHONPATH=src python benchmarks/bench_traffic.py --smoke    # CI gate

A full run writes ``BENCH_traffic.json`` at the repo root (override
with ``--json``); smoke runs only write when ``--json`` is given.  The
smoke gate requires the engine to clear ``SMOKE_MIN_SPEEDUP``x the
naive driver's throughput and to keep the bulk data plane's fallback
share at most ``MAX_FALLBACK_SHARE`` (exit 1 otherwise); full runs
additionally check ``FULL_MIN_SPEEDUP``x and that one seeded engine run
sustained at least a million simulated requests.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

if __name__ == "__main__" and __package__ is None:  # allow running from a checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import telemetry
from repro.bench.harness import build_rig
from repro.workloads.arrivals import make_process
from repro.workloads.traffic import DataPlaneBackend, TenantSpec, TrafficEngine

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_traffic.json"

SCHEMA_VERSION = 1

#: CI smoke gate: the event engine must beat naive per-client polling by
#: at least this factor on throughput (requests per wall second).
SMOKE_MIN_SPEEDUP = 5.0
#: Full-run acceptance: an order of magnitude.
FULL_MIN_SPEEDUP = 10.0
#: Both modes: at most this share of bulk bypass ops may leave the
#: vector path for the per-op loop (``bulk.fallback/<reason>`` counters).
MAX_FALLBACK_SHARE = 0.01


def _tenants(n_clients_total: int) -> List[TenantSpec]:
    """The shared fleet: four tenants, mixed shapes, two nodes."""
    per = n_clients_total // 4
    return [
        TenantSpec(name="web", rate_rps=600_000.0, n_clients=per, node=0,
                   get_ratio=0.9),
        TenantSpec(name="api", rate_rps=400_000.0, n_clients=per, node=1,
                   get_ratio=0.7),
        TenantSpec(name="feed", rate_rps=300_000.0, n_clients=per, node=0,
                   arrival="diurnal", amplitude=0.6, period_s=0.2),
        TenantSpec(name="batch", rate_rps=200_000.0, n_clients=per, node=1,
                   get_ratio=0.5),
    ]


class NaivePollingDriver:
    """Closed polling loop: every client visited every tick.

    This is the architecture the event core retires, kept as the
    benchmark baseline: per tick, Python iterates *all* logical clients
    of *all* tenants asking "is your next arrival due?", and due
    requests run one substrate op each (no batching).  Cost is
    O(clients x ticks) regardless of load — with 100k clients the
    interpreter burns almost all of its time asking idle clients
    nothing.
    """

    def __init__(self, kernel, tenants: List[TenantSpec], seed: int = 0,
                 tick_ns: float = 200_000.0) -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        self.tick_ns = float(tick_ns)
        self.clients: List[dict] = []
        self.served = 0
        backend = DataPlaneBackend(kernel)
        for idx, spec in enumerate(tenants):
            st = SimpleNamespace(spec=spec, backend_state=None)
            backend.prepare(st)
            slab, _ = st.backend_state
            arrivals = make_process(
                spec.arrival, spec.rate_rps, seed=seed * 65_537 + idx,
                amplitude=spec.amplitude, period_s=spec.period_s, phase=spec.phase,
            )
            # deal the tenant's aggregate arrival stream round-robin
            # onto its clients, each of which polls for its own next time
            times = arrivals.next_chunk(max(4 * spec.n_clients, 4_096))
            for c in range(spec.n_clients):
                mine = times[c::spec.n_clients]
                self.clients.append(
                    {
                        "spec": spec,
                        "slab": slab,
                        "times": mine,
                        "i": 0,
                        "rng": np.random.default_rng((seed, idx, c)),
                    }
                )

    def run_ticks(self, n_ticks: int) -> int:
        """Poll every client for ``n_ticks``; returns requests served."""
        served = 0
        now = 0.0
        for _ in range(n_ticks):
            now += self.tick_ns
            for client in self.clients:
                times = client["times"]
                i = client["i"]
                while i < len(times) and times[i] <= now:
                    spec = client["spec"]
                    key = int(client["rng"].integers(0, spec.n_keys))
                    ctx = self.machine.context(spec.node)
                    addr = client["slab"] + key * spec.value_size
                    if client["rng"].random() < spec.get_ratio:
                        ctx.load(addr, spec.value_size, bypass_cache=True)
                    else:
                        ctx.store(addr, b"\x5a" * spec.value_size, bypass_cache=True)
                    i += 1
                    served += 1
                client["i"] = i
        self.served += served
        return served


class TestNaiveBaseline:
    """``pytest benchmarks/bench_traffic.py`` checks the baseline runs."""

    def test_naive_driver_serves_requests(self):
        rig = build_rig()
        driver = NaivePollingDriver(
            rig.kernel,
            [TenantSpec(name="n", rate_rps=100_000.0, n_clients=200, node=0)],
            seed=1, tick_ns=200_000.0,
        )
        assert driver.run_ticks(50) > 0


def bulk_fallback_share(counters: dict) -> float:
    """Share of bulk bypass ops that fell back to the per-op loop.

    The numerator sums the ``rack.machine`` ``bulk.fallback/<reason>``
    counters (ops per fallen-back batch); the denominator is every
    bypass load/store op, which the per-op loop counts too.
    """
    fell = ops = 0.0
    for (_node, sub, name), value in counters.items():
        if sub != "rack.machine":
            continue
        if name.startswith("bulk.fallback/"):
            fell += value
        elif name in ("bypass.load", "bypass.store"):
            ops += value
    return fell / ops if ops else 0.0


def bench_engine(n_clients: int, n_requests: int, seed: int = 0,
                 with_telemetry: bool = False) -> Dict[str, float]:
    """One seeded engine run to ``n_requests`` offered requests.

    ``with_telemetry`` runs it with the telemetry registry on (never
    timed for throughput) and adds ``bulk_fallback_share``.
    """
    if with_telemetry:
        telemetry.reset()
        telemetry.enable()
    try:
        rig = build_rig()
        engine = TrafficEngine(rig.kernel, _tenants(n_clients), seed=seed,
                               batch_window_ns=1e6)
        t0 = time.perf_counter()
        report = engine.run(max_requests=n_requests)
        wall = time.perf_counter() - t0
        if with_telemetry:
            share = bulk_fallback_share(telemetry.TELEMETRY.registry.counters)
    finally:
        if with_telemetry:
            telemetry.disable()
            telemetry.reset()
    out = {
        "clients": n_clients,
        "requests": report.total_requests,
        "admitted": report.total_admitted,
        "dropped": report.total_dropped,
        "wall_s": round(wall, 4),
        "ops_per_sec": round(report.total_requests / wall, 1) if wall else float("inf"),
        "sim_duration_ns": round(report.duration_ns, 3),
        "events_dispatched": report.events_dispatched,
        "digest": report.digest(),
    }
    if with_telemetry:
        out["bulk_fallback_share"] = share
    return out


def bench_naive(n_clients: int, n_ticks: int, seed: int = 0) -> Dict[str, float]:
    """A short slice of the polling architecture on the same tenants.

    A full million requests under naive polling would take hours, so the
    baseline is measured on a bounded slice and reported as ops per wall
    second — the honest per-request rate of the polled design, already
    generously short on idle ticks.
    """
    rig = build_rig()
    driver = NaivePollingDriver(rig.kernel, _tenants(n_clients), seed=seed,
                                tick_ns=1e6)
    t0 = time.perf_counter()
    served = driver.run_ticks(n_ticks)
    wall = time.perf_counter() - t0
    return {
        "clients": n_clients,
        "ticks": n_ticks,
        "requests": served,
        "wall_s": round(wall, 4),
        "ops_per_sec": round(served / wall, 1) if wall and served else 0.0,
    }


def saturation_sweep(multipliers: List[float], n_requests: int,
                     seed: int = 0) -> List[dict]:
    """Open-loop sweep: offered rate as a multiple of service capacity.

    Capacity is measured first (one probe run reports the engine's
    per-request charged cost); each sweep point then offers
    ``multiplier x capacity`` with a fixed 100 us backlog bound.  Past
    saturation the drop rate climbs while survivor p99 stays bounded —
    the admission-control signature.
    """
    probe_rig = build_rig()
    probe = TrafficEngine(
        probe_rig.kernel,
        [TenantSpec(name="probe", rate_rps=100_000.0, node=0)],
        seed=seed, batch_window_ns=1e6,
    )
    probe.run(max_requests=20_000)
    svc_ns = probe.tenants["probe"].svc_est_ns
    capacity_rps = 1e9 / svc_ns
    bound_ns = 100_000.0
    rows = []
    for mult in multipliers:
        rig = build_rig()
        engine = TrafficEngine(
            rig.kernel,
            [TenantSpec(name="sweep", rate_rps=mult * capacity_rps, node=0,
                        max_backlog_ns=bound_ns)],
            seed=seed, batch_window_ns=500_000.0,
        )
        rep = engine.run(max_requests=n_requests)
        t = rep.tenants["sweep"]
        rows.append({
            "offered_over_capacity": mult,
            "offered_rps": round(mult * capacity_rps, 1),
            "offered": t["offered"],
            "admitted": t["admitted"],
            "dropped": t["dropped"],
            "drop_pct": round(100.0 * t["dropped"] / t["offered"], 2) if t["offered"] else 0.0,
            "p50_ns": round(t["p50_ns"], 1),
            "p99_ns": round(t["p99_ns"], 1),
            "p99_bounded": t["p99_ns"] <= bound_ns + 10 * svc_ns,
        })
    return {
        "service_ns_per_request": round(svc_ns, 1),
        "capacity_rps": round(capacity_rps, 1),
        "backlog_bound_ns": bound_ns,
        "rows": rows,
    }


def run(smoke: bool = False) -> dict:
    if smoke:
        n_clients, n_requests, n_ticks = 10_000, 50_000, 8
        multipliers = [0.5, 2.0]
        sweep_requests = 20_000
    else:
        n_clients, n_requests, n_ticks = 100_000, 1_000_000, 4
        multipliers = [0.5, 0.9, 1.2, 2.0, 4.0]
        sweep_requests = 100_000
    engine = bench_engine(n_clients, n_requests)
    # the repeat runs with telemetry on: it must still match the check
    # run's digest, and its counters give the bulk fallback share
    repeat = bench_engine(n_clients, min(n_requests, 100_000), with_telemetry=True)
    check = bench_engine(n_clients, min(n_requests, 100_000))
    naive = bench_naive(n_clients, n_ticks)
    ratio = (
        round(engine["ops_per_sec"] / naive["ops_per_sec"], 1)
        if naive["ops_per_sec"]
        else float("inf")
    )
    return {
        "engine": engine,
        "engine_determinism": {
            "digests_match": repeat["digest"] == check["digest"],
            "digest": repeat["digest"],
        },
        "bulk_fallback_share": repeat["bulk_fallback_share"],
        "naive_polling": naive,
        "speedup_vs_naive": ratio,
        "saturation_sweep": saturation_sweep(multipliers, sweep_requests),
    }


def check_gate(report: dict, smoke: bool) -> List[str]:
    failures = []
    need = SMOKE_MIN_SPEEDUP if smoke else FULL_MIN_SPEEDUP
    ratio = report["speedup_vs_naive"]
    if ratio < need:
        failures.append(
            f"gate: engine is only {ratio:.1f}x naive polling (need >= {need:.0f}x)"
        )
    if not report["engine_determinism"]["digests_match"]:
        failures.append("gate: two same-seed engine runs produced different digests")
    share = report["bulk_fallback_share"]
    if share > MAX_FALLBACK_SHARE:
        failures.append(
            f"gate: {share:.2%} of bulk ops fell back to the per-op loop "
            f"(need <= {MAX_FALLBACK_SHARE:.0%})"
        )
    if not smoke and report["engine"]["requests"] < 1_000_000:
        failures.append(
            f"gate: full run offered only {report['engine']['requests']} requests "
            "(need >= 1,000,000)"
        )
    saturated = [r for r in report["saturation_sweep"]["rows"]
                 if r["offered_over_capacity"] > 1.0]
    if saturated and not any(r["dropped"] > 0 for r in saturated):
        failures.append("gate: admission never engaged past saturation")
    if any(not r["p99_bounded"] for r in report["saturation_sweep"]["rows"]):
        failures.append("gate: survivor p99 exceeded the backlog bound")
    return failures


def render(report: dict) -> str:
    e, n = report["engine"], report["naive_polling"]
    lines = [
        "== traffic engine vs naive polling ==",
        f"engine : {e['requests']:>9,} requests  {e['wall_s']:>8.2f}s  "
        f"{e['ops_per_sec']:>12,.0f} req/s  ({e['clients']:,} clients, "
        f"{e['events_dispatched']:,} events, {e['sim_duration_ns']/1e6:,.1f} sim-ms)",
        f"naive  : {n['requests']:>9,} requests  {n['wall_s']:>8.2f}s  "
        f"{n['ops_per_sec']:>12,.0f} req/s  ({n['clients']:,} clients, "
        f"{n['ticks']} ticks)",
        f"speedup: {report['speedup_vs_naive']}x",
        f"bulk fallback share: {report['bulk_fallback_share']:.4f}",
        "",
        "== open-loop saturation sweep ==",
        f"capacity {report['saturation_sweep']['capacity_rps']:,.0f} req/s "
        f"({report['saturation_sweep']['service_ns_per_request']} ns/req), "
        f"backlog bound {report['saturation_sweep']['backlog_bound_ns']/1e3:.0f} us",
        f"{'offered/cap':>11}  {'offered':>8}  {'dropped':>8}  {'drop%':>6}  "
        f"{'p50(ns)':>9}  {'p99(ns)':>9}",
    ]
    for r in report["saturation_sweep"]["rows"]:
        lines.append(
            f"{r['offered_over_capacity']:>11.1f}  {r['offered']:>8,}  "
            f"{r['dropped']:>8,}  {r['drop_pct']:>6.2f}  {r['p50_ns']:>9,.0f}  "
            f"{r['p99_ns']:>9,.0f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small fleet and short runs (<60 s); the CI gate")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help=f"output path (default {DEFAULT_JSON.name} at repo root; "
                         "smoke runs skip writing unless set)")
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    report = run(smoke=args.smoke)
    report_doc = {
        "schema_version": SCHEMA_VERSION,
        "bench": "traffic",
        "mode": mode,
        **report,
        "note": (
            "speedup_vs_naive compares requests per wall second of the "
            "discrete-event open-loop engine against the per-client polling "
            "architecture it replaced, on identical tenant specs (the naive "
            "baseline is measured on a bounded slice).  The determinism repeat "
            "runs with telemetry on; its bulk.fallback/<reason> counters give "
            "bulk_fallback_share, the share of bulk bypass ops that left the "
            "vector path for the per-op loop.  The saturation sweep "
            "offers multiples of the measured service capacity with a fixed "
            "backlog bound: drops engage past 1.0x while survivor p99 stays "
            "bounded.  Compare ratios, not absolute rates, across machines."
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
