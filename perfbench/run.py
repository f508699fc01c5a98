"""The repository benchmark: four workloads on two clocks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kv-openloop --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload in turn

One invocation runs one workload in one process and one thread.  A run
is a warm-up round, then full rounds until ``--seconds`` have passed
(at least the workload's ``rounds``).  Every round builds a fresh rack
from a round seed derived from ``--seed``; with ``R`` the workload's
``rounds``, round ``i`` uses round seed ``seed * R + i % R``, so rounds
past the first ``R`` replay an earlier round and must reproduce its
simulated digest.

* ``--trace 0`` prints the seven end-to-end metrics.  Host metrics are
  medians over all rounds, each round's times corrected for the host's
  speed while it ran (see ``hostspeed.py``); the uncorrected medians
  are printed above the result.  Simulated metrics pool the first
  ``R`` rounds and are exact functions of the seed.
* ``--trace 1`` alternates an untraced and a traced round of the same
  round seed, checks that both give the same simulated digest, and
  prints the per-layer metrics of the first traced round (see
  ``layertrace.py``) plus the trace's own overhead.  The spans are
  written to ``.perfbench/trace-<workload>.json`` (one file per
  workload, overwritten by the next traced run).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong output
or a digest that does not repeat makes ``correct`` false and the exit
code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    from repro.telemetry import TELEMETRY
    from hostspeed import HostSpeed
    from layertrace import BULK, SINGLE, Tracer, aggregate
    from workloads import WORKLOADS, Workload
except ImportError as exc:  # run outside a checkout that holds src/
    print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
    raise SystemExit(2)

#: size of the untimed warm-up round relative to a full round
WARMUP_SCALE = 0.05
TRACE_DIR = ROOT / ".perfbench"

#: registry counters a traced round reads (subsystem, name)
COUNTERS = {
    "cache_hit": ("rack.machine", "cache.hit"),
    "cache_miss": ("rack.machine", "cache.miss"),
    "pc_hit": ("core.fs", "page_cache.hit"),
    "pc_miss": ("core.fs", "page_cache.miss"),
    "send_inline": ("core.ipc", "ipc.send.inline"),
    "send_buffer": ("core.ipc", "ipc.send.zero_copy"),
}


def round_seed(w: Workload, seed: int, i: int) -> int:
    return seed * w.rounds + i % w.rounds


@contextmanager
def telemetry(enabled: bool):
    """Set the process-wide telemetry switch for one round and put it
    back afterwards, so no round inherits another's registry."""
    prev = (TELEMETRY.enabled, TELEMETRY.tracing)
    TELEMETRY.disable()
    TELEMETRY.reset()
    if enabled:
        TELEMETRY.enable()
    try:
        yield TELEMETRY
    finally:
        TELEMETRY.reset()
        TELEMETRY.enabled, TELEMETRY.tracing = prev


@dataclass
class Round:
    seed: int
    setup_s: float
    run_s: float
    rack_build_s: float
    kernel_boot_s: float
    workload_prepare_s: float
    out: object
    counters: Dict[str, float] = field(default_factory=dict)
    #: host-speed factor applied to ``setup_s`` and ``run_s`` (1 if none)
    factor: float = 1.0


def one_round(w: Workload, seed: int, scale: float = 1.0,
              tracer: Optional[Tracer] = None, speed: Optional[HostSpeed] = None) -> Round:
    """Set up, run and check one round.  With ``speed`` the round's
    set-up and run times are host-speed corrected (see hostspeed.py)."""
    with telemetry(w.telemetry or tracer is not None) as tel:
        if speed:
            speed.start()
        try:
            t0 = perf_counter()
            s = w.setup(seed, scale)
            t1 = perf_counter()
            before = {k: tel.registry.counter_total(*key) for k, key in COUNTERS.items()}
            with tracer.recording_round(s.machine) if tracer else nullcontext():
                w.execute(s)
        finally:
            if speed:
                speed.stop()
        t2 = perf_counter()
        out = w.finish(s)
        counters = {k: tel.registry.counter_total(*key) - before[k]
                    for k, key in COUNTERS.items()}
    setup_s, run_s, factor = t1 - t0, t2 - t1, 1.0
    if speed:
        factor = speed.factor
        setup_s = (setup_s - speed.spent_s(t0, t1)) * factor
        run_s = (run_s - speed.spent_s(t1, t2)) * factor
    r = Round(seed, setup_s, run_s, s.rack_build_s, s.kernel_boot_s,
              s.workload_prepare_s, out, counters, factor)
    del s
    gc.collect()
    return r


def check_digests(rounds: List[Round]) -> List[str]:
    """Digests of rounds with the same round seed must be identical."""
    first: Dict[int, str] = {}
    problems = []
    for r in rounds:
        want = first.setdefault(r.seed, r.out.digest)
        if r.out.digest != want:
            problems.append(f"round seed {r.seed}: digest {r.out.digest[:16]} != {want[:16]}")
    return problems


def _median(xs) -> float:
    return float(statistics.median(xs))


# -- end-to-end run ---------------------------------------------------------------


def end_to_end(w: Workload, seed: int, seconds: int) -> Tuple[dict, int, int, List[str]]:
    speed = HostSpeed()
    one_round(w, round_seed(w, seed, 0), WARMUP_SCALE, speed=speed)
    rounds: List[Round] = []
    start = perf_counter()
    while len(rounds) < w.rounds or perf_counter() - start < seconds:
        r = one_round(w, round_seed(w, seed, len(rounds)), speed=speed)
        if len(rounds) >= w.rounds:
            # only pooled rounds keep their samples, so peak memory does
            # not grow with the number of rounds a fast host fits in
            r.out.latencies_ns = None
        rounds.append(r)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_digests(rounds)
    pooled = rounds[:w.rounds]
    lat = np.concatenate([r.out.latencies_ns for r in pooled])
    ops = sum(r.out.ops for r in pooled)
    lost = sum(r.out.lost for r in pooled)
    wrong = sum(r.out.wrong for r in pooled)
    sim_s = sum(r.out.sim_duration_ns for r in pooled) / 1e9
    metrics = {
        "host_ops_per_s": (_median(r.out.ops / r.run_s for r in rounds), "1/s", len(rounds)),
        "setup_s": (_median(r.setup_s for r in rounds), "s", len(rounds)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "sim_p50_ns": (float(np.percentile(lat, 50)), "sim_ns", len(lat)),
        "sim_p99_ns": (float(np.percentile(lat, 99)), "sim_ns", len(lat)),
        "sim_ops_per_s": ((ops - lost) / sim_s, "1/sim_s", len(pooled)),
        # add-one estimate: a run without errors reads 1/(offered+1), not 0
        "error_share": ((lost + wrong + 1) / (ops + 1), "fraction", ops),
    }
    lines = [f"round seed {r.seed}: {r.out.ops} ops, set-up {r.setup_s:.3f} s, "
             f"run {r.run_s:.3f} s, host speed {r.factor:.3f}, lost {r.out.lost}, "
             f"wrong {r.out.wrong}, digest {r.out.digest[:16]}" for r in rounds]
    lines.append(f"uncorrected host_ops_per_s {_median(r.out.ops * r.factor / r.run_s for r in rounds):.6g}"
                 f", setup_s {_median(r.setup_s / r.factor for r in rounds):.6g}")
    lines.append(f"pooled over round seeds {[r.seed for r in pooled]}: {ops} offered, "
                 f"{lost} lost, {wrong} wrong, {len(lat)} latency samples")
    lines += [f"{name:<16} {v:>16.6g} {unit:<9} samples={n}"
              for name, (v, unit, n) in metrics.items()]
    lines += w.accuracy_lines(seed)
    failed = sum(r.out.wrong for r in rounds) + len(problems)
    lines += [f"FAIL {p}" for p in problems]
    return ({k: (v, u) for k, (v, u, _) in metrics.items()},
            sum(r.out.ops for r in rounds), failed, lines)


# -- traced run ---------------------------------------------------------------------


def traced(w: Workload, seed: int, seconds: int) -> Tuple[dict, int, int, List[str]]:
    one_round(w, round_seed(w, seed, 0), WARMUP_SCALE)
    tracer = Tracer()
    base: List[Round] = []
    trc: List[Round] = []
    totals = None
    start = perf_counter()
    while not base or perf_counter() - start < seconds:
        base.append(one_round(w, round_seed(w, seed, 0)))
        with tracer.installed():
            trc.append(one_round(w, round_seed(w, seed, 0), tracer=tracer))
        if totals is None:
            totals = aggregate(tracer)
            path = TRACE_DIR / f"trace-{w.name}.json"
            tracer.write_chrome_trace(path)
            tracer.spans = []
    problems = check_digests(base + trc)
    overhead = _median(t.run_s / b.run_s for b, t in zip(base, trc))
    metrics = layer_metrics(totals, trc[0], base, overhead)
    lines = [f"traced round seed {round_seed(w, seed, 0)}: {len(trc)} traced / "
             f"{len(base)} untraced rounds, digest {trc[0].out.digest[:16]}, "
             f"spans written to {path.relative_to(ROOT)}"]
    lines.append(f"{'layer':<28} {'host self ms':>14} {'sim self ns':>16}")
    for layer in sorted(totals.host_s, key=totals.host_s.get, reverse=True):
        lines.append(f"{layer:<28} {totals.layer_host_ms(layer):>14.3f} "
                     f"{totals.layer_sim_ns(layer):>16.1f}")
    lines.append(f"{'(unattributed)':<28} {totals.unattributed_host_s * 1e3:>14.3f} "
                 f"{totals.unattributed_sim_ns:>16.1f}")
    lines.append(f"{'(round)':<28} {totals.root_host_s * 1e3:>14.3f} "
                 f"{totals.root_sim_ns:>16.1f}")
    top = max(totals.host_s, key=totals.host_s.get)
    lines.append(f"largest host-self-time layer: {top}")
    lines += [f"{name:<44} {v:>16.6g} {unit}" for name, (v, unit) in metrics.items()]
    failed = sum(r.out.wrong for r in base + trc) + len(problems)
    lines += [f"FAIL {p}" for p in problems]
    return metrics, sum(r.out.ops for r in trc), failed, lines


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(t, r: Round, base: List[Round], overhead: float) -> Dict[str, tuple]:
    """The per-layer metrics, named as in BENCHMARK.json."""
    c, reg = r.out.counts, r.counters
    single = [f"RackMachine.{m}" for m in ("load", "store", "atomic_cas", "atomic_fetch_add",
                                           "atomic_swap", "atomic_load", "atomic_store",
                                           "flush", "invalidate")]
    bulk = ("RackMachine.load_many", "RackMachine.store_many")
    batches = ("DataPlaneBackend.run_batch", "RedisBackend.run_batch",
               "ServerlessBackend.run_batch")
    bulk_calls = t.count(*bulk)
    n_batches = t.count(*batches)
    pops = t.count("SpscRing.try_pop")
    hedges = c.get("hedges", 0)
    dispatched = t.extra_sum("EventCore.step")
    return {
        "rack.machine.bulk.calls": (bulk_calls, "count"),
        "rack.machine.bulk.store_many_calls": (t.count("RackMachine.store_many"), "count"),
        "rack.machine.bulk.elements": (t.extra_sum(*bulk), "count"),
        "rack.machine.bulk.fallbacks": (t.fallbacks, "count"),
        "rack.machine.bulk.fallback_share": (_share(t.fallbacks, bulk_calls), "fraction"),
        "rack.machine.bulk.host_self_ms": (t.layer_host_ms(BULK), "ms"),
        "rack.machine.bulk.sim_ns": (t.layer_sim_ns(BULK), "sim_ns"),
        "rack.machine.single.calls": (t.count(*single), "count"),
        "rack.machine.single.host_self_ms": (t.layer_host_ms(SINGLE), "ms"),
        "rack.machine.single.sim_ns": (t.layer_sim_ns(SINGLE), "sim_ns"),
        "rack.cache.hit_ratio": (_share(reg["cache_hit"], reg["cache_hit"] + reg["cache_miss"]),
                                 "fraction"),
        "rack.cache.flushes": (t.count("RackMachine.flush"), "count"),
        "rack.cache.invalidates": (t.count("RackMachine.invalidate"), "count"),
        "rack.interconnect.charge.calls": (t.count("Interconnect.charge"), "count"),
        "rack.interconnect.charge.host_self_ms": (t.layer_host_ms("rack.interconnect"), "ms"),
        "core.events.dispatched": (dispatched, "count"),
        "core.events.per_op": (_share(dispatched, r.out.ops), "events/op"),
        "core.events.host_self_ms": (t.layer_host_ms("core.events"), "ms"),
        "core.kernel.host_self_ms": (t.layer_host_ms("core.kernel"), "ms"),
        "workloads.traffic.batches": (n_batches, "count"),
        "workloads.traffic.ops_per_batch": (_share(t.extra_sum(*batches), n_batches), "ops/batch"),
        "workloads.traffic.host_self_ms": (t.layer_host_ms("workloads.traffic"), "ms"),
        "workloads.traffic.sim_queue_delay_ns": (c.get("queue_delay_ns", 0.0), "sim_ns"),
        "workloads.traffic.dropped": (c.get("dropped", 0), "count"),
        "workloads.resilience.host_self_ms": (t.layer_host_ms("workloads.resilience"), "ms"),
        "workloads.resilience.retries": (c.get("retries", 0), "count"),
        "workloads.resilience.hedges": (hedges, "count"),
        "workloads.resilience.hedge_win_share": (_share(c.get("hedge_wins", 0), hedges), "fraction"),
        "workloads.resilience.failovers": (c.get("failovers", 0), "count"),
        "workloads.resilience.breaker_transitions": (c.get("breaker_transitions", 0), "count"),
        "flacdk.reliability.scrub.steps": (t.count("MemoryScrubber.step"), "count"),
        "flacdk.reliability.scrub.host_self_ms": (t.layer_host_ms("flacdk.reliability.scrub"), "ms"),
        "flacdk.reliability.repairs": (t.count("RepairCoordinator.repair"), "count"),
        "flacdk.reliability.repair.host_self_ms": (
            t.layer_host_ms("flacdk.reliability.repair"), "ms"),
        "telemetry.health.ticks": (t.count("HealthEngine.tick"), "count"),
        "telemetry.health.host_self_ms": (t.layer_host_ms("telemetry.health"), "ms"),
        "chaos.events_fired": (c.get("events_fired", 0), "count"),
        "flacdk.structures.ring.push_calls": (t.count("SpscRing.try_push"), "count"),
        "flacdk.structures.ring.pop_calls": (pops, "count"),
        "flacdk.structures.ring.empty_pop_share": (
            _share(t.extra_sum("SpscRing.try_pop"), pops), "fraction"),
        "flacdk.structures.ring.host_self_ms": (t.layer_host_ms("flacdk.structures.ring"), "ms"),
        "flacdk.structures.ring.sim_ns": (t.layer_sim_ns("flacdk.structures.ring"), "sim_ns"),
        "core.ipc.sends_inline": (reg["send_inline"], "count"),
        "core.ipc.sends_buffer": (reg["send_buffer"], "count"),
        "core.ipc.host_self_ms": (t.layer_host_ms("core.ipc"), "ms"),
        "core.ipc.sim_ns": (t.layer_sim_ns("core.ipc"), "sim_ns"),
        "apps.redis.commands": (t.count("MiniRedisServer.execute"), "count"),
        "apps.redis.host_self_ms": (t.layer_host_ms("apps.redis"), "ms"),
        "apps.redis.sim_ns": (t.layer_sim_ns("apps.redis"), "sim_ns"),
        "core.fs.reads": (t.count("FlacFS.read"), "count"),
        "core.fs.writes": (t.count("FlacFS.write"), "count"),
        "core.fs.fsyncs": (t.count("FlacFS.fsync"), "count"),
        "core.fs.host_self_ms": (t.layer_host_ms("core.fs"), "ms"),
        "core.fs.sim_ns": (t.layer_sim_ns("core.fs"), "sim_ns"),
        "core.fs.page_cache.hit_ratio": (_share(reg["pc_hit"], reg["pc_hit"] + reg["pc_miss"]),
                                         "fraction"),
        "core.fs.page_cache.version_swaps": (c.get("version_swaps", 0), "count"),
        "core.fs.page_cache.writebacks": (c.get("writebacks", 0), "count"),
        "setup.rack_build_s": (_median(b.rack_build_s for b in base), "s"),
        "setup.kernel_boot_s": (_median(b.kernel_boot_s for b in base), "s"),
        "setup.workload_prepare_s": (_median(b.workload_prepare_s for b in base), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.unattributed_host_share": (_share(t.unattributed_host_s, t.root_host_s), "fraction"),
        "trace.unattributed_sim_share": (_share(t.unattributed_sim_ns, t.root_sim_ns), "fraction"),
    }


# -- command line -----------------------------------------------------------------


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="FlacOS repository benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=_non_negative, default=0)
    ap.add_argument("--seconds", type=_positive, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           check=False).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    w = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, lines = run(w, args.seed, args.seconds)
    print(f"== {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace} ==")
    for line in lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
