"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload redis-ipc --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (one process at a time), then prints,
per metric, the median, the quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the spread: the distance between the first and
third quartile as a share of the median.  Each spread is compared with
the metric's bound from ``BENCHMARK.json``; the benchmark is steady
when every spread except ``setup_s`` stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help="also write every run's metrics here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, seconds, trace=0))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1))
    steady = True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = name == "setup_s" or spread < bound / 3
        steady &= ok
        print(f"{name:<16} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {spread:.4f} bound {bound} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
