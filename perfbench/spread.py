"""Run the benchmark over several seeds and summarize each metric's spread.

From the repository root::

    python3 perfbench/spread.py --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --workloads noc-contention --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --record "seed commit"

For every workload and metric this prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median, next to the bound ``BENCHMARK.json`` fixes.
``--record LABEL`` appends the summary to ``ledger.json`` as one trajectory
entry.  Runs execute one at a time, workloads interleaved per seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "ledger.json"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        label, _, rest = line.partition(": ")
        if label in ("host", "fingerprint"):
            result[label] = json.loads(rest)
    return result


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "n": len(values)}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL",
                        help="append the summary to ledger.json under this label")
    args = parser.parse_args(argv)
    metric_list = benchmark["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_list}

    runs = {workload: [] for workload in args.workloads}
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads:
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(result)
            print(f"{workload} seed={seed} {time.perf_counter() - start:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} batch_wall_s="
                  f"{result['fingerprint'].get('batch_wall_s')}", file=sys.stderr, flush=True)

    summary = {}
    for workload, results in runs.items():
        summary[workload] = {
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {},
            # Exact outputs per seed: a change to the simulated machine shows here.
            "fingerprints": {
                str(r["fingerprint"]["seed"]): {
                    key: r["fingerprint"][key]
                    for key in ("sim_digest", "engine.tasks", "engine.sim_cycles")
                }
                for r in results
            },
        }
        print(f"== {workload}: {len(results)} runs, all correct: "
              f"{summary[workload]['all_correct']}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                continue
            stats = summarize(values)
            summary[workload]["metrics"][name] = stats
            bound = bounds[name]
            flag = "" if bound is None or stats["spread"] < bound / 3 else "  WIDE"
            print(f"  {name:28s} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.3f} "
                  f"bound {bound}{flag}")

    if args.record:
        ledger = json.loads(LEDGER.read_text())
        ledger["trajectory"].append({
            "label": args.record,
            "host": next(iter(runs.values()))[0]["host"],
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "trace": args.trace,
            "workloads": summary,
        })
        LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
