"""Gate simulator-performance benchmarks against a committed baseline.

CI runs ``pytest benchmarks/bench_simulator_performance.py --benchmark-json
BENCH_simulator.json``, uploads the JSON as an artifact, and then runs this
script to compare the measured means against the committed baseline
(``benchmarks/BENCH_simulator_baseline.json``).  The job fails when any
benchmark slowed down by more than ``--threshold`` (default 1.25 = 25%).

Raw wall-clock means are not comparable across machines, so both the
baseline and every check normalize by a *calibration* measurement: a fixed
pure-Python workload timed on the spot.  The gate compares
``(mean / calibration_now)`` against ``(baseline_mean / baseline_calibration)``
-- i.e. "how many calibration units does this benchmark cost", which tracks
interpreter speed instead of absolute CPU speed.  The simulator benchmarks
are interpreter-bound, so this is a stable unit for them.

Calibration is deliberately noise-robust: rather than one best-of-5
measurement per invocation (where a single lucky sample -- a quiet scheduler
window, a turbo burst -- inflates every normalized cost and fails the gate
spuriously), samples are *interleaved* with the comparisons.  Each benchmark
check draws fresh samples into a growing pool and normalizes by the pool's
median, so transient jitter in any one window is voted down by the rest.

Refresh the baseline after an intentional performance change::

    PYTHONPATH=src python -m pytest benchmarks/bench_simulator_performance.py \
        --benchmark-json BENCH_simulator.json -q
    python scripts/check_bench_regression.py --bench-json BENCH_simulator.json \
        --update-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / (
    "BENCH_simulator_baseline.json"
)


def _calibration_workload() -> int:
    """Fixed pure-Python workload: dict/list traffic and integer arithmetic,
    the same operations the simulator hot paths spend their time on."""
    total = 0
    table = {}
    values = list(range(2000))
    for round_index in range(50):
        for value in values:
            key = (value * 31 + round_index) % 997
            table[key] = table.get(key, 0) + value
            total += value
    return total


def calibrate_once(timer=time.perf_counter, workload=_calibration_workload) -> float:
    """Seconds of one run of the calibration workload."""
    start = timer()
    workload()
    return timer() - start


class CalibrationPool:
    """Median-of-pool calibration, interleaved with the comparisons.

    ``value()`` draws ``samples_per_check`` fresh samples (topping up to
    ``min_samples`` on first use) and returns the median of everything
    collected so far.  Call it once per benchmark check: every check then
    re-calibrates against its own time window, and the median across all
    windows makes a single lucky (or unlucky) sample irrelevant -- unlike a
    best-of-N taken once up front, whose minimum is exactly the lucky sample.

    ``timer`` and ``workload`` are injectable so tests can feed synthetic
    jitter without depending on real clock behaviour.
    """

    def __init__(
        self,
        samples_per_check: int = 3,
        min_samples: int = 9,
        timer=time.perf_counter,
        workload=_calibration_workload,
    ) -> None:
        self.samples: list = []
        self.samples_per_check = samples_per_check
        self.min_samples = min_samples
        self._timer = timer
        self._workload = workload

    def value(self) -> float:
        fresh = max(
            self.samples_per_check, self.min_samples - len(self.samples)
        )
        for _ in range(fresh):
            self.samples.append(
                calibrate_once(timer=self._timer, workload=self._workload)
            )
        return statistics.median(self.samples)


def calibrate(repeats: int = 9, timer=time.perf_counter,
              workload=_calibration_workload) -> float:
    """Median of ``repeats`` calibration samples (baseline refresh path)."""
    return statistics.median(
        calibrate_once(timer=timer, workload=workload) for _ in range(repeats)
    )


def benchmark_means(bench_json: dict) -> dict:
    """``{benchmark name: mean seconds}`` from a pytest-benchmark JSON blob."""
    return {
        bench["name"]: float(bench["stats"]["mean"])
        for bench in bench_json.get("benchmarks", [])
    }


def main(argv=None, timer=time.perf_counter, workload=_calibration_workload) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-json", required=True, metavar="FILE",
                        help="pytest-benchmark JSON output to check")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE), metavar="FILE",
                        help=f"committed baseline (default: {DEFAULT_BASELINE})")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="maximum allowed normalized slowdown (default: 1.25)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from --bench-json instead of "
                             "checking against it")
    args = parser.parse_args(argv)

    # The gate certifies the *telemetry-off* hot path (the provably-zero-cost
    # switch of docs/OBSERVABILITY.md).  Refusing to run with telemetry
    # enabled keeps a stray environment variable from either masking a real
    # regression or charging instrumentation overhead to the engines.
    if os.environ.get("DALOREX_TELEMETRY_JSONL", "").strip():
        print("error: the bench gate must measure the disabled-telemetry "
              "path; unset DALOREX_TELEMETRY_JSONL (benchmarks with "
              "telemetry on are not comparable to the committed baseline)",
              file=sys.stderr)
        return 2

    with open(args.bench_json, "r", encoding="utf-8") as handle:
        means = benchmark_means(json.load(handle))
    if not means:
        print("no benchmarks found in", args.bench_json, file=sys.stderr)
        return 2
    pool = CalibrationPool(timer=timer, workload=workload)

    if args.update_baseline:
        calibration = pool.value()
        baseline = {
            "calibration_seconds": calibration,
            "benchmarks": means,
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {args.baseline} "
              f"({len(means)} benchmarks, calibration {calibration:.4f}s)")
        return 0

    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    base_calibration = float(baseline["calibration_seconds"])
    base_means = baseline["benchmarks"]

    failures = []
    print(f"{'benchmark':58s} {'base':>8s} {'now':>8s} {'ratio':>6s}")
    for name, base_mean in sorted(base_means.items()):
        mean = means.get(name)
        if mean is None:
            failures.append(f"benchmark {name!r} missing from {args.bench_json}")
            continue
        # Re-calibrate per check: fresh samples join the pool, the median of
        # the whole pool normalizes this comparison.
        calibration = pool.value()
        normalized_base = base_mean / base_calibration
        normalized_now = mean / calibration
        ratio = normalized_now / normalized_base
        flag = " SLOW" if ratio > args.threshold else ""
        print(f"{name:58s} {base_mean:8.3f} {mean:8.3f} {ratio:6.2f}{flag}")
        if ratio > args.threshold:
            failures.append(
                f"{name}: normalized slowdown {ratio:.2f}x exceeds "
                f"{args.threshold:.2f}x"
            )
    print(f"calibration: median {statistics.median(pool.samples):.4f}s over "
          f"{len(pool.samples)} samples, baseline {base_calibration:.4f}s")
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
