"""Figure-path benchmark: host time to regenerate the paper's figures.

Run from the repository root::

    python3 perfbench/run.py --workload cycle-ladder --seed 7 --seconds 40 --trace 0

Each run drives one public figure runner (see ``workloads.py``) from this
process, serially and with no result cache.  Every batch starts cold: the
graph memo and the topology cache (which holds the route caches) are
cleared, the workload's graphs are generated, and then the batch is timed.
Batches repeat until the next one would end after ``--seconds``; metrics are
medians over the batches.  Batch ``i`` runs at ``RunSpec.seed = seed + i *
SEED_STRIDE``, so the first batch at the default seed 7 regenerates the
figures' own inputs and a run's median averages over several input draws
(one draw alone moves the simulated work by several per cent).  The load is
a closed loop with one caller.

Host times are reported at a fixed reference speed.  On a shared 2-core
Intel Xeon VM the speed of the same batch drifts by 30% and more over
minutes, which no run length averages out.  So a fixed
pure-Python loop (:func:`reference_loop`) is timed before and after every
spec and every set-up process, and each interval is scaled by
``REFERENCE_S`` over the loop's mean time around it: the result is the time
the interval takes on a host where the loop takes ``REFERENCE_S``.  Raw wall
times are printed beside the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics of one traced batch (see ``spans.py``) after one untraced
batch at the same seed, and the ratio of their scaled wall times as the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run is correct
when every spec ran, every result verified against the CSR reference, and
batches at the same seed produced byte-identical result payloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

#: Variables that switch on telemetry or sharding inside the simulator.  A
#: run with any of them set does not measure the path users run by default.
GUARDED_ENV = ("DALOREX_TELEMETRY", "DALOREX_TELEMETRY_JSONL", "DALOREX_SHARD_BACKEND")

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROCESSES = 5

#: Seed distance between consecutive batches of one run.
SEED_STRIDE = 1000

#: Seconds :func:`reference_loop` takes at the reference speed (about its
#: time on an idle 2-core Intel Xeon host with CPython 3.11).  Changing it
#: rescales every host time, so it stays fixed across the ledger.
REFERENCE_S = 0.003


class Batch(NamedTuple):
    seed: int
    wall_s: float  # at the reference speed
    raw_wall_s: float
    spec_s: List[Optional[float]]  # per figure point in figure order, scaled
    attempted: int
    failed: int
    digest: str
    tasks: int
    sim_cycles: float
    tiles: int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="cycle-ladder, analytic-scaling or noc-contention")
    parser.add_argument("--seed", type=int, default=7,
                        help="RunSpec.seed of the first batch (default: 7, the figures' seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time; batches repeat while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate the workload's graphs, then exit "
                             "(the process that setup_s times)")
    return parser


def reference_loop() -> float:
    """Seconds of one fixed pass of heap and dict traffic, the operations the
    simulator's engines spend their time on."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    heap: list = []
    for index in range(3000):
        key = (index * 31) % 1021
        table[key] = table.get(key, 0) + index
        heapq.heappush(heap, (index * 7919 % 1009, key))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def between_references(function, *args, **kwargs):
    """Run ``function`` between two reference loops.

    Returns its result, its raw elapsed seconds, the speed factor that
    scales them to the reference speed, and the seconds the loops took.
    """
    before = reference_loop()
    start = time.perf_counter()
    result = function(*args, **kwargs)
    elapsed = time.perf_counter() - start
    after = reference_loop()
    return result, elapsed, 2.0 * REFERENCE_S / (before + after), before + after


def host_stamp() -> Dict[str, object]:
    """Where the numbers were measured."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def build_graphs(specs) -> None:
    """Generate every graph the specs need into the (cleared) graph memo."""
    from repro.runtime import spec as spec_module

    for dataset, scale, seed in sorted({(s.dataset, s.scale, s.seed) for s in specs}):
        spec_module.load_graph(dataset, scale=scale, seed=seed)


def run_batch(workload: str, seed: int, tracer=None) -> Batch:
    """One cold batch: clear caches, generate graphs, time the figure runner."""
    from repro.noc.topology import cached_topology
    from repro.runtime import backends, reset_graph_memo
    from workloads import WORKLOADS, SeededRunner, workload_specs

    specs = workload_specs(workload, seed)
    reset_graph_memo()
    cached_topology.cache_clear()
    payloads: Dict[str, dict] = {}
    timings: Dict[str, Tuple[float, float]] = {}  # key -> (raw s, speed factor)
    reference_s = [0.0]
    execute = backends.execute_to_payload

    def timed_execute(spec):
        (key, payload), elapsed, factor, spent = between_references(execute, spec)
        timings[key] = (elapsed, factor)
        reference_s[0] += spent
        payloads[key] = payload
        return key, payload

    with tracer if tracer is not None else contextlib.nullcontext():
        build_graphs(specs)
        gc.collect()
        backends.execute_to_payload = timed_execute
        start = time.perf_counter()
        try:
            WORKLOADS[workload](SeededRunner(seed))
        except Exception as exc:  # a failing spec fails the run, not the benchmark
            print(f"batch raised {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            raw_wall_s = time.perf_counter() - start - reference_s[0]
            backends.execute_to_payload = execute

    # Time outside the specs (runner bookkeeping, decoding, figure assembly)
    # is scaled by the batch's median speed factor.
    factors = [factor for _, factor in timings.values()]
    median_factor = statistics.median(factors) if factors else REFERENCE_S / reference_loop()
    outside_s = raw_wall_s - sum(raw for raw, _ in timings.values())
    wall_s = sum(raw * factor for raw, factor in timings.values()) + outside_s * median_factor

    keys = list(dict.fromkeys(spec.key() for spec in specs))
    digest = hashlib.sha256()
    verified = 0
    for key in keys:
        payload = payloads.get(key)
        if payload is None:
            continue
        verified += payload["verified"] is True
        digest.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    done = [payloads[key] for key in keys if key in payloads]
    return Batch(
        seed=seed,
        wall_s=wall_s,
        raw_wall_s=raw_wall_s,
        spec_s=[timings[key][0] * timings[key][1] if key in timings else None
                for key in keys],
        attempted=len(keys),
        failed=len(keys) - verified,
        digest=digest.hexdigest(),
        tasks=sum(int(p["counters"]["tasks_executed"]) for p in done),
        sim_cycles=sum(float(p["cycles"]) for p in done),
        tiles=sum(spec.config.num_tiles for spec in specs),
    )


def time_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Median seconds, scaled and raw, from spawning a fresh process to its
    exit, where the process imports the simulator and generates the
    workload's graphs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROCESSES):
        _, elapsed, factor, _ = between_references(
            subprocess.run, command, check=True, timeout=120)
        scaled.append(elapsed * factor)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def slowest_point_s(batches: List[Batch]) -> float:
    """Longest single figure point: its median over the batches, then the
    maximum over points.  Taking the median per point first keeps one noisy
    spec from setting the value."""
    medians = []
    for times in zip(*(b.spec_s for b in batches)):
        done = [t for t in times if t is not None]
        if done:
            medians.append(statistics.median(done))
    return max(medians, default=0.0)


def measure(workload: str, seed: int, seconds: float) -> Tuple[dict, List[Batch], dict]:
    """End-to-end metrics over cold batches repeated for ``seconds``, plus
    the raw (unscaled) host times."""
    setup_s, raw_setup_s = time_setup(workload, seed)
    batches: List[Batch] = []
    start = time.perf_counter()
    while True:
        batches.append(run_batch(workload, seed + len(batches) * SEED_STRIDE))
        elapsed = time.perf_counter() - start
        if elapsed * (len(batches) + 1) / len(batches) > seconds:
            break
    median = statistics.median
    metrics = {
        "wall_s": (median(b.wall_s for b in batches), "s"),
        "setup_s": (setup_s, "s"),
        "slowest_run_s": (slowest_point_s(batches), "s"),
        "sim_tasks_per_s": (median(b.tasks / b.wall_s for b in batches), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"raw_wall_s": median(b.raw_wall_s for b in batches), "raw_setup_s": raw_setup_s}
    return ({name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            batches, raw)


def measure_layers(workload: str, seed: int) -> Tuple[dict, List[Batch], List[str]]:
    """Per-layer metrics of one traced batch, after one untraced batch."""
    from spans import Tracer, layer_metrics

    untraced = run_batch(workload, seed)
    tracer = Tracer()
    traced = run_batch(workload, seed, tracer=tracer)
    metrics, absent = layer_metrics(tracer, traced.raw_wall_s, traced.tasks, traced.tiles)
    metrics["engine.sim_cycles"] = {"value": traced.sim_cycles, "unit": "cycles"}
    metrics["trace_overhead_frac"] = {
        "value": traced.wall_s / untraced.wall_s, "unit": "ratio"}
    return metrics, [untraced, traced], absent


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    guarded = [name for name in GUARDED_ENV if os.environ.get(name, "").strip()]
    if guarded:
        print(f"error: unset {', '.join(guarded)}: the benchmark measures the "
              "default path, with telemetry off and no sharding", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, workload_specs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_only:
        build_graphs(workload_specs(args.workload, args.seed))
        return 0

    absent: List[str] = []
    raw: Dict[str, float] = {}
    if args.trace:
        metrics, batches, absent = measure_layers(args.workload, args.seed)
    else:
        metrics, batches, raw = measure(args.workload, args.seed, args.seconds)
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    digests: Dict[int, set] = {}
    for batch in batches:
        digests.setdefault(batch.seed, set()).add(batch.digest)
    deterministic = all(len(found) == 1 for found in digests.values())
    first = batches[0]
    correct = failed == 0 and deterministic and first.tasks > 0

    print("host:", json.dumps(host_stamp(), sort_keys=True))
    print("fingerprint:", json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "batch_seeds": [b.seed for b in batches],
        "batch_wall_s": [round(b.wall_s, 3) for b in batches],
        "batch_raw_wall_s": [round(b.raw_wall_s, 3) for b in batches],
        "batch_tasks": [b.tasks for b in batches],
        "sim_digest": first.digest,
        "engine.tasks": first.tasks,
        "engine.sim_cycles": first.sim_cycles,
        "failed_frac": failed / attempted if attempted else 1.0,
        "deterministic": deterministic,
    }, sort_keys=True))
    for name, value in raw.items():
        print(f"  {name:28s} {value:>16.6g} s (unscaled)")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:28s} {shown} {metric['unit']}")
    if absent:
        print("absent (wrapped function missing):", ", ".join(absent))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
