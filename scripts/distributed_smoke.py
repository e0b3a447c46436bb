#!/usr/bin/env python
"""Localhost smoke test of the distributed execution backend.

Starts a real ``dalorex broker`` and N ``dalorex worker`` subprocesses, runs
a figure sweep through ``run_all_experiments.py --backend distributed``, and
asserts the JSON output is byte-identical to the same sweep executed on the
local process-pool backend.  With ``--kill-one-worker`` an extra worker is
started and SIGKILLed mid-sweep, proving that lease expiry + requeue finish
the batch anyway (the byte-equality assertion is unchanged).

This is the CI job behind the subsystem's acceptance criterion; run it
locally with::

    PYTHONPATH=src python scripts/distributed_smoke.py --scale 0.05 --figures 6
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RUN_ALL = REPO / "scripts" / "run_all_experiments.py"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_broker(
    work_dir: Path, lease_timeout: float, trace: Path = None, http: bool = False
) -> tuple:
    command = [sys.executable, "-m", "repro.cli", "broker",
               "--port", "0",
               "--cache-dir", str(work_dir / "broker-cache"),
               "--state-file", str(work_dir / "broker-state.json"),
               "--lease-timeout", str(lease_timeout),
               "--verify-ingest"]
    if trace is not None:
        command += ["--telemetry-jsonl", str(trace)]
    if http:
        command += ["--http-port", "0", "--sample-interval", "0.5"]
    process = subprocess.Popen(
        command, env=_env(), stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline().strip()
    prefix = "broker listening on "
    if not line.startswith(prefix):
        process.kill()
        raise RuntimeError(f"unexpected broker banner: {line!r}")
    address = line[len(prefix):]
    http_address = None
    if http:
        line = process.stdout.readline().strip()
        http_prefix = "gateway listening on "
        if not line.startswith(http_prefix):
            process.kill()
            raise RuntimeError(f"unexpected gateway banner: {line!r}")
        http_address = line[len(http_prefix):]
    return process, address, http_address


def _start_worker(
    address: str, tag: str, telemetry: bool = False, trace: Path = None
) -> subprocess.Popen:
    env = _env()
    if telemetry:
        env["DALOREX_TELEMETRY"] = "1"
    if trace is not None:
        # Each worker streams its own JSONL: `dalorex trace` merges the
        # broker's and every worker's file into one cross-process view.
        env["DALOREX_TELEMETRY_JSONL"] = str(trace)
    command = [sys.executable, "-m", "repro.cli", "worker",
               "--connect", address, "--worker-id", tag,
               "--poll-interval", "0.1", "--patience", "60"]
    return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)


def _stop_fleet(address: str, broker: subprocess.Popen, workers: list) -> None:
    """Shut the broker down through the protocol, then reap every process."""
    from repro.runtime.distributed.protocol import parse_address, request

    try:
        request(parse_address(address), {"op": "shutdown"})
    except Exception:
        broker.send_signal(signal.SIGINT)
    for process in workers:
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
    try:
        broker.wait(timeout=30)
    except subprocess.TimeoutExpired:
        broker.kill()


def _run_sweep(args, tag: str, work_dir: Path, extra: list) -> bytes:
    json_path = work_dir / f"{tag}.json"
    subprocess.run(
        [sys.executable, str(RUN_ALL),
         "--scale", str(args.scale), "--figures", *args.figures,
         "--json", str(json_path), "--output", str(work_dir / f"{tag}.txt")]
        + extra,
        env=_env(), check=True, stdout=subprocess.DEVNULL,
    )
    return json_path.read_bytes()


def _check_telemetry(address: str, worker_tags: list = ()) -> None:
    """Assert the observability surface is live on a running fleet.

    The ``metrics`` op must return real counters from the sweep that just
    ran, and ``dalorex fleet top`` must render a frame from them -- this is
    the acceptance check behind the PR 8 telemetry subsystem.  With the
    PR 9 aggregation layer, the snapshot is fleet-wide: every worker's
    piggybacked report must appear as an aggregation source.
    """
    from repro.runtime.distributed.protocol import parse_address, request

    response = request(parse_address(address), {"op": "metrics"})
    assert response.get("telemetry_enabled") is True, \
        "broker telemetry should be on by default"
    counters = response["metrics"]["counters"]
    completed = counters.get("broker.completed", {}).get("", 0)
    assert completed > 0, f"no completed specs counted: {sorted(counters)}"
    leases = sum(counters.get("broker.leases", {}).values())
    assert leases >= completed, f"lease counter lagging: {leases} < {completed}"
    assert "dalorex_broker_op_seconds_bucket" in response["text"], \
        "Prometheus exposition is missing op-latency histograms"
    reported = [
        name for name in response["metrics"].get("gauges", {})
        if name.startswith("worker.")
    ]
    assert "worker.uploads" in reported, \
        f"worker self-reports missing from the snapshot: {reported}"
    print(f"[smoke] metrics op live: {completed} completions, "
          f"{leases} leases, {len(reported)} worker gauges", flush=True)

    sources = response.get("sources", {})
    for tag in worker_tags:
        assert tag in sources, \
            f"worker {tag!r} missing from the fleet aggregate: {sorted(sources)}"
    if worker_tags:
        print(f"[smoke] fleet aggregate merges {len(sources)} worker "
              f"source(s): {sorted(sources)}", flush=True)

    top = subprocess.run(
        [sys.executable, "-m", "repro.cli", "fleet", "top",
         "--connect", address, "--iterations", "1", "--no-clear"],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert top.returncode == 0, f"fleet top failed: {top.stderr}"
    assert "op latency:" in top.stdout and "queue depth:" in top.stdout, \
        f"fleet top rendered no dashboard:\n{top.stdout}"
    assert "signals:" in top.stdout and "history:" in top.stdout, \
        f"fleet top missing signals/sparkline sections:\n{top.stdout}"
    print("[smoke] fleet top rendered a live frame", flush=True)


def _check_gateway(http_address: str, worker_tags: list) -> None:
    """Scrape the broker's HTTP observability gateway and validate it.

    ``/healthz`` must answer, and ``/metrics`` must serve structurally
    valid Prometheus text (checked with scripts/check_prom_text.py) that
    aggregates every worker's piggybacked report.
    """
    import urllib.request

    sys.path.insert(0, str(REPO / "scripts"))
    from check_prom_text import check_prom_text

    with urllib.request.urlopen(
        f"http://{http_address}/healthz", timeout=30
    ) as response:
        assert response.status == 200, f"/healthz answered {response.status}"
    with urllib.request.urlopen(
        f"http://{http_address}/metrics", timeout=30
    ) as response:
        assert response.status == 200, f"/metrics answered {response.status}"
        text = response.read().decode("utf-8")
    problems = check_prom_text(text)
    assert not problems, "invalid Prometheus exposition:\n" + "\n".join(problems)
    assert "dalorex_broker_op_seconds_bucket" in text, \
        "gateway /metrics missing broker op-latency histograms"
    for tag in worker_tags:
        assert f'source="{tag}"' in text, \
            f"worker {tag!r} absent from the gateway's fleet-wide /metrics"
    print(f"[smoke] gateway /metrics valid: {len(text.splitlines())} lines, "
          f"{len(worker_tags)} worker source(s) aggregated", flush=True)


def _check_trace_links(trace_files: list) -> None:
    """Assert the fleet's JSONL streams link into cross-process traces.

    ``dalorex trace broker.jsonl w0.jsonl w1.jsonl`` must group spans per
    trace id, and at least one trace must contain spans from two or more
    processes (broker + worker) -- the acceptance criterion for trace
    propagation.
    """
    from repro.telemetry.trace import group_traces, load_many

    paths = [str(path) for path in trace_files]
    report = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", *paths],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert report.returncode == 0, f"dalorex trace failed: {report.stderr}"
    assert "critical path" in report.stdout, \
        f"dalorex trace printed no per-trace report:\n{report.stdout}"
    grouped = group_traces(load_many(paths))
    assert grouped, "no trace-linked spans in the fleet's JSONL streams"
    linked = [
        trace_id for trace_id, spans in grouped.items()
        if len({span.get("pid") for span in spans}) >= 2
    ]
    assert linked, \
        f"no trace crossed a process boundary ({len(grouped)} traces seen)"
    print(f"[smoke] {len(grouped)} trace(s) linked, {len(linked)} spanning "
          f">=2 processes", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--figures", nargs="+", default=["6"])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--lease-timeout", type=float, default=10.0,
                        help="short lease so a killed worker's spec requeues fast")
    parser.add_argument("--kill-one-worker", action="store_true",
                        help="SIGKILL one extra worker mid-sweep")
    parser.add_argument("--telemetry", action="store_true",
                        help="run the fleet with telemetry on (broker JSONL "
                             "trace + DALOREX_TELEMETRY=1 workers), assert "
                             "live counters via the metrics op and 'fleet "
                             "top', and keep the byte-equality check")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="with --telemetry, copy the broker's JSONL "
                             "trace here (CI uploads it as an artifact)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="dalorex-smoke-") as tmp:
        work_dir = Path(tmp)
        trace = work_dir / "broker-trace.jsonl" if args.telemetry else None
        print(f"[smoke] reference sweep on the process-pool backend", flush=True)
        reference = _run_sweep(args, "process-pool", work_dir, ["--jobs", "2"])

        broker, address, http_address = _start_broker(
            work_dir, args.lease_timeout, trace=trace, http=args.telemetry
        )
        print(f"[smoke] broker up at {address}"
              + (f", gateway at {http_address}" if http_address else ""),
              flush=True)
        worker_tags = [f"smoke-{i}" for i in range(args.workers)]
        worker_traces = {
            tag: work_dir / f"worker-{tag}.jsonl" for tag in worker_tags
        } if args.telemetry else {}
        workers = [
            _start_worker(
                address,
                tag,
                telemetry=args.telemetry,
                trace=worker_traces.get(tag),
            )
            for tag in worker_tags
        ]
        victim = _start_worker(address, "smoke-victim") if args.kill_one_worker else None

        try:
            if victim is not None:
                # Let the victim lease something, then kill it mid-run.
                def _assassinate():
                    time.sleep(2.0)
                    victim.kill()
                    print("[smoke] killed one worker mid-sweep", flush=True)

                import threading
                threading.Thread(target=_assassinate, daemon=True).start()

            print(f"[smoke] distributed sweep via {args.workers} worker(s)", flush=True)
            distributed = _run_sweep(
                args, "distributed", work_dir,
                ["--backend", "distributed", "--connect", address],
            )
            if args.telemetry:
                _check_telemetry(address, worker_tags=worker_tags)
                _check_gateway(http_address, worker_tags=worker_tags)
        finally:
            _stop_fleet(address, broker, workers + ([victim] if victim else []))

        if args.telemetry:
            assert trace.is_file() and trace.stat().st_size > 0, \
                "broker wrote no telemetry JSONL trace"
            lines = trace.read_bytes().count(b"\n")
            print(f"[smoke] broker trace: {lines} JSONL records", flush=True)
            # Every fleet process has exited and flushed its stream: merge
            # the broker's and the workers' files and require cross-process
            # trace linking.
            _check_trace_links(
                [trace] + [worker_traces[tag] for tag in worker_tags
                           if worker_traces[tag].is_file()]
            )
            if args.trace_out:
                out = Path(args.trace_out)
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_bytes(trace.read_bytes())
                print(f"[smoke] trace copied to {out}", flush=True)

        if distributed != reference:
            print("[smoke] FAIL: distributed output differs from process pool")
            return 1
        print(f"[smoke] OK: {len(reference)} JSON bytes identical across backends")
        return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main())
