#!/usr/bin/env python
"""Localhost smoke test of the distributed execution backend.

Starts a real ``dalorex broker`` and N ``dalorex worker`` subprocesses, runs
a figure sweep through ``run_all_experiments.py --backend distributed``, and
asserts the JSON output is byte-identical to the same sweep executed on the
local process-pool backend.  With ``--kill-one-worker`` an extra worker is
started and SIGKILLed mid-sweep, proving that lease expiry + requeue finish
the batch anyway (the byte-equality assertion is unchanged).  With
``--telemetry`` the workers run with telemetry on, each streaming its own
JSONL file, and ``dalorex trace`` must print the span table of one of them
(the byte-equality assertion is unchanged here too).

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


def _start_broker(work_dir: Path, lease_timeout: float) -> tuple:
    command = [sys.executable, "-m", "repro.cli", "broker",
               "--port", "0",
               "--cache-dir", str(work_dir / "broker-cache"),
               "--state-file", str(work_dir / "broker-state.json"),
               "--lease-timeout", str(lease_timeout),
               "--verify-ingest"]
    process = subprocess.Popen(
        command, env=_env(), stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline().strip()
    prefix = "broker listening on "
    if not line.startswith(prefix):
        process.kill()
        raise RuntimeError(f"unexpected broker banner: {line!r}")
    return process, line[len(prefix):]


def _start_worker(address: str, tag: str, trace: Path = None) -> subprocess.Popen:
    env = _env()
    if trace is not None:
        # Telemetry on, and each worker streams its own JSONL file.
        env["DALOREX_TELEMETRY"] = "1"
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


def _check_trace_table(trace: Path) -> None:
    """``dalorex trace`` on one worker's JSONL must print its span table."""
    report = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", str(trace)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert report.returncode == 0, f"dalorex trace failed: {report.stderr}"
    # Header, rule, one row per span name, rule, the "all spans" footer.
    spans = {line.split()[0] for line in report.stdout.splitlines()[2:-2]}
    assert {"worker.execute", "runtime.execute"} <= spans, \
        f"dalorex trace printed no worker span table:\n{report.stdout}"
    print(f"[smoke] dalorex trace {trace.name}: {len(spans)} span names",
          flush=True)


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
                        help="run the workers with DALOREX_TELEMETRY=1 and a "
                             "JSONL sink each, check 'dalorex trace' on one "
                             "of them, and keep the byte-equality check")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="dalorex-smoke-") as tmp:
        work_dir = Path(tmp)
        print(f"[smoke] reference sweep on the process-pool backend", flush=True)
        reference = _run_sweep(args, "process-pool", work_dir, ["--jobs", "2"])

        broker, address = _start_broker(work_dir, args.lease_timeout)
        print(f"[smoke] broker up at {address}", flush=True)
        worker_traces = [
            work_dir / f"worker-smoke-{i}.jsonl" if args.telemetry else None
            for i in range(args.workers)
        ]
        workers = [
            _start_worker(address, f"smoke-{i}", trace=trace)
            for i, trace in enumerate(worker_traces)
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
        finally:
            _stop_fleet(address, broker, workers + ([victim] if victim else []))

        if args.telemetry:
            # Every worker has exited and flushed its stream; the busiest
            # one certainly executed specs.
            written = [trace for trace in worker_traces if trace.is_file()]
            assert written, "no worker wrote a telemetry JSONL file"
            _check_trace_table(max(written, key=lambda trace: trace.stat().st_size))

        if distributed != reference:
            print("[smoke] FAIL: distributed output differs from process pool")
            return 1
        print(f"[smoke] OK: {len(reference)} JSON bytes identical across backends")
        return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main())
