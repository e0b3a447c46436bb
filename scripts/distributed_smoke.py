#!/usr/bin/env python
"""Localhost smoke test of the distributed execution backend.

Starts a real ``dalorex broker`` and N ``dalorex worker`` subprocesses, runs
a figure sweep through ``run_all_experiments.py --backend distributed``, and
asserts the JSON output is byte-identical to the same sweep executed on the
local process-pool backend.  With ``--kill-one-worker`` a lone extra worker
starts first and is SIGKILLed as soon as the broker's ``status`` ledger shows
it holding a lease it has not finished; the regular workers start once that
lease has expired, and the smoke fails unless the broker counted an expired
lease, proving that lease expiry + requeue finish the batch anyway (the
byte-equality assertion is unchanged).  With
``--telemetry`` each worker runs with ``DALOREX_TELEMETRY_JSONL`` naming its
own trace file, and ``dalorex trace`` must print the span table of one of
them (the byte-equality assertion is unchanged here too).

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

#: Victims started, one at a time, until one dies holding a lease.
KILL_ATTEMPTS = 5


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
        # Each worker streams its spans to its own JSONL file.
        env["DALOREX_TELEMETRY_JSONL"] = str(trace)
    command = [sys.executable, "-m", "repro.cli", "worker",
               "--connect", address, "--worker-id", tag,
               "--poll-interval", "0.1", "--patience", "60"]
    return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)


def _status(address: str) -> dict:
    from repro.runtime.distributed.protocol import parse_address, request

    return request(parse_address(address), {"op": "status"})


def _unfinished_leases(status: dict, tag: str) -> int:
    """Leases worker ``tag`` took and has not completed, had rejected or
    released, per the broker's ``status`` ledger."""
    ledger = status["per_worker"].get(tag)
    if ledger is None:
        return 0
    return ledger["leases"] - ledger["completed"] - ledger["rejected"] - ledger["released"]


def _kill_a_lease_holder(address: str, workers: list, sweep: subprocess.Popen) -> None:
    """Start lone victims until one is SIGKILLed holding a lease that then
    expires.  Every process started is appended to ``workers``; the drill
    stops early once the sweep has exited."""
    for attempt in range(KILL_ATTEMPTS):
        tag = f"smoke-victim-{attempt}"
        victim = _start_worker(address, tag)
        workers.append(victim)
        while not _unfinished_leases(_status(address), tag):
            if sweep.poll() is not None or victim.poll() is not None:
                victim.kill()
                return
            time.sleep(0.02)
        victim.kill()
        victim.wait()
        # An upload sent before the SIGKILL may still finish the lease, so
        # wait until the lease has either expired or been finished.
        status = _status(address)
        while not status["stats"]["expired_leases"] and _unfinished_leases(status, tag):
            if sweep.poll() is not None:
                return
            time.sleep(0.1)
            status = _status(address)
        if status["stats"]["expired_leases"]:
            print(f"[smoke] killed {tag} while it held a lease", flush=True)
            return
        print(f"[smoke] {tag} finished its lease before the kill; retrying", flush=True)


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


def _sweep_command(args, tag: str, work_dir: Path, extra: list) -> list:
    """``run_all_experiments.py`` writing ``<tag>.json`` into ``work_dir``."""
    return [sys.executable, str(RUN_ALL),
            "--scale", str(args.scale), "--figures", *args.figures,
            "--json", str(work_dir / f"{tag}.json"),
            "--output", str(work_dir / f"{tag}.txt")] + extra


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
                        help="set DALOREX_TELEMETRY_JSONL to one trace file "
                             "per worker, check 'dalorex trace' on one of "
                             "them, and keep the byte-equality check")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="dalorex-smoke-") as tmp:
        work_dir = Path(tmp)
        print(f"[smoke] reference sweep on the process-pool backend", flush=True)
        subprocess.run(
            _sweep_command(args, "process-pool", work_dir, ["--jobs", "2"]),
            env=_env(), check=True, stdout=subprocess.DEVNULL,
        )
        reference = (work_dir / "process-pool.json").read_bytes()

        broker, address = _start_broker(work_dir, args.lease_timeout)
        print(f"[smoke] broker up at {address}", flush=True)
        worker_traces = [
            work_dir / f"worker-smoke-{i}.jsonl" if args.telemetry else None
            for i in range(args.workers)
        ]
        workers: list = []
        print(f"[smoke] distributed sweep via {args.workers} worker(s)", flush=True)
        sweep = subprocess.Popen(
            _sweep_command(args, "distributed", work_dir,
                           ["--backend", "distributed", "--connect", address]),
            env=_env(), stdout=subprocess.DEVNULL,
        )
        try:
            if args.kill_one_worker:
                # The victim runs alone until it is killed holding a lease,
                # so the sweep can only finish through that lease's expiry.
                _kill_a_lease_holder(address, workers, sweep)
            workers.extend(
                _start_worker(address, f"smoke-{i}", trace=trace)
                for i, trace in enumerate(worker_traces)
            )
            if sweep.wait() != 0:
                raise subprocess.CalledProcessError(sweep.returncode, sweep.args)
            distributed = (work_dir / "distributed.json").read_bytes()
            expired = _status(address)["stats"]["expired_leases"]
        finally:
            if sweep.poll() is None:
                sweep.kill()
                sweep.wait()
            _stop_fleet(address, broker, workers)

        if args.kill_one_worker:
            print(f"[smoke] expired leases after the sweep: {expired}", flush=True)
            if expired < 1:
                print("[smoke] FAIL: no killed worker held a lease that expired")
                return 1

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
