"""Spec-level sharded execution and the local process-pool transport.

``execute_spec_sharded`` is the single entry point the runtime dispatches to
for ``spec.shards > 1``.  Two transports carry the hub <-> shard exchange:

* ``inproc`` -- every shard worker lives in the hub process (no parallelism;
  the reference transport the conformance tests drive);
* ``local`` -- one OS process per shard connected over multiprocessing
  pipes (the default: real CPU parallelism on one host).

A fleet worker runs a sharded spec the same way, on the transport its own
``DALOREX_SHARD_BACKEND`` names.

Byte-identity across transports is structural: the coordinator and workers
exchange the same messages regardless of the wire, and numpy arrays survive
pickling dtype-exactly.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional

from repro.core.shard import ShardPlan
from repro.core.shard_exec import ShardWorker, run_sharded
from repro.errors import SimulationError

#: Transport selected when the caller does not pass one explicitly.
DEFAULT_SHARD_BACKEND = "local"
SHARD_BACKEND_CHOICES = ("local", "inproc")

_SHARD_BACKEND_ENV = "DALOREX_SHARD_BACKEND"


def resolve_shard_backend(backend: Optional[str] = None) -> str:
    """Effective shard transport: explicit argument, else env, else local."""
    name = backend or os.environ.get(_SHARD_BACKEND_ENV) or DEFAULT_SHARD_BACKEND
    name = name.strip().lower()
    if name not in SHARD_BACKEND_CHOICES:
        raise SimulationError(
            f"unknown shard backend {name!r}; choices: {SHARD_BACKEND_CHOICES}"
        )
    return name


def _context():
    """Fork when available (shares the graph memo copy-on-write), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return multiprocessing.get_context("spawn")


def _shard_child_main(conn, canonical: dict, shards: int, shard_index: int) -> None:
    """Process body of one shard worker: build the machine, serve requests."""
    try:
        from repro.runtime.spec import RunSpec, build_machine

        spec = RunSpec.from_canonical(canonical)
        machine = build_machine(spec)
        plan = ShardPlan(machine.config.num_tiles, shards)
        worker = ShardWorker(machine, plan, shard_index)
        conn.send({"ok": True})
    except Exception as exc:  # noqa: BLE001 - report, then exit
        try:
            conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
        finally:
            conn.close()
        return
    try:
        while True:
            msg = conn.recv()
            if msg is None or msg.get("op") == "shutdown":
                break
            try:
                conn.send({"ok": True, "reply": worker.handle(msg)})
            except Exception as exc:  # noqa: BLE001 - the run is lost either way
                conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
                break
    except EOFError:  # hub went away; nothing left to serve
        pass
    finally:
        conn.close()


class ProcessShardChannel:
    """Hub-side endpoint of one shard process (multiprocessing pipe)."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    def post(self, msg: dict) -> None:
        self.conn.send(msg)

    def wait(self):
        try:
            reply = self.conn.recv()
        except EOFError:
            raise SimulationError(
                "shard worker process exited mid-run (pipe closed)"
            ) from None
        if not reply.get("ok"):
            raise SimulationError(f"shard worker failed: {reply.get('error')}")
        return reply.get("reply")

    def request(self, msg: dict):
        self.post(msg)
        return self.wait()

    def close(self) -> None:
        try:
            self.conn.send({"op": "shutdown"})
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


def start_process_channels(spec, plan: ShardPlan) -> List[ProcessShardChannel]:
    """Launch one worker process per shard; all machines build concurrently."""
    ctx = _context()
    canonical = spec.canonical()
    channels: List[ProcessShardChannel] = []
    try:
        for shard in range(plan.num_shards):
            parent, child = ctx.Pipe()
            process = ctx.Process(
                target=_shard_child_main,
                args=(child, canonical, plan.num_shards, shard),
                daemon=True,
                name=f"dalorex-shard-{shard}",
            )
            process.start()
            child.close()
            channels.append(ProcessShardChannel(process, parent))
        for shard, channel in enumerate(channels):
            try:
                ready = channel.conn.recv()
            except EOFError:
                raise SimulationError(
                    f"shard worker {shard} died before reporting ready"
                ) from None
            if not ready.get("ok"):
                raise SimulationError(
                    f"shard worker {shard} failed to start: {ready.get('error')}"
                )
    except Exception:
        for channel in channels:
            try:
                channel.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        raise
    return channels


def execute_spec_sharded(spec, backend: Optional[str] = None):
    """Execute one spec across ``spec.shards`` workers, byte-identical to serial."""
    name = resolve_shard_backend(backend)
    from repro.runtime.spec import build_machine

    factory = lambda: build_machine(spec)  # noqa: E731 - tiny closure
    if name == "inproc":
        channel_factory = None
    else:
        channel_factory = lambda plan: start_process_channels(spec, plan)  # noqa: E731
    return run_sharded(
        factory,
        spec.shards,
        verify=spec.verify,
        channel_factory=channel_factory,
    )
