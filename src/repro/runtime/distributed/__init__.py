"""Distributed execution: broker/worker fan-out for RunSpec batches.

The spec/payload boundary was process-safe JSON from PR 1 on, so remote
execution is transport plus trust management:

* :mod:`~repro.runtime.distributed.protocol` -- JSON-lines-over-TCP framing
  shared by all three roles, speaking ``dalorex-dist/3`` only: gzip
  payloads, structured error/failure codes, bounded frames, chunked fetch;
* :mod:`~repro.runtime.distributed.broker` -- ``dalorex broker``: an asyncio
  TCP service over one costliest-first queue
  (:meth:`RunSpec.predicted_cost`) with pull leases, heartbeats, crash
  requeue under an attempt cap, digest- and oracle-checked ingest, and an
  optional restart-safe journal;
* :mod:`~repro.runtime.distributed.worker` -- ``dalorex worker``: stateless
  pull loops that rebuild graph and machine from the canonical spec and
  run it on the one serial engine;
* :mod:`~repro.runtime.distributed.client` -- the
  :class:`~repro.runtime.backends.RunnerBackend` that
  ``--backend distributed`` plugs into any ExperimentRunner call site.

See ``docs/DISTRIBUTED.md`` for topology and failure semantics.  Each
process reads its own telemetry switch, ``DALOREX_TELEMETRY_JSONL``, and
writes its spans and events to that file (see ``docs/OBSERVABILITY.md``).
"""

from repro.runtime.distributed.broker import Broker, BrokerServer, BrokerStats
from repro.runtime.distributed.client import DistributedBackend
from repro.runtime.distributed.protocol import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    PROTOCOL,
    BrokerError,
    ProtocolError,
    format_address,
    parse_address,
    request,
)
from repro.runtime.distributed.worker import Worker, execute_canonical

__all__ = [
    "Broker",
    "BrokerError",
    "BrokerServer",
    "BrokerStats",
    "DEFAULT_PORT",
    "DistributedBackend",
    "MAX_FRAME_BYTES",
    "PROTOCOL",
    "ProtocolError",
    "Worker",
    "execute_canonical",
    "format_address",
    "parse_address",
    "request",
]
