"""Shared experiment execution substrate: specs, caching and parallel fan-out.

Every figure runner, sweep, CLI entry point and benchmark describes the
simulations it needs as :class:`~repro.runtime.spec.RunSpec` values (a frozen,
content-hashable description of one run) and hands them to an
:class:`~repro.runtime.runner.ExperimentRunner`, which

* deduplicates identical specs within a batch,
* satisfies repeats from a content-addressed on-disk
  :class:`~repro.runtime.cache.ResultCache`, and
* hands cache misses to a :class:`~repro.runtime.backends.RunnerBackend`:
  inline, a local ``ProcessPoolExecutor``, or a broker/worker fleet spanning
  machines (:mod:`repro.runtime.distributed`).  Workers rebuild the graph and
  machine from the spec, so nothing unpicklable crosses a process -- or
  host -- boundary.  Every backend runs a spec through
  :func:`~repro.runtime.backends.execute_to_payload`, the one place its
  ``runtime.execute`` and ``runtime.serialize`` spans are written when
  ``DALOREX_TELEMETRY_JSONL`` names a trace file.

Results are bit-identical regardless of backend, worker count or cache state
because every result -- serial, parallel, remote or cached -- passes through
the same JSON serialization round-trip (:mod:`repro.runtime.serialize`).
"""

from repro.runtime.backends import (
    BACKEND_CHOICES,
    InlineBackend,
    ProcessPoolBackend,
    RunnerBackend,
    execute_to_payload,
    resolve_backend,
)
from repro.runtime.cache import ResultCache, payload_digest
from repro.runtime.runner import ExperimentRunner, RunnerStats
from repro.runtime.serialize import result_from_payload, result_to_payload
from repro.runtime.spec import (
    RunSpec,
    build_graph,
    execute_spec,
    load_graph,
    reset_graph_memo,
)

__all__ = [
    "BACKEND_CHOICES",
    "RunSpec",
    "ResultCache",
    "ExperimentRunner",
    "InlineBackend",
    "ProcessPoolBackend",
    "RunnerBackend",
    "RunnerStats",
    "build_graph",
    "execute_spec",
    "execute_to_payload",
    "load_graph",
    "payload_digest",
    "reset_graph_memo",
    "resolve_backend",
    "result_to_payload",
    "result_from_payload",
]
