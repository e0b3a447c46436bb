"""ExperimentRunner: deduplicated, cached, optionally parallel spec execution.

The runner is the single execution substrate behind the figure runners, the
strong-scaling sweeps, both CLI entry points and the benchmark suite.  A batch
of :class:`~repro.runtime.spec.RunSpec` values is

1. deduplicated by content key -- against the batch itself and against every
   spec this runner already ran (an in-memory payload memo), so identical
   points simulate once per runner even without an on-disk cache,
2. checked against the :class:`~repro.runtime.cache.ResultCache` (if any),
3. executed through a :class:`~repro.runtime.backends.RunnerBackend` --
   inline for ``jobs <= 1``, a persistent ``ProcessPoolExecutor`` otherwise,
   or a broker/worker fleet when a distributed backend is supplied; each
   result streams into the cache as it lands,
4. stored back into the cache.

Every result, whatever its provenance, passes through the same serialization
round-trip, so ``run_batch`` output is bit-identical across backends, ``jobs``
settings and cache states.  :attr:`ExperimentRunner.stats` counts executed /
cached / deduplicated specs, which is how sweeps verify that a warm cache
re-runs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.results import SimulationResult
from repro.runtime.backends import RunnerBackend, resolve_backend
from repro.runtime.cache import ResultCache
from repro.runtime.serialize import PAYLOAD_FORMAT, result_from_payload
from repro.runtime.spec import RunSpec


def _predicted_cost(spec: RunSpec) -> float:
    """Sort key for adaptive batch ordering; unknown datasets sort as free."""
    try:
        return spec.predicted_cost()
    except Exception:
        return 0.0


def _payload_weight(payload: Dict[str, Any]) -> int:
    """Approximate size of one payload as its total array-element count."""
    total = 64  # scalars and strings
    for name in ("per_tile_busy_cycles", "per_tile_instructions", "per_router_flits"):
        total += len(payload[name]["data"])
    for encoded in payload["outputs"].values():
        total += len(encoded["data"])
    return total


@dataclass
class RunnerStats:
    """Counts of how a runner satisfied the specs it was given.

    ``deduplicated`` covers both duplicates within one batch and specs whose
    identical twin already ran in an earlier batch of the same runner.
    """

    executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0

    def describe(self) -> str:
        return (
            f"executed={self.executed} cache_hits={self.cache_hits} "
            f"deduplicated={self.deduplicated}"
        )


class ExperimentRunner:
    """Runs batches of specs with caching, deduplication and parallel fan-out.

    Args:
        jobs: worker processes for cache misses; ``1`` executes in-process.
            Ignored when an explicit ``backend`` is supplied.
        cache: optional on-disk result cache shared across invocations.
        refresh: ignore (but still refill) existing cache entries.
        backend: execution strategy for cache misses; defaults to the
            inline/process-pool choice ``jobs`` implies.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        refresh: bool = False,
        backend: Optional[RunnerBackend] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.refresh = refresh
        self.stats = RunnerStats()
        self.backend = backend if backend is not None else resolve_backend(None, jobs)
        # Payloads of recent specs, so a spec repeated across *batches*
        # (e.g. fig9 and textstats sharing a design point in one sweep)
        # simulates once even without an on-disk cache.  Only used when no
        # cache is configured -- the cache already provides cross-batch reuse
        # without holding list-encoded payloads in RAM -- and FIFO-evicted
        # against a total array-element budget, since payloads for large
        # graphs run to megabytes each.
        self._memo: Dict[str, Dict[str, Any]] = {}
        self._memo_weights: Dict[str, int] = {}
        self._memo_weight = 0
        self._memo_weight_max = 2_000_000  # array elements, ~tens of MB

    # -------------------------------------------------------------- lifecycle
    @property
    def _pool(self):
        """The process-pool backend's executor (compatibility accessor)."""
        return getattr(self.backend, "_pool", None)

    def close(self) -> None:
        """Release backend resources (idempotent; the runner stays usable --
        a process-pool backend re-pools on its next parallel batch)."""
        self.backend.close()

    def clear_memo(self) -> None:
        """Forget in-memory payloads (benchmarks use this between timings so
        repeated points are re-simulated, not replayed)."""
        self._memo.clear()
        self._memo_weights.clear()
        self._memo_weight = 0

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def ensure(cls, runner: Optional["ExperimentRunner"]) -> "ExperimentRunner":
        """The given runner, or a fresh serial/uncached default -- the single
        place that defines what "no runner supplied" means for the figure
        runners and sweeps."""
        return runner if runner is not None else cls()

    # ---------------------------------------------------------------- running
    def run(self, spec: RunSpec) -> SimulationResult:
        """Run a single spec (through the batch path, so caching applies)."""
        return self.run_batch([spec])[0]

    def run_batch(self, specs: Sequence[RunSpec]) -> List[SimulationResult]:
        """Run every spec; results come back in input order.

        Duplicate specs are simulated once and share one result payload (each
        returned ``SimulationResult`` is still a distinct object, since some
        callers mutate results in place).
        """
        keys = [spec.key() for spec in specs]
        unique: Dict[str, RunSpec] = {}
        for key, spec in zip(keys, specs):
            unique.setdefault(key, spec)
        self.stats.deduplicated += len(specs) - len(unique)

        payloads: Dict[str, Dict[str, Any]] = {}
        if self.cache is None and not self.refresh:
            for key in unique:
                payload = self._memo.get(key)
                if payload is not None:
                    payloads[key] = payload
            self.stats.deduplicated += len(payloads)
        if self.cache is not None and not self.refresh:
            for key in unique:
                payload = self.cache.load(key)
                # Entries from an older serialization layout are misses (and
                # get overwritten below), not errors.
                if payload is not None and payload.get("format") == PAYLOAD_FORMAT:
                    payloads[key] = payload
                    self.stats.cache_hits += 1

        pending = [spec for key, spec in unique.items() if key not in payloads]
        # Adaptive ordering: start the predicted-slowest points first so the
        # parallel tail shrinks (a cheap point never straggles behind the big
        # one that was submitted last).  Results still return in input order,
        # so output bytes are unaffected.  Stable sort keeps equal-cost specs
        # in batch order, which keeps serial execution order deterministic.
        pending.sort(key=_predicted_cost, reverse=True)
        # Results stream out of the backend as each simulation lands and are
        # cached immediately, so a crash (or a failing spec) mid-batch keeps
        # every simulation completed before it -- that is what makes long
        # sweeps resumable.
        for key, payload in self.backend.execute(pending):
            payloads[key] = payload
            self._remember(key, payload)
            self.stats.executed += 1
            if self.cache is not None:
                self.cache.store(key, payload)

        return [result_from_payload(payloads[key]) for key in keys]

    def _remember(self, key: str, payload: Dict[str, Any]) -> None:
        if self.cache is not None:
            return  # the on-disk cache provides cross-batch reuse instead
        if key in self._memo:
            return
        weight = _payload_weight(payload)
        if weight > self._memo_weight_max:
            return  # one giant payload would evict everything for nothing
        self._memo_weight += weight
        self._memo_weights[key] = weight
        self._memo[key] = payload
        while self._memo_weight > self._memo_weight_max and self._memo:
            oldest = next(iter(self._memo))
            del self._memo[oldest]
            self._memo_weight -= self._memo_weights.pop(oldest)
