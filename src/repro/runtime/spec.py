"""RunSpec: a frozen, content-hashable description of one simulation.

A spec pins everything needed to reproduce a run from scratch -- application,
dataset stand-in (name, scale factor, generator seed), the full
:class:`~repro.core.config.MachineConfig` and the verify flag -- so a run can
be re-executed in another process (or another day) and produce bit-identical
results.  :meth:`RunSpec.key` is a SHA-256 digest of the canonical JSON form,
which makes it stable across processes and interpreter runs (no dependence on
``PYTHONHASHSEED``) and suitable as a content-addressed cache key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import MachineConfig
from repro.core.results import SimulationResult
from repro.graph.csr import CSRGraph
from repro.graph.datasets import resolve_dataset_name

#: Bump when the canonical form (or anything influencing simulation output)
#: changes incompatibly, so stale cache entries never alias new runs.
#: Version 2: MachineConfig grew the depth / network / routing / queue_depth
#: knobs (3D grids and the contention-aware NoC simulator).
#: Version 3: the form could also carry a partition count (only when above
#: 1, so every other key kept its value).  Partitioned execution is gone;
#: version 3 forms without that field are exactly the serial ones.
SPEC_VERSION = 3

#: Canonical-form versions :meth:`RunSpec.from_canonical` still accepts.
_ACCEPTED_SPEC_VERSIONS = (2, 3)

#: Every key of the canonical form; :meth:`RunSpec.from_canonical` refuses
#: any other.
_CANONICAL_FIELDS = frozenset(
    ("version", "app", "dataset", "config", "scale", "seed", "verify",
     "pagerank_iterations")
)


def _default_pagerank_iterations() -> int:
    # Deferred: importing repro.experiments at module load would close an
    # import cycle (experiments -> analysis/figures -> runtime -> here).
    from repro.experiments.common import PAGERANK_ITERATIONS

    return PAGERANK_ITERATIONS


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One simulation: ``app`` on ``dataset`` under ``config``.

    Equality and hashing go through :meth:`canonical`, so two specs that
    describe the same simulation compare equal even when built independently
    (dataset aliases such as ``"R16"`` are resolved to canonical names).
    """

    app: str
    dataset: str
    config: MachineConfig
    scale: float = 1.0
    seed: int = 7
    verify: bool = False
    pagerank_iterations: int = field(default_factory=_default_pagerank_iterations)

    # ---------------------------------------------------------------- identity
    def canonical(self) -> dict:
        """JSON-able canonical form: the sole input of :meth:`key`.

        ``pagerank_iterations`` only participates for the pagerank app; other
        kernels ignore it, and two identical simulations must never get
        distinct cache keys because of a knob that cannot affect them.
        """
        app = self.app.strip().lower()
        return {
            "version": SPEC_VERSION,
            "app": app,
            "dataset": resolve_dataset_name(self.dataset),
            "config": dataclasses.asdict(self.config),
            "scale": float(self.scale),
            "seed": int(self.seed),
            "verify": bool(self.verify),
            "pagerank_iterations": (
                int(self.pagerank_iterations) if app == "pagerank" else None
            ),
        }

    def key(self) -> str:
        """Stable content hash: SHA-256 hex digest of the canonical JSON."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_canonical(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from its :meth:`canonical` form (repro-file replay).

        Round-trip guarantee: ``RunSpec.from_canonical(spec.canonical())``
        compares equal to ``spec`` and produces the same cache key.  A form
        with a field this version does not know -- such as the partition
        count of the removed partitioned execution -- is refused: running it
        anyway would file the result under a key its submitter never asks
        for.
        """
        version = data.get("version", SPEC_VERSION)
        if version not in _ACCEPTED_SPEC_VERSIONS:
            raise ValueError(
                f"spec version {version} is not supported "
                f"(accepted: {_ACCEPTED_SPEC_VERSIONS})"
            )
        unknown = sorted(set(data) - _CANONICAL_FIELDS)
        if unknown:
            raise ValueError(
                f"spec field(s) {unknown} are not part of the canonical form "
                "(partitioned execution and its partition count were removed; "
                "every run is serial)"
            )
        pagerank_iterations = data.get("pagerank_iterations")
        kwargs = {}
        if pagerank_iterations is not None:
            kwargs["pagerank_iterations"] = int(pagerank_iterations)
        return cls(
            app=data["app"],
            dataset=data["dataset"],
            config=MachineConfig(**data["config"]).validate(),
            scale=float(data.get("scale", 1.0)),
            seed=int(data.get("seed", 7)),
            verify=bool(data.get("verify", False)),
            **kwargs,
        )

    def predicted_cost(self) -> float:
        """Estimated simulation cost, computed arithmetically (no graph build).

        ``tiles x edges`` scaled by the engine kind (the cycle engine
        simulates every queue and router per cycle, the analytic engine does
        not) and the application (PageRank sweeps the edge list once per
        iteration; relaxation kernels revisit edges).  Uses the dataset
        registry's stand-in sizing, so no graph is built; the runner -- and
        the distributed broker -- sort pending work by this so the slowest
        points start first and parallel tail latency shrinks.
        """
        from repro.experiments.common import (
            app_cost_factor,
            engine_cost_factor,
            experiment_scale_divisor,
            network_cost_factor,
        )
        from repro.graph.datasets import dataset_spec

        divisor = experiment_scale_divisor(self.dataset, self.scale)
        edges = dataset_spec(self.dataset).stand_in_edges(divisor)
        return (
            float(self.config.num_tiles)
            * float(edges)
            * engine_cost_factor(self.config.engine)
            * app_cost_factor(self.app, self.pagerank_iterations)
            * network_cost_factor(self.config.network, self.config.engine)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return int(self.key()[:16], 16)

    def describe(self) -> str:
        """One-line summary used in logs and progress notes."""
        return (
            f"{self.app} on {resolve_dataset_name(self.dataset)} "
            f"(scale={self.scale}, seed={self.seed}) @ "
            f"{self.config.width}x{self.config.height}/{self.config.engine}"
        )


# ---------------------------------------------------------------------- build
def build_graph(spec: RunSpec) -> CSRGraph:
    """Load the dataset stand-in a spec describes (memoized per process)."""
    return load_graph(spec.dataset, scale=spec.scale, seed=spec.seed)


_GRAPH_MEMO: dict = {}
_GRAPH_MEMO_MAX = 8
# The memo is shared by every thread of a process: the broker's connection
# handlers (verified ingest builds graphs concurrently) as well as plain
# single-threaded runners.  Only bookkeeping is locked; graph construction
# itself runs unlocked, so two threads may build the same graph once each --
# wasteful but correct, since generation is deterministic.
_GRAPH_MEMO_LOCK = threading.Lock()


def reset_graph_memo() -> None:
    """Drop all memoized graphs (benchmarks use this to keep timings
    independent of which graphs previous benchmarks already built)."""
    with _GRAPH_MEMO_LOCK:
        _GRAPH_MEMO.clear()


def load_graph(dataset: str, scale: float = 1.0, seed: int = 7) -> CSRGraph:
    """Memoized :func:`load_experiment_dataset`: one graph instance per
    (dataset, scale, seed) per process.

    Graphs are read-only during simulation (machines copy their mutable
    arrays), so one instance can safely back many runs; callers that peek at
    a dataset before building specs (e.g. to size grids) share the same
    instance the executor will use.
    """
    from repro.experiments.common import load_experiment_dataset

    key = (resolve_dataset_name(dataset), float(scale), int(seed))
    with _GRAPH_MEMO_LOCK:
        graph = _GRAPH_MEMO.get(key)
    if graph is None:
        graph = load_experiment_dataset(key[0], scale=key[1], seed=key[2])
        with _GRAPH_MEMO_LOCK:
            existing = _GRAPH_MEMO.get(key)
            if existing is not None:
                return existing  # a racing builder won; share its instance
            while len(_GRAPH_MEMO) >= _GRAPH_MEMO_MAX:
                _GRAPH_MEMO.pop(next(iter(_GRAPH_MEMO)), None)
            _GRAPH_MEMO[key] = graph
    return graph


def build_machine(spec: RunSpec) -> "DalorexMachine":
    """Build the (fresh, un-run) machine a spec describes.

    Deterministic: every call builds an identical machine.
    """
    from repro.core.machine import DalorexMachine
    from repro.experiments.common import build_kernel

    graph = build_graph(spec)
    kernel = build_kernel(
        spec.app, graph, pagerank_iterations=spec.pagerank_iterations
    )
    return DalorexMachine(
        spec.config.validate(),
        kernel,
        graph,
        dataset_name=resolve_dataset_name(spec.dataset),
    )


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Run one spec from scratch and return the simulation result."""
    return build_machine(spec).run(verify=spec.verify)
