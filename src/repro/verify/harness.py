"""Differential conformance harness: one RunSpec, both engines, every oracle.

``run_conformance`` executes the workload a spec describes on the cycle engine
and the analytic engine (overriding the spec's engine field), runs the
reference executor on the plain CSR graph, and applies the applicable oracles:

* engine/counter agreement (equality or epoch-equality, per
  :func:`repro.verify.oracles.oracle_kind`),
* work bounds against the reference executor,
* output ground truth for both engines,
* the invariant tracer's conservation checks (raised inside the run and
  converted into report violations).

Failing specs serialize to small JSON repro files (the spec's canonical form,
the same bytes its cache key hashes) that ``dalorex verify --spec FILE``
replays -- the hypothesis fuzzer shrinks a failure first, so the emitted file
is a *minimal* reproduction of the divergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.machine import DalorexMachine
from repro.errors import InvariantViolation, ReproError
from repro.graph.datasets import resolve_dataset_name
from repro.runtime.spec import RunSpec, build_graph
from repro.verify.oracles import (
    EQUALITY_COUNTERS,
    check_engine_equality,
    check_network_contention,
    check_outputs,
    check_work_bounds,
    oracle_kind,
)
from repro.verify.reference import ReferenceRun, reference_run

#: Format tag written into repro files (bump on incompatible layout changes).
REPRO_FORMAT = "dalorex-repro/1"


@dataclass
class ConformanceReport:
    """Outcome of one differential conformance run."""

    spec_key: str
    description: str
    oracle: str
    violations: List[str] = field(default_factory=list)
    counters: Dict[str, Dict[str, float]] = field(default_factory=dict)
    bounds: Optional[dict] = None
    trace: Dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "spec_key": self.spec_key,
            "description": self.description,
            "oracle": self.oracle,
            "ok": self.ok,
            "violations": list(self.violations),
            "counters": self.counters,
            "bounds": self.bounds,
            "trace": self.trace,
        }

    def describe(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [f"[{status}] {self.description} (oracle={self.oracle})"]
        lines.extend(f"  - {violation}" for violation in self.violations)
        return "\n".join(lines)


def run_conformance(spec: RunSpec, detailed_trace: bool = False) -> ConformanceReport:
    """Run one spec through both engines, the reference executor and the oracles."""
    from repro.experiments.common import build_kernel

    graph = build_graph(spec)
    dataset_name = resolve_dataset_name(spec.dataset)
    report = ConformanceReport(
        spec_key=spec.key(), description=spec.describe(), oracle="bounds"
    )

    results = {}
    machines = {}
    barrier_effective = spec.config.barrier
    for engine in ("cycle", "analytic"):
        kernel = build_kernel(
            spec.app, graph, pagerank_iterations=spec.pagerank_iterations
        )
        machine = DalorexMachine(
            spec.config.with_overrides(engine=engine),
            kernel,
            graph,
            dataset_name=dataset_name,
        )
        machines[engine] = machine
        machine.detailed_trace = detailed_trace
        barrier_effective = machine.barrier_effective
        try:
            results[engine] = machine.run(compute_energy=False)
        except InvariantViolation as exc:
            report.violations.append(f"{engine} engine invariant: {exc}")
        if machine.tracer is not None:
            report.trace[engine] = machine.tracer.summary()
        if engine in results:
            report.counters[engine] = results[engine].counters.to_dict()

    # Network oracle: a contention-aware cycle run must reconcile with the
    # zero-contention analytical accounting (never beat the bound, charge
    # the same flits to the same links under dimension-ordered routing).
    if spec.config.network == "simulated" and "cycle" in results:
        cycle_machine = machines["cycle"]
        report.violations.extend(
            check_network_contention(
                results["cycle"], cycle_machine.link_model, cycle_machine.network
            )
        )

    report.oracle = oracle_kind(spec.app, barrier_effective)

    # The kernel may transform its input (WCC symmetrizes); the reference
    # executor mirrors that internally, and the root choice mirrors
    # build_kernel's highest-degree policy.
    reference = reference_run(
        spec.app,
        graph,
        root=graph.highest_degree_vertex(),
        pagerank_iterations=spec.pagerank_iterations,
    )
    report.bounds = reference.bounds.to_dict()

    if "cycle" in results and "analytic" in results and report.oracle == "equality":
        report.violations.extend(
            check_engine_equality(
                results["cycle"], results["analytic"], EQUALITY_COUNTERS
            )
        )
    for engine, result in results.items():
        report.violations.extend(check_work_bounds(result, reference, engine))
        report.violations.extend(check_outputs(result, reference, engine))
    return report


# ------------------------------------------------------------------ repro IO
def write_repro_spec(spec: RunSpec, directory) -> Path:
    """Serialize a (typically shrunk) failing spec as a replayable JSON file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"conformance_{spec.key()[:12]}.json"
    wrapper = {"format": REPRO_FORMAT, "spec": spec.canonical()}
    path.write_text(json.dumps(wrapper, indent=2, sort_keys=True), encoding="utf-8")
    return path


def load_repro_spec(path) -> RunSpec:
    """Load a repro file written by :func:`write_repro_spec` (or a bare
    canonical spec dict) back into a :class:`RunSpec`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read repro spec {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ReproError(f"repro spec {path} is not a JSON object")
    payload = data.get("spec", data)
    if "format" in data and data["format"] != REPRO_FORMAT:
        raise ReproError(
            f"repro spec {path} has format {data['format']!r}, expected {REPRO_FORMAT!r}"
        )
    try:
        return RunSpec.from_canonical(payload)
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers unsupported spec versions and bad field values.
        raise ReproError(f"repro spec {path} is malformed: {exc}") from exc
