"""Conformance oracles: when must the engines agree, and on what.

Both engines execute programs functionally through the shared BaseEngine, so
the *kind* of agreement an oracle can demand depends on how the workload's
work responds to task-execution order:

* ``"equality"`` (PageRank, SPMV): every task runs unconditionally, so all
  counted work -- including instruction counts -- is schedule-independent and
  the engines must agree exactly, and match the reference executor's exact
  edge/epoch counts.
* ``"bounds"`` (BFS, SSSP, WCC): relaxation work legitimately depends on
  execution order -- even under per-epoch barriers, because relax updates
  landing mid-epoch change what later explorations of the *same* epoch read,
  which cascades into different frontiers -- so equality cannot hold in
  general.  Instead each engine's ``edges_processed`` must fall between the
  reference lower bound and the worst-case relaxation upper bound.  (Equality
  still holds on hand-picked unique-path workloads; those stay pinned in
  ``tests/integration/test_engine_equivalence.py``.)

Outputs must always match the reference executor's ground truth, whatever the
oracle kind -- order-dependence may change the work, never the answer.

A third oracle family covers the contention-aware network model
(``network="simulated"``): the flit-level simulator may only ever *add*
latency relative to the analytical link-load bound, must conserve traffic,
and -- under dimension-ordered routing -- must charge exactly the flits the
analytical :class:`~repro.noc.analytical.LinkLoadModel` charges to exactly
the same link slots (see :func:`check_network_contention`).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.verify.reference import ReferenceRun

#: Counters the equality oracle pins between the engines (the analytic engine
#: estimates cycles, never work, so every counted quantity must agree).
EQUALITY_COUNTERS = (
    "instructions",
    "tasks_executed",
    "messages",
    "local_messages",
    "flits",
    "flit_hops",
    "router_traversals",
    "edges_processed",
    "epochs",
)

#: Applications whose work is fully schedule-independent.
ORDER_INDEPENDENT_APPS = ("pagerank", "spmv")


def oracle_kind(app: str, barrier_effective: bool = False) -> str:
    """Which oracle applies to one (app, synchronization mode) workload.

    ``barrier_effective`` is accepted for call-site clarity but does not
    change the answer today: barriers do not make relaxation kernels
    order-independent (intra-epoch relax cascades still reorder work).
    """
    key = app.strip().lower()
    if key in ORDER_INDEPENDENT_APPS:
        return "equality"
    return "bounds"


def check_engine_equality(cycle_result, analytic_result, counters) -> List[str]:
    """Counter names in ``counters`` must agree exactly between the engines."""
    violations = []
    for name in counters:
        cycle_value = getattr(cycle_result.counters, name)
        analytic_value = getattr(analytic_result.counters, name)
        if cycle_value != analytic_value:
            violations.append(
                f"counter {name!r} diverged between engines: "
                f"cycle={cycle_value} analytic={analytic_value}"
            )
    if int(cycle_result.per_tile_instructions.sum()) != int(
        cycle_result.counters.instructions
    ):
        violations.append(
            "cycle engine per-tile instructions do not sum to the aggregate"
        )
    return violations


def check_work_bounds(result, reference: ReferenceRun, engine_name: str) -> List[str]:
    """One engine's counted work must respect the reference bounds."""
    violations = []
    bounds = reference.bounds
    edges = int(result.counters.edges_processed)
    if bounds.exact and edges != bounds.edges_lower:
        violations.append(
            f"{engine_name} engine processed {edges} edges; the order-independent "
            f"reference count is exactly {bounds.edges_lower}"
        )
    elif not bounds.admits_edges(edges):
        violations.append(
            f"{engine_name} engine processed {edges} edges, outside the reference "
            f"bounds [{bounds.edges_lower}, {bounds.edges_upper}]"
        )
    if bounds.epochs_exact is not None and result.epochs != bounds.epochs_exact:
        violations.append(
            f"{engine_name} engine ran {result.epochs} epochs, "
            f"expected exactly {bounds.epochs_exact}"
        )
    return violations


def check_network_contention(result, link_model, network) -> List[str]:
    """The simulated network must bound, and reconcile with, the analytical model.

    ``link_model`` is the engine's :class:`~repro.noc.analytical.LinkLoadModel`
    (always dimension-ordered: the zero-contention reference accounting);
    ``network`` is the :class:`~repro.noc.sim.simulator.NocSimulator` the
    cycle engine routed its messages through.  Checks:

    * traffic conservation: both models saw the same messages, and -- since
      every routing policy is minimal -- the same total flit-hops;
    * under dimension-ordered routing, per-slot flit totals agree *exactly*
      and the run's cycle count respects the analytical network lower bound;
    * under adaptive/oblivious routing (which may legitimately spread load
      off the analytical model's hot links), the cycle count still respects
      the routing-independent endpoint bound and the simulator's own
      hottest-link serialization.
    """
    violations = []
    if network is None or getattr(network, "kind", None) != "simulated":
        return ["cycle engine did not publish a simulated network model"]
    if network.total_messages != link_model.total_messages:
        violations.append(
            f"simulated network routed {network.total_messages} messages, the "
            f"link-load model accounted {link_model.total_messages}"
        )
    if network.total_flit_hops != link_model.total_flit_hops:
        violations.append(
            f"simulated network moved {network.total_flit_hops} flit-hops, the "
            f"link-load model accounted {link_model.total_flit_hops} (minimal "
            "routing must conserve flit-hops)"
        )
    routing = network.policy.kind
    if routing == "dimension_ordered":
        if link_model.detailed:
            # Both models count flits per slot of the topology's slot layout.
            simulated = np.asarray(network.slot_flits, dtype=np.int64)
            analytical = link_model.slot_flits
            diffs = np.flatnonzero(simulated != analytical)
            if len(diffs):
                link = network.policy.layout.link
                violations.append(
                    f"per-link flit totals diverge from the analytical model on "
                    f"{len(diffs)} link(s), e.g. "
                    + ", ".join(
                        f"{link(slot)}: sim={simulated[slot]} "
                        f"analytical={analytical[slot]}"
                        for slot in diffs[:3].tolist()
                    )
                )
            bound = link_model.network_bound_cycles()
            if result.cycles < bound:
                violations.append(
                    f"simulated run finished in {result.cycles} cycles, beating "
                    f"the analytical network lower bound of {bound}"
                )
    else:
        endpoint_bound = link_model.max_endpoint_load()
        if result.cycles < endpoint_bound:
            violations.append(
                f"simulated run finished in {result.cycles} cycles, beating the "
                f"endpoint serialization bound of {endpoint_bound}"
            )
        if result.cycles < network.max_link_load():
            violations.append(
                f"simulated run finished in {result.cycles} cycles, beating its "
                f"own hottest-link serialization of {network.max_link_load()}"
            )
    return violations


def check_outputs(result, reference: ReferenceRun, engine_name: str) -> List[str]:
    """The engine's output array must match the reference ground truth."""
    produced = result.outputs.get(reference.output_name)
    if produced is None:
        return [
            f"{engine_name} engine result has no output array "
            f"{reference.output_name!r}"
        ]
    produced = np.asarray(produced, dtype=np.float64)
    expected = np.asarray(reference.expected, dtype=np.float64)
    if produced.shape != expected.shape:
        return [
            f"{engine_name} engine output {reference.output_name!r} has shape "
            f"{produced.shape}, expected {expected.shape}"
        ]
    if not np.allclose(produced, expected, rtol=1e-6, atol=1e-9, equal_nan=True):
        worst = int(np.nanargmax(np.abs(produced - expected)))
        return [
            f"{engine_name} engine output {reference.output_name!r} diverges from "
            f"the reference (e.g. index {worst}: {produced[worst]} vs "
            f"{expected[worst]})"
        ]
    return []
