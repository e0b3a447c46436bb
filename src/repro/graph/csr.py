"""Compressed Sparse Row (CSR) graph container.

Graphs and sparse matrices in the paper are stored in CSR form using four arrays
(``ptr``, ``edge_idx``, ``edge_values`` plus a per-vertex property array such as
``dist``).  This module provides the CSR container shared by the reference
algorithms, the data-placement logic and the Dalorex kernels.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError


def concat_ranges(begins: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``[begins[i], ends[i])`` index ranges in item order.

    Returns the flat index array plus the per-item counts, matching the edge
    order of the scalar ``for edge in range(begin, end)`` loops; with CSR
    row pointers as the bounds, the flat array lists the rows' edge offsets.
    """
    begins = np.asarray(begins, dtype=np.int64)
    counts = np.asarray(ends, dtype=np.int64) - begins
    # Item i's j-th index is begins[i] + j: its flat position minus the
    # count of indices before item i, plus begins[i].
    shifts = begins - (np.cumsum(counts) - counts)
    flat = np.repeat(shifts, counts) + np.arange(int(counts.sum()), dtype=np.int64)
    return flat, counts


class CSRGraph:
    """A directed (or symmetrized) graph in Compressed Sparse Row format.

    Attributes:
        indptr: ``int64[num_vertices + 1]`` row pointer array (the paper's ``ptr``).
        indices: ``int64[num_edges]`` destination vertex per edge (``edge_idx``).
        values: ``float64[num_edges]`` edge weights (``edge_values``).
        num_vertices: number of vertices.
        num_edges: number of directed edges stored.
        directed: whether the stored edges represent a directed graph.
    """

    def __init__(
        self,
        indptr: Sequence[int],
        indices: Sequence[int],
        values: Optional[Sequence[float]] = None,
        directed: bool = True,
        name: str = "graph",
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if values is None:
            values = np.ones(len(self.indices), dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        self.directed = directed
        self.name = name
        self._validate()

    # ------------------------------------------------------------------ basic
    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1 or self.values.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if len(self.indptr) < 1:
            raise GraphError("indptr must contain at least one entry")
        if self.indptr[0] != 0:
            raise GraphError("indptr must start at zero")
        if len(self.values) != len(self.indices):
            raise GraphError("values and indices must have the same length")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices):
            raise GraphError("indptr[-1] must equal the number of edges")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise GraphError("edge destination out of range")

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @property
    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def edge_range(self, vertex: int) -> Tuple[int, int]:
        """Return the ``[begin, end)`` range of edge indices for ``vertex``."""
        if vertex < 0 or vertex >= self.num_vertices:
            raise GraphError(f"vertex {vertex} out of range")
        return int(self.indptr[vertex]), int(self.indptr[vertex + 1])

    def out_degree(self, vertex: int) -> int:
        begin, end = self.edge_range(vertex)
        return end - begin

    def neighbors(self, vertex: int) -> np.ndarray:
        begin, end = self.edge_range(vertex)
        return self.indices[begin:end]

    def neighbor_weights(self, vertex: int) -> np.ndarray:
        begin, end = self.edge_range(vertex)
        return self.values[begin:end]

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` for every stored edge."""
        for src in range(self.num_vertices):
            begin, end = self.edge_range(src)
            for e in range(begin, end):
                yield src, int(self.indices[e]), float(self.values[e])

    def edge_sources(self) -> np.ndarray:
        """Return the source vertex of every edge (``int64[num_edges]``)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())

    # ----------------------------------------------------------- construction
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        values: Optional[Sequence[float]] = None,
        directed: bool = True,
        dedup: bool = True,
        remove_self_loops: bool = True,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        Args:
            num_vertices: total vertex count (vertices may be isolated).
            edges: iterable of ``(src, dst)`` pairs.
            values: optional per-edge weights aligned with ``edges``.
            directed: if ``False``, each edge is mirrored before building.
            dedup: drop duplicate ``(src, dst)`` pairs, keeping the first weight.
            remove_self_loops: drop ``(v, v)`` edges.
        """
        edge_array = np.asarray(list(edges), dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be (src, dst) pairs")
        if values is None:
            weight_array = np.ones(len(edge_array), dtype=np.float64)
        else:
            weight_array = np.asarray(values, dtype=np.float64)
            if len(weight_array) != len(edge_array):
                raise GraphError("values must align with edges")
        if len(edge_array) and (
            edge_array.min() < 0 or edge_array.max() >= num_vertices
        ):
            raise GraphError("edge endpoint out of range")

        if remove_self_loops and len(edge_array):
            keep = edge_array[:, 0] != edge_array[:, 1]
            edge_array = edge_array[keep]
            weight_array = weight_array[keep]

        if not directed and len(edge_array):
            edge_array = np.concatenate([edge_array, edge_array[:, ::-1]])
            weight_array = np.concatenate([weight_array, weight_array])

        if dedup and len(edge_array):
            keys = edge_array[:, 0] * num_vertices + edge_array[:, 1]
            _, unique_pos = np.unique(keys, return_index=True)
            unique_pos.sort()
            edge_array = edge_array[unique_pos]
            weight_array = weight_array[unique_pos]

        order = np.lexsort((edge_array[:, 1], edge_array[:, 0])) if len(edge_array) else []
        edge_array = edge_array[order] if len(edge_array) else edge_array
        weight_array = weight_array[order] if len(edge_array) else weight_array

        counts = np.bincount(
            edge_array[:, 0], minlength=num_vertices
        ) if len(edge_array) else np.zeros(num_vertices, dtype=np.int64)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = edge_array[:, 1] if len(edge_array) else np.zeros(0, dtype=np.int64)
        return cls(indptr, indices, weight_array, directed=directed, name=name)

    # ------------------------------------------------------------- transforms
    def transpose(self) -> "CSRGraph":
        """Return the graph with every edge reversed."""
        sources = self.edge_sources()
        order = np.lexsort((sources, self.indices))
        new_sources = self.indices[order]
        new_dests = sources[order]
        new_values = self.values[order]
        counts = np.bincount(new_sources, minlength=self.num_vertices)
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(
            indptr, new_dests, new_values, directed=self.directed, name=self.name + "_T"
        )

    def to_undirected(self) -> "CSRGraph":
        """Return a symmetrized copy (each edge mirrored, duplicates removed)."""
        sources = self.edge_sources()
        edges = np.stack([sources, self.indices], axis=1)
        values = self.values
        return CSRGraph.from_edges(
            self.num_vertices,
            np.concatenate([edges, edges[:, ::-1]]) if len(edges) else edges,
            np.concatenate([values, values]) if len(edges) else values,
            directed=False,
            dedup=True,
            name=self.name + "_sym",
        )

    def with_unit_weights(self) -> "CSRGraph":
        """Return a copy whose edge weights are all one."""
        return CSRGraph(
            self.indptr.copy(),
            self.indices.copy(),
            np.ones(self.num_edges, dtype=np.float64),
            directed=self.directed,
            name=self.name,
        )

    # ---------------------------------------------------------------- queries
    def is_symmetric(self) -> bool:
        """True when for every edge (u, v) the edge (v, u) is also present."""
        forward = set(zip(self.edge_sources().tolist(), self.indices.tolist()))
        return all((dst, src) in forward for src, dst in forward)

    def has_edge(self, src: int, dst: int) -> bool:
        begin, end = self.edge_range(src)
        return bool(np.any(self.indices[begin:end] == dst))

    def memory_footprint_bytes(self, entry_bytes: int = 4) -> int:
        """CSR storage footprint using ``entry_bytes`` per array element.

        Counts the four arrays the paper distributes across tiles: ``ptr``,
        ``edge_idx``, ``edge_values`` and one per-vertex property array.
        """
        vertex_entries = 2 * (self.num_vertices + 1)
        edge_entries = 2 * self.num_edges
        return entry_bytes * (vertex_entries + edge_entries)

    def highest_degree_vertex(self) -> int:
        """Vertex with the largest out-degree (a good default search root)."""
        if self.num_vertices == 0:
            raise GraphError("graph has no vertices")
        return int(np.argmax(self.degrees()))

    def degree_statistics(self) -> dict:
        """Summary statistics of the out-degree distribution."""
        degrees = self.degrees()
        if len(degrees) == 0:
            return {"min": 0, "max": 0, "mean": 0.0, "std": 0.0, "p99": 0.0}
        return {
            "min": int(degrees.min()),
            "max": int(degrees.max()),
            "mean": float(degrees.mean()),
            "std": float(degrees.std()),
            "p99": float(np.percentile(degrees, 99)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CSRGraph(name={self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges}, directed={self.directed})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.values, other.values)
        )
