"""Peak memory of the chunked RMAT generator against the one-piece one.

``test_chunked_rmat_peak_memory``: :func:`rmat_graph_chunked` must build the
same graph as :func:`rmat_graph` while holding a fraction of its peak
memory, measured with tracemalloc rather than claimed.
"""

from __future__ import annotations

import tracemalloc

from conftest import record
from repro.graph.generators import rmat_graph, rmat_graph_chunked


def test_chunked_rmat_peak_memory(benchmark):
    """Chunked generation: same graph, a fraction of the peak footprint."""
    kwargs = dict(scale=17, edge_factor=10, seed=0)
    peaks = {}

    def measure(label, build):
        tracemalloc.start()
        graph = build()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[label] = peak
        return graph

    def run():
        serial = measure("serial", lambda: rmat_graph(**kwargs))
        chunked = measure(
            "chunked",
            lambda: rmat_graph_chunked(chunk_edges=1 << 17, **kwargs),
        )
        return serial, chunked

    serial, chunked = benchmark.pedantic(run, rounds=1, iterations=1)
    assert chunked == serial
    assert chunked.values.tobytes() == serial.values.tobytes()
    # The chunked path must hold materially less than the serial edge-list
    # peak; 60% is far above what it actually needs, so this stays stable.
    assert peaks["chunked"] < 0.6 * peaks["serial"], peaks
    record(benchmark, {
        "serial_peak_mb": round(peaks["serial"] / 1e6, 1),
        "chunked_peak_mb": round(peaks["chunked"] / 1e6, 1),
        "reduction": round(peaks["serial"] / peaks["chunked"], 2),
    })
