"""Dalorex-adapted application kernels (BFS, SSSP, PageRank, WCC, SPMV)."""

from repro.apps.common import FrontierGraphKernel, Kernel
from repro.apps.bfs import BFSKernel
from repro.apps.sssp import SSSPKernel
from repro.apps.pagerank import PageRankKernel
from repro.apps.wcc import WCCKernel
from repro.apps.spmv import SPMVKernel

#: Kernel classes by canonical application name.
KERNELS = {
    "bfs": BFSKernel,
    "sssp": SSSPKernel,
    "pagerank": PageRankKernel,
    "wcc": WCCKernel,
    "spmv": SPMVKernel,
}


def make_kernel(name: str, **kwargs) -> Kernel:
    """Instantiate the kernel for application ``name`` (``"bfs"``, ...)."""
    key = name.strip().lower()
    if key not in KERNELS:
        raise KeyError(f"unknown application {name!r}; known: {sorted(KERNELS)}")
    return KERNELS[key](**kwargs)


__all__ = [
    "Kernel",
    "FrontierGraphKernel",
    "BFSKernel",
    "SSSPKernel",
    "PageRankKernel",
    "WCCKernel",
    "SPMVKernel",
    "KERNELS",
    "make_kernel",
]
