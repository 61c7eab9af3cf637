"""Maximum-independent-set substrate: kernelisation and exact branch-and-bound."""

from repro.mis.exact import exact_mis, max_clique
from repro.mis.reductions import MISKernel, reduce_mis

__all__ = [
    "exact_mis",
    "max_clique",
    "reduce_mis",
    "MISKernel",
]
