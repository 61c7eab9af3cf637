"""Compressed-sparse-row adjacency backed by numpy arrays.

The CSR arrays are the primary adjacency of a
:class:`~repro.graph.graph.Graph`, built by its constructor: the row for
node ``u`` is ``cols[indptr[u]:indptr[u+1]]``, sorted ascending, which
makes neighbourhoods amenable to vectorised set algebra. They feed the
degeneracy peel (:func:`repro.graph.ordering.peel`), the orientations,
the Table-I statistics and the static clique engine (see
:mod:`repro.cliques.csr_kernels`): sorted-array intersections via the
module-level helpers below replace Python ``set`` operations on the hot
paths, following the sorted-CSR design of Rossi & Gleich's parallel
maximum-clique work.

Helpers
-------
:func:`concat_rows`
    Gather the rows of many nodes in one vectorised operation.
:func:`in_sorted`
    Bulk membership of values in one sorted array.
:func:`sorted_unique`
    Sort an int array and drop repeats.
"""

from __future__ import annotations

import numpy as np


def concat_rows(
    indptr: np.ndarray, cols: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows of ``nodes`` without a Python loop.

    Returns ``(owner_pos, values)`` where ``values`` is the
    concatenation of ``cols[indptr[u]:indptr[u+1]]`` for each ``u`` in
    ``nodes`` (in order) and ``owner_pos[i]`` is the *position* into
    ``nodes`` whose row produced ``values[i]`` (so
    ``nodes[owner_pos[i]]`` is the owning node). Both are int64 arrays;
    empty when all rows are empty.
    """
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    total = int(lens.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ends = np.cumsum(lens)
    idx = np.arange(total, dtype=np.int64) + np.repeat(starts - ends + lens, lens)
    return np.repeat(np.arange(len(nodes), dtype=np.int64), lens), cols[idx]


def in_sorted(haystack: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``values`` occur in the sorted array ``haystack``."""
    if not len(haystack):
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(haystack, values).clip(max=len(haystack) - 1)
    return haystack[pos] == values


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``values`` (ints) sorted, with repeats dropped.

    Same result as ``np.unique``, which on numpy 2.4 took about 30x as
    long as a sort on 160k int64 keys.
    """
    # Tied entries are equal ints, so tie order cannot show.
    out = np.sort(values)  # repro-lint: ignore=iterorder
    return out[np.r_[True, out[1:] != out[:-1]]] if len(out) else out


class CSRAdjacency:
    """Immutable CSR adjacency of an undirected graph.

    Attributes
    ----------
    indptr:
        int64 array of length ``n + 1``; row pointers.
    cols:
        int64 array of length ``2m``; concatenated sorted neighbour lists.
    """

    __slots__ = ("indptr", "cols")

    def __init__(self, indptr: np.ndarray, cols: np.ndarray) -> None:
        self.indptr = indptr
        self.cols = cols

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.cols) // 2

    def row(self, u: int) -> np.ndarray:
        """Sorted neighbour array of ``u`` (a view; do not mutate)."""
        return self.cols[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        """int64 degree array."""
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Binary-search membership probe."""
        row = self.row(u)
        idx = np.searchsorted(row, v)
        return idx < len(row) and row[idx] == v
