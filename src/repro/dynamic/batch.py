"""Batched update planning: coalesce an edge-update stream.

The dynamic maintainer's per-edge handlers (Algorithms 6 and 7) pay a
candidate-index discovery pass and a swap cascade for *every* update.
Under the paper's Section VI-E workloads most of that work is redundant
across neighbouring updates: an ``UpdateBatch`` reduces a stream of
``("insert" | "delete", u, v)`` operations to its **net structural
effect** against the current graph — per edge, the last operation wins,
so duplicate inserts, re-deletions, and self-cancelling
insert-then-delete pairs coalesce away — and the maintainer then repairs
the solution and candidate index once over the union of dirty
neighbourhoods (:meth:`~repro.dynamic.maintainer.DynamicDisjointCliques.apply_batch`)
instead of once per edge.

Planning is purely functional: nothing is mutated, so a batch can be
inspected (or tested) before being applied. Validation is transactional:
a malformed update (unknown op, non-integer endpoint, self-loop,
endpoint out of range) raises before any structural change is made,
unlike the per-edge path which fails mid-stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # imported for annotations only
    from repro.graph.dynamic import DynamicGraph

from repro.errors import InvalidParameterError
from repro.graph.graph import check_edge

Edge = tuple[int, int]
Update = tuple[str, int, int]

_OPS = {"insert": True, "delete": False}


def validate_update(op: str, u: int, v: int, n: int) -> tuple[bool, int, int]:
    """Validate one ``(op, u, v)`` update against a graph of ``n`` nodes.

    Returns ``(want_present, u, v)`` with the endpoints as plain ints.
    Raises :class:`~repro.errors.InvalidParameterError` for an unknown
    op and :class:`~repro.errors.GraphError` for an endpoint that is
    not an integer (the rule of :class:`~repro.graph.graph.Graph`:
    ints, numpy integers and ``bool`` pass; floats and strings do not),
    a self-loop or an endpoint outside ``[0, n)``. Shared by
    :meth:`UpdateBatch.plan` and the serving layer's push-time
    validation (:meth:`repro.serve.feeds.DynamicFeed.push`), so what a
    feed buffers is exactly what planning will accept.
    """
    want = _OPS.get(op)
    if want is None:
        raise InvalidParameterError(f"unknown update op {op!r}")
    u, v = check_edge(n, (u, v))
    return want, u, v


@dataclass(frozen=True)
class UpdateBatch:
    """The net structural effect of an update stream on one graph state.

    Attributes
    ----------
    inserts:
        Edges absent from the planning graph whose final desired state
        is *present*, in first-touched order, as ``(min, max)`` pairs of
        plain ints.
    deletes:
        Edges present in the planning graph whose final desired state is
        *absent*, in first-touched order.
    nops:
        Number of stream operations coalesced away (duplicates,
        operations matching the current state, and self-cancelling
        pairs). ``nops + effective`` equals the stream length.
    """

    inserts: tuple[Edge, ...] = ()
    deletes: tuple[Edge, ...] = ()
    nops: int = 0

    @property
    def effective(self) -> int:
        """Number of structural edge changes the batch will make."""
        return len(self.inserts) + len(self.deletes)

    @property
    def is_noop(self) -> bool:
        """Whether applying the batch leaves the graph unchanged."""
        return not self.inserts and not self.deletes

    def __len__(self) -> int:
        return self.effective + self.nops

    @classmethod
    def plan(cls, updates: Iterable[Update], graph: "DynamicGraph") -> "UpdateBatch":
        """Coalesce ``updates`` against ``graph``'s current edge set.

        Per edge the last operation in stream order determines the
        desired final state; edges whose desired state matches the graph
        contribute nothing. Operations on distinct edges commute, so any
        permutation of such a stream plans to the same batch.

        ``graph`` is anything exposing ``n`` and ``neighbors`` (it is
        only read). Each update is checked exactly once, by
        :func:`validate_update`, so the planned edges are plain-int
        ``(min, max)`` pairs that need no second check when applied.
        Raises :class:`~repro.errors.InvalidParameterError` for unknown
        ops and :class:`~repro.errors.GraphError` for non-integer
        endpoints, self-loops or endpoints outside ``[0, n)``, at the
        first offending update — before any caller mutation, so a
        rejected batch has no partial effect.
        """
        desired: dict[Edge, bool] = {}
        total = 0
        n = graph.n
        for op, u, v in updates:
            total += 1
            want, u, v = validate_update(op, u, v, n)
            # Last op wins; a dict keeps each edge where it was first
            # touched.
            desired[(u, v) if u < v else (v, u)] = want
        inserts: list[Edge] = []
        deletes: list[Edge] = []
        neighbors = graph.neighbors
        for (u, v), want in desired.items():
            if want != (v in neighbors(u)):
                (inserts if want else deletes).append((u, v))
        return cls(tuple(inserts), tuple(deletes), total - len(inserts) - len(deletes))
