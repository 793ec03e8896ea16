"""Topological orderings of :class:`~repro.graphs.digraph.Digraph`.

Lemma 3.1's converse direction says *any* topological order of an
acyclic constraint graph is a serial reordering of the underlying
trace; :func:`topological_sort` produces one, and
:func:`all_topological_sorts` enumerates every serial reordering of a
small trace (used by the brute-force oracle in tests).
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterator, List

from .digraph import Digraph

__all__ = ["topological_sort", "all_topological_sorts", "CycleError"]


class CycleError(ValueError):
    """Raised when a topological order is requested of a cyclic graph."""


def topological_sort(g: Digraph) -> List[Hashable]:
    """Kahn's algorithm.

    Ties are broken by a min-heap on the node values, which makes the
    output deterministic and — for the integer-numbered constraint
    graphs — biased toward the original trace order, giving more
    readable serial witnesses.

    Raises :class:`CycleError` if the graph has a cycle.
    """
    indeg = {u: g.in_degree(u) for u in g.nodes()}
    ready = [u for u, d in indeg.items() if d == 0]
    pop, push = heapq.heappop, heapq.heappush
    try:
        heapq.heapify(ready)
    except TypeError:  # unsortable node mix — fall back to a stack
        pop, push = list.pop, list.append
    order: List[Hashable] = []
    while ready:
        u = pop(ready)
        order.append(u)
        for v in g.successors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                push(ready, v)
    if len(order) != len(g):
        raise CycleError("graph has a cycle; no topological order exists")
    return order


def all_topological_sorts(g: Digraph) -> Iterator[List[Hashable]]:
    """Yield every topological order of ``g`` (exponential; test-sized
    graphs only).  Yields nothing if the graph is cyclic."""
    indeg = {u: g.in_degree(u) for u in g.nodes()}
    order: List[Hashable] = []
    n = len(indeg)

    def rec() -> Iterator[List[Hashable]]:
        if len(order) == n:
            yield list(order)
            return
        for u in [u for u, d in indeg.items() if d == 0 and u not in taken]:
            taken.add(u)
            order.append(u)
            for v in g.successors(u):
                indeg[v] -= 1
            yield from rec()
            for v in g.successors(u):
                indeg[v] += 1
            order.pop()
            taken.discard(u)

    taken: set = set()
    yield from rec()
