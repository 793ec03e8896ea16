"""ST-index bookkeeping and the inheritance-graph generator
(Section 4.1, Figure 4, Lemma 4.1).

``ST-index(R, l)`` is the (1-based) trace index of the ST operation
whose value location ``l`` currently holds — 0 if the location holds
no ST's value.  :class:`STIndexTracker` computes it incrementally from
a protocol's tracking labels, exactly as the inductive definition in
the paper (and reproduces Figure 4(c)).

:class:`InheritanceGenerator` is the finite-state automaton of
Lemma 4.1: it converts a run into a descriptor of the run's
*inheritance graph*, using location numbers as node IDs — a ST node's
ID-set is precisely the set of locations holding its value, grown with
``add-ID`` symbols on copies — and ID ``L+1`` for each LD node.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .constraint_graph import EdgeKind
from .descriptor import AddIdSym, EdgeSym, NodeSym, Symbol
from .operations import Action, Load, Operation, Store
from .protocol import FRESH, Protocol, Tracking

__all__ = ["STIndexTracker", "st_indices_after", "InheritanceGenerator", "inheritance_edges_of_run"]


class STIndexTracker:
    """Incremental ``ST-index`` computation over a run.

    Feed each (action, tracking) pair in run order; query
    :meth:`index_of` at any point.  Indices count *trace* operations
    (LD and ST), matching the paper's node numbering.
    """

    def __init__(self, num_locations: int):
        self.L = num_locations
        self._index: Dict[int, int] = {l: 0 for l in range(1, num_locations + 1)}
        self._trace_len = 0

    def _apply_copies(self, copies) -> None:
        # simultaneous copy semantics: all right-hand sides read the
        # same snapshot
        snapshot = dict(self._index)
        for l, src in copies.items():
            if not 1 <= l <= self.L:
                raise ValueError(f"copy target {l} outside 1..{self.L}")
            self._index[l] = 0 if src == FRESH else snapshot[src]

    def feed(self, action: Action, tracking: Tracking) -> None:
        if isinstance(action, Operation):
            self._trace_len += 1
            if isinstance(action, Store):
                l = tracking.location
                if l is None or not 1 <= l <= self.L:
                    raise ValueError(f"ST transition without valid location label: {action!r}")
                self._index[l] = self._trace_len
                if tracking.copies:
                    # write-through fan-out: copies read the post-store
                    # snapshot
                    self._apply_copies(tracking.copies)
            # LD transitions read a location; indices are unchanged
        else:
            self._apply_copies(tracking.copies)

    def index_of(self, location: int) -> int:
        """Current ``ST-index(R, l)``; 0 = holds no ST's value."""
        return self._index[location]

    def all_indices(self) -> Dict[int, int]:
        return dict(self._index)

    @property
    def trace_length(self) -> int:
        return self._trace_len


def st_indices_after(
    protocol: Protocol, run: Iterable[Action]
) -> Dict[int, int]:
    """Replay ``run`` on ``protocol`` and return the final ST-index of
    every location (the Figure 4(c) table)."""
    tracker = STIndexTracker(protocol.num_locations)
    for t in protocol.replay(run):
        tracker.feed(t.action, t.tracking)
    return tracker.all_indices()


class InheritanceGenerator:
    """Lemma 4.1: stream a run into a descriptor of its inheritance
    graph, with location numbers as ST-node IDs.

    Per the proof:

    * a ST with tracking label ``l`` emits ``NodeSym(l, op)`` — the new
      node takes over ID ``l`` (whatever held it loses it);
    * an internal transition with ``c_l(t) = l' ≠ l`` emits
      ``add-ID(l', l)`` — the ST node whose value is copied into ``l``
      gains ``l`` as an extra ID;
    * a LD with label ``l`` emits ``NodeSym(L+1, op)`` followed by
      ``EdgeSym(l, L+1, inh)``.

    A wrinkle the proof glosses over: a copy may *erase* a location
    (``FRESH``), and a LD may read a location holding no ST's value
    (a ⊥ load).  The generator keeps a mirror of the ST-indices and
    gates every emission on it: erased locations emit nothing (their
    descriptor ID may go stale, which is harmless — no edge is ever
    emitted through an ID whose ST-index is 0), and ⊥ loads emit the
    LD node without an inheritance edge.
    """

    def __init__(self, num_locations: int):
        self.L = num_locations
        # mirror of ST-index solely to decide ⊥-ness / erasure locally
        self._tracker = STIndexTracker(num_locations)

    def feed(self, action: Action, tracking: Tracking) -> List[Symbol]:
        out: List[Symbol] = []
        if isinstance(action, Store):
            l = tracking.location
            assert l is not None
            out.append(NodeSym(l, action))
            # write-through fan-out: copies read the post-store
            # snapshot, in which only location l changed (it now holds
            # the new ST, whose descriptor ID is l); other sources keep
            # their pre-store indices
            for dst, src in sorted(tracking.copies.items()):
                if src == FRESH or dst == src:
                    continue
                if src == l or self._tracker.index_of(src) != 0:
                    out.append(AddIdSym(src, dst))
        elif isinstance(action, Load):
            l = tracking.location
            assert l is not None
            out.append(NodeSym(self.L + 1, action))
            if self._tracker.index_of(l) != 0:
                out.append(EdgeSym(l, self.L + 1, EdgeKind.INH))
        else:
            snapshot = {
                l: self._tracker.index_of(l) for l in range(1, self.L + 1)
            }
            for l, src in sorted(tracking.copies.items()):
                if src == FRESH or snapshot[src] == 0:
                    # erased or copied-from-⊥: ST-index of l becomes 0;
                    # no symbol needed (ID l may dangle, see class doc)
                    continue
                if src != l:
                    out.append(AddIdSym(src, l))
        self._tracker.feed(action, tracking)
        return out


def inheritance_edges_of_run(
    protocol: Protocol, run: Iterable[Action]
) -> List[Tuple[int, int]]:
    """The inheritance edges of a run as (ST trace-index, LD
    trace-index) pairs — computed directly from ST-indices, serving as
    the oracle against which :class:`InheritanceGenerator`'s descriptor
    output is tested."""
    tracker = STIndexTracker(protocol.num_locations)
    edges: List[Tuple[int, int]] = []
    j = 0
    for t in protocol.replay(run):
        action = t.action
        if isinstance(action, Operation):
            j += 1
            if isinstance(action, Load):
                l = t.tracking.location
                assert l is not None
                i = tracker.index_of(l)
                if i != 0:
                    edges.append((i, j))
        tracker.feed(action, t.tracking)
    return edges
