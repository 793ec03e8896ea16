"""Logical-clock verification in the style of Plakal et al. (SPAA'98).

The paper credits the *Lamport clocks* approach as its inspiration and
contrasts with it: logical clocks certify a run by assigning each
operation an (unbounded) timestamp such that ordering the operations
by timestamp yields a serial trace, whereas the constraint-graph
method keeps only a bounded window.

This module implements the clock approach for per-run checking so the
contrast is measurable:

* :func:`assign_clocks` — timestamps from the witness graph: each
  operation's clock is its longest-path depth over the same po / STo /
  inh / forced edges the observer would emit (computed offline from
  tracking information, no window bound).  Clock assignment succeeds
  iff the graph is acyclic — Lemma 3.1 in timestamp clothing.
* :class:`ClockChecker` — a streaming per-run checker that keeps a
  clock per *operation still relevant* and, unlike the paper's
  observer, never forgets sources: its state grows with the run
  (the benchmark shows clock values and table sizes growing without
  bound while the observer's window stays flat).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.constraint_graph import ConstraintGraph, EdgeKind
from ..core.descriptor import decode
from ..core.observer import Observer
from ..core.operations import Action
from ..core.protocol import Protocol
from ..core.storder import STOrderGenerator
from ..graphs import CycleError, topological_sort

__all__ = ["ClockAssignment", "assign_clocks", "ClockChecker", "check_run_with_clocks"]


@dataclass
class ClockAssignment:
    """Result of timestamping one run's operations."""

    ok: bool
    clocks: Dict[int, int]  #: trace index (1-based) -> timestamp
    reason: Optional[str] = None

    @property
    def max_clock(self) -> int:
        return max(self.clocks.values(), default=0)


def _witness_graph(
    protocol: Protocol, run, st_order: Optional[STOrderGenerator]
) -> Tuple[ConstraintGraph, bool]:
    """The observer's witness graph for a run, decoded in full."""
    observer = Observer(protocol, st_order.copy() if st_order is not None else None)
    state = protocol.initial_state()
    syms = []
    for t in protocol.replay(run):
        syms.extend(observer.on_transition(t))
        state = t.state
    labelled = decode(syms, strict=True)
    cg = ConstraintGraph(labelled.node_labels)
    for (u, v) in labelled.graph.edges():
        cg.add_edge(u, v, labelled.graph.label(u, v) or EdgeKind.NONE)
    return cg, protocol.is_quiescent(state)


def assign_clocks(
    protocol: Protocol,
    run,
    st_order: Optional[STOrderGenerator] = None,
) -> ClockAssignment:
    """Timestamp a run's operations à la Lamport clocks.

    Each operation's clock is one more than the maximum clock of its
    predecessors in the witness graph (longest-path depth).  The
    assignment exists iff the graph is acyclic; ordering by
    (clock, trace index) then gives a serial reordering.
    """
    cg, _quiescent = _witness_graph(protocol, run, st_order)
    try:
        order = topological_sort(cg.graph)
    except CycleError:
        return ClockAssignment(False, {}, "cycle: no consistent timestamps exist")
    clocks: Dict[int, int] = {}
    for node in order:
        preds = cg.graph.predecessors(node)
        clocks[node] = 1 + max((clocks[p] for p in preds), default=0)
    return ClockAssignment(True, clocks)


def serial_order_from_clocks(assignment: ClockAssignment) -> List[int]:
    """The serial reordering induced by the timestamps."""
    return sorted(assignment.clocks, key=lambda i: (assignment.clocks[i], i))


class ClockChecker:
    """Streaming clock maintenance with *unbounded* state.

    Mirrors what a logical-clock run checker must retain: a timestamp
    for every store whose value may still be read, for every block's
    serialisation frontier, and for each processor's last operation —
    but, with no bandwidth analysis, it conservatively keeps every
    store's clock forever.  ``table_size`` therefore grows linearly in
    the number of stores, which is the contrast the paper draws with
    its bounded observer.
    """

    def __init__(self, protocol: Protocol, st_order: Optional[STOrderGenerator] = None):
        self.protocol = protocol
        self._observer_like = Observer(
            protocol, st_order.copy() if st_order is not None else None
        )
        self._state = protocol.initial_state()
        # full history of decoded symbols (unbounded, deliberately)
        self._symbols: List = []
        self.rejected: Optional[str] = None

    def feed_action(self, action: Action) -> bool:
        if self.rejected is not None:
            return False
        t = self.protocol.transition_for(self._state, action)
        if t is None:
            raise ValueError(f"action {action!r} not enabled")
        self._symbols.extend(self._observer_like.on_transition(t))
        self._state = t.state
        return True

    def clocks(self) -> ClockAssignment:
        labelled = decode(self._symbols, strict=True)
        g = labelled.graph
        try:
            order = topological_sort(g)
        except CycleError:
            return ClockAssignment(False, {}, "cycle")
        out: Dict[int, int] = {}
        for node in order:
            out[node] = 1 + max((out[p] for p in g.predecessors(node)), default=0)
        return ClockAssignment(True, out)

    @property
    def table_size(self) -> int:
        """Operations the clock table retains (grows without bound)."""
        return sum(1 for s in self._symbols if type(s).__name__ == "NodeSym")


def check_run_with_clocks(
    protocol: Protocol,
    run,
    st_order: Optional[STOrderGenerator] = None,
) -> ClockAssignment:
    """One-shot per-run verdict via clock assignment."""
    return assign_clocks(protocol, run, st_order)
