"""Constraint graphs and the graph-based definition of SC (Section 3.1).

A *constraint graph* ``G`` for a trace ``T`` has one node per operation
(numbered ``1..n`` in trace order) and edges annotated from
``{inh, po, STo, forced}`` subject to the five edge-annotation
constraints of Section 3.1.  Lemma 3.1: ``T`` has a serial reordering
iff *some* constraint graph for ``T`` is acyclic — and then any
topological order of that graph is a serial reordering.

This module provides:

* :class:`EdgeKind` — annotation flags (an edge may carry several,
  e.g. the paper's ``po-STo``);
* :class:`ConstraintGraph` — the graph plus its trace;
* :func:`build_constraint_graph` — assemble the canonical graph from a
  choice of per-block ST orders and an inheritance assignment (forced
  edges are then determined, following the Lemma 3.1 proof);
* :func:`graph_from_serial_reordering` — the forward direction of
  Lemma 3.1 (serial reordering ⇒ acyclic constraint graph);
* :meth:`ConstraintGraph.validate` — check all five edge-annotation
  constraints, returning human-readable violations;
* :meth:`ConstraintGraph.serial_reordering` — the converse direction
  (topological sort of an acyclic graph).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..graphs import Digraph, has_cycle, topological_sort
from ..graphs.toposort import CycleError
from .operations import BOTTOM, Operation, Trace
from .serial import apply_reordering, is_serial_trace

__all__ = [
    "EdgeKind",
    "ConstraintGraph",
    "build_constraint_graph",
    "graph_from_serial_reordering",
]


class EdgeKind(enum.Flag):
    """Annotations an edge may carry (constraint 1 allows any subset,
    including the empty one — represented by :attr:`NONE`)."""

    NONE = 0
    PO = enum.auto()  #: program order
    STO = enum.auto()  #: total order on STs to one block
    INH = enum.auto()  #: LD inherits its value from this ST
    FORCED = enum.auto()  #: next-ST-must-follow-LD constraint

    def short(self) -> str:
        """The paper's hyphenated rendering, e.g. ``po-STo``."""
        parts = []
        if self & EdgeKind.PO:
            parts.append("po")
        if self & EdgeKind.STO:
            parts.append("STo")
        if self & EdgeKind.INH:
            parts.append("inh")
        if self & EdgeKind.FORCED:
            parts.append("forced")
        return "-".join(parts) if parts else "plain"


def _merge_kinds(a: Optional[EdgeKind], b: Optional[EdgeKind]) -> EdgeKind:
    return (a or EdgeKind.NONE) | (b or EdgeKind.NONE)


class ConstraintGraph:
    """A candidate constraint graph for ``trace``.

    Nodes are the integers ``1..len(trace)``; ``graph`` stores
    :class:`EdgeKind` labels.  The class does not enforce validity on
    construction — build any graph, then ask :meth:`validate`.
    """

    def __init__(self, trace: Sequence[Operation]):
        self.trace: Trace = tuple(trace)
        self.graph = Digraph()
        for i in range(1, len(self.trace) + 1):
            self.graph.add_node(i)

    # ------------------------------------------------------------------
    def op(self, i: int) -> Operation:
        """The operation labelling node ``i`` (1-based)."""
        return self.trace[i - 1]

    def add_edge(self, i: int, j: int, kind: EdgeKind = EdgeKind.NONE) -> None:
        """Add (or further annotate) edge ``i -> j``."""
        n = len(self.trace)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) out of node range 1..{n}")
        self.graph.add_edge(i, j, kind, merge=_merge_kinds)

    def kind(self, i: int, j: int) -> EdgeKind:
        return self.graph.label(i, j) if self.graph.has_edge(i, j) else EdgeKind.NONE

    def edges_of_kind(self, kind: EdgeKind) -> List[Tuple[int, int]]:
        return [
            (i, j)
            for (i, j) in self.graph.edges()
            if (self.graph.label(i, j) or EdgeKind.NONE) & kind
        ]

    def is_acyclic(self) -> bool:
        return not has_cycle(self.graph)

    # ------------------------------------------------------------------
    # Lemma 3.1, converse direction
    # ------------------------------------------------------------------
    def serial_reordering(self) -> Optional[List[int]]:
        """A topological order of the node numbers, or ``None`` if the
        graph is cyclic.  For a *valid* constraint graph (per
        :meth:`validate`) this is a serial reordering of the trace."""
        try:
            return topological_sort(self.graph)
        except CycleError:
            return None

    # ------------------------------------------------------------------
    # Section 3.1 edge-annotation constraints
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Return all edge-annotation-constraint violations (empty list
        means the graph is a constraint graph for its trace)."""
        violations: List[str] = []
        violations.extend(self._check_program_order())
        violations.extend(self._check_st_order())
        violations.extend(self._check_inheritance())
        violations.extend(self._check_forced())
        return violations

    def is_valid(self) -> bool:
        return not self.validate()

    # -- constraint 2 ---------------------------------------------------
    def _check_program_order(self) -> List[str]:
        """Per processor: exactly u-1 po edges forming the trace-order
        chain over that processor's u operations."""
        out: List[str] = []
        po_edges = self.edges_of_kind(EdgeKind.PO)
        by_proc: Dict[int, List[int]] = {}
        for i, op in enumerate(self.trace, start=1):
            by_proc.setdefault(op.proc, []).append(i)
        # the only total order on a processor's ops consistent with
        # trace order is trace order itself, so the u-1 edges must be
        # exactly the consecutive pairs of the per-processor chain
        expected = set()
        for nodes in by_proc.values():
            expected.update(zip(nodes, nodes[1:]))
        got = set(po_edges)
        for e in got - expected:
            out.append(f"po edge {e} is not a consecutive same-processor pair")
        for e in expected - got:
            out.append(f"missing po edge {e}")
        return out

    # -- constraint 3 ---------------------------------------------------
    def _check_st_order(self) -> List[str]:
        """Per block: u-1 STo edges forming *some* total order on the u
        ST nodes for that block (any order, unlike po)."""
        out: List[str] = []
        sto_edges = self.edges_of_kind(EdgeKind.STO)
        by_block: Dict[int, List[int]] = {}
        for i, op in enumerate(self.trace, start=1):
            if op.is_store:
                by_block.setdefault(op.block, []).append(i)
        edges_by_block: Dict[int, List[Tuple[int, int]]] = {}
        for (i, j) in sto_edges:
            oi, oj = self.op(i), self.op(j)
            if not (oi.is_store and oj.is_store and oi.block == oj.block):
                out.append(f"STo edge ({i},{j}) does not join two STs to one block")
                continue
            edges_by_block.setdefault(oi.block, []).append((i, j))
        for block, nodes in by_block.items():
            edges = edges_by_block.get(block, [])
            if len(edges) != len(nodes) - 1:
                out.append(
                    f"block {block}: {len(edges)} STo edges for {len(nodes)} STs "
                    f"(need {len(nodes) - 1})"
                )
                continue
            chain_err = self._hamiltonian_path_violation(nodes, edges)
            if chain_err:
                out.append(f"block {block}: STo edges {chain_err}")
        for block in edges_by_block:
            if block not in by_block:
                out.append(f"block {block}: STo edges but no ST nodes")
        return out

    @staticmethod
    def _hamiltonian_path_violation(
        nodes: Sequence[int], edges: Sequence[Tuple[int, int]]
    ) -> Optional[str]:
        """With ``len(edges) == len(nodes) - 1`` already known, check
        the edges form a simple path visiting every node once (i.e. a
        total order).  Returns a description of the defect or None."""
        succ: Dict[int, int] = {}
        indeg: Dict[int, int] = {n: 0 for n in nodes}
        for (i, j) in edges:
            if i in succ:
                return f"node {i} has two outgoing order edges"
            succ[i] = j
            indeg[j] = indeg.get(j, 0) + 1
            if indeg[j] > 1:
                return f"node {j} has two incoming order edges"
        starts = [n for n in nodes if indeg.get(n, 0) == 0]
        if len(nodes) == 0:
            return None
        if len(starts) != 1:
            return f"{len(starts)} chain heads (need exactly 1)"
        cur, seen = starts[0], 1
        while cur in succ:
            cur = succ[cur]
            seen += 1
        if seen != len(nodes):
            return "order edges do not chain all nodes (cycle or split)"
        return None

    # -- constraint 4 ---------------------------------------------------
    def _check_inheritance(self) -> List[str]:
        out: List[str] = []
        inh_in: Dict[int, List[int]] = {}
        for (i, j) in self.edges_of_kind(EdgeKind.INH):
            inh_in.setdefault(j, []).append(i)
        for j in range(1, len(self.trace) + 1):
            oj = self.op(j)
            srcs = inh_in.get(j, [])
            if oj.is_load and oj.value != BOTTOM:
                if len(srcs) != 1:
                    out.append(
                        f"node {j} ({oj!r}) has {len(srcs)} incoming inh edges (need 1)"
                    )
                    continue
                oi = self.op(srcs[0])
                if not (oi.is_store and oi.block == oj.block and oi.value == oj.value):
                    out.append(
                        f"inh edge ({srcs[0]},{j}): source {oi!r} is not "
                        f"ST(*,B{oj.block},{oj.value})"
                    )
            else:
                if srcs:
                    out.append(f"node {j} ({oj!r}) must not have incoming inh edges")
        return out

    # -- constraint 5 ---------------------------------------------------
    def _st_successor(self) -> Dict[int, int]:
        """node -> its STo-successor (from STo edges)."""
        return {i: j for (i, j) in self.edges_of_kind(EdgeKind.STO)}

    def _first_st_of_block(self) -> Dict[int, int]:
        """block -> the head of its STo chain (no incoming STo edge)."""
        heads: Dict[int, int] = {}
        has_in = {j for (_, j) in self.edges_of_kind(EdgeKind.STO)}
        for i, op in enumerate(self.trace, start=1):
            if op.is_store and i not in has_in:
                if op.block in heads:
                    # malformed chain — constraint 3 will flag it
                    continue
                heads[op.block] = i
        return heads

    def _po_successor(self) -> Dict[int, int]:
        return {i: j for (i, j) in self.edges_of_kind(EdgeKind.PO)}

    def _check_forced(self) -> List[str]:
        out: List[str] = []
        st_succ = self._st_successor()
        po_succ = self._po_successor()
        inh_src: Dict[int, int] = {}
        inherits_from: Dict[int, List[int]] = {}
        for (i, j) in self.edges_of_kind(EdgeKind.INH):
            inh_src[j] = i
            inherits_from.setdefault(i, []).append(j)
        forced = set(self.edges_of_kind(EdgeKind.FORCED))
        n = len(self.trace)

        def forced_via_po_path(j: int, k: int, same_source: Optional[int]) -> bool:
            """Constraint 5(a)/(b): forced edge from j to k directly, or
            a po path from j to a node j' with the same inheritance
            source (or, for ⊥ loads, another ⊥ load of the same block)
            that has a forced edge to k."""
            cur: Optional[int] = j
            hops = 0
            while cur is not None and hops <= n:
                qualifies = cur == j
                if not qualifies:
                    oc = self.op(cur)
                    if same_source is not None:
                        qualifies = inh_src.get(cur) == same_source
                    else:
                        oj = self.op(j)
                        qualifies = (
                            oc.is_load
                            and oc.value == BOTTOM
                            and oc.block == oj.block
                        )
                if qualifies and (cur, k) in forced:
                    return True
                cur = po_succ.get(cur)
                hops += 1
            return False

        # 5(a): triples (i, j, k) with STo(i,k) and inh(i,j)
        for i, loads in inherits_from.items():
            k = st_succ.get(i)
            if k is None:
                continue
            for j in loads:
                if not forced_via_po_path(j, k, same_source=i):
                    out.append(
                        f"triple (i={i}, j={j}, k={k}): no forced edge on a "
                        f"program-order path from {j} to {k}"
                    )
        # 5(b): ⊥ loads must be forced before the first ST of their block
        first_st = self._first_st_of_block()
        for j in range(1, n + 1):
            oj = self.op(j)
            if oj.is_load and oj.value == BOTTOM:
                k = first_st.get(oj.block)
                if k is None:
                    continue  # no STs to the block at all
                if not forced_via_po_path(j, k, same_source=None):
                    out.append(
                        f"⊥-load node {j}: no forced edge on a path to the "
                        f"first ST (node {k}) of block {oj.block}"
                    )
        return out

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ConstraintGraph(n={len(self.trace)}, edges={self.graph.num_edges()})"
        )


def build_constraint_graph(
    trace: Sequence[Operation],
    st_order: Mapping[int, Sequence[int]],
    inherit: Mapping[int, int],
) -> ConstraintGraph:
    """Assemble the canonical constraint graph from the two free choices.

    ``st_order`` maps each block to the chosen total order of its ST
    node numbers; ``inherit`` maps each non-⊥ LD node number to the ST
    node it inherits from.  Program-order edges are fixed by the trace,
    and forced edges are derived exactly as in the Lemma 3.1 proof: a
    direct forced edge from every LD to its source's STo-successor, and
    from every ⊥-LD to the first ST of its block.
    """
    g = ConstraintGraph(trace)
    n = len(g.trace)
    # program order
    last_of_proc: Dict[int, int] = {}
    for i, op in enumerate(g.trace, start=1):
        if op.proc in last_of_proc:
            g.add_edge(last_of_proc[op.proc], i, EdgeKind.PO)
        last_of_proc[op.proc] = i
    # ST order
    st_succ: Dict[int, int] = {}
    for block, chain in st_order.items():
        for a, c in zip(chain, chain[1:]):
            g.add_edge(a, c, EdgeKind.STO)
            st_succ[a] = c
    # inheritance + 5(a) forced edges
    for j, i in inherit.items():
        g.add_edge(i, j, EdgeKind.INH)
        if i in st_succ:
            g.add_edge(j, st_succ[i], EdgeKind.FORCED)
    # 5(b) forced edges for ⊥ loads
    for j in range(1, n + 1):
        oj = g.op(j)
        if oj.is_load and oj.value == BOTTOM:
            chain = st_order.get(oj.block, ())
            if chain:
                g.add_edge(j, chain[0], EdgeKind.FORCED)
    return g


def graph_from_serial_reordering(
    trace: Sequence[Operation], perm: Sequence[int]
) -> ConstraintGraph:
    """Lemma 3.1, forward direction: build the (acyclic, valid)
    constraint graph induced by a serial reordering ``perm``.

    Follows the proof's construction bullet-for-bullet.  Raises
    ``ValueError`` if ``perm`` is not a serial reordering.
    """
    reordered = apply_reordering(trace, perm)
    if not is_serial_trace(reordered):
        raise ValueError("perm does not yield a serial trace")

    st_order: Dict[int, List[int]] = {}
    inherit: Dict[int, int] = {}
    last_st: Dict[int, int] = {}  # block -> trace index of last ST seen in T'
    for t_idx in perm:
        op = trace[t_idx - 1]
        if op.is_store:
            st_order.setdefault(op.block, []).append(t_idx)
            last_st[op.block] = t_idx
        else:
            if op.block in last_st:
                inherit[t_idx] = last_st[op.block]
            elif op.value != BOTTOM:
                raise ValueError("perm does not preserve load values")
    # (program-order preservation is validated by the builder's po check
    # downstream; a violating perm yields an invalid graph)
    return build_constraint_graph(trace, st_order, inherit)
