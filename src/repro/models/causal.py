"""Causal consistency as a :class:`ConsistencyModel`.

The model (as implemented here, in the paper's witness-graph frame):
a trace is accepted iff the graph over its LD/ST events with

* **per-location program order** — successive operations by the same
  processor *on the same block* (``po`` edges), and
* **write-read causality** — the ST whose value a LD observes
  precedes it (``inh`` edges, from the protocol's tracking labels)

is acyclic and every inheritance agrees on block and value.  There is
deliberately **no total ST order per block** and no cross-location
program order — the two ingredients whose absence separates causal
from sequential consistency.  Every edge here maps to an edge or path
of the SC witness graph (per-location program order embeds into full
program order; the inheritance edges are literally shared), so an
acyclic SC witness implies an acyclic causal witness: **SC-pass ⇒
causal-pass**, the lattice contract :mod:`repro.difftest` enforces
over the protocol zoo.  The store-buffer protocol separates the two
models concretely: its SB-litmus behaviour has no same-location
program-order pair to order the offending operations, so it verifies
under ``--model causal`` while violating SC.

:class:`CausalObserver` is the streaming emitter: per (processor,
block) it remembers the last event node, and the location map tracks
which ST's value each storage location holds (the same Section 4.1
tracking-label machinery the SC observer uses).  Nodes retire as soon
as they are neither a per-(proc, block) tail nor held by any location
— no future edge can touch them — so the live set is bounded by
``L + p·b`` and the joint model-checking space stays finite.  The
independent per-trace oracle is
:func:`repro.litmus.bruteforce.check_trace_causal`, fuzzed against
this observer in ``tests/test_models.py``.

Like the SC observer, a rejection means *this observer is not a
causal witness* for the trace; with correct tracking labels that is a
genuine causality violation (a value observed before it is causally
produced), which is exactly what the cycle checker detects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.constraint_graph import EdgeKind
from ..core.descriptor import EdgeSym, FreeIdSym, NodeSym, Symbol
from ..core.operations import BOTTOM, InternalAction, Load, Operation, Store
from ..core.protocol import FRESH, Protocol, Transition
from ..core.storder import STOrderGenerator
from .base import ConsistencyModel

__all__ = ["CausalConsistency", "CausalObserver"]

Handle = int  # a node's descriptor ID


class CausalObserver:
    """Streaming witness-graph emitter for the causal condition.

    The same driving contract as :class:`~repro.core.observer.Observer`
    (``on_transition`` per protocol step, ``fork`` for branching,
    canonical snapshots for state interning), with a much smaller
    state: a location map and one last-node handle per (processor,
    block).
    """

    __slots__ = (
        "protocol",
        "self_check",
        "eager_free",
        "violation",
        "_op",
        "_free_ids",
        "_ids_allocated",
        "_loc",
        "_last",
        "max_live",
        "_canon_cache",
        "_key_cache",
    )

    def __init__(
        self,
        protocol: Protocol,
        st_order: Optional[STOrderGenerator] = None,
        *,
        self_check: bool = False,
        eager_free: bool = True,
        unpin_heads: bool = True,
    ):
        # st_order / unpin_heads are accepted for observer-interface
        # uniformity and ignored: causal has no ST total order, hence
        # no generator, no block heads and no forced edges
        del st_order, unpin_heads
        self.protocol = protocol
        self.self_check = self_check
        self.eager_free = eager_free
        self.violation: Optional[str] = None
        # live nodes, keyed by handle = descriptor ID (as in the SC
        # observer)
        self._op: Dict[Handle, Operation] = {}
        self._free_ids: List[int] = []
        self._ids_allocated = 0
        L = protocol.num_locations
        self._loc: Dict[int, Optional[Handle]] = {l: None for l in range(1, L + 1)}
        #: (proc, block) -> last LD/ST node of that processor on that
        #: block (the per-location program-order tail)
        self._last: Dict[Tuple[int, int], Handle] = {}
        self.max_live = 0
        self._canon_cache: Optional[Dict[int, int]] = None
        self._key_cache: Optional[Tuple] = None

    # ------------------------------------------------------------------
    def _alloc_id(self) -> int:
        if self._free_ids:
            import heapq

            return heapq.heappop(self._free_ids)
        self._ids_allocated += 1
        return self._ids_allocated

    @property
    def ids_in_use(self) -> int:
        return len(self._op)

    @property
    def max_ids_allocated(self) -> int:
        return self._ids_allocated

    def _new_node(self, op: Operation, out: List[Symbol]) -> Handle:
        h = self._alloc_id()
        self._op[h] = op
        out.append(NodeSym(h, op))
        return h

    # ------------------------------------------------------------------
    def on_transition(self, transition: Transition) -> List[Symbol]:
        self._canon_cache = None
        self._key_cache = None
        out: List[Symbol] = []
        edges: Dict[Tuple[int, int], EdgeKind] = {}
        action = transition.action
        tracking = transition.tracking

        def edge(u: Handle, v: Handle, kind: EdgeKind) -> None:
            key = (u, v)
            edges[key] = edges.get(key, EdgeKind.NONE) | kind

        if isinstance(action, (Store, Load)):
            h = self._new_node(action, out)
            prev = self._last.get((action.proc, action.block))
            if prev is not None:
                edge(prev, h, EdgeKind.PO)
            self._last[(action.proc, action.block)] = h
            l = tracking.location
            if l is None:
                kind = "ST" if isinstance(action, Store) else "LD"
                raise ValueError(
                    f"{kind} transition without a location label: {action!r}"
                )
            if isinstance(action, Store):
                self._loc[l] = h
                if tracking.copies:
                    snapshot = dict(self._loc)
                    for dst, src_l in tracking.copies.items():
                        self._loc[dst] = None if src_l == FRESH else snapshot[src_l]
            else:
                src = self._loc[l]
                if self.self_check and self.violation is None:
                    if src is None:
                        if action.value != BOTTOM:
                            self.violation = (
                                f"{action!r} returns a value, but location "
                                f"{l} holds no ST's value (⊥)"
                            )
                    else:
                        sop = self._op[src]
                        if sop.block != action.block or sop.value != action.value:
                            self.violation = (
                                f"{action!r} reads location {l}, which holds "
                                f"the value of {sop!r}"
                            )
                        elif action.value == BOTTOM:
                            self.violation = (
                                f"{action!r} is a ⊥-load of a tracked ST value"
                            )
                if src is not None:
                    edge(src, h, EdgeKind.INH)
                # a ⊥-load inherits the initial contents, which precede
                # everything: no edge, no obligation
        else:
            assert isinstance(action, InternalAction)
            if tracking.copies:
                snapshot = dict(self._loc)
                for l, src_l in tracking.copies.items():
                    self._loc[l] = None if src_l == FRESH else snapshot[src_l]

        out.extend(EdgeSym(u, v, kind) for (u, v), kind in edges.items())
        self._collect_garbage(out)
        live = len(self._op)
        if live > self.max_live:
            self.max_live = live
        return out

    # ------------------------------------------------------------------
    def _collect_garbage(self, out: List[Symbol]) -> None:
        """Retire nodes that are neither a per-(proc, block) tail nor
        held by a location: program-order edges only ever leave tails
        and inheritance edges only ever leave held nodes, so a retired
        node can gain no future edge."""
        roots = set(self._last.values())
        for h in self._loc.values():
            if h is not None:
                roots.add(h)
        _op = self._op
        if len(roots) >= len(_op):
            return
        import heapq

        for h in [h for h in _op if h not in roots]:
            del _op[h]
            heapq.heappush(self._free_ids, h)
            if self.eager_free:
                out.append(FreeIdSym(h))

    # ------------------------------------------------------------------
    def fork(self) -> "CausalObserver":
        other = CausalObserver.__new__(CausalObserver)
        other.protocol = self.protocol
        other.self_check = self.self_check
        other.eager_free = self.eager_free
        other.violation = self.violation
        other._op = dict(self._op)
        other._free_ids = list(self._free_ids)
        other._ids_allocated = self._ids_allocated
        other._loc = dict(self._loc)
        other._last = dict(self._last)
        other.max_live = self.max_live
        other._canon_cache = self._canon_cache
        other._key_cache = self._key_cache
        return other

    # ------------------------------------------------------------------
    def _fused_canonical(self) -> None:
        """Canonical renaming + state key in one walk (locations in
        index order, then per-(proc, block) tails in sort order —
        every live node fills one of those roles, so the walk names
        all IDs)."""
        canon: Dict[int, int] = {}
        name = canon.setdefault
        loc_part_l = []
        loc_data_l = []
        for l in sorted(self._loc):
            h = self._loc[l]
            if h is None:
                loc_part_l.append(None)
                if self.self_check:
                    loc_data_l.append(None)
            else:
                loc_part_l.append(name(h, len(canon)))
                if self.self_check:
                    op = self._op[h]
                    loc_data_l.append((op.block, op.value))
        last_part = tuple(
            (k, name(h, len(canon))) for k, h in sorted(self._last.items())
        )
        if len(canon) != len(self._op):  # pragma: no cover - safety net
            for h in sorted(self._op):
                name(h, len(canon))
        self._key_cache = (
            self.violation,
            tuple(loc_data_l),
            tuple(loc_part_l),
            last_part,
        )
        self._canon_cache = canon

    def canonical_snapshot(self) -> Tuple[Dict[int, int], Tuple]:
        if self._key_cache is None:
            self._fused_canonical()
        assert self._canon_cache is not None and self._key_cache is not None
        return self._canon_cache, self._key_cache

    def state_key(self) -> Tuple:
        return self.canonical_snapshot()[1]


class CausalConsistency(ConsistencyModel):
    """Per-location program order + write-read causality, no total
    store order.  Strictly weaker than SC (see module docstring)."""

    name = "causal"
    modes = ("fast",)
    weaker_than = ("sc",)
    supports_reduction = False

    def make_observer(
        self,
        protocol: Protocol,
        st_order: Optional[STOrderGenerator] = None,
        *,
        self_check: bool = False,
        eager_free: bool = True,
        unpin_heads: bool = True,
    ) -> CausalObserver:
        return CausalObserver(
            protocol,
            st_order,
            self_check=self_check,
            eager_free=eager_free,
            unpin_heads=unpin_heads,
        )

    def make_checker(self, mode: str):
        self.check_mode(mode)
        from ..core.cycle_checker import CycleChecker

        return CycleChecker()
