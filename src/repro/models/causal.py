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

from typing import Dict, List, Optional, Set, Tuple

from ..core.constraint_graph import EdgeKind
from ..core.descriptor import EdgeSym, Symbol
from ..core.observer import Handle, WitnessObserver
from ..core.operations import InternalAction, Load, Store
from ..core.protocol import Protocol, Transition
from ..core.storder import STOrderGenerator
from .base import ConsistencyModel

__all__ = ["CausalConsistency", "CausalObserver"]


class CausalObserver(WitnessObserver):
    """Streaming witness-graph emitter for the causal condition.

    The same driving contract as :class:`~repro.core.observer.Observer`
    (``on_transition`` per protocol step, ``fork`` for branching,
    canonical snapshots for state interning), with a much smaller
    state: a location map and one last-node handle per (processor,
    block).
    """

    __slots__ = ("_last",)

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
        super().__init__(protocol, self_check=self_check, eager_free=eager_free)
        #: (proc, block) -> last LD/ST node of that processor on that
        #: block (the per-location program-order tail)
        self._last: Dict[Tuple[int, int], Handle] = {}

    # ------------------------------------------------------------------
    def on_transition(self, transition: Transition) -> List[Symbol]:
        self._canon_cache = None
        self._key_cache = None
        out: List[Symbol] = []
        edges: Dict[Tuple[int, int], EdgeKind] = {}
        action = transition.action
        tracking = transition.tracking

        if isinstance(action, (Store, Load)):
            h = self._new_node(action, out)
            prev = self._last.get((action.proc, action.block))
            if prev is not None:
                self._edge(prev, h, EdgeKind.PO, edges)
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
                    self._copy_locations(tracking.copies)
            else:
                src = self._loc[l]
                if self.self_check and self.violation is None:
                    self._check_load(action, l, src)
                if src is not None:
                    self._edge(src, h, EdgeKind.INH, edges)
                # a ⊥-load inherits the initial contents, which precede
                # everything: no edge, no obligation
        else:
            assert isinstance(action, InternalAction)
            if tracking.copies:
                self._copy_locations(tracking.copies)

        out.extend(EdgeSym(u, v, kind) for (u, v), kind in edges.items())
        self._collect_garbage(out)
        live = len(self._op)
        if live > self.max_live:
            self.max_live = live
        return out

    # ------------------------------------------------------------------
    def _roots(self) -> Set[Handle]:
        """The per-(proc, block) tails and the nodes locations hold:
        program-order edges only ever leave tails and inheritance edges
        only ever leave held nodes, so any other node can gain no
        future edge and retires."""
        roots = set(self._last.values())
        for h in self._loc.values():
            if h is not None:
                roots.add(h)
        return roots

    # ------------------------------------------------------------------
    def fork(self) -> "CausalObserver":
        other = self._fork_into(CausalObserver.__new__(CausalObserver))
        other._last = dict(self._last)
        return other

    # ------------------------------------------------------------------
    def _walk(self, perm) -> Tuple[Dict[int, int], Tuple]:
        """Canonical renaming + state key in one walk (locations in
        index order, then per-(proc, block) tails in sort order —
        every live node fills one of those roles, so the walk names
        all IDs).  The model declares no symmetry reduction, so
        ``perm`` is always ``None``."""
        assert perm is None, "the causal model takes no symmetry permutation"
        canon: Dict[int, int] = {}
        name = canon.setdefault
        loc_data, loc_part = self._name_locations(canon, None)
        last_part = tuple(
            (k, name(h, len(canon))) for k, h in sorted(self._last.items())
        )
        if len(canon) != len(self._op):  # pragma: no cover - safety net
            for h in sorted(self._op):
                name(h, len(canon))
        return canon, (self.violation, loc_data, loc_part, last_part)


class CausalConsistency(ConsistencyModel):
    """Per-location program order + write-read causality, no total
    store order.  Strictly weaker than SC (see module docstring)."""

    name = "causal"
    modes = ("fast",)
    weaker_than = ("sc",)
    supports_reduction = False
    observer_cls = CausalObserver
