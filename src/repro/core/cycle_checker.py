"""The finite-state cycle checker of Lemma 3.3.

Reads a k-graph descriptor symbol by symbol while maintaining an
*active graph* of at most ``k+1`` nodes.  When a node's last ID is
recycled, the node is removed after *contracting* paths through it
(for every pair of edges ``(H, node)``, ``(node, J)`` an edge
``(H, J)`` is added) — contraction preserves cycles, so a cycle in the
full described graph always becomes visible inside the bounded window.
The checker rejects the moment an edge insertion closes a cycle.

Node and edge labels are ignored here (the annotation checks are the
job of :mod:`repro.core.checker`); only the ID dynamics matter.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graphs import Digraph, would_close_cycle
from .descriptor import AddIdSym, EdgeSym, FreeIdSym, NodeSym, Symbol

__all__ = ["CycleChecker", "descriptor_is_acyclic"]


class CycleChecker:
    """Streaming acyclicity check for k-graph descriptors.

    ``feed`` returns ``True`` while the described graph remains acyclic
    and ``False`` forever after a cycle is detected (the checker is a
    safety automaton — once rejected, always rejected).
    """

    __slots__ = ("max_id", "rejected", "_next_token", "_graph", "_owner", "_idset")

    def __init__(self, max_id: Optional[int] = None):
        self.max_id = max_id
        self.rejected = False
        self._next_token = 1
        self._graph = Digraph()  # nodes are internal tokens
        self._owner: Dict[int, int] = {}  # ID -> token
        self._idset: Dict[int, Set[int]] = {}  # token -> IDs held

    # ------------------------------------------------------------------
    def _retire_id(self, ident: int) -> None:
        """ID ``ident`` is being re-purposed.  If it was the sole ID of
        a node, contract the node out of the active graph; otherwise
        just shrink that node's ID-set."""
        tok = self._owner.pop(ident, None)
        if tok is None:
            return
        ids = self._idset[tok]
        ids.discard(ident)
        if ids:
            return
        del self._idset[tok]
        # a contraction-created self-loop (pred == succ through tok)
        # witnesses a cycle
        preds = set(self._graph.predecessors(tok)) - {tok}
        succs = set(self._graph.successors(tok)) - {tok}
        if self._graph.has_edge(tok, tok):
            self.rejected = True
        if preds & succs:
            # H -> tok -> H is a 2-cycle; contraction yields self-loop
            self.rejected = True
        self._graph.contract_node(tok)

    def feed(self, sym: Symbol) -> bool:
        if self.rejected:
            return False
        # EdgeSym first: edges are the most frequent symbol in
        # observer-emitted streams
        if isinstance(sym, EdgeSym):
            u = self._owner.get(sym.src)
            v = self._owner.get(sym.dst)
            if u is None or v is None:
                # formal semantics: no edge results; nothing to check
                return not self.rejected
            if u == v or would_close_cycle(self._graph, u, v):
                self.rejected = True
            else:
                self._graph.add_edge(u, v)
        elif isinstance(sym, NodeSym):
            self._retire_id(sym.id)
            tok = self._next_token
            self._next_token += 1
            self._graph.add_node(tok)
            self._owner[sym.id] = tok
            self._idset[tok] = {sym.id}
        elif isinstance(sym, FreeIdSym):
            self._retire_id(sym.id)
        elif isinstance(sym, AddIdSym):
            target = self._owner.get(sym.id)
            if sym.new_id != sym.id:
                self._retire_id(sym.new_id)
            if target is not None and not self.rejected:
                self._owner[sym.new_id] = target
                self._idset[target].add(sym.new_id)
        else:  # pragma: no cover - defensive
            raise TypeError(f"not a descriptor symbol: {sym!r}")
        return not self.rejected

    def feed_all(self, symbols: Iterable[Symbol]) -> bool:
        feed = self.feed
        for s in symbols:
            if not feed(s):
                return False
        return not self.rejected

    @property
    def accepts(self) -> bool:
        """End-of-string verdict (Lemma 3.3: accept iff never rejected)."""
        return not self.rejected

    # the checker contract shared with repro.core.checker.Checker: a
    # safety automaton has no end-of-string conditions beyond "never
    # rejected", so all three views agree
    @property
    def accepts_so_far(self) -> bool:
        return not self.rejected

    def accepts_at_end(self) -> bool:
        return not self.rejected

    def violations(self) -> List[str]:
        return ["constraint-graph cycle"] if self.rejected else []

    # ------------------------------------------------------------------
    def fork(self) -> "CycleChecker":
        """Independent copy (for branching exploration)."""
        other = CycleChecker.__new__(CycleChecker)
        other.max_id = self.max_id
        other.rejected = self.rejected
        other._next_token = self._next_token
        other._graph = self._graph.copy()
        other._owner = dict(self._owner)
        other._idset = {t: set(ids) for t, ids in self._idset.items()}
        return other

    def active_size(self) -> int:
        """Number of nodes currently in the active graph (≤ k+1 for a
        proper k-graph descriptor)."""
        return len(self._graph)

    def state_key(self, canon=None, perm=None) -> Tuple:
        """Canonical hashable state for model-checking product
        exploration.  ``canon`` optionally renames descriptor IDs (the
        product explorer passes the observer's canonical renaming so
        permutation-equivalent joint states merge); tokens are then
        ranked by their smallest renamed ID.

        ``perm`` (a symmetry permutation; see engine/reduction.py) is
        accepted for interface uniformity and ignored: the key is pure
        descriptor-ID/token structure with no processor, block or
        value content — permuting the run moves only which *renaming*
        ``canon`` carries, which the caller already passes permuted.

        ID-sets are disjoint across tokens, so ranking by the sorted
        renamed tuple (whose head is the minimum) equals ranking by the
        minimum — and each ID is renamed once, not once for the sort
        key and again for the output.  Observer-emitted streams never
        share an ID between nodes (no AddId symbols), so the singleton
        path is the product search's hot path.

        A rejected checker collapses to a single canonical key: the
        checker is a safety automaton (once rejected, always rejected),
        so all rejected states are behaviourally identical — and after
        rejection ``feed`` stops applying symbols, which lets the
        ID→token map drift out of sync with the observer; keying the
        stale raw IDs would make the joint key depend on which concrete
        representative reached the violation first.
        """
        if self.rejected:
            return ("REJECTED",)
        items = []
        get = (canon or {}).get
        for t, ids in self._idset.items():
            if len(ids) == 1:
                (i,) = ids
                items.append(((get(i, i),), t))
            else:
                items.append((tuple(sorted(get(i, i) for i in ids)), t))
        # ID-sets are disjoint, so the renamed tuples are distinct and
        # the (tuple, token) sort never reaches the token tiebreak
        items.sort()
        rank = {}
        ids_part = []
        for r, (rids, t) in enumerate(items):
            rank[t] = r
            ids_part.append(rids)
        labels = self._graph._labels  # dict keyed by (u, v); read-only peek
        if labels:
            edges = tuple(
                sorted(
                    (rank[u], rank[v])
                    for (u, v) in labels
                    if u in rank and v in rank
                )
            )
        else:
            edges = ()
        return (self.rejected, tuple(ids_part), edges)


def descriptor_is_acyclic(
    symbols: Iterable[Symbol], max_id: Optional[int] = None
) -> bool:
    """One-shot: does the descriptor describe an acyclic graph?"""
    c = CycleChecker(max_id)
    c.feed_all(symbols)
    return c.accepts
