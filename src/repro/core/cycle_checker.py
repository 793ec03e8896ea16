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

Lemma 3.3 makes this a *finite* automaton: over IDs ``1..k+1`` the
active graph has at most ``k+1`` nodes, so there are finitely many
states up to token naming, and :meth:`CycleChecker.state_key` (with no
renaming) names each one completely — :meth:`CycleChecker.from_key`
rebuilds a checker that behaves identically.  :class:`CycleState` is
that key as an immutable value, which is how the product search steps
the checker in fast mode: each distinct state is interned once and its
transitions are memoized (see
:class:`~repro.engine.component.CheckerComponent`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..graphs import Digraph, would_close_cycle
from .descriptor import AddIdSym, EdgeSym, FreeIdSym, NodeSym, Symbol

__all__ = ["CycleChecker", "CycleState", "descriptor_is_acyclic"]


class CycleChecker:
    """Streaming acyclicity check for k-graph descriptors.

    ``feed`` returns ``True`` while the described graph remains acyclic
    and ``False`` forever after a cycle is detected (the checker is a
    safety automaton — once rejected, always rejected).
    """

    __slots__ = ("rejected", "_next_token", "_graph", "_owner", "_idset")

    def __init__(self):
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
        other.rejected = self.rejected
        other._next_token = self._next_token
        other._graph = self._graph.copy()
        other._owner = dict(self._owner)
        other._idset = {t: set(ids) for t, ids in self._idset.items()}
        return other

    @classmethod
    def from_key(cls, key: Tuple) -> "CycleChecker":
        """The checker that :meth:`state_key` (without ``canon``)
        describes as ``key``: tokens ``1..n`` in key order, holding the
        key's ID-sets, with the key's edges between them.  Its future
        behaviour is that of every checker with this key (tokens are
        private names; only ID-sets and edges are ever read)."""
        chk = cls()
        if key[0]:  # ("REJECTED",): once rejected, always rejected
            chk.rejected = True
            return chk
        _rejected, ids_part, edges = key
        graph, owner, idset = chk._graph, chk._owner, chk._idset
        for tok, ids in enumerate(ids_part, 1):
            graph.add_node(tok)
            idset[tok] = set(ids)
            for i in ids:
                owner[i] = tok
        for u, v in edges:
            graph.add_edge(u + 1, v + 1)
        chk._next_token = len(ids_part) + 1
        return chk

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

        :func:`_ranked_key` builds the key of an accepting checker.

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
        labels = self._graph._labels  # dict keyed by (u, v); read-only peek
        return _ranked_key(self._idset.items(), labels, (canon or {}).get)


class CycleState:
    """An accepting :class:`CycleChecker` state as an immutable value.

    ``key`` is the checker's :meth:`~CycleChecker.state_key` with no
    renaming, which describes the state completely (see
    :meth:`CycleChecker.from_key`).  A search interns one
    ``CycleState`` per distinct key, so many product states share one
    small object instead of each holding a forked graph.  It has the
    read side of the checker contract and no ``feed``: stepping is the
    job of :class:`~repro.engine.component.CheckerComponent`, whose
    memoized transition table maps a state and a symbol batch to the
    next interned state.  Rejected checkers are never interned (they
    stay :class:`CycleChecker` objects with their own
    :meth:`~CycleChecker.violations`); :meth:`CycleChecker.from_key`
    turns a state back into a mutable checker.
    """

    __slots__ = ("key", "_ids", "_renamed")

    accepts_so_far = True

    def __init__(self, key: Tuple):
        if key[0]:
            raise ValueError("a rejected checker state is never interned")
        object.__setattr__(self, "key", key)
        # every ID the state holds, in key order, and the renamed keys
        # already built, by the names those IDs took: a search renames
        # each state through few distinct renamings, and the key it
        # interns then shares one renamed tuple
        object.__setattr__(self, "_ids", tuple(i for ids in key[1] for i in ids))
        object.__setattr__(self, "_renamed", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def accepts_at_end(self) -> bool:
        return True

    def violations(self) -> List[str]:
        return []

    def state_key(self, canon=None, perm=None) -> Tuple:
        """Bit-identical to :meth:`CycleChecker.state_key` of the
        checker this state describes under a one-to-one ``canon``: both
        build the key with :func:`_ranked_key`, from tokens that differ
        only in name."""
        if not canon:
            return self.key
        get = canon.get
        ids = self._ids
        names = tuple(map(get, ids, ids))
        out = self._renamed.get(names)
        if out is None:
            out = self._renamed[names] = self._rename(get)
        return out

    def _rename(self, get) -> Tuple:
        key = self.key
        return _ranked_key(enumerate(key[1]), key[2], get)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CycleState({self.key!r})"


def _ranked_key(idsets, edges, get) -> Tuple:
    """The key of an accepting checker, the one place its format lives:
    ``idsets`` yields ``(token, ID-set)`` pairs, ``edges`` token pairs,
    and ``get`` renames an ID (``get(i, i)``).  Each ID-set becomes its
    sorted renamed tuple, the tuples are ranked (ties, which only a
    renaming that merges IDs can make, by token) and each edge becomes
    a pair of ranks.

    ID-sets are disjoint across tokens, so under a one-to-one renaming
    ranking by the sorted renamed tuple (whose head is the minimum)
    equals ranking by the minimum — and each ID is renamed once, not
    once for the sort key and again for the output.  Observer-emitted
    streams never share an ID between nodes (no AddId symbols), so the
    singleton path is the product search's hot path."""
    items = []
    for t, ids in idsets:
        if len(ids) == 1:
            (i,) = ids
            items.append(((get(i, i),), t))
        else:
            items.append((tuple(sorted(get(i, i) for i in ids)), t))
    items.sort()
    rank = {}
    ids_part = []
    for r, (rids, t) in enumerate(items):
        rank[t] = r
        ids_part.append(rids)
    if edges:
        edges = tuple(
            sorted(
                (rank[u], rank[v])
                for (u, v) in edges
                if u in rank and v in rank
            )
        )
    else:
        edges = ()
    return (False, tuple(ids_part), edges)


def descriptor_is_acyclic(symbols: Iterable[Symbol]) -> bool:
    """One-shot: does the descriptor describe an acyclic graph?"""
    c = CycleChecker()
    c.feed_all(symbols)
    return c.accepts
