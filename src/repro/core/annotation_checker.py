"""The finite-state edge-annotation checker of Theorem 3.1.

Where :class:`~repro.core.cycle_checker.CycleChecker` verifies
acyclicity, this automaton verifies that the streamed graph's edges
satisfy the five edge-annotation constraints of Section 3.1 — i.e.
that the graph really is a *constraint graph* for the trace spelled by
its node labels.  Together (see :mod:`repro.core.checker`) they decide
"acyclic constraint graph" in finite state.

Faithful to the paper's construction:

* per-node ``program-edge-in/out`` and ``ST-edge-in/out`` bits, with
  head/tail counting as nodes are removed from the active window
  (constraints 2 and 3);
* a per-LD ``inheritance-edge-in`` bit with label compatibility checks
  (constraint 4);
* the *deferred-node* discipline for forced edges (constraint 5):
  a LD that inherited from ST ``i`` stays tracked — even after its
  descriptor ID is recycled — until either its forced edge to ``i``'s
  STo-successor ``k`` is seen, or a later LD of the same processor
  inheriting from the same ``i`` supersedes it (the program-order-path
  escape hatch of constraint 5), or ``i`` retires with no STo
  successor (then no ``k`` ever exists and the obligation is vacuous);
* ⊥-loads are held against the eventual *head* of their block's ST
  order (constraint 5(b)).

The checker is a safety automaton plus an end-of-string acceptance
test: :meth:`feed` performs every check that can be decided eagerly
(and rejects permanently on failure), while :meth:`end_violations`
reports the conditions that are only judgements about a *completed*
string (totality of the po/STo orders, unmet obligations).  The model
checker evaluates the end test at quiescent protocol states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .constraint_graph import EdgeKind
from .descriptor import AddIdSym, EdgeSym, FreeIdSym, NodeSym, Symbol
from .operations import BOTTOM, Load, Operation, Store

__all__ = ["AnnotationChecker", "parse_edge_kind"]

_KIND_NAMES = {
    "po": EdgeKind.PO,
    "STo": EdgeKind.STO,
    "sto": EdgeKind.STO,
    "inh": EdgeKind.INH,
    "forced": EdgeKind.FORCED,
    "plain": EdgeKind.NONE,
}


def parse_edge_kind(label) -> EdgeKind:
    """Normalise an edge label: ``EdgeKind`` passes through, ``None``
    means no annotations, and strings use the paper's hyphenated names
    (``po-STo``, ``po-inh``, ...)."""
    if label is None:
        return EdgeKind.NONE
    if isinstance(label, EdgeKind):
        return label
    if isinstance(label, str):
        kind = EdgeKind.NONE
        for part in label.split("-"):
            if part not in _KIND_NAMES:
                raise ValueError(f"unknown edge annotation {part!r}")
            kind |= _KIND_NAMES[part]
        return kind
    raise TypeError(f"cannot interpret edge label {label!r}")


#: sentinel for "this ST's STo-successor existed but has left the
#: active window" — any new inheritance from the ST is then doomed
_GONE = -1


@dataclass
class _Node:
    """Checker-side record of one graph node."""

    tid: int  # creation order; doubles as the trace-order rank
    op: Optional[Operation]
    ids: Set[int] = field(default_factory=set)
    # edge partners (tids); None = no such edge yet.  Remembering the
    # partner (not just a bit) makes re-mentions of the *same* edge
    # idempotent — a descriptor denotes a set of edges — while a second
    # *distinct* edge still violates the totality constraints.
    po_in: Optional[int] = None
    po_out: Optional[int] = None
    sto_in: Optional[int] = None
    sto_out: Optional[int] = None
    src: Optional[int] = None  # tid of inh source (LD only)
    target: Optional[int] = None  # tid of forced-edge target, once known
    forced_to: Set[int] = field(default_factory=set)  # tids
    retired: bool = False

    @property
    def is_load(self) -> bool:
        return isinstance(self.op, Load)

    @property
    def is_store(self) -> bool:
        return isinstance(self.op, Store)


class AnnotationChecker:
    """Streaming edge-annotation checks over a k-graph descriptor.

    Symbols that reference unheld IDs are rejected (a well-formed
    observer never emits them).

    Parameters
    ----------
    require_labels:
        Reject nodes without an operation label (constraint graphs
        label every node).
    """

    def __init__(self, *, require_labels: bool = True):
        self.require_labels = require_labels
        self.rejected: Optional[str] = None

        self._next_tid = 1
        self._nodes: Dict[int, _Node] = {}  # tid -> record (live/deferred/shadow)
        self._owner: Dict[int, int] = {}  # descriptor ID -> tid

        # constraint 2/3 totality accounting
        self._proc_seen: Set[int] = set()
        self._block_seen: Set[int] = set()
        self._po_heads_retired: Dict[int, int] = {}  # proc -> count (capped 2)
        self._po_tails_retired: Dict[int, int] = {}
        self._sto_tails_retired: Dict[int, int] = {}  # block -> count
        self._sto_head_shadow: Dict[int, int] = {}  # block -> tid of retired head

        # constraint 5 machinery
        self._sto_succ: Dict[int, int] = {}  # ST tid -> successor tid or _GONE
        self._pending_load: Dict[Tuple[int, int], int] = {}  # (proc, src tid) -> LD tid
        self._pending_bottom: Dict[Tuple[int, int], int] = {}  # (proc, block) -> LD tid
        self._obliged_by: Dict[int, Set[int]] = {}  # target tid -> pending LD tids

    # ------------------------------------------------------------------
    def _reject(self, reason: str) -> None:
        if self.rejected is None:
            self.rejected = reason

    @property
    def accepts_so_far(self) -> bool:
        return self.rejected is None

    # ------------------------------------------------------------------
    # reference bookkeeping / garbage collection
    # ------------------------------------------------------------------
    def _is_referenced(self, tid: int) -> bool:
        if tid in self._pending_load.values():
            return True
        if tid in self._pending_bottom.values():
            return True
        if self._obliged_by.get(tid):
            return True
        if tid in self._sto_head_shadow.values():
            return True
        return False

    def _gc(self, tid: int) -> None:
        """Drop a retired, unreferenced record; scrub its tid from the
        bounded forced_to sets so state stays finite."""
        node = self._nodes.get(tid)
        if node is None or not node.retired or self._is_referenced(tid):
            return
        # anything retired and unreferenced can go; scrub dangling tids
        # from forced_to sets (they can never match a future target)
        del self._nodes[tid]
        self._obliged_by.pop(tid, None)
        for other in self._nodes.values():
            other.forced_to.discard(tid)

    def _release_pending_load(self, key: Tuple[int, int]) -> None:
        tid = self._pending_load.pop(key, None)
        if tid is None:
            return
        node = self._nodes.get(tid)
        if node is not None and node.target is not None:
            s = self._obliged_by.get(node.target)
            if s is not None:
                s.discard(tid)
                if not s:
                    del self._obliged_by[node.target]
        if node is not None and node.retired:
            self._gc(tid)

    def _release_pending_bottom(self, key: Tuple[int, int]) -> None:
        tid = self._pending_bottom.pop(key, None)
        if tid is None:
            return
        node = self._nodes.get(tid)
        if node is not None and node.retired:
            self._gc(tid)

    # ------------------------------------------------------------------
    # node retirement (descriptor ID-set became empty)
    # ------------------------------------------------------------------
    def _retire(self, tid: int) -> None:
        node = self._nodes[tid]
        node.retired = True
        op = node.op
        if op is None:
            self._gc(tid)
            return
        # constraint 2 head/tail accounting
        if node.po_in is None:
            c = self._po_heads_retired.get(op.proc, 0) + 1
            self._po_heads_retired[op.proc] = min(c, 2)
            if c >= 2:
                self._reject(
                    f"processor {op.proc}: two nodes retired without an "
                    f"incoming program-order edge"
                )
        if node.po_out is None:
            c = self._po_tails_retired.get(op.proc, 0) + 1
            self._po_tails_retired[op.proc] = min(c, 2)
            if c >= 2:
                self._reject(
                    f"processor {op.proc}: two nodes retired without an "
                    f"outgoing program-order edge"
                )
        if node.is_load:
            if op.value != BOTTOM and node.src is None:
                self._reject(f"LD node retired without an inheritance edge ({op!r})")
        if node.is_store:
            if node.sto_in is None:
                if op.block in self._sto_head_shadow:
                    self._reject(
                        f"block {op.block}: two STs retired without an "
                        f"incoming ST-order edge"
                    )
                else:
                    self._sto_head_shadow[op.block] = tid
            if node.sto_out is None:
                c = self._sto_tails_retired.get(op.block, 0) + 1
                self._sto_tails_retired[op.block] = min(c, 2)
                if c >= 2:
                    self._reject(
                        f"block {op.block}: two STs retired without an "
                        f"outgoing ST-order edge"
                    )
                # this ST will never have a STo successor; pending loads
                # inheriting from it carry no (vacuous) 5(a) obligation
                for key in [k for k in self._pending_load if k[1] == tid]:
                    self._release_pending_load(key)
            # loads still obliged to a forced edge targeting this ST can
            # never get one (no ID to address it by)
            if self._obliged_by.get(tid):
                self._reject(
                    f"ST node retired while forced-edge obligations to it "
                    f"were outstanding ({op!r})"
                )
            # inheriting from a ST whose successor has left the window is
            # doomed; mark the successor as gone
            for st, succ in list(self._sto_succ.items()):
                if succ == tid:
                    self._sto_succ[st] = _GONE
        self._gc(tid)

    # ------------------------------------------------------------------
    # symbol processing
    # ------------------------------------------------------------------
    def _take_id(self, ident: int) -> None:
        """Descriptor ID ``ident`` is being re-purposed."""
        holder = self._owner.pop(ident, None)
        if holder is None:
            return
        node = self._nodes[holder]
        node.ids.discard(ident)
        if not node.ids:
            self._retire(holder)

    def feed(self, sym: Symbol) -> bool:
        if self.rejected is not None:
            return False
        if isinstance(sym, NodeSym):
            self._feed_node(sym)
        elif isinstance(sym, FreeIdSym):
            self._take_id(sym.id)
        elif isinstance(sym, AddIdSym):
            self._feed_add_id(sym)
        elif isinstance(sym, EdgeSym):
            self._feed_edge(sym)
        else:  # pragma: no cover - defensive
            raise TypeError(f"not a descriptor symbol: {sym!r}")
        return self.rejected is None

    def feed_all(self, symbols: Iterable[Symbol]) -> bool:
        ok = self.rejected is None
        for s in symbols:
            ok = self.feed(s)
            if not ok:
                break
        return ok

    def _feed_node(self, sym: NodeSym) -> None:
        self._take_id(sym.id)
        tid = self._next_tid
        self._next_tid += 1
        op = sym.label
        if op is None and self.require_labels:
            self._reject("node without an operation label")
        if op is not None and not isinstance(op, Operation):
            self._reject(f"node label {op!r} is not a LD/ST operation")
            op = None
        node = _Node(tid=tid, op=op, ids={sym.id})
        self._nodes[tid] = node
        self._owner[sym.id] = tid
        if op is not None:
            self._proc_seen.add(op.proc)
            if isinstance(op, Store):
                if op.value == BOTTOM:
                    self._reject(f"ST of ⊥ is not an operation: {op!r}")
                self._block_seen.add(op.block)
            elif isinstance(op, Load) and op.value == BOTTOM:
                # constraint 5(b): track the latest ⊥-load per
                # (processor, block); it supersedes any earlier one
                # (program-order path escape, as in 5(a))
                key = (op.proc, op.block)
                self._release_pending_bottom(key)
                self._pending_bottom[key] = tid

    def _feed_add_id(self, sym: AddIdSym) -> None:
        target = self._owner.get(sym.id)
        if sym.new_id != sym.id:
            self._take_id(sym.new_id)
        if target is None:
            self._reject(f"add-ID({sym.id},{sym.new_id}): ID {sym.id} unheld")
            return
        self._owner[sym.new_id] = target
        self._nodes[target].ids.add(sym.new_id)

    def _feed_edge(self, sym: EdgeSym) -> None:
        u_tid = self._owner.get(sym.src)
        v_tid = self._owner.get(sym.dst)
        if u_tid is None or v_tid is None:
            self._reject(f"edge ({sym.src},{sym.dst}) references an unheld ID")
            return
        try:
            kind = parse_edge_kind(sym.label)
        except (ValueError, TypeError) as exc:
            self._reject(str(exc))
            return
        u, v = self._nodes[u_tid], self._nodes[v_tid]
        if kind & EdgeKind.PO:
            self._edge_po(u, v)
        if kind & EdgeKind.STO:
            self._edge_sto(u, v)
        if kind & EdgeKind.INH:
            self._edge_inh(u, v)
        if kind & EdgeKind.FORCED:
            self._edge_forced(u, v)

    # -- constraint 2 ---------------------------------------------------
    def _edge_po(self, u: _Node, v: _Node) -> None:
        if u.op is None or v.op is None:
            self._reject("program-order edge on unlabelled node")
            return
        if u is v:
            self._reject("program-order self-loop")
            return
        if u.op.proc != v.op.proc:
            self._reject(
                f"program-order edge between processors {u.op.proc} and {v.op.proc}"
            )
            return
        if u.tid > v.tid:
            self._reject("program-order edge against trace order")
            return
        if u.po_out not in (None, v.tid):
            self._reject(f"second outgoing program-order edge from {u.op!r}")
            return
        if v.po_in not in (None, u.tid):
            self._reject(f"second incoming program-order edge into {v.op!r}")
            return
        u.po_out = v.tid
        v.po_in = u.tid

    # -- constraint 3 ---------------------------------------------------
    def _edge_sto(self, u: _Node, v: _Node) -> None:
        if not (u.is_store and v.is_store) or u.op is None or v.op is None:
            self._reject("ST-order edge must join two ST nodes")
            return
        if u is v:
            self._reject("ST-order self-loop")
            return
        if u.op.block != v.op.block:
            self._reject(
                f"ST-order edge between blocks {u.op.block} and {v.op.block}"
            )
            return
        if u.sto_out not in (None, v.tid):
            self._reject(f"second outgoing ST-order edge from {u.op!r}")
            return
        if v.sto_in not in (None, u.tid):
            self._reject(f"second incoming ST-order edge into {v.op!r}")
            return
        if u.sto_out == v.tid:
            return  # re-mention of the same edge: idempotent
        u.sto_out = v.tid
        v.sto_in = u.tid
        self._sto_succ[u.tid] = v.tid
        # every pending load inheriting from u now knows its target
        for (proc, src), ld_tid in list(self._pending_load.items()):
            if src != u.tid:
                continue
            ld = self._nodes[ld_tid]
            ld.target = v.tid
            if v.tid in ld.forced_to:
                self._release_pending_load((proc, src))
            else:
                self._obliged_by.setdefault(v.tid, set()).add(ld_tid)

    # -- constraint 4 + 5(a) obligations ---------------------------------
    def _edge_inh(self, u: _Node, v: _Node) -> None:
        if u.op is None or v.op is None:
            self._reject("inheritance edge on unlabelled node")
            return
        if u is v:
            self._reject("inheritance self-loop")
            return
        if not v.is_load:
            self._reject(f"inheritance edge into non-LD node {v.op!r}")
            return
        if v.op.value == BOTTOM:
            self._reject(f"inheritance edge into ⊥-load {v.op!r}")
            return
        if v.src is not None:
            if v.src == u.tid:
                return  # re-mention of the same edge: idempotent
            self._reject(f"second inheritance edge into {v.op!r}")
            return
        if not (u.is_store and u.op.block == v.op.block and u.op.value == v.op.value):
            self._reject(
                f"inheritance edge source {u.op!r} is not "
                f"ST(*,B{v.op.block},{v.op.value})"
            )
            return
        v.src = u.tid
        proc = v.op.proc
        # a later LD of the same processor inheriting from the same ST
        # supersedes the earlier one (the program-order escape of
        # constraint 5)
        self._release_pending_load((proc, u.tid))
        succ = self._sto_succ.get(u.tid)
        if succ == _GONE:
            self._reject(
                f"LD {v.op!r} inherits from a ST whose ST-order successor "
                f"has left the active window; its forced edge can no "
                f"longer be expressed"
            )
            return
        if succ is not None:
            v.target = succ
            if succ in v.forced_to:
                return  # already satisfied (forced edge preceded inh edge)
            self._pending_load[(proc, u.tid)] = v.tid
            self._obliged_by.setdefault(succ, set()).add(v.tid)
        else:
            self._pending_load[(proc, u.tid)] = v.tid

    def _edge_forced(self, u: _Node, v: _Node) -> None:
        u.forced_to.add(v.tid)
        if u.target is not None and u.target == v.tid:
            # obligation met; find and release the pending entry
            for key, tid in list(self._pending_load.items()):
                if tid == u.tid:
                    self._release_pending_load(key)

    # ------------------------------------------------------------------
    # forking
    # ------------------------------------------------------------------
    def fork(self) -> "AnnotationChecker":
        """Independent copy (for branching exploration)."""
        other = AnnotationChecker.__new__(AnnotationChecker)
        other.require_labels = self.require_labels
        other.rejected = self.rejected
        other._next_tid = self._next_tid
        other._nodes = {
            tid: replace(n, ids=set(n.ids), forced_to=set(n.forced_to))
            for tid, n in self._nodes.items()
        }
        other._owner = dict(self._owner)
        other._proc_seen = set(self._proc_seen)
        other._block_seen = set(self._block_seen)
        other._po_heads_retired = dict(self._po_heads_retired)
        other._po_tails_retired = dict(self._po_tails_retired)
        other._sto_tails_retired = dict(self._sto_tails_retired)
        other._sto_head_shadow = dict(self._sto_head_shadow)
        other._sto_succ = dict(self._sto_succ)
        other._pending_load = dict(self._pending_load)
        other._pending_bottom = dict(self._pending_bottom)
        other._obliged_by = {t: set(s) for t, s in self._obliged_by.items()}
        return other

    # ------------------------------------------------------------------
    # end-of-string acceptance
    # ------------------------------------------------------------------
    def end_violations(self) -> List[str]:
        """Conditions that must hold if the descriptor ended now."""
        out: List[str] = []
        if self.rejected is not None:
            out.append(self.rejected)
            return out
        live = [n for n in self._nodes.values() if not n.retired]
        # constraint 4 on live nodes
        for n in live:
            if n.is_load and n.op is not None and n.op.value != BOTTOM and n.src is None:
                out.append(f"LD node without inheritance edge at end: {n.op!r}")
        # constraint 2 totality
        for proc in self._proc_seen:
            heads = self._po_heads_retired.get(proc, 0) + sum(
                1 for n in live if n.op is not None and n.op.proc == proc and n.po_in is None
            )
            if heads != 1:
                out.append(f"processor {proc}: {heads} program-order heads (need 1)")
        # constraint 3 totality
        for block in self._block_seen:
            heads = (1 if block in self._sto_head_shadow else 0) + sum(
                1
                for n in live
                if n.is_store and n.op is not None and n.op.block == block and n.sto_in is None
            )
            if heads != 1:
                out.append(f"block {block}: {heads} ST-order heads (need 1)")
        # constraint 5(a): assigned-but-unmet forced obligations
        for (proc, src), tid in self._pending_load.items():
            n = self._nodes[tid]
            if n.target is not None and n.target not in n.forced_to:
                out.append(
                    f"LD of processor {proc} inheriting from ST #{src} lacks "
                    f"its forced edge to the successor ST"
                )
        # constraint 5(b): ⊥-loads against their block's STo head
        for (proc, block), tid in self._pending_bottom.items():
            if block not in self._block_seen:
                continue
            n = self._nodes[tid]
            head = self._sto_head_shadow.get(block)
            if head is None:
                lives = [
                    m.tid
                    for m in live
                    if m.is_store and m.op is not None and m.op.block == block and m.sto_in is None
                ]
                head = lives[0] if len(lives) == 1 else None
            if head is None or head not in n.forced_to:
                out.append(
                    f"⊥-load of processor {proc} on block {block} lacks a "
                    f"forced edge to the first ST in ST order"
                )
        return out

    def accepts_at_end(self) -> bool:
        return not self.end_violations()

    # ------------------------------------------------------------------
    # canonical state (for product model checking)
    # ------------------------------------------------------------------
    def state_key(self, canon=None, perm=None) -> Tuple:
        # ``perm`` (a symmetry permutation; see engine/reduction.py)
        # asks for the key of the permuted checker state.  Trace IDs
        # and their creation-order ranks are permutation-invariant (a
        # permuted run creates the image of each node at the same
        # step), so only the sort-indexed payloads move: operation
        # labels, the proc/block parts of pending-obligation keys, and
        # the per-proc/per-block bookkeeping dictionaries.
        if self.rejected is not None:
            return ("REJECTED",)
        if canon is None:
            canon = {}
        cn = lambda i: canon.get(i, i)
        kept = sorted(self._nodes)  # tids in creation order
        rank = {tid: r for r, tid in enumerate(kept)}
        if perm is None:
            pop = lambda op: op
            pproc = pblock = lambda i: i
        else:
            pop = perm.op
            pproc = lambda i: perm.proc[i - 1]
            pblock = lambda i: perm.block[i - 1]

        def rk(tid: Optional[int]):
            if tid is None:
                return None
            if tid == _GONE:
                return _GONE
            return rank.get(tid, "?")

        node_part = tuple(
            (
                rank[tid],
                pop(self._nodes[tid].op),
                tuple(sorted(cn(i) for i in self._nodes[tid].ids)),
                rk(self._nodes[tid].po_in),
                rk(self._nodes[tid].po_out),
                rk(self._nodes[tid].sto_in),
                rk(self._nodes[tid].sto_out),
                rk(self._nodes[tid].src),
                rk(self._nodes[tid].target),
                tuple(sorted(rank.get(t, -2) for t in self._nodes[tid].forced_to)),
                self._nodes[tid].retired,
            )
            for tid in kept
        )
        return (
            node_part,
            tuple(
                sorted(((pproc(p), rk(s)), rk(t)) for (p, s), t in self._pending_load.items())
            ),
            tuple(
                sorted(
                    ((pproc(p), pblock(b)), rk(t))
                    for (p, b), t in self._pending_bottom.items()
                )
            ),
            tuple(sorted((rk(s), rk(t)) for s, t in self._sto_succ.items() if s in rank)),
            tuple(sorted(pproc(p) for p in self._proc_seen)),
            tuple(sorted(pblock(b) for b in self._block_seen)),
            tuple(sorted((pproc(p), c) for p, c in self._po_heads_retired.items())),
            tuple(sorted((pproc(p), c) for p, c in self._po_tails_retired.items())),
            tuple(sorted((pblock(b), c) for b, c in self._sto_tails_retired.items())),
            tuple(sorted((pblock(b), rk(t)) for b, t in self._sto_head_shadow.items())),
        )
