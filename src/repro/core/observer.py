"""The finite-state witness observer of Theorem 4.1.

The observer shadows a protocol's execution without interfering: for
each protocol transition it emits descriptor symbols that extend the
run's witness graph ``W(R)`` —

* a node (with the operation as label) for every LD and ST;
* **program-order** edges by remembering each processor's latest node;
* **inheritance** edges by the tracking-label / ST-index machinery of
  Section 4.1 (a per-location map from location to the node whose ST
  produced its value);
* **STo** edges as dictated by the plugged-in
  :class:`~repro.core.storder.STOrderGenerator` (Section 4.2);
* **forced** edges the moment they become determined (Theorem 4.1's
  two release conditions): when ST ``N`` gains its STo-successor
  ``S``, every tracked LD inheriting from ``N`` gets a forced edge to
  ``S``, and any LD inheriting from ``N`` afterwards gets it
  immediately; ⊥-loads get a forced edge to their block's STo head.

Node handles are retired — their descriptor IDs freed for reuse — as
soon as no future edge can touch them, which keeps the set of live
nodes bounded by roughly ``L + p·b`` (Section 4.4; the exact roots are
spelled out in ``_roots``).  The high-water mark of IDs in use is
recorded so benchmarks can compare the measured bandwidth against the
paper's bound.

The protocol is **in the class Γ** (Definition 4.1) with respect to
its tracking labels and the chosen generator iff the checker accepts
every emitted stream — which is exactly what
:func:`repro.core.verify.verify_protocol` model-checks.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from .constraint_graph import EdgeKind
from .descriptor import EdgeSym, FreeIdSym, NodeSym, Symbol
from .operations import BOTTOM, InternalAction, Load, Operation, Store
from .protocol import FRESH, Protocol, Transition
from .storder import RealTimeSTOrder, Serialized, STOrderGenerator

__all__ = ["Observer"]

Handle = int


class Observer:
    """Witness-graph emitter for one protocol execution.

    Drive it with :meth:`on_transition` for every step of a run (trace
    operations *and* internal actions); collect the returned descriptor
    symbols.  :meth:`fork` produces an independent copy for branching
    exploration.
    """

    __slots__ = (
        "protocol",
        "gen",
        "self_check",
        "eager_free",
        "unpin_heads",
        "violation",
        "_next_handle",
        "_op",
        "_id",
        "_free_ids",
        "_ids_allocated",
        "_loc",
        "_loc_keys",
        "_last_of_proc",
        "_tail_of_block",
        "_head_of_block",
        "_succ",
        "_pending_load",
        "_pending_bottom",
        "_bottom_dead",
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
        self.protocol = protocol
        self.gen: STOrderGenerator = st_order if st_order is not None else RealTimeSTOrder()
        #: with self_check on, the observer validates the tracking
        #: labels inline (LD value/block must match the ST whose value
        #: the read location holds) and records the first mismatch in
        #: :attr:`violation` — the "fast" verification mode relies on
        #: this plus the cycle checker alone
        self.self_check = self_check
        #: ablation switches (see benchmarks/bench_ablation.py):
        #: emit free-ID symbols the moment a node retires, and unpin
        #: block heads once the protocol rules out further ⊥-loads —
        #: both sound to disable, at a joint-state-count cost
        self.eager_free = eager_free
        self.unpin_heads = unpin_heads
        self.violation: Optional[str] = None
        self._next_handle = 1

        self._op: Dict[Handle, Operation] = {}
        self._id: Dict[Handle, int] = {}
        self._free_ids: List[int] = []  # heap
        self._ids_allocated = 0

        L = protocol.num_locations
        self._loc: Dict[int, Optional[Handle]] = {l: None for l in range(1, L + 1)}
        # sorted location indices, cached (the key set is fixed at
        # construction; _loc_order re-sorts if that ever changes)
        self._loc_keys: Tuple[int, ...] = tuple(range(1, L + 1))
        self._last_of_proc: Dict[int, Handle] = {}
        self._tail_of_block: Dict[int, Handle] = {}
        self._head_of_block: Dict[int, Handle] = {}
        self._succ: Dict[Handle, Handle] = {}  # STo successor
        self._pending_load: Dict[Tuple[int, Handle], Handle] = {}
        self._pending_bottom: Dict[Tuple[int, int], Handle] = {}
        # blocks whose protocol declared ⊥-loads impossible from now on
        self._bottom_dead: set = set()

        #: high-water mark of simultaneously live nodes (measured
        #: bandwidth; compare with bounds.bandwidth_bound)
        self.max_live = 0

        # memoized canonical snapshot: (renaming, state key) computed
        # in one fused walk, invalidated on mutation (on_transition)
        self._canon_cache: Optional[Dict[int, int]] = None
        self._key_cache: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # ID pool
    # ------------------------------------------------------------------
    def _alloc_id(self) -> int:
        if self._free_ids:
            return heapq.heappop(self._free_ids)
        self._ids_allocated += 1
        return self._ids_allocated

    def _free_handle(self, h: Handle, out: List[Symbol]) -> None:
        ident = self._id.pop(h)
        heapq.heappush(self._free_ids, ident)
        if self.eager_free:
            out.append(FreeIdSym(ident))
        self._op.pop(h, None)
        self._succ.pop(h, None)
        for block in [b for b, x in self._head_of_block.items() if x == h]:
            del self._head_of_block[block]
        # a freed node can no longer be a forced-edge target; any ST
        # still pointing at it is no longer inh-active (else h would
        # have been a root), so the successor record is moot
        for u in [u for u, s in self._succ.items() if s == h]:
            del self._succ[u]

    @property
    def ids_in_use(self) -> int:
        return len(self._id)

    @property
    def max_ids_allocated(self) -> int:
        """Size of the ID pool ever needed — the k of the emitted
        k-graph descriptor (minus one)."""
        return self._ids_allocated

    # ------------------------------------------------------------------
    # node creation
    # ------------------------------------------------------------------
    def _new_node(self, op: Operation, out: List[Symbol]) -> Handle:
        h = self._next_handle
        self._next_handle += 1
        ident = self._alloc_id()
        self._op[h] = op
        self._id[h] = ident
        out.append(NodeSym(ident, op))
        return h

    def _edge(self, u: Handle, v: Handle, kind: EdgeKind, edges: Dict) -> None:
        """Stage an edge emission; same-pair annotations within one
        protocol step merge into the paper's combined labels
        (``po-inh``, ``po-STo``, ...)."""
        key = (self._id[u], self._id[v])
        edges[key] = edges.get(key, EdgeKind.NONE) | kind

    # ------------------------------------------------------------------
    # the main step
    # ------------------------------------------------------------------
    def on_transition(self, transition: Transition) -> List[Symbol]:
        """Process one protocol step; returns the symbols it emits."""
        self._canon_cache = None
        self._key_cache = None
        out: List[Symbol] = []
        edges: Dict[Tuple[int, int], EdgeKind] = {}
        action = transition.action
        tracking = transition.tracking

        if isinstance(action, Store):
            h = self._new_node(action, out)
            self._po_edge(action.proc, h, edges)
            l = tracking.location
            if l is None:
                raise ValueError(f"ST transition without a location label: {action!r}")
            self._loc[l] = h
            if tracking.copies:
                # write-through fan-out: copies apply after the store's
                # own write (post-store snapshot)
                snapshot = dict(self._loc)
                for dst, src_l in tracking.copies.items():
                    self._loc[dst] = None if src_l == FRESH else snapshot[src_l]
            for ev in self.gen.on_store(h, action):
                self._serialize(ev, edges)
        elif isinstance(action, Load):
            h = self._new_node(action, out)
            self._po_edge(action.proc, h, edges)
            l = tracking.location
            if l is None:
                raise ValueError(f"LD transition without a location label: {action!r}")
            src = self._loc[l]
            if self.self_check and self.violation is None:
                if src is None:
                    if action.value != BOTTOM:
                        self.violation = (
                            f"{action!r} returns a value, but location {l} "
                            f"holds no ST's value (⊥)"
                        )
                else:
                    sop = self._op[src]
                    if sop.block != action.block or sop.value != action.value:
                        self.violation = (
                            f"{action!r} reads location {l}, which holds the "
                            f"value of {sop!r}"
                        )
                    elif action.value == BOTTOM:
                        self.violation = f"{action!r} is a ⊥-load of a tracked ST value"
            if src is not None:
                self._edge(src, h, EdgeKind.INH, edges)
                succ = self._succ.get(src)
                if succ is not None:
                    self._edge(h, succ, EdgeKind.FORCED, edges)
                else:
                    self._pending_load[(action.proc, src)] = h
            else:
                if action.block in self._bottom_dead:
                    raise ValueError(
                        f"{action!r}: protocol reported may_load_bottom("
                        f"block={action.block}) False earlier, yet a ⊥-load "
                        f"occurred — the override is not monotone/sound"
                    )
                head = self._head_of_block.get(action.block)
                if head is not None:
                    self._edge(h, head, EdgeKind.FORCED, edges)
                else:
                    self._pending_bottom[(action.proc, action.block)] = h
        else:
            assert isinstance(action, InternalAction)
            if tracking.copies:
                snapshot = dict(self._loc)
                for l, src_l in tracking.copies.items():
                    self._loc[l] = None if src_l == FRESH else snapshot[src_l]
            for ev in self.gen.on_internal(action):
                self._serialize(ev, edges)

        out.extend(EdgeSym(u, v, kind) for (u, v), kind in edges.items())
        if self.unpin_heads and len(self._bottom_dead) < self.protocol.b:
            for block in range(1, self.protocol.b + 1):
                if block not in self._bottom_dead and not self.protocol.may_load_bottom(
                    transition.state, block
                ):
                    self._bottom_dead.add(block)
        self._collect_garbage(out)
        live = len(self._id)
        if live > self.max_live:
            self.max_live = live
        return out

    def _po_edge(self, proc: int, h: Handle, edges: Dict) -> None:
        prev = self._last_of_proc.get(proc)
        if prev is not None:
            self._edge(prev, h, EdgeKind.PO, edges)
        self._last_of_proc[proc] = h

    def _serialize(self, ev: Serialized, edges: Dict) -> None:
        """ST node ``ev.handle`` takes the next slot in its block's
        total ST order."""
        h, block = ev.handle, ev.block
        tail = self._tail_of_block.get(block)
        if tail is None:
            # h is the first ST in the block's ST order: resolve the
            # ⊥-load obligations of constraint 5(b)
            self._head_of_block[block] = h
            for key in [k for k in self._pending_bottom if k[1] == block]:
                ld = self._pending_bottom.pop(key)
                self._edge(ld, h, EdgeKind.FORCED, edges)
        else:
            self._edge(tail, h, EdgeKind.STO, edges)
            self._succ[tail] = h
            # tracked LDs inheriting from the old tail now know their
            # forced-edge target (Theorem 4.1, release condition (ii))
            for key in [k for k in self._pending_load if k[1] == tail]:
                ld = self._pending_load.pop(key)
                self._edge(ld, h, EdgeKind.FORCED, edges)
        self._tail_of_block[block] = h

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def _roots(self) -> Set[Handle]:
        roots: Set[Handle] = set(self._last_of_proc.values())
        succ_get = self._succ.get
        for h in self._loc.values():
            if h is not None:
                roots.add(h)
                # the STo-successor of an inh-active ST is a future
                # forced-edge target and must stay addressable
                s = succ_get(h)
                if s is not None:
                    roots.add(s)
        roots.update(self.gen.live_handles())
        roots.update(self._tail_of_block.values())
        # block heads stay live as long as ⊥ views of the block may
        # still be loaded (they are the forced-edge targets of future
        # ⊥-loads); the protocol's may_load_bottom bounds that window
        dead = self._bottom_dead
        for block, h in self._head_of_block.items():
            if block not in dead:
                roots.add(h)
        roots.update(self._pending_load.values())
        roots.update(self._pending_bottom.values())
        return roots

    def _collect_garbage(self, out: List[Symbol]) -> None:
        roots = self._roots()
        _id = self._id
        if len(roots) >= len(_id):
            return  # every live node fills a role: nothing to retire
        for h in [h for h in _id if h not in roots]:
            self._free_handle(h, out)

    # ------------------------------------------------------------------
    # forking and canonical state
    # ------------------------------------------------------------------
    def fork(self) -> "Observer":
        other = Observer.__new__(Observer)
        other.protocol = self.protocol
        other.gen = self.gen.copy()
        other._next_handle = self._next_handle
        other._op = dict(self._op)
        other._id = dict(self._id)
        other._free_ids = list(self._free_ids)
        other._ids_allocated = self._ids_allocated
        other._loc = dict(self._loc)
        other._last_of_proc = dict(self._last_of_proc)
        other._tail_of_block = dict(self._tail_of_block)
        other._head_of_block = dict(self._head_of_block)
        other._succ = dict(self._succ)
        other._pending_load = dict(self._pending_load)
        other._pending_bottom = dict(self._pending_bottom)
        other._bottom_dead = set(self._bottom_dead)
        other._loc_keys = self._loc_keys
        other.eager_free = self.eager_free
        other.unpin_heads = self.unpin_heads
        other.max_live = self.max_live
        other.self_check = self.self_check
        other.violation = self.violation
        # the cached snapshot is a value, valid until the copy mutates
        other._canon_cache = self._canon_cache
        other._key_cache = self._key_cache
        return other

    def _loc_order(self) -> Tuple[int, ...]:
        keys = self._loc_keys
        if len(keys) != len(self._loc):
            keys = self._loc_keys = tuple(sorted(self._loc))
        return keys

    def _walk(self, perm) -> Tuple[Dict[int, int], Tuple]:
        """The canonical renaming *and* the state key, in one walk.

        ``perm`` is ``None`` for this observer's own key, or a
        :class:`~repro.engine.reduction.Permutation`: the snapshot this
        observer *would* produce had the whole run been permuted by it
        — the symmetry layer's bridge between the group action and the
        canonical descriptor-ID renaming.  No permuted copy is built.
        Descriptor IDs and handles are allocation-order artifacts
        carrying no sort content, and a permuted run fires the image of
        each rule in the same order, so the permuted observer's state
        *is* this state with role-slot indices and operation payloads
        mapped through ``perm``.  Each sort-indexed slot therefore picks
        its items once (the dict's own, or their images) and the rest
        of the walk is shared.

        The walk names IDs as it builds the key: for the slots whose
        visit order is the key order (locations, processors, blocks,
        pending ⊥ obligations) ``canon.setdefault`` returns a handle's
        canonical number, which is final the moment the handle is first
        visited, so no second rename pass is needed.  Only the slots
        the key re-sorts by *renamed* ID (STo successors, pending
        tracked loads) wait for the completed renaming.
        """
        _id = self._id
        canon: Dict[int, int] = {}
        # visit = canon.setdefault(id, len(canon)): the default is
        # evaluated before a possible insert, so it names fresh IDs
        # 0..n-1 in first-visited order.  The visit order is observable
        # (it fixes the renaming) and must not change; slots of size
        # ≤ 1 skip their sort outright — at small (p, b) that is most
        # of them on most steps.
        name = canon.setdefault
        _loc = self._loc
        if perm is None:
            loc_handles = [_loc[l] for l in self._loc_order()]
            procs = self._last_of_proc.items()
            tails = self._tail_of_block.items()
            heads = self._head_of_block.items()
            ploads = self._pending_load.items()
            pbots = self._pending_bottom.items()
            dead = self._bottom_dead
        else:
            pp, pb, vmap, loc_inv = perm.proc, perm.block, perm.vmap, perm.loc_inv
            # location l' of the permuted run is concrete slot loc_inv[l'-1]
            loc_handles = [_loc[loc_inv[l - 1]] for l in self._loc_order()]
            procs = [(pp[p - 1], h) for p, h in self._last_of_proc.items()]
            tails = [(pb[b - 1], h) for b, h in self._tail_of_block.items()]
            heads = [(pb[b - 1], h) for b, h in self._head_of_block.items()]
            ploads = [((pp[p - 1], s), h) for (p, s), h in self._pending_load.items()]
            pbots = [
                ((pp[p - 1], pb[b - 1]), h)
                for (p, b), h in self._pending_bottom.items()
            ]
            dead = [pb[b - 1] for b in self._bottom_dead]

        if self.self_check:
            _op = self._op
            loc_data_l = []
            loc_part_l = []
            for h in loc_handles:
                if h is None:
                    loc_data_l.append(None)
                    loc_part_l.append(None)
                else:
                    op = _op[h]
                    loc_data_l.append(
                        (op.block, op.value)
                        if perm is None
                        else (pb[op.block - 1], vmap[op.value])
                    )
                    loc_part_l.append(name(_id[h], len(canon)))
            loc_data: Tuple = tuple(loc_data_l)
            loc_part = tuple(loc_part_l)
        else:
            loc_data = ()
            loc_part = tuple(
                None if h is None else name(_id[h], len(canon))
                for h in loc_handles
            )
        proc_part = tuple(
            (p, name(_id[h], len(canon)))
            for p, h in (sorted(procs) if len(procs) > 1 else procs)
        )
        tail_part = tuple(
            (b, name(_id[h], len(canon)))
            for b, h in (sorted(tails) if len(tails) > 1 else tails)
        )
        head_part = tuple(
            (b, name(_id[h], len(canon)))
            for b, h in (sorted(heads) if len(heads) > 1 else heads)
        )
        for h in self.gen.ordered_handles(perm):
            name(_id[h], len(canon))
        succ = self._succ
        if succ:
            # Follow STo chains from already-named nodes, in canonical
            # number order.  Every live succ *source* fills another role
            # (it is a location holder, a processor's last node, a block
            # tail/head or a generator FIFO entry), so it is named by
            # now; targets are then named in their sources' canonical
            # order.  Sorting by raw descriptor ID here — the old code —
            # made the renaming depend on allocation order, i.e. on
            # *which concrete representative* of a canonical state the
            # search happened to keep, and permutation-equivalent states
            # stopped merging (the differential suite catches this as a
            # strategy-dependent state count).
            rev = {i: h for h, i in _id.items()}
            queue = list(canon)
            qi = 0
            while qi < len(queue):
                h = rev.get(queue[qi])
                qi += 1
                if h is None:
                    continue
                v = succ.get(h)
                if v is not None:
                    iv = _id[v]
                    if iv not in canon:
                        canon[iv] = len(canon)
                        queue.append(iv)
        if ploads:
            if len(ploads) > 1:
                # canonical sort: tracked source's canonical number,
                # never its raw ID (sources are live STs, named above)
                get = canon.get
                ploads = sorted(
                    ploads, key=lambda e: (e[0][0], get(_id[e[0][1]], 1 << 60))
                )
            for _k, h in ploads:
                name(_id[h], len(canon))
        pbot_part = tuple(
            (k, name(_id[h], len(canon)))
            for k, h in (sorted(pbots) if len(pbots) > 1 else pbots)
        )
        # safety net: anything still unnamed (should not happen; every
        # live node fills a role, so normally all IDs are named by now)
        if len(canon) != len(_id):
            for h in sorted(_id):
                name(_id[h], len(canon))

        if succ:
            succ_part = tuple(
                sorted((canon[_id[u]], canon[_id[v]]) for u, v in succ.items())
            )
        else:
            succ_part = ()
        if ploads:
            pload_part = tuple(
                sorted(((p, canon[_id[s]]), canon[_id[h]]) for (p, s), h in ploads)
            )
        else:
            pload_part = ()
        key = (
            self.violation,
            loc_data,
            loc_part,
            proc_part,
            tail_part,
            head_part,
            succ_part,
            pload_part,
            pbot_part,
            tuple(sorted(dead)),
            self.gen.state_key(lambda h: canon[_id[h]], perm),
        )
        return canon, key

    def canonical_snapshot(self, perm=None) -> Tuple[Dict[int, int], Tuple]:
        """``(renaming, key)`` from :meth:`_walk`: a deterministic
        renaming ``descriptor ID -> 0..n-1`` and the canonical hashable
        state under it.

        Two joint exploration states that agree up to a permutation of
        descriptor IDs behave identically up to that permutation, so
        the model checker keys states under this renaming (the checker's
        key is renamed through it too).  The walk visits the observer's
        role slots in a fixed order (location map, per-processor last
        nodes, block tails/heads, generator FIFOs, pending obligations);
        every live node fills at least one role (that is what keeps it
        alive), so it covers all IDs.

        Operation labels are deliberately *not* part of the key: the
        observer never reads them back, so states differing only in
        dead history merge.  The exception is self-check mode, whose
        future behaviour depends on the (block, value) each location's
        ST wrote — those are included then.

        The identity (``perm`` omitted, or ``perm.is_identity``) is
        memoized until the next mutation; the returned dict is the
        cache — treat it as read-only.  Other group elements are walked
        per call: the reduction's two-stage minimization already asks
        for each at most once per state.
        """
        if perm is not None and not perm.is_identity:
            return self._walk(perm)
        if self._key_cache is None:
            self._canon_cache, self._key_cache = self._walk(None)
        return self._canon_cache, self._key_cache

    def state_key(self) -> Tuple:
        """The memoized canonical key (:meth:`canonical_snapshot`)."""
        return self.canonical_snapshot()[1]
