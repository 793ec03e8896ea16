"""Pluggable search strategies behind one resumable engine.

A :class:`Frontier` decides only the *order* in which discovered
states are expanded:

* :class:`BFSFrontier` — FIFO; shortest counterexamples, the default
  everywhere a proof is wanted;
* :class:`DFSFrontier` — LIFO; cheap deep probes (the litmus driver's
  traversal order);
* :class:`RandomWalkFrontier` — expands a uniformly random frontier
  entry; a seeded randomised walk of the state space for bug hunting
  under budgets where BFS would drown in the shallow layers.

:class:`SearchEngine` owns everything else: the
:class:`~repro.engine.intern.StateStore`, state/depth caps, the
cooperative ``should_stop`` budget hook, successor tracking for the
quiescence-reachability closure, and the :meth:`~SearchEngine.snapshot`
/ :meth:`~SearchEngine.restore` pair behind checkpoint/resume.  ``ProductSearch``,
:func:`repro.modelcheck.explorer.explore`, the litmus runner,
:func:`repro.faults.matrix.fault_matrix` and the
:func:`repro.harness.degrade.degrade` ladder are thin adapters over
it.
"""

from __future__ import annotations

import abc
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from . import por as _por
from .component import Step, System
from .intern import NO_PARENT, StateStore
from ..obs.stats import ExplorationStats

__all__ = [
    "Frontier",
    "BFSFrontier",
    "DFSFrontier",
    "RandomWalkFrontier",
    "make_frontier",
    "SearchOutcome",
    "SearchEngine",
]

#: cooperative stop hook: maps current stats to a reason string (halt)
#: or None (keep going)
StopHook = Callable[[ExplorationStats], Optional[str]]

#: frontier entries: (system state, interned ID, depth)
Entry = Tuple[object, int, int]


class Frontier(abc.ABC):
    """Expansion-order policy.  Entries are opaque to the frontier."""

    @abc.abstractmethod
    def push(self, entry: Entry) -> None: ...

    @abc.abstractmethod
    def pop(self) -> Entry: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...

    def __bool__(self) -> bool:
        return len(self) > 0

    def entries(self) -> List[Entry]:
        """The held entries in storage order: pushing them back in
        this order into an empty frontier of the same kind rebuilds
        it (a random walk also needs its RNG state)."""
        return list(self._q)


class BFSFrontier(Frontier):
    """First-in first-out: classic breadth-first search."""

    def __init__(self) -> None:
        self._q: deque = deque()

    def push(self, entry: Entry) -> None:
        self._q.append(entry)

    def pop(self) -> Entry:
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)


class DFSFrontier(Frontier):
    """Last-in first-out: depth-first search."""

    def __init__(self) -> None:
        self._q: List[Entry] = []

    def push(self, entry: Entry) -> None:
        self._q.append(entry)

    def pop(self) -> Entry:
        return self._q.pop()

    def __len__(self) -> int:
        return len(self._q)


class RandomWalkFrontier(Frontier):
    """Expands a uniformly random held entry (swap-with-last, so pop
    is O(1)).  Seeded, hence reproducible — and its RNG state is plain
    data, so a random-walk search checkpoints like any other."""

    def __init__(self, seed: int = 0) -> None:
        self._q: List[Entry] = []
        self._rng = random.Random(seed)

    def push(self, entry: Entry) -> None:
        self._q.append(entry)

    def pop(self) -> Entry:
        i = self._rng.randrange(len(self._q))
        self._q[i], self._q[-1] = self._q[-1], self._q[i]
        return self._q.pop()

    def __len__(self) -> int:
        return len(self._q)


#: strategy names accepted anywhere a search is configured
STRATEGIES = ("bfs", "dfs", "random-walk")


def make_frontier(strategy: Union[str, Frontier], seed: int = 0) -> Frontier:
    """Resolve a strategy name (or pass a ready frontier through)."""
    if isinstance(strategy, Frontier):
        return strategy
    if strategy == "bfs":
        return BFSFrontier()
    if strategy == "dfs":
        return DFSFrontier()
    if strategy == "random-walk":
        return RandomWalkFrontier(seed)
    raise ValueError(f"unknown search strategy {strategy!r} (known: {', '.join(STRATEGIES)})")


@dataclass
class SearchOutcome:
    """Raw result of a :meth:`SearchEngine.run` leg.

    ``status`` is ``"violation"`` (``violating`` holds the reference of
    the rejecting state, an interned ID), ``"stopped"`` (a
    cooperative budget stop; the engine stays resumable) or ``"done"``
    (space exhausted or cap truncation drained the frontier).

    ``violations`` lists *every* violating reference found (exactly one
    unless the engine ran with ``stop_on_violation=False``, the
    exhaustive mode the differential oracle compares engines in).
    """

    status: str
    violating: Optional[object]
    stats: ExplorationStats
    non_quiescible: int = 0
    violations: Tuple = ()


class SearchEngine:
    """Resumable explicit-state search over a :class:`System`.

    Construct, then call :meth:`run` — repeatedly, if a ``should_stop``
    hook halts it.  Between calls the engine holds the frontier, the
    interned-state store and the successor map; :meth:`snapshot` turns
    them into plain data and :meth:`restore` continues them in a fresh
    engine over the same system, in another process if need be.

    ``strict_cap`` selects the state-cap discipline: ``True`` stops
    *before* admitting a state past the cap (plain reachability's
    historical contract, the count never exceeds the cap); ``False``
    finishes the node being expanded and then drains (the product
    search's historical contract — a small overshoot, but every
    admitted state is fully checked).

    ``check_quiescence_reachability`` runs the closure that proves
    every explored state can reach a quiescent one; the successor map
    is kept exactly when it is on, since the closure is its only
    reader.

    ``stop_on_violation=False`` switches to the exhaustive discipline
    the differential oracle compares engines in: violating states are
    recorded (and, like always, never expanded) but the search runs to
    exhaustion, so the explored set — and therefore every counter —
    is independent of frontier strategy.  The final outcome reports the
    violation whose canonical key has the smallest
    :func:`~repro.engine.hashing.stable_hash` (a strategy-independent
    choice).
    """

    def __init__(
        self,
        system: System,
        *,
        strategy: Union[str, Frontier] = "bfs",
        seed: int = 0,
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        strict_cap: bool = False,
        stop_on_violation: bool = True,
        check_quiescence_reachability: bool = True,
        on_state: Optional[Callable[[object, int], None]] = None,
        store=None,
    ):
        self.system = system
        self.max_states = max_states
        self.max_depth = max_depth
        self._strict_cap = strict_cap
        self._stop_on_violation = stop_on_violation
        self._on_state = on_state
        self.stats = ExplorationStats()
        # ``store`` is run policy (a backend name or
        # :class:`~repro.engine.intern.StoreConfig`), never search
        # provenance: which backend interns the keys cannot change a
        # single ID, count or verdict
        self.store = StateStore(store)
        self.frontier = make_frontier(strategy, seed)
        # the quiescence closure is the successor map's only reader
        self._succs: Optional[Dict[int, List[int]]] = (
            {} if check_quiescence_reachability else None
        )
        self._quiescent: Set[int] = set()
        #: interned IDs of every violating state found so far
        self.violations: List[int] = []
        #: set once a state/depth cap is hit (as opposed to a budget stop)
        self._cap_truncated = False
        self._final: Optional[SearchOutcome] = None

        # the root is admitted like any successor, but uncapped
        init = system.initial()
        self._admit([Step(None, init, system.key(init), True)], NO_PARENT, 0, False)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """The search reached a final outcome (no further ``run``
        changes it)."""
        return self._final is not None

    def violation_keys(self) -> frozenset:
        """Canonical keys of every violating state found (one unless
        ``stop_on_violation=False``)."""
        return frozenset(self.store.key_of(sid) for sid in self.violations)

    def _violation_outcome(self) -> SearchOutcome:
        """The canonical violation verdict: minimal by stable hash of
        the violating key, so exhaustive runs agree across strategies."""
        from .hashing import stable_hash

        best = min(
            self.violations,
            key=lambda sid: (stable_hash(self.store.key_of(sid)), sid),
        )
        return SearchOutcome(
            "violation", best, self.stats, violations=tuple(self.violations)
        )

    def snapshot(self) -> Dict[str, object]:
        """The paused search as plain data: the store columns (keys
        streamed in chunks, see :meth:`StateStore.columns`), the
        frontier as interned IDs in storage order, the random walk's
        RNG state, the successor map, the quiescent set, violations,
        cap truncation and stats.  System states are not included —
        :meth:`restore` rebuilds them from parent pointers."""
        if self._final is not None:
            raise ValueError("the search has finished; there is nothing to resume")
        walk = isinstance(self.frontier, RandomWalkFrontier)
        return {
            "store": self.store.columns(),
            "frontier": [sid for _state, sid, _depth in self.frontier.entries()],
            "rng": self.frontier._rng.getstate() if walk else None,
            "successors": self._succs,
            "quiescent": self._quiescent,
            "violations": self.violations,
            "cap_truncated": self._cap_truncated,
            "stats": self.stats.as_dict(),
        }

    def restore(self, snap: Dict[str, object]) -> None:
        """Continue the paused search ``snap`` (a :meth:`snapshot`) in
        this freshly constructed engine, whose system must be built
        from the same arguments.

        The keys are re-interned in ID order into this engine's store
        backend.  Each frontier state is rebuilt by replaying its
        parent-pointer path through :meth:`System.successor`: the
        ancestors of all frontier states are replayed once each, in ID
        order (a parent is always interned before its children), and
        dropped once their last needed child exists.  Raises
        :class:`ValueError` when the rebuilt initial state or any
        rebuilt frontier state has a different key than the one
        stored — the record does not describe this system — and when
        this engine checks quiescence reachability but the record has
        no successor map to close over.
        """
        if self._succs is not None and snap["successors"] is None:
            raise ValueError("the record has no successor map for the quiescence closure")
        store, system = self.store, self.system
        store.load_columns(snap["store"])
        ids = list(snap["frontier"])
        needed: Set[int] = set()
        for sid in ids:
            while sid not in needed:
                needed.add(sid)
                sid = store.parent_of(sid)[0]
                if sid == NO_PARENT:
                    break
        pending: Dict[int, int] = {}
        for sid in needed:
            parent = store.parent_of(sid)[0]
            if parent != NO_PARENT:
                pending[parent] = pending.get(parent, 0) + 1
        keep = set(ids)
        live: Dict[int, object] = {}
        for sid in sorted(needed):
            parent, action = store.parent_of(sid)
            if parent == NO_PARENT:
                live[sid] = system.initial()
                continue
            live[sid] = system.successor(live[parent], action)
            pending[parent] -= 1
            if not pending[parent] and parent not in keep:
                del live[parent]
        while self.frontier:
            self.frontier.pop()
        for sid in ids:
            if system.key(live[sid]) != store.key_of(sid):
                raise ValueError(f"frontier state {sid} rebuilds to a different key")
            self.frontier.push((live[sid], sid, store.depth_of(sid)))
        if snap["rng"] is not None:
            self.frontier._rng.setstate(snap["rng"])
        if self._succs is not None:
            self._succs = snap["successors"]
        self._quiescent = set(snap["quiescent"])
        self.violations = list(snap["violations"])
        self._cap_truncated = snap["cap_truncated"]
        self._final = None
        for name, value in snap["stats"].items():
            setattr(self.stats, name, value)

    def _admit(self, steps: List[Step], parent: int, depth: int, capped: bool) -> bool:
        """Admit one successor batch of ``parent`` (``NO_PARENT`` for
        the root, whose batch is the initial state alone and is no
        transition) at ``depth``: one ``lookup_many`` probe and one
        ``intern_many`` over the whole batch, then count, end-check,
        record violations, apply the state cap (when ``capped``) and
        push each new state exactly once.  Returns ``True`` when the
        search reached its final outcome mid-batch: a strict cap stops
        *before* end-checking the capping state, a stop-on-violation
        halt comes right after the violating step.  Keys interned past
        a halt are never read."""
        stats, store, system, frontier = self.stats, self.store, self.system, self.frontier
        max_states = self.max_states if capped else None
        strict_cap = self._strict_cap
        on_state = self._on_state
        edges = parent != NO_PARENT
        kids = self._succs.setdefault(parent, []) if edges and self._succs is not None else None
        keys = [step.key for step in steps]
        pairs = store.intern_many(keys, store.lookup_many(keys))
        for step, (cid, new) in zip(steps, pairs):
            if edges:
                stats.transitions += 1
                system.record(stats, step.state)
            if kids is not None:
                kids.append(cid)
            if not new:
                # a revisit: identical state, so its checks (eager
                # and end alike) happened on first encounter
                continue
            if strict_cap and max_states is not None and stats.states >= max_states:
                stats.truncated = True
                self._cap_truncated = True
                self._final = SearchOutcome("done", None, stats)
                return True
            store.set_parent(cid, parent, step.action)
            stats.states += 1
            stats.interned_states += 1
            if on_state is not None:
                on_state(step.state, depth)
            bad = not step.ok
            if not bad:
                end = system.end_check(step.state)
                if end is not None:
                    stats.quiescent_states += 1
                    self._quiescent.add(cid)
                    bad = not end
            if bad:
                # violating states are recorded and never expanded;
                # in exhaustive mode the search carries on so the
                # explored set stays strategy independent
                self.violations.append(cid)
                if self._stop_on_violation:
                    self._final = self._violation_outcome()
                    return True
                continue
            if not strict_cap and max_states is not None and stats.states >= max_states:
                stats.truncated = True
                self._cap_truncated = True
                continue
            frontier.push((step.state, cid, depth))
            if len(frontier) > stats.peak_frontier:
                stats.peak_frontier = len(frontier)
        return False

    def run(
        self, should_stop: Optional[StopHook] = None, telemetry=None
    ) -> SearchOutcome:
        """Continue until a final outcome or a cooperative stop.

        ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) turns
        the per-expansion ``should_stop`` polling point into a
        heartbeat tick — progress lines and trace ``heartbeat`` events,
        both rate-limited inside the telemetry object.  With
        ``telemetry=None`` (the default) the hot loop is exactly the
        uninstrumented one: the zero-cost-off contract.
        """
        if self._final is not None:
            return self._final
        if telemetry is not None:
            inner = should_stop
            frontier_obj = self.frontier

            def should_stop(stats, _inner=inner, _f=frontier_obj):
                telemetry.heartbeat(stats, frontier=len(_f))
                return _inner(stats) if _inner is not None else None

        stats = self.stats
        # a resumed search sheds the previous budget stop; cap
        # truncation is permanent (dropped frontier entries)
        stats.stop_reason = None
        stats.truncated = self._cap_truncated
        max_states, max_depth = self.max_states, self.max_depth
        system, store, frontier = self.system, self.store, self.frontier
        por_on = getattr(system, "por", "off") != "off"
        por_counters = getattr(getattr(system, "por_selector", None), "counters", None)

        # hierarchical span profiling: registry-only (never trace
        # events), coarse per-expansion accumulation — two clock reads
        # per expanded state, and only when a registry is attached
        reg = telemetry.registry if telemetry is not None else None
        red_counters = None
        if reg is not None:
            _pc = time.perf_counter
            _base = reg.current_span
            _expand_path = _base + "/expand" if _base else "expand"
            _por_path = _expand_path + "/por-select"
            _canon_path = _expand_path + "/canonicalize"
            red_counters = getattr(getattr(system, "reduction", None), "counters", None)
            if red_counters is not None:
                _c_n0 = red_counters.states
                _c_s0 = red_counters.canon_s

        while frontier:
            if self._cap_truncated and max_states is not None and stats.states >= max_states:
                break  # cap reached: stop expanding entirely
            if should_stop is not None:
                reason = should_stop(stats)
                if reason is not None:
                    stats.truncated = True
                    stats.stop_reason = reason
                    return SearchOutcome("stopped", None, stats)
            state, sid, depth = frontier.pop()
            if depth > stats.max_depth:
                stats.max_depth = depth
            if max_depth is not None and depth >= max_depth:
                stats.truncated = True
                self._cap_truncated = True
                continue
            if reg is not None:
                _t_exp = _pc()
            if por_on:
                # ample-set expansion: only the deferred-free subset is
                # taken when the selector finds one AND the depth
                # proviso (C3) holds — every ample successor new or
                # first discovered at exactly depth+1, so ample-only
                # edges strictly increase discovery depth and can never
                # close a cycle; everything the search records
                # (transitions, kids, stats) counts only the steps
                # actually taken, so the reduced graph is the graph
                # explored
                expand = list(system.steps(state))
                if reg is not None:
                    _t_por = _pc()
                ample = system.ample_candidates(state, expand)
                # module-attribute call: the POR mutation suite patches
                # repro.engine.por.proviso, so the lookup stays late-bound
                take_ample = ample is not None and _por.proviso(ample, store, depth)
                if reg is not None:
                    reg.observe_s(_por_path, _pc() - _t_por)
                if take_ample:
                    if por_counters is not None:
                        por_counters.ample_hits += 1
                        por_counters.deferred += len(expand) - len(ample)
                    expand = ample
                elif por_counters is not None:
                    por_counters.fallbacks += 1
            else:
                expand = system.steps(state)
            steps = expand if isinstance(expand, list) else list(expand)
            if self._admit(steps, sid, depth + 1, True):
                return self._final
            if reg is not None:
                reg.observe_s(_expand_path, _pc() - _t_exp)
                if red_counters is not None:
                    # canonicalization happened inside steps()/intern();
                    # fold the counter deltas in as a nested child so
                    # the expand window still telescopes exactly
                    _dn = red_counters.states - _c_n0
                    _ds = red_counters.canon_s - _c_s0
                    if _dn or _ds:
                        reg.observe_many(_canon_path, _dn, _ds)
                        _c_n0 = red_counters.states
                        _c_s0 = red_counters.canon_s

        if self.violations:
            # exhaustive mode drained the frontier with violations on
            # record: the verdict is the canonical violation
            self._final = self._violation_outcome()
            return self._final

        # quiescence reachability: every explored state must be able to
        # reach a quiescent one, otherwise some prefixes were never
        # end-checked and the verdict would be unsound
        non_quiescible = 0
        if self._succs is not None and not stats.truncated:
            reach: Set[int] = set(self._quiescent)
            # backward closure over explored edges
            preds: Dict[int, List[int]] = {}
            for u, vs in self._succs.items():
                for v in vs:
                    preds.setdefault(v, []).append(u)
            todo = list(reach)
            while todo:
                v = todo.pop()
                for u in preds.get(v, ()):
                    if u not in reach:
                        reach.add(u)
                        todo.append(u)
            non_quiescible = len(store) - len(reach)

        self._final = SearchOutcome("done", None, stats, non_quiescible)
        return self._final
