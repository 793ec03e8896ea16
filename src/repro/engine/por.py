"""Partial-order reduction: stubborn/ample sets over component actions.

Symmetry reduction (:mod:`repro.engine.reduction`) quotients the state
space by *state permutations*; this module quotients by *commuting
transition interleavings*.  Two enabled actions that touch disjoint
(proc, block) state and are both invisible to the witness pipeline
commute: running them in either order reaches the same composed
(protocol × observer × checker) state through intermediate states that
prove nothing new.  Expanding only a carefully chosen subset of the
enabled actions — an *ample set* — at such states explores a reduced
graph with the same verdict, the same counterexample replays, and (for
exhaustive runs) the same canonically reported violation.

Declarations
------------

A protocol opts in by returning a :class:`PorSpec` from
:meth:`~repro.core.protocol.Protocol.por_spec`.  The spec names the
protocol's *action schemas* (parameterised action instances with the
data value erased — ``("LD", p, B)``, ``("AcquireM", p, B)``,
``("cache-update", p)`` …) and gives each a static :class:`Footprint`:
``reads`` and ``writes`` over abstract resource tokens.  The one
semantic contract every spec must honour:

* **effects** — everything the action changes (protocol state,
  observer locations) is covered by ``writes``;
* **enabledness-from-reads** — whether the action is enabled is a
  function of its ``reads`` resources alone.

Two schemas are statically :func:`dependent` when one's writes
intersect the other's reads or writes.  The relation is deliberately
coarse (a per-block token makes every same-block cache action
dependent); coarseness costs reduction, never soundness.

The ample-set conditions
------------------------

At a state ``s`` with enabled steps ``E`` the selector searches for a
*stubborn set* ``K`` seeded from each enabled invisible schema in
canonical order (:func:`~repro.engine.reduction.order_key`), closing
under two rules:

* **D1** — for an *enabled* member, every statically dependent schema
  joins ``K``;
* **D2** — for a *disabled* member, a *necessary enabling set* joins:
  by default the writers of all its read resources (the action cannot
  become enabled until one of them fires), or a provably-blocking
  single resource supplied by
  :meth:`PorSpec.necessary_enablers` (e.g. "this LD is disabled
  because its in-queue holds a starred entry — only the queue's
  poppers can change that").

``ample = E ∩ K`` then satisfies the classical conditions:

* **C0** (non-emptiness) — the seed is enabled, so ample is never
  empty;
* **C1** (dependency closure) — actions outside ``K`` are independent
  of every enabled member (D1) and cannot enable a disabled member
  (D2 + enabledness-from-reads), so every deferred run commutes over
  the ample step;
* **C2** (invisibility) — a closure that captures an enabled visible
  action (LD/ST, or an internal action the ST-order generator may
  emit on — :func:`action_visible`) is abandoned; the next seed is
  tried, and with no valid seed the state is expanded in full;
* **C3** (no cycle-closing starvation) — the engine applies the
  *depth proviso* (:func:`proviso`): ample-only expansion of a state
  at discovery depth ``d`` is allowed only when every ample successor
  is either not yet interned (it will be discovered at ``d + 1``) or
  was first discovered at exactly ``d + 1``.  Every edge of an
  ample-only expansion then *strictly increases* discovery depth by
  one, so a cycle through only ample-expanded states would sum strict
  ``+1`` increments back to its start — impossible; along every cycle
  of the reduced graph at least one state is fully expanded and no
  action is deferred forever.  Discovery depth is the parent-pointer
  distance the store already tracks (:meth:`StateStore.depth_of
  <repro.engine.intern.StateStore.depth_of>`), so the check needs no
  in-stack bookkeeping and is strategy-independent (BFS, DFS, random
  walk: frontier entries are pushed exactly once, at intern time).

States stay **concrete**: like symmetry reduction, POR lives entirely
in which successors are expanded — parent pointers record real
transitions, so counterexample paths replay through a fresh
observer + checker without any reduction-aware bookkeeping.

Degradation, not rejection
--------------------------

``--por on`` for a protocol with no :meth:`por_spec` (the DSL's
:class:`~repro.pdl.spec.SpecProtocol`, whose rule guards are opaque
callables; faulted protocols, whose injected mutations void any
declared footprint; wrapped bounded-preemption protocols) simply
expands every state in full — same search as ``--por off``, with the
degradation visible in the ``por.fallbacks`` gauge.  This keeps POR
sweepable across the whole zoo.

Determinism
-----------

Selection is a deterministic function of the enabled schema set (plus
the spec's :meth:`~PorSpec.memo_key` abstraction of the state), and
the proviso of the store contents at expansion time — so a fixed
(strategy, seed) configuration is bit-reproducible, which the
checkpoint/recovery machinery requires.  Across *different*
configurations the explored-state counts legitimately differ (the
proviso sees different interning orders); the differential contract
for those comparisons is :data:`repro.difftest.CROSS_POR_FIELDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..core.operations import InternalAction
from .reduction import order_key

__all__ = [
    "POR_LEVELS",
    "PorError",
    "Footprint",
    "PorSpec",
    "PorCounters",
    "AmpleSelector",
    "action_visible",
    "build_por",
    "dependent",
    "proviso",
]

#: the ``--por`` levels (boolean today; named so a future guided level
#: slots in exactly like a new ``--reduce`` level did)
POR_LEVELS = ("off", "on")


class PorError(ValueError):
    """Invalid partial-order-reduction request (unknown level)."""


@dataclass(frozen=True)
class Footprint:
    """Static read/write sets of one action schema, over abstract
    resource tokens.  ``reads`` must cover enabledness; ``writes``
    must cover every effect (see the module docstring)."""

    reads: FrozenSet[Hashable]
    writes: FrozenSet[Hashable]


def footprint(reads: Iterable[Hashable] = (), writes: Iterable[Hashable] = ()) -> Footprint:
    """Convenience constructor (accepts any iterables)."""
    return Footprint(frozenset(reads), frozenset(writes))


class PorSpec:
    """A protocol's POR declaration: the schema universe, footprints,
    and (optionally) sharper necessary-enabling sets.

    Subclasses must be picklable values (they ride on the
    :class:`~repro.engine.component.ComposedSystem` inside
    checkpoints) and deterministic: every method is a pure function of
    its arguments.
    """

    def schemas(self) -> Iterable[Tuple]:
        """The complete universe of action schemas — *including*
        instances that are disabled in most (or all) reachable states.
        An enabled action whose schema is missing forces full
        expansion, so an incomplete universe costs reduction, not
        soundness; but D2 closure iterates this universe, so a schema
        missing here must never become enabled."""
        raise NotImplementedError

    def schema_of(self, action) -> Optional[Tuple]:
        """Map a concrete action to its schema (``None`` = unknown —
        the selector then refuses to reduce at that state)."""
        raise NotImplementedError

    def footprint(self, schema: Tuple) -> Footprint:
        """The schema's static footprint."""
        raise NotImplementedError

    def necessary_enablers(
        self, schema: Tuple, pstate
    ) -> Optional[Sequence[Tuple[Hashable, ...]]]:
        """Alternative necessary-enabling resource sets for a schema
        *disabled* at ``pstate``.

        Each alternative is a tuple of resources such that the action
        cannot become enabled before one of their writers fires —
        i.e. each listed resource (set) must *provably block* the
        action in ``pstate``.  The selector picks the first
        alternative whose writers drag no enabled visible action into
        the closure.  ``None`` (the default) falls back to the always-
        sound union: the writers of all the schema's read resources.
        """
        return None

    def memo_key(self, pstate) -> Hashable:
        """An abstraction of ``pstate`` capturing everything
        :meth:`necessary_enablers` reads — closure results are memoised
        per ``(enabled schemas, memo_key)``.  Specs whose
        ``necessary_enablers`` is state-independent return ``None``."""
        return None


def dependent(fa: Footprint, fb: Footprint) -> bool:
    """Static dependence: one schema's writes meet the other's reads
    or writes.  Independent (``False``) promises the two actions
    commute from every state where both are enabled, and that neither
    enables/disables the other."""
    return bool(fa.writes & (fb.reads | fb.writes)) or bool(fb.writes & fa.reads)


def action_visible(action, gen_template) -> bool:
    """Is ``action`` visible to the witness pipeline?

    LD/ST trace operations always are (they emit observer symbols).
    An internal action is visible exactly when the ST-order generator
    may emit serialisation events on it
    (:meth:`~repro.core.storder.STOrderGenerator.may_emit_on_internal`
    — ``True`` for unknown generators, which is the conservative
    direction)."""
    if not isinstance(action, InternalAction):
        return True
    return gen_template.may_emit_on_internal(action)


@dataclass
class PorCounters:
    """Work counters for the ``por.*`` gauges (documented
    non-deterministic — see :meth:`repro.obs.Telemetry.record_por`)."""

    ample_hits: int = 0  #: states expanded ample-only
    deferred: int = 0  #: enabled steps deferred at those states
    fallbacks: int = 0  #: POR-on states expanded in full

    def as_dict(self) -> Dict[str, int]:
        return {
            "ample_hits": self.ample_hits,
            "deferred": self.deferred,
            "fallbacks": self.fallbacks,
        }


_MISS = object()


@dataclass
class AmpleSelector:
    """The per-system ample-set selector.

    Built once per :class:`~repro.engine.component.ComposedSystem`
    (``--por on``); pickles back to a fresh selector — counters and
    memo caches are run-local, exactly like
    :class:`~repro.engine.reduction.ReductionCounters`.
    """

    spec: Optional[PorSpec]
    gen_template: object
    counters: PorCounters = field(default_factory=PorCounters)

    def __post_init__(self):
        self._cache: Dict[Hashable, Optional[FrozenSet[Tuple]]] = {}
        self._visible: Dict[Tuple, bool] = {}
        spec = self.spec
        if spec is None:
            self._universe: Tuple[Tuple, ...] = ()
            self._fp: Dict[Tuple, Footprint] = {}
            self._deps: Dict[Tuple, Tuple[Tuple, ...]] = {}
            self._writers: Dict[Hashable, Tuple[Tuple, ...]] = {}
            return
        universe = sorted(spec.schemas(), key=order_key)
        fp = {s: spec.footprint(s) for s in universe}
        deps: Dict[Tuple, List[Tuple]] = {s: [] for s in universe}
        writers: Dict[Hashable, List[Tuple]] = {}
        for i, a in enumerate(universe):
            for r in fp[a].writes:
                writers.setdefault(r, []).append(a)
            for b in universe[i + 1 :]:
                # late-bound module lookup: the mutation suite patches
                # ``dependent`` and rebuilds selectors under the mutant
                if dependent(fp[a], fp[b]):
                    deps[a].append(b)
                    deps[b].append(a)
        self._universe = tuple(universe)
        self._fp = fp
        self._deps = {s: tuple(ds) for s, ds in deps.items()}
        self._writers = {r: tuple(ws) for r, ws in writers.items()}

    def __reduce__(self):
        return (type(self), (self.spec, self.gen_template))

    # ------------------------------------------------------------------
    def select(self, pstate, steps) -> Optional[list]:
        """The ample subset of ``steps`` at this state, or ``None``
        when no valid proper subset exists (expand in full).  The
        engine still owes the C3 proviso on the returned steps."""
        if self.spec is None or len(steps) < 2:
            return None
        schemas = []
        enabled = set()
        visible = self._visible
        for step in steps:
            s = self.spec.schema_of(step.action)
            if s is None or s not in self._fp:
                return None
            if s not in visible:
                visible[s] = action_visible(step.action, self.gen_template)
            schemas.append(s)
            enabled.add(s)
        enabled_f = frozenset(enabled)
        ckey = (enabled_f, self.spec.memo_key(pstate))
        K = self._cache.get(ckey, _MISS)
        if K is _MISS:
            K = self._choose(enabled_f, pstate)
            self._cache[ckey] = K
        if K is None:
            return None
        return [step for step, s in zip(steps, schemas) if s in K]

    def _choose(self, enabled: FrozenSet[Tuple], pstate) -> Optional[FrozenSet[Tuple]]:
        """Smallest valid stubborn set over the canonical seed order
        (ties keep the earliest seed — determinism)."""
        best: Optional[FrozenSet[Tuple]] = None
        best_size = None
        visible = self._visible
        for seed in self._universe:
            if seed not in enabled or visible[seed]:
                continue
            K = self._close(seed, enabled, pstate)
            if K is None:
                continue
            size = len(K & enabled)
            if size == len(enabled):
                continue  # no deferral: worthless
            if best_size is None or size < best_size:
                best, best_size = K, size
        return best

    def _close(
        self, seed: Tuple, enabled: FrozenSet[Tuple], pstate
    ) -> Optional[FrozenSet[Tuple]]:
        """D1/D2 closure from ``seed``; ``None`` when an enabled
        visible schema is unavoidable (C2 fails)."""
        visible = self._visible
        K = {seed}
        work = [seed]
        while work:
            x = work.pop()
            if x in enabled:
                if visible[x]:
                    return None
                for d in self._deps[x]:
                    if d not in K:
                        K.add(d)
                        work.append(d)
            else:
                alts = necessary_enabler_alternatives(self.spec, x, pstate, self._fp[x])
                chosen = None
                for alt in alts:
                    ws = [w for r in alt for w in self._writers.get(r, ())]
                    if not any(w in enabled and visible.get(w, True) for w in ws):
                        chosen = ws
                        break
                if chosen is None:
                    return None  # every necessary set drags in an enabled visible action
                for w in chosen:
                    if w not in K:
                        K.add(w)
                        work.append(w)
        return frozenset(K)


def necessary_enabler_alternatives(
    spec: PorSpec, schema: Tuple, pstate, fp: Footprint
) -> Sequence[Tuple[Hashable, ...]]:
    """The D2 alternatives for a disabled schema: the spec's sharpened
    sets when provided, else the always-necessary union of all read
    resources (enabledness is a function of reads, so *some* read
    resource must change before the action can fire)."""
    alts = spec.necessary_enablers(schema, pstate)
    if alts is None:
        return (tuple(sorted(fp.reads, key=order_key)),)
    return alts


# ----------------------------------------------------------------------
# the C3 proviso (engine-side: it needs the store)
# ----------------------------------------------------------------------


def proviso(ample, store, depth: int) -> bool:
    """Depth proviso: ample-only expansion at discovery depth
    ``depth`` is sound when every ample successor is new (it will be
    interned at ``depth + 1``) or was first discovered at exactly
    ``depth + 1`` — every ample-only edge then strictly increases
    discovery depth, so no cycle is ample-only (see the module
    docstring).  Diamond-shaped commutation — the whole point of POR —
    passes: both interleavings meet at the same successor depth.

    Called once per expanded state; ``store`` is any object with the
    :class:`~repro.engine.intern.StateStore` facade surface
    (``id_of`` / ``depth_of``), behind which the actual key backend —
    in-memory or spill-to-disk — is invisible.  ``depth_of`` reads the
    memoized depth column the store fills at ``set_parent`` time, so
    the proviso is O(|ample|), not O(|ample| · depth)."""
    for step in ample:
        sid = store.id_of(step.key)
        if sid is not None and store.depth_of(sid) != depth + 1:
            return False
    return True


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------


def build_por(protocol, level: str, st_order=None) -> Optional[AmpleSelector]:
    """Build the selector for one protocol and ``--por`` level
    (``None`` for ``"off"``).

    Unlike :func:`~repro.engine.reduction.build_reduction`, a missing
    declaration is *not* an error: a protocol without
    :meth:`~repro.core.protocol.Protocol.por_spec` gets a selector
    that never proposes an ample set, so ``--por on`` degrades to the
    exact unreduced search (the ``por.fallbacks`` gauge records it).
    """
    if level not in POR_LEVELS:
        raise PorError(
            f"unknown --por level {level!r} (known: {', '.join(POR_LEVELS)})"
        )
    if level == "off":
        return None
    if st_order is None:
        from ..core.storder import RealTimeSTOrder

        st_order = RealTimeSTOrder()
    return AmpleSelector(protocol.por_spec(), st_order)
