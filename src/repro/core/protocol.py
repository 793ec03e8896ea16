"""The protocol formalism (Section 2.1) with storage locations and
tracking labels (Section 4.1).

A protocol is a finite-state machine whose alphabet splits into trace
operations (LD/ST) and internal actions.  Rather than materialising
``(Q, δ)`` as tables, a :class:`Protocol` exposes the machine lazily —
``initial_state()`` plus ``transitions(state)`` — so the model checker
enumerates exactly the reachable fragment.

Storage locations (Section 4.1) are numbered ``1..L``.  Tracking
labels ride along with each transition as a :class:`Tracking` value:

* a LD/ST transition carries ``location = f(t)``, the location the
  value is read from / written to;
* an internal transition carries ``copies``, a sparse mapping
  ``l -> c_l(t)`` listing only the locations whose value *changes*
  (``c_l(t) = l``, the identity, is implied for all others).  Copies
  are simultaneous: every right-hand side refers to the pre-transition
  contents.
* a ST transition may *also* carry ``copies`` — they apply after the
  store's own write, reading the post-store snapshot.  This models
  atomic write-through/write-update fan-out (one store filling memory
  and several caches in a single step) without a second transition.

A ``copies`` entry may also map a location to :data:`FRESH`, meaning
the location is overwritten with a value that comes from no ST (e.g.
an invalidation writing ⊥) — the location's ST-index resets to 0.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, List, Mapping, Optional, Set

from .operations import Action, InternalAction, Run, Trace, trace_of_run

__all__ = ["FRESH", "Tracking", "Transition", "Protocol", "enumerate_runs", "random_run"]

#: Sentinel for ``copies`` values: the location's contents no longer
#: derive from any ST (reset to ⊥ / invalid).
FRESH = 0


@dataclass(frozen=True, slots=True)
class Tracking:
    """Tracking labels for one transition (Section 4.1).

    ``location`` applies to LD/ST transitions; ``copies`` to internal
    transitions — and, as an extension, to ST transitions (applied
    after the store's write; see the module docstring).  An internal
    transition that moves no data may use ``Tracking()``.
    """

    location: Optional[int] = None
    copies: Mapping[int, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Transition:
    """One outgoing transition: the action taken, the successor state,
    and the tracking labels."""

    action: Action
    state: Hashable
    tracking: Tracking


class Protocol(abc.ABC):
    """Abstract finite-state memory-system protocol.

    Concrete protocols (see :mod:`repro.memory`) define the parameters
    ``p`` (processors), ``b`` (blocks), ``v`` (values), the location
    count ``num_locations``, and the transition structure.  States must
    be hashable and comparable for model-checker deduplication.
    """

    #: number of processors / blocks / values — set by subclasses
    p: int
    b: int
    v: int
    #: number of storage locations L (Section 4.1)
    num_locations: int

    @abc.abstractmethod
    def initial_state(self) -> Hashable:
        """The initial state ``q0``."""

    @abc.abstractmethod
    def transitions(self, state: Hashable) -> Iterable[Transition]:
        """All transitions enabled in ``state``.

        The iteration order should be deterministic (it fixes
        counterexample and exploration order).
        """

    # ------------------------------------------------------------------
    def is_quiescent(self, state: Hashable) -> bool:
        """``True`` when no internal work is buffered (queues empty,
        no in-flight messages).

        End-of-trace acceptance of the checker is evaluated at
        quiescent states; the default — every state quiescent — is
        right for protocols whose ST order is resolved eagerly.
        Protocols that delay serialisation (store buffers, lazy
        caching) must override this.
        """
        return True

    def may_load_bottom(self, state: Hashable, block: int) -> bool:
        """Can a future LD of ``block`` still return ⊥ from ``state``?

        The observer pins each block's ST-order head (the target of
        ⊥-loads' forced edges) only while this holds, which keeps the
        live-node window small.  The default ``True`` is always sound
        but pins heads forever.  Overrides **must be monotone**: once
        False along a run, it must stay False on every extension —
        true of protocols whose memory is never reset to ⊥ and whose
        ⊥ cache copies cannot be re-created after the block's first
        write reaches memory.  The observer raises if a ⊥-load occurs
        after this reported False (a modelling bug, not an SC
        violation).
        """
        return True

    def describe(self) -> str:
        """Human-readable parameter summary."""
        return (
            f"{type(self).__name__}(p={self.p}, b={self.b}, v={self.v}, "
            f"L={self.num_locations})"
        )

    def symmetry_spec(self):
        """The protocol's symmetry declaration
        (:class:`~repro.engine.reduction.SymmetrySpec`), or ``None``.

        ``None`` — the default — means the protocol declares no
        symmetry and every ``--reduce`` level except ``off`` is
        rejected for it.  A protocol whose processors / blocks /
        values are fully interchangeable (no rule mentions a specific
        index) overrides this to describe how its state tuple and
        storage locations are indexed by the three sorts; the
        reduction layer derives the permutation action from the
        declaration alone.
        """
        return None

    def por_spec(self):
        """The protocol's partial-order-reduction declaration
        (:class:`~repro.engine.por.PorSpec`), or ``None``.

        ``None`` — the default — means the protocol declares no action
        footprints.  Unlike :meth:`symmetry_spec` this is *not* an
        error under ``--por on``: the ample-set selector simply never
        proposes a reduction and every state expands in full (the
        ``por.fallbacks`` gauge records the degradation).  A protocol
        opting in declares its action schemas and their static
        read/write footprints over abstract resources; the POR layer
        derives the dependence relation and the stubborn-set closure
        from the declaration alone.
        """
        return None

    # ------------------------------------------------------------------
    # run replay (Section 2.1: a run is an action sequence of the
    # machine) — the one place an action is turned back into a
    # transition
    # ------------------------------------------------------------------
    def transition_for(self, state: Hashable, action: Action) -> Optional[Transition]:
        """The first transition enabled in ``state`` whose action is
        ``action``, or ``None`` if ``action`` is not enabled there.

        First match is the replay rule: it picks the transition the
        search steps first, so a counterexample's actions replay to
        the run the search found (and a run found under a
        transition-pruning wrapper replays verbatim on the protocol
        it wraps)."""
        for t in self.transitions(state):
            if t.action == action:
                return t
        return None

    def replay(self, run: Iterable[Action]) -> Iterator[Transition]:
        """Yield the transitions of ``run`` from the initial state,
        one per action, by :meth:`transition_for`.  Raises
        ``ValueError`` naming the action's index when an action is
        not enabled."""
        state = self.initial_state()
        for i, action in enumerate(run):
            t = self.transition_for(state, action)
            if t is None:
                raise ValueError(f"action #{i} ({action!r}) is not enabled — not a run")
            yield t
            state = t.state

    def run_states(self, run: Iterable[Action]) -> List[Hashable]:
        """The state sequence :meth:`replay` visits (length
        ``len(run)+1``).  Raises ``ValueError`` if some action is not
        enabled."""
        return [self.initial_state()] + [t.state for t in self.replay(run)]

    def is_run(self, run: Iterable[Action]) -> bool:
        try:
            self.run_states(run)
            return True
        except ValueError:
            return False


def enumerate_runs(
    protocol: Protocol, max_len: int, *, trace_only: bool = False
) -> Iterator[Run]:
    """Yield every run of length ≤ ``max_len`` (depth-first, including
    the empty run).  With ``trace_only`` the yielded tuples are the
    *traces* of those runs (duplicates suppressed)."""
    seen_traces: Set[Trace] = set()

    def rec(state: Hashable, run: List[Action]) -> Iterator[Run]:
        if trace_only:
            t = trace_of_run(run)
            if t not in seen_traces:
                seen_traces.add(t)
                yield t
        else:
            yield tuple(run)
        if len(run) == max_len:
            return
        for tr in protocol.transitions(state):
            run.append(tr.action)
            yield from rec(tr.state, run)
            run.pop()

    yield from rec(protocol.initial_state(), [])


def random_run(
    protocol: Protocol,
    length: int,
    rng,
    *,
    end_quiescent: bool = False,
    max_extra: int = 1000,
) -> Run:
    """A uniformly-random-per-step run of roughly ``length`` actions.

    With ``end_quiescent`` the run is extended (up to ``max_extra``
    further steps, preferring internal actions) until
    :meth:`Protocol.is_quiescent` holds — useful for per-trace testing
    where the checker's end conditions assume a drained system.
    """
    state = protocol.initial_state()
    run: List[Action] = []
    for _ in range(length):
        options = list(protocol.transitions(state))
        if not options:
            break
        t = options[rng.randrange(len(options))]
        run.append(t.action)
        state = t.state
    if end_quiescent:
        extra = 0
        while not protocol.is_quiescent(state) and extra < max_extra:
            options = list(protocol.transitions(state))
            internal = [t for t in options if isinstance(t.action, InternalAction)]
            pool = internal or options
            if not pool:
                break
            t = pool[rng.randrange(len(pool))]
            run.append(t.action)
            state = t.state
            extra += 1
    return tuple(run)
