"""Fault application: wrap a protocol (or its ST-order generator) so
that the mutations of a :class:`~repro.faults.spec.FaultSpec` list are
composed onto its transition structure.

:class:`FaultyProtocol` is itself a :class:`~repro.core.protocol.Protocol`,
so the entire verification pipeline — observer, checkers, product
exploration, per-run checking, fuzzing — runs on the mutated system
unchanged.  :func:`apply_faults` is the front door: it routes each
spec to the protocol wrapper, a protocol knob, or the ST-order
perturbation wrapper as appropriate.
"""

from __future__ import annotations

import copy as _copy
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.operations import BOTTOM, InternalAction, Load, Store
from ..core.protocol import FRESH, Protocol, Tracking, Transition
from ..core.storder import RealTimeSTOrder, Serialized, STOrderGenerator
from .spec import FaultInapplicable, FaultSpec

__all__ = ["FaultyProtocol", "SwappedSTOrder", "apply_faults", "compose_copies"]


def compose_copies(c1: Mapping[int, int], c2: Mapping[int, int]) -> Dict[int, int]:
    """The ``copies`` map of performing a step with ``c1`` and then a
    step with ``c2`` as one atomic step.

    Every right-hand side of a copies map reads the pre-step snapshot,
    so the second step's sources must be routed through the first:
    ``m2[dst] = m1[src2] = m0[c1.get(src2, src2)]``.
    """
    out = dict(c1)
    for dst, src in c2.items():
        if src == FRESH:
            out[dst] = FRESH
        else:
            out[dst] = c1.get(src, src)
    return out


class FaultyProtocol(Protocol):
    """A protocol with a list of fault mutations composed onto it.

    Handles the transition-level fault kinds (``drop-internal``,
    ``dup-internal``, ``stale-load``, ``corrupt-ld-location``,
    ``corrupt-st-location``, ``drop-copies``); knob and ST-order faults
    are applied by :func:`apply_faults` before/around the wrapper.

    When ``stale-load`` is active, states become pairs
    ``(base_state, shadow)`` where ``shadow[block-1] = (prev, cur)``
    tracks the block's previous and current stored value, so loads can
    be offered the *overwritten* value — a genuine staleness bug, not
    an arbitrary value corruption.  All other kinds leave the state
    space untouched.
    """

    def __init__(self, base: Protocol, specs: Sequence[FaultSpec]):
        self.base = base
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.p, self.b, self.v = base.p, base.b, base.v
        self.num_locations = base.num_locations
        L = self.num_locations

        self._drop: Set[str] = set()
        self._dup: Set[str] = set()
        self._stale = False
        self._corrupt_ld: Optional[int] = None
        self._corrupt_st: Optional[int] = None
        self._drop_copies = False
        for spec in specs:
            if spec.kind == "drop-internal":
                self._drop.add(spec.target or "")
            elif spec.kind == "dup-internal":
                self._dup.add(spec.target or "")
            elif spec.kind == "stale-load":
                self._stale = True
            elif spec.kind in ("corrupt-ld-location", "corrupt-st-location"):
                if L < 2:
                    raise FaultInapplicable(
                        f"{spec.kind} is the identity on a protocol with "
                        f"{L} storage location(s)"
                    )
                rot = 1 + spec.seed % (L - 1)
                if spec.kind == "corrupt-ld-location":
                    self._corrupt_ld = rot
                else:
                    self._corrupt_st = rot
            elif spec.kind == "drop-copies":
                self._drop_copies = True
            else:
                raise FaultInapplicable(
                    f"fault kind {spec.kind!r} is not a transition-level fault; "
                    f"apply it with repro.faults.apply_faults"
                )

    # ------------------------------------------------------------------
    # state (de)composition
    # ------------------------------------------------------------------
    def _wrap(self, bstate, shadow):
        return (bstate, shadow) if self._stale else bstate

    def _unwrap(self, state):
        return state[0] if self._stale else state

    def initial_state(self):
        init = self.base.initial_state()
        if not self._stale:
            return init
        return (init, ((BOTTOM, BOTTOM),) * self.b)

    def is_quiescent(self, state) -> bool:
        return self.base.is_quiescent(self._unwrap(state))

    def may_load_bottom(self, state, block: int) -> bool:
        if self._stale or self._drop_copies or self._corrupt_ld or self._corrupt_st:
            # stale loads can resurrect ⊥ long after the base protocol
            # ruled it out, and corrupted tracking makes the observer
            # see ⊥ at locations the base protocol considers written;
            # always-True is the sound fallback either way
            return True
        return self.base.may_load_bottom(self._unwrap(state), block)

    def describe(self) -> str:
        return f"{self.base.describe()} + faults[{', '.join(s.name for s in self.specs)}]"

    # ------------------------------------------------------------------
    # tracking-label mutation
    # ------------------------------------------------------------------
    def _rot(self, loc: Optional[int], r: int) -> Optional[int]:
        if loc is None:
            return None
        return (loc - 1 + r) % self.num_locations + 1

    def _mutate_tracking(self, t: Transition) -> Tracking:
        tr = t.tracking
        loc, copies = tr.location, tr.copies
        if self._corrupt_ld is not None and isinstance(t.action, Load):
            loc = self._rot(loc, self._corrupt_ld)
        if self._corrupt_st is not None and isinstance(t.action, Store):
            loc = self._rot(loc, self._corrupt_st)
        if self._drop_copies and copies:
            copies = {}
        if loc == tr.location and copies is tr.copies:
            return tr
        return Tracking(location=loc, copies=copies)

    # ------------------------------------------------------------------
    def transitions(self, state) -> Iterable[Transition]:
        if self._stale:
            bstate, shadow = state
        else:
            bstate, shadow = state, None
        base_ts = list(self.base.transitions(bstate))
        base_loads = (
            {t.action for t in base_ts if isinstance(t.action, Load)}
            if self._stale else None
        )
        emitted_stale: Set[Load] = set()

        for t in base_ts:
            a = t.action
            if isinstance(a, InternalAction):
                if a.name in self._drop:
                    continue
                yield Transition(a, self._wrap(t.state, shadow), self._mutate_tracking(t))
                if a.name in self._dup:
                    t2 = self.base.transition_for(t.state, a)
                    if t2 is not None:
                        combined = compose_copies(t.tracking.copies, t2.tracking.copies)
                        if self._drop_copies:
                            combined = {}
                        yield Transition(
                            InternalAction(f"Dup[{a.name}]", a.args),
                            self._wrap(t2.state, shadow),
                            Tracking(copies=combined),
                        )
            elif isinstance(a, Store):
                nshadow = shadow
                if self._stale:
                    i = a.block - 1
                    nshadow = shadow[:i] + ((shadow[i][1], a.value),) + shadow[i + 1:]
                yield Transition(a, self._wrap(t.state, nshadow), self._mutate_tracking(t))
            else:  # Load
                tr = self._mutate_tracking(t)
                yield Transition(a, self._wrap(t.state, shadow), tr)
                if self._stale:
                    prev = shadow[a.block - 1][0]
                    fake = Load(a.proc, a.block, prev)
                    # offer the stale value only where it is a *new*
                    # action, so runs stay action-deterministic
                    if fake != a and fake not in base_loads and fake not in emitted_stale:
                        emitted_stale.add(fake)
                        yield Transition(fake, self._wrap(t.state, shadow), tr)


class SwappedSTOrder(STOrderGenerator):
    """Fault wrapper around an ST-order generator: per block, the
    serialisation events of the inner generator are emitted in
    pairwise-swapped order (the second of each pair first).

    The wrapped generator is finite-state (at most one pending event
    per block) but no longer a witness: any run with two same-block
    stores bracketing a program-order-later load yields a po/STo cycle
    the checker must report.
    """

    def __init__(self, inner: Optional[STOrderGenerator] = None):
        self.inner: STOrderGenerator = inner if inner is not None else RealTimeSTOrder()
        self._pending: Dict[int, Serialized] = {}

    def _perturb(self, events: List[Serialized]) -> List[Serialized]:
        out: List[Serialized] = []
        for ev in events:
            held = self._pending.pop(ev.block, None)
            if held is None:
                self._pending[ev.block] = ev
            else:
                out.append(ev)
                out.append(held)
        return out

    def on_store(self, handle, op) -> List[Serialized]:
        return self._perturb(self.inner.on_store(handle, op))

    def on_internal(self, action) -> List[Serialized]:
        return self._perturb(self.inner.on_internal(action))

    def live_handles(self) -> Set[int]:
        live = set(self.inner.live_handles())
        live.update(ev.handle for ev in self._pending.values())
        return live

    def state_key(self, rename=lambda h: h, perm=None) -> Tuple:
        pending = self._pending.items()
        if perm is not None:
            pending = [(perm.block[b - 1], ev) for b, ev in pending]
        return (
            "swapped",
            tuple((b, rename(ev.handle)) for b, ev in sorted(pending)),
            self.inner.state_key(rename, perm),
        )

    def copy(self) -> "SwappedSTOrder":
        g = SwappedSTOrder(self.inner.copy())
        g._pending = dict(self._pending)
        return g


def apply_faults(
    protocol: Protocol,
    st_order: Optional[STOrderGenerator],
    specs: Iterable[FaultSpec],
) -> Tuple[Protocol, Optional[STOrderGenerator]]:
    """Compose ``specs`` onto ``(protocol, st_order)``.

    Knob faults (``skip-invalidation``) flip an attribute on a shallow
    copy of the protocol; ``perturb-storder`` wraps the generator;
    every transition-level kind is gathered into one
    :class:`FaultyProtocol` wrapper.  Raises
    :class:`~repro.faults.spec.FaultInapplicable` when a spec does not
    apply to this protocol.
    """
    wrapper_specs: List[FaultSpec] = []
    for spec in specs:
        if spec.kind == "perturb-storder":
            st_order = SwappedSTOrder(st_order.copy() if st_order is not None else None)
        elif spec.kind == "skip-invalidation":
            knob = spec.target or "invalidate_on_acquire_m"
            if not getattr(protocol, knob, False):
                raise FaultInapplicable(
                    f"{protocol.describe()} has no enabled {knob!r} knob to skip"
                )
            protocol = _copy.copy(protocol)
            setattr(protocol, knob, False)
        else:
            wrapper_specs.append(spec)
    if wrapper_specs:
        protocol = FaultyProtocol(protocol, wrapper_specs)
    return protocol, st_order
