"""ST-order generators (Section 4.2).

A *ST order generator* decides, as a finite-state function of the run,
the total order in which the STs to each block are serialised.  The
generator does not emit graph edges itself; it emits
:class:`Serialized` events — "this ST node is the next one in its
block's total order" — and the observer turns those into STo edges,
identifies each block's STo head, and discharges forced-edge
obligations.

Two generators cover every protocol in this repository (and, the paper
argues, every realistic protocol):

* :class:`RealTimeSTOrder` — the ``|G| = 0`` case: the serialisation
  order *is* the trace order of STs.  True of almost all implemented
  protocols.
* :class:`WriteOrderSTOrder` — serialisation happens at a designated
  internal action (Lazy Caching's ``memory-write``, a store buffer's
  ``flush``): per-processor FIFOs of unserialised ST nodes are popped
  as those actions fire.  This is the paper's Lazy-Caching generator.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from .operations import InternalAction, Store

__all__ = [
    "Serialized",
    "STOrderGenerator",
    "RealTimeSTOrder",
    "WriteOrderSTOrder",
    "ActionKeyedSerializer",
    "describe_generator",
]

Handle = int  # observer node handles (the nodes' descriptor IDs)


@dataclass(frozen=True, slots=True)
class Serialized:
    """Event: ST node ``handle`` (a ST to ``block``) takes the next
    position in ``block``'s total ST order."""

    handle: Handle
    block: int


class STOrderGenerator(abc.ABC):
    """Finite-state serialisation-order oracle.

    The observer calls :meth:`on_store` when a ST trace operation
    creates a node, and :meth:`on_internal` for every internal action;
    both return the :class:`Serialized` events that the step resolves,
    in order.
    """

    @abc.abstractmethod
    def on_store(self, handle: Handle, op: Store) -> List[Serialized]:
        """A new ST node was created."""

    @abc.abstractmethod
    def on_internal(self, action: InternalAction) -> List[Serialized]:
        """An internal protocol action occurred."""

    @abc.abstractmethod
    def live_handles(self) -> Set[Handle]:
        """Node handles the generator still references (these must keep
        their descriptor IDs until serialised)."""

    @abc.abstractmethod
    def state_key(
        self, rename: Callable[[Handle], int] = lambda h: h, perm=None
    ) -> Tuple:
        """Hashable snapshot of generator state.  ``rename`` maps node
        handles to canonical names (the observer passes its canonical
        renaming of descriptor IDs, which are its handles, so keys are
        run-independent).
        ``perm`` (a symmetry permutation, see engine/reduction.py;
        ``None`` is the identity) asks for the key the generator would
        have had the run been permuted: proc/block payloads mapped,
        entries re-sorted in the permuted order.  Generators whose key
        carries no processor or block content ignore it."""

    def copy(self) -> "STOrderGenerator":
        """Independent copy (used when the model checker forks)."""
        raise NotImplementedError

    def ordered_handles(self, perm=None) -> List[Handle]:
        """Live handles in a *structural* order — the observer's
        canonical-renaming walk visits them in this order, so it must
        depend only on the generator's logical state, never on raw
        handle numbers (which are allocation-order artifacts and differ
        between permutation-equivalent observer states).  ``perm`` as
        for :meth:`state_key`: the order the generator would use had
        the run been permuted.  Generators whose state has an intrinsic
        order (FIFO position, say) must override; the base fallback
        sorts raw handles (descriptor IDs) and ignores ``perm``, which
        is only canonical for generators that never hold more than one
        handle."""
        return sorted(self.live_handles())

    def may_emit_on_internal(self, action: InternalAction) -> bool:
        """Could :meth:`on_internal` ever emit events for ``action``
        (in *some* generator state)?  A static property of the action,
        not of the current FIFO contents — partial-order reduction
        uses it to classify internal actions as witness-visible.  The
        base default ``True`` is the conservative direction (visible
        actions are never deferred)."""
        return True

    @property
    def is_drained(self) -> bool:
        """No ST is awaiting serialisation (part of quiescence)."""
        return not self.live_handles()

    def describe(self) -> str:
        """The generator's identity as search provenance: two searches
        that differ only in their generator explore different products
        (lazy caching verifies under its write-order generator and is
        refuted under real-time order), so checkpoints and
        fingerprints key on this name."""
        return type(self).__name__


class RealTimeSTOrder(STOrderGenerator):
    """The trivial generator (``|G| = 0``): STs serialise in trace
    order, per block, at the instant they execute.  Stateless."""

    def on_store(self, handle: Handle, op: Store) -> List[Serialized]:
        return [Serialized(handle, op.block)]

    def on_internal(self, action: InternalAction) -> List[Serialized]:
        return []

    def may_emit_on_internal(self, action: InternalAction) -> bool:
        return False

    def live_handles(self) -> Set[Handle]:
        return set()

    def state_key(
        self, rename: Callable[[Handle], int] = lambda h: h, perm=None
    ) -> Tuple:
        return ("real-time",)

    def copy(self) -> "RealTimeSTOrder":
        return self

    def describe(self) -> str:
        return "real-time"


class ActionKeyedSerializer:
    """The common ``serialize_proc`` shape as a value: an
    internal action named ``action_name`` serialises the oldest pending
    ST of processor ``action.args[0]``.

    Instances compare by the action name so generator state keys and
    equality behave like values, and :meth:`WriteOrderSTOrder.describe`
    can name the generator in search provenance.
    """

    __slots__ = ("action_name",)

    def __init__(self, action_name: str):
        self.action_name = action_name

    def __call__(self, action: InternalAction) -> Optional[int]:
        return action.args[0] if action.name == self.action_name else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ActionKeyedSerializer)
            and other.action_name == self.action_name
        )

    def __hash__(self) -> int:
        return hash(("ActionKeyedSerializer", self.action_name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ActionKeyedSerializer({self.action_name!r})"


class WriteOrderSTOrder(STOrderGenerator):
    """Serialisation at designated internal actions (Section 4.2's
    Lazy-Caching generator, generalised).

    ``serialize_proc(action)`` inspects an internal action and returns
    the processor whose *oldest unserialised ST* it serialises (e.g.
    Lazy Caching's ``memory-write(P)`` → ``P``), or ``None`` if the
    action serialises nothing.  Per-processor FIFOs mirror the
    protocol's buffers/queues; their depth — and hence the generator's
    state — is bounded by the protocol's own queue capacity.
    """

    def __init__(self, serialize_proc: Callable[[InternalAction], Optional[int]]):
        self._serialize_proc = serialize_proc
        self._fifo: Dict[int, Deque[Tuple[Handle, int]]] = {}

    def on_store(self, handle: Handle, op: Store) -> List[Serialized]:
        self._fifo.setdefault(op.proc, deque()).append((handle, op.block))
        return []

    def on_internal(self, action: InternalAction) -> List[Serialized]:
        proc = self._serialize_proc(action)
        if proc is None:
            return []
        fifo = self._fifo.get(proc)
        if not fifo:
            raise ValueError(
                f"{action!r} serialises a ST of processor {proc}, but the "
                f"generator has none pending — serialize_proc is out of "
                f"sync with the protocol"
            )
        handle, block = fifo.popleft()
        return [Serialized(handle, block)]

    def may_emit_on_internal(self, action: InternalAction) -> bool:
        # serialize_proc is a pure function of the action (the
        # ActionKeyedSerializer contract), so probing it on a template
        # generator is side-effect free
        return self._serialize_proc(action) is not None

    def live_handles(self) -> Set[Handle]:
        return {h for fifo in self._fifo.values() for (h, _) in fifo}

    def _fifos(self, perm) -> List[Tuple[int, Deque[Tuple[Handle, int]]]]:
        # processors ascending (after permutation, if any); FIFO
        # position is program order per processor and survives any
        # permutation
        if perm is None:
            return sorted(self._fifo.items())
        pp = perm.proc
        return sorted((pp[p - 1], fifo) for p, fifo in self._fifo.items())

    def ordered_handles(self, perm=None) -> List[Handle]:
        # structural order: processors ascending, then FIFO position —
        # exactly the shape state_key exposes
        return [h for _proc, fifo in self._fifos(perm) for (h, _blk) in fifo]

    def state_key(
        self, rename: Callable[[Handle], int] = lambda h: h, perm=None
    ) -> Tuple:
        pb = None if perm is None else perm.block
        return tuple(
            (
                proc,
                tuple(
                    (rename(h), blk if pb is None else pb[blk - 1])
                    for (h, blk) in fifo
                ),
            )
            for proc, fifo in self._fifos(perm)
            if fifo
        )

    def describe(self) -> str:
        fn = self._serialize_proc
        if isinstance(fn, ActionKeyedSerializer):
            return f"write-order({fn.action_name})"
        return f"write-order({getattr(fn, '__qualname__', repr(fn))})"

    def copy(self) -> "WriteOrderSTOrder":
        g = WriteOrderSTOrder(self._serialize_proc)
        g._fifo = {proc: deque(fifo) for proc, fifo in self._fifo.items()}
        return g


def describe_generator(st_order: Optional[STOrderGenerator]) -> str:
    """:meth:`STOrderGenerator.describe`, with ``None`` (the observer's
    default) read as the real-time generator it stands for."""
    return "real-time" if st_order is None else st_order.describe()
