"""The uniform stepping protocol and the composed transition system.

Every layer of the Figure 2 pipeline is a :class:`Component` with one
contract::

    step(state, inp) -> (next_state, emissions)

* :class:`ProtocolComponent` — states are protocol states, inputs are
  enabled transitions, emissions are the transitions themselves (this
  covers :class:`~repro.faults.wrapper.FaultyProtocol` too, since a
  faulty protocol *is* a protocol);
* :class:`ObserverComponent` — states are
  :class:`~repro.core.observer.Observer` instances, inputs are
  protocol transitions, emissions are descriptor symbols;
* :class:`CheckerComponent` — states are checker instances, inputs are
  symbol batches, emissions are empty (the verdict lives in the
  state).

:class:`ComposedSystem` chains protocol → observer → checker into one
transition system — the composition that
:class:`~repro.engine.strategy.SearchEngine` explores.  It replaces
the bespoke product glue that previously lived in
``modelcheck/product.py``; :class:`ProtocolSystem` is the degenerate
composition (protocol only) behind plain reachability.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, List, Optional, Tuple

from ..core.checker import Checker
from ..core.cycle_checker import CycleChecker
from ..core.protocol import Protocol, Transition
from ..core.storder import STOrderGenerator

__all__ = [
    "Component",
    "ProtocolComponent",
    "ObserverComponent",
    "CheckerComponent",
    "Step",
    "System",
    "ComposedSystem",
    "ProtocolSystem",
]


class Component(abc.ABC):
    """One layer of the pipeline: a deterministic transducer whose
    states are explicit values (never hidden in the component object —
    the search forks *states*, components are shared)."""

    @abc.abstractmethod
    def initial(self) -> Any:
        """The component's initial state."""

    @abc.abstractmethod
    def step(self, state: Any, inp: Any) -> Tuple[Any, Tuple]:
        """Apply one input; return the successor state and what the
        step emits downstream.  Must not mutate ``state``."""


class ProtocolComponent(Component):
    """A protocol (or :class:`~repro.faults.wrapper.FaultyProtocol`)
    as a component.  Inputs are enabled :class:`Transition` objects;
    the emission is the transition, which feeds the observer."""

    def __init__(self, protocol: Protocol):
        self.protocol = protocol

    def initial(self):
        return self.protocol.initial_state()

    def enabled(self, state) -> Iterable[Transition]:
        return self.protocol.transitions(state)

    def step(self, state, inp: Transition):
        return inp.state, (inp,)


class ObserverComponent(Component):
    """A consistency model's witness observer as a component:
    fork-on-step, emitting the descriptor symbols of the transition.
    ``model`` defaults to sequential consistency."""

    def __init__(
        self,
        protocol: Protocol,
        st_order: Optional[STOrderGenerator] = None,
        *,
        self_check: bool = False,
        eager_free: bool = True,
        unpin_heads: bool = True,
        model=None,
    ):
        self.protocol = protocol
        self.st_order = st_order
        self.self_check = self_check
        self.eager_free = eager_free
        self.unpin_heads = unpin_heads
        self.model = model

    def initial(self):
        model = self.model
        if model is None:
            from ..models.sc import SequentialConsistency

            model = SequentialConsistency()
        return model.make_observer(
            self.protocol,
            self.st_order,
            self_check=self.self_check,
            eager_free=self.eager_free,
            unpin_heads=self.unpin_heads,
        )

    def step(self, state, inp: Transition):
        obs = state.fork()
        symbols = obs.on_transition(inp)
        return obs, tuple(symbols)


class CheckerComponent(Component):
    """A descriptor checker as a component.  Inputs are symbol
    batches; an empty batch shares the state (the checker cannot have
    moved), which is the fork-skipping optimisation the product search
    has always relied on."""

    def __init__(self, full: bool = True, *, model=None):
        self.full = full
        self.model = model

    def initial(self):
        model = self.model
        if model is None:
            # no model given: SC's pair
            return Checker() if self.full else CycleChecker()
        return model.make_checker("full" if self.full else "fast")

    def step(self, state, inp: Tuple):
        if not inp:
            return state, ()
        chk = state.fork()
        chk.feed_all(inp)
        return chk, ()


# ----------------------------------------------------------------------
# composed systems
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Step:
    """One successor produced by a :class:`System`: the action taken,
    the successor system state, its canonical key, and whether every
    eager check passed."""

    action: Any
    state: Any
    key: Hashable
    ok: bool


class System(abc.ABC):
    """A transition system the :class:`~repro.engine.strategy.SearchEngine`
    can explore: initial state, keyed successors, optional end checks."""

    @abc.abstractmethod
    def initial(self) -> Any:
        """The initial system state."""

    @abc.abstractmethod
    def key(self, state) -> Hashable:
        """Canonical hashable key of ``state``."""

    @abc.abstractmethod
    def steps(self, state) -> Iterator[Step]:
        """All successors of ``state``."""

    def successor(self, state, action) -> Any:
        """The successor of ``state`` via ``action``, with no key
        computed — how :meth:`SearchEngine.restore
        <repro.engine.strategy.SearchEngine.restore>` rebuilds a paused
        frontier from parent pointers.  Raises :class:`ValueError` when
        ``action`` is not enabled at ``state``."""
        raise NotImplementedError(f"{type(self).__name__} cannot replay actions")

    def end_check(self, state) -> Optional[bool]:
        """``None`` when no end condition applies at ``state``;
        otherwise whether the end condition holds (an end state that
        fails is a violation)."""
        return None

    #: the system's ``--por`` level; engines consult it before paying
    #: for ample-set selection
    por = "off"
    #: the ample-set selector (engines read its counters); ``None``
    #: when POR is off
    por_selector = None

    def ample_candidates(self, state, steps) -> Optional[list]:
        """A candidate ample subset of ``steps`` (already
        materialised) at ``state``, or ``None`` to expand in full.
        The engine still owes the C3 proviso (:func:`repro.engine.por.proviso`)
        before committing to the subset."""
        return None

    def record(self, stats, state) -> None:
        """Fold per-transition measurements into ``stats`` (called for
        every generated successor, revisits included)."""

    def describe(self) -> str:
        return type(self).__name__


class ProtocolSystem(System):
    """Plain protocol reachability: states are protocol states, keys
    are the states themselves."""

    def __init__(self, protocol: Protocol):
        self.protocol = protocol
        self.component = ProtocolComponent(protocol)

    def initial(self):
        return self.component.initial()

    def key(self, state) -> Hashable:
        return state

    def steps(self, state) -> Iterator[Step]:
        for t in self.component.enabled(state):
            yield Step(t.action, t.state, t.state, True)

    def describe(self) -> str:
        return self.protocol.describe()


class ComposedSystem(System):
    """The Figure 2 product: protocol × observer × checker as one
    transition system.

    ``mode`` selects the checking depth exactly as before:

    * ``"full"`` — the complete protocol-independent checker (cycle +
      all five edge-annotation constraints) rides along;
    * ``"fast"`` — Theorem 4.1: only the protocol-dependent checks
      (acyclicity + observer self-check) ride along.

    System states are ``(protocol_state, observer, checker)`` triples;
    the canonical key renames descriptor IDs through the observer's
    canonical renaming (unless ``canonical_ids`` is off, which — as
    always — de-canonicalises only the checker component of the key).

    ``reduce`` turns on symmetry reduction (see
    :mod:`repro.engine.reduction`): the key becomes the minimum over
    the orbit of the composed state under the level's permutation
    group, so permutation-equivalent states intern to one quotient
    key.  States are always kept *concrete* — the quotient lives only
    in the keys, so counterexample paths replay without any
    permutation tracking.  Violating observer states keep their
    identity key (their rendered violation message names concrete
    operations); they are recorded, never expanded, so no reduction
    soundness rides on them.
    """

    def __init__(
        self,
        protocol: Protocol,
        st_order: Optional[STOrderGenerator] = None,
        *,
        mode: str = "full",
        canonical_ids: bool = True,
        eager_free: bool = True,
        unpin_heads: bool = True,
        reduce: str = "off",
        model="sc",
        preemptions: Optional[int] = None,
        por: str = "off",
    ):
        from ..models import ModelError, get_model
        from .por import build_por
        from .reduction import build_reduction

        if mode not in ("full", "fast"):
            raise ValueError(f"unknown mode {mode!r}")
        self.model = get_model(model, preemptions=preemptions)
        self.model.check_mode(mode)
        protocol = self.model.wrap_protocol(protocol)
        self.protocol = protocol
        self.st_order = st_order
        self.mode = mode
        self.canonical_ids = canonical_ids
        self.reduce = reduce
        if reduce != "off" and not self.model.supports_reduction:
            raise ModelError(
                f"model {self.model.name!r} does not support --reduce "
                f"(its observer implements no permuted snapshot)"
            )
        self.reduction = build_reduction(protocol, reduce)
        self.por = por
        if por != "off" and not self.model.supports_por:
            raise ModelError(
                f"model {self.model.name!r} does not support --por "
                f"(its observer visibility set is not derived)"
            )
        # POR looks up the spec on the *wrapped* protocol: a wrapper
        # (bounded preemption, fault injection) voids any declared
        # footprints, so wrapped searches degrade to full expansion
        self.por_selector = build_por(protocol, por, st_order)
        if self.reduction is not None and not canonical_ids:
            raise ValueError(
                "--reduce requires canonical descriptor IDs (the orbit "
                "minimum is taken over canonical keys)"
            )
        fast = mode == "fast"
        self.protocol_comp = ProtocolComponent(protocol)
        self.observer_comp = ObserverComponent(
            protocol,
            st_order,
            self_check=fast,
            eager_free=eager_free,
            unpin_heads=unpin_heads,
            model=self.model,
        )
        self.checker_comp = CheckerComponent(full=not fast, model=self.model)
        self._fast = fast

    def ample_candidates(self, state, steps) -> Optional[list]:
        sel = self.por_selector
        if sel is None:
            return None
        return sel.select(state[0], steps)

    # ------------------------------------------------------------------
    def initial(self):
        return (
            self.protocol_comp.initial(),
            self.observer_comp.initial(),
            self.checker_comp.initial(),
        )

    def key(self, state) -> Hashable:
        pstate, obs, chk = state
        if self.reduction is not None and obs.violation is None:
            return self.reduction.canonical_key(pstate, obs, chk)
        canon, okey = obs.canonical_snapshot()
        return (pstate, okey, chk.state_key(canon if self.canonical_ids else None))

    def steps(self, state) -> List[Step]:
        """All successor steps of ``state``, keys computed in batch.

        Children are materialised first, then every non-violating
        child's canonical key is computed in one
        :meth:`~repro.engine.reduction.Reduction.canonicalize_batch`
        sweep (violating observer states keep their identity key —
        see :meth:`key`).  Returns a list rather than a generator so
        the engine's batched interning sees the whole successor set;
        each key is bit-identical to a per-child :meth:`key` call.
        """
        pstate, obs, chk = state
        children = []
        for t in self.protocol_comp.enabled(pstate):
            obs2, symbols = self.observer_comp.step(obs, t)
            if symbols:
                chk2, _ = self.checker_comp.step(chk, symbols)
                ok = chk2.accepts_so_far and obs2.violation is None
            else:
                # nothing emitted: the parent's (accepted) checker is
                # shared — it is only ever mutated right after a fork
                chk2 = chk
                ok = obs2.violation is None
            children.append((t, (t.state, obs2, chk2), ok))
        reduction = self.reduction
        if reduction is not None:
            items = [
                child for _t, child, _ok in children
                if child[1].violation is None
            ]
            batched = iter(reduction.canonicalize_batch(items)) if items else iter(())
            return [
                Step(
                    t.action,
                    child,
                    next(batched) if child[1].violation is None else self.key(child),
                    ok,
                )
                for t, child, ok in children
            ]
        return [
            Step(t.action, child, self.key(child), ok)
            for t, child, ok in children
        ]

    def successor(self, state, action):
        pstate, obs, chk = state
        for t in self.protocol_comp.enabled(pstate):
            if t.action == action:
                obs2, symbols = self.observer_comp.step(obs, t)
                chk2, _ = self.checker_comp.step(chk, symbols)
                return (t.state, obs2, chk2)
        raise ValueError(f"{action!r} is not enabled on replay")

    def end_check(self, state) -> Optional[bool]:
        pstate, _obs, chk = state
        if not self.protocol.is_quiescent(pstate):
            return None
        if self._fast:
            # structural end conditions hold by observer construction;
            # acyclicity is checked eagerly on every symbol
            return True
        return chk.accepts_at_end()

    def record(self, stats, state) -> None:
        obs = state[1]
        if obs.max_live > stats.max_live_nodes:
            stats.max_live_nodes = obs.max_live
        if obs.max_ids_allocated > stats.max_descriptor_ids:
            stats.max_descriptor_ids = obs.max_ids_allocated

    def describe(self) -> str:
        return self.protocol.describe()
