"""The pluggable consistency-model interface.

A :class:`ConsistencyModel` packages everything the verification
pipeline needs to check one memory-consistency condition, behind the
same three-stage shape the paper uses for sequential consistency:

* **observe-event** — :meth:`~ConsistencyModel.make_observer` builds
  the streaming observer that shadows a protocol execution and emits
  constraint-graph descriptor symbols for each transition;
* **constraint edges** — the emitted symbols describe the model's
  witness graph (which edge families exist is the model's definition:
  SC streams program order, ST order, inheritance and forced edges;
  causal streams per-location program order and inheritance only);
* **violation predicate** — :meth:`~ConsistencyModel.make_checker`
  builds the finite-state checker that consumes the stream and rejects
  exactly when no witness of the model's condition can exist.

The product search (:class:`repro.engine.ComposedSystem`) is model
agnostic: it asks the model for its observer and checker components
and explores protocol × observer × checker as before.  Models form a
lattice under "every trace accepted by X is accepted by Y" —
:attr:`ConsistencyModel.weaker_than` declares the known relations, and
:func:`repro.difftest.assert_model_lattice` enforces them
differentially over the protocol zoo.

:class:`ModelError` signals an unsupported combination (e.g. the
causal model with ``mode="full"`` — the annotation checker's five
constraints are SC-specific); the CLI maps it to exit code 2, like
:class:`~repro.engine.reduction.ReductionError`.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from ..core.protocol import Protocol
from ..core.storder import STOrderGenerator

__all__ = ["ConsistencyModel", "ModelError"]


class ModelError(ValueError):
    """A consistency-model combination the pipeline cannot support."""


class ConsistencyModel(abc.ABC):
    """One pluggable consistency condition.

    Instances are plain picklable data: they ride inside
    :class:`~repro.modelcheck.product.ProductSearch` checkpoints.
    """

    #: registry name (``--model`` value); also the fingerprint's
    #: ``model`` provenance field
    name: str = "?"

    #: checking depths this model supports (``"full"`` means the
    #: complete protocol-independent annotation checker can ride along
    #: — only meaningful for SC, whose constraints 2-5 it implements)
    modes: Tuple[str, ...] = ("fast",)

    #: names of strictly stronger models: every trace (hence protocol)
    #: accepted under one of these is accepted under this model.  The
    #: cross-model difftest enforces the implication on real searches.
    weaker_than: Tuple[str, ...] = ()

    #: whether the model's observer implements ``permuted_snapshot``
    #: (required for ``--reduce``; see :mod:`repro.engine.reduction`)
    supports_reduction: bool = False

    #: whether the model's witness-visibility set is derived — i.e.
    #: :func:`repro.engine.por.action_visible` correctly classifies
    #: which actions its observer/checker can see.  Required for
    #: ``--por on``; False raises :class:`ModelError` there (the
    #: causal observer consumes a different symbol alphabet whose
    #: visibility set has not been derived)
    supports_por: bool = False

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def make_observer(
        self,
        protocol: Protocol,
        st_order: Optional[STOrderGenerator] = None,
        *,
        self_check: bool = False,
        eager_free: bool = True,
        unpin_heads: bool = True,
    ):
        """The streaming observer for one execution of ``protocol``
        (observe-event → constraint edges).  Must expose the observer
        protocol the engine relies on: ``fork``, ``on_transition``,
        ``violation``, ``canonical_snapshot``, ``state_key``,
        ``max_live`` and ``max_ids_allocated``."""

    @abc.abstractmethod
    def make_checker(self, mode: str):
        """The finite-state checker for ``mode`` (violation
        predicate).  Must expose ``fork``, ``feed_all``, ``state_key``
        and either ``accepts`` (cycle-only) or ``accepts_so_far`` +
        ``accepts_at_end`` (full)."""

    # ------------------------------------------------------------------
    def wrap_protocol(self, protocol: Protocol) -> Protocol:
        """Hook for models that restrict the *executions* rather than
        the acceptance condition (bounded-preemption SC wraps the
        protocol to prune runs beyond its context-switch budget).  The
        default is the identity."""
        return protocol

    @property
    def bounded(self) -> bool:
        """True when the model under-approximates its base model's run
        set (a completed, violation-free search is then a *bounded*
        verdict, never a proof)."""
        return False

    def check_mode(self, mode: str) -> None:
        """Raise :class:`ModelError` when ``mode`` is unsupported."""
        if mode not in self.modes:
            raise ModelError(
                f"model {self.name!r} does not support --mode {mode} "
                f"(supported: {', '.join(self.modes)}); the full "
                f"annotation checker implements the SC-specific "
                f"constraints 2-5 and judges no other model"
            )

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
