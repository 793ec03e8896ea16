"""Sequential consistency as a :class:`ConsistencyModel`.

This is the reference implementation the rest of the package was
refactored around: the witness observer of Theorem 4.1
(:class:`~repro.core.observer.Observer`) streaming program-order,
ST-order, inheritance and forced edges, judged by either the complete
protocol-independent checker (:class:`~repro.core.checker.Checker`,
``mode="full"``) or the cycle checker plus observer self-check
(``mode="fast"``, Theorem 4.1).

The classes themselves stay in :mod:`repro.core`, so this module is
deliberately thin: it *names* the SC wiring, it does not move it.  The
behaviour-preservation contract is enforced differentially: under
``--model sc`` every :class:`~repro.difftest.SearchFingerprint` field
is bit-identical to the pre-refactor engine (see
``tests/test_models.py``).
"""

from __future__ import annotations

from ..core.observer import Observer
from .base import ConsistencyModel

__all__ = ["SequentialConsistency"]


class SequentialConsistency(ConsistencyModel):
    """The paper's condition: a total ST order per block extending an
    acyclic witness constraint graph exists iff the trace is SC
    (Lemma 3.1)."""

    name = "sc"
    modes = ("fast", "full")
    weaker_than = ()
    supports_reduction = True
    supports_por = True
    observer_cls = Observer
