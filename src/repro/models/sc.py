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

from typing import Optional

from ..core.checker import Checker
from ..core.cycle_checker import CycleChecker
from ..core.observer import Observer
from ..core.protocol import Protocol
from ..core.storder import STOrderGenerator
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

    def make_observer(
        self,
        protocol: Protocol,
        st_order: Optional[STOrderGenerator] = None,
        *,
        self_check: bool = False,
        eager_free: bool = True,
        unpin_heads: bool = True,
    ) -> Observer:
        return Observer(
            protocol,
            st_order.copy() if st_order is not None else None,
            self_check=self_check,
            eager_free=eager_free,
            unpin_heads=unpin_heads,
        )

    def make_checker(self, mode: str):
        self.check_mode(mode)
        return Checker() if mode == "full" else CycleChecker()
