"""The protocol-independent checker of Theorem 3.1.

Composes the cycle checker (Lemma 3.3) with the edge-annotation
checker: a descriptor stream is *accepted at end* iff it describes an
acyclic constraint graph for the trace spelled by its node labels.
The same checker instance verifies every protocol — it knows nothing
about protocols, only about descriptor symbols.

Besides the streaming interface, :func:`check_descriptor` gives the
one-shot verdict used by tests and the per-trace (Section 5) tooling,
and :func:`check_constraint_graph` round-trips a full
:class:`~repro.core.constraint_graph.ConstraintGraph` through the
encoder and the streaming checker — the two verdicts must agree with
the offline ``validate()``/``is_acyclic()`` pair, which the test suite
checks exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .annotation_checker import AnnotationChecker
from .constraint_graph import ConstraintGraph
from .cycle_checker import CycleChecker
from .descriptor import Symbol, encode_graph

__all__ = ["Checker", "CheckResult", "check_descriptor", "check_constraint_graph"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a one-shot descriptor check."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class Checker:
    """Streaming combined checker: cycle + annotation.

    ``feed`` returns False permanently once either sub-checker rejects;
    ``accepts_at_end()`` additionally evaluates the annotation
    checker's end-of-string conditions.
    """

    def __init__(self):
        self.cycles = CycleChecker()
        self.annotations = AnnotationChecker()

    def feed(self, sym: Symbol) -> bool:
        ok_c = self.cycles.feed(sym)
        ok_a = self.annotations.feed(sym)
        return ok_c and ok_a

    def feed_all(self, symbols: Iterable[Symbol]) -> bool:
        ok = self.accepts_so_far
        for s in symbols:
            ok = self.feed(s)
            if not ok:
                break
        return ok

    @property
    def accepts_so_far(self) -> bool:
        return self.cycles.accepts and self.annotations.accepts_so_far

    def accepts_at_end(self) -> bool:
        return self.cycles.accepts and self.annotations.accepts_at_end()

    def violations(self) -> List[str]:
        out: List[str] = []
        if not self.cycles.accepts:
            out.append("cycle in the described graph")
        out.extend(self.annotations.end_violations())
        return out

    def fork(self) -> "Checker":
        """Independent copy (for branching exploration)."""
        other = Checker.__new__(Checker)
        other.cycles = self.cycles.fork()
        other.annotations = self.annotations.fork()
        return other

    def state_key(self, canon=None, perm=None) -> Tuple:
        # a rejection is absorbing (safety automaton) — and feed_all
        # stops mid-batch on it, leaving the sub-checkers' ID maps out
        # of sync with the observer, so only the collapsed key is
        # representative-independent.
        # ``perm`` (a symmetry permutation; see engine/reduction.py)
        # asks for the key of the permuted state: only the annotation
        # checker carries proc/block/value content — the cycle
        # checker's key is pure descriptor-ID/token structure, which
        # ``canon`` (a permuted renaming when perm is set) already
        # covers.
        if not self.accepts_so_far:
            return ("REJECTED",)
        return (
            self.cycles.state_key(canon),
            self.annotations.state_key(canon, perm),
        )


def check_descriptor(symbols: Iterable[Symbol]) -> CheckResult:
    """One-shot: does the descriptor describe an acyclic constraint
    graph (end-of-string semantics)?"""
    chk = Checker()
    chk.feed_all(symbols)
    bad = chk.violations()
    return CheckResult(not bad, bad[0] if bad else None)


def check_constraint_graph(cg: ConstraintGraph) -> CheckResult:
    """Serialise a full constraint graph (encoder of Lemma 3.2) and run
    the streaming checker over it."""
    symbols = encode_graph(
        cg.graph,
        list(cg.trace),
    )
    return check_descriptor(symbols)
