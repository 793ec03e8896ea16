"""The end-to-end verification pipeline (Figure 2).

``verify_protocol`` is the library's headline entry point: given a
protocol (with tracking labels) and optionally a ST-order generator,
it model-checks the protocol × observer × checker product and returns
a verdict — the protocol is in the class Γ (hence sequentially
consistent) with respect to those tracking functions and that
generator, or a counterexample run is produced.

A rejection means *this observer is not a witness*; for protocols with
correct tracking labels and generator, that is equivalent to an SC
violation in practice, and every non-SC protocol is rejected no matter
the observer (an acyclic constraint graph for a non-SC trace cannot
exist, Lemma 3.1).

``check_run`` supports the Section 5 testing scenario: feed one
concrete run (e.g. from a random simulation too big to model-check)
through observer + checker and report whether its witness graph is an
acyclic constraint graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..modelcheck.counterexample import Counterexample
from ..modelcheck.product import ProductResult, explore_product
from ..obs.stats import ExplorationStats
from .descriptor import Symbol
from .operations import Action
from .protocol import Protocol
from .storder import STOrderGenerator

__all__ = [
    "VerificationResult",
    "verify_protocol",
    "result_from_product",
    "check_run",
    "RunCheck",
]


@dataclass
class VerificationResult:
    """Verdict of :func:`verify_protocol`.

    ``confidence`` states honestly how strong the evidence is:
    ``"proof"`` (exhaustive product search), ``"refuted"`` (concrete
    counterexample), ``"inconclusive"`` (quiescence unreachable),
    ``"bounded"`` (truncated search, no violation), or a degradation
    trail such as ``"bounded+litmus+fuzz"`` from
    :func:`repro.harness.degrade`.
    """

    protocol: str
    sequentially_consistent: bool
    complete: bool  #: False when caps/budgets truncated the search
    counterexample: Optional[Counterexample]
    stats: ExplorationStats
    non_quiescible: int = 0
    confidence: str = "proof"
    #: consistency model the verdict is about (``sequentially_consistent``
    #: keeps its historical name; for other models read it as
    #: "consistent under the model")
    model: str = "sc"
    #: set by the harness when a ``--ledger`` recorded this run: the
    #: search-provenance content hash, and how many identical runs the
    #: ledger already held (the dedup signal)
    ledger_hash: Optional[str] = None
    ledger_prior: Optional[int] = None

    @property
    def verdict(self) -> str:
        if self.counterexample is not None:
            return f"NOT {self.model.upper()} (counterexample found)"
        if self.non_quiescible:
            return "INCONCLUSIVE (quiescence unreachable from some states)"
        if not self.complete:
            return "NO VIOLATION (bounded search)"
        if self.model == "sc":
            return "SEQUENTIALLY CONSISTENT (in Γ)"
        return f"CONSISTENT (model={self.model})"

    def summary(self) -> str:
        s = self.stats
        text = (
            f"{self.protocol}: {self.verdict} — {s.states} joint states, "
            f"{s.transitions} transitions, {s.quiescent_states} quiescent, "
            f"max {s.max_live_nodes} live graph nodes "
            f"({s.max_descriptor_ids} descriptor IDs)"
        )
        if s.stop_reason is not None:
            text += f" [stopped: {s.stop_reason}]"
        if not self.complete and self.confidence not in ("proof", "refuted"):
            text += f" [confidence: {self.confidence}]"
        return text

    def __str__(self) -> str:
        return self.summary()


def _confidence_of(res: ProductResult) -> str:
    if res.counterexample is not None:
        return "refuted"
    if res.non_quiescible:
        return "inconclusive"
    if res.stats.truncated:
        return "bounded"
    return "proof"


def result_from_product(
    protocol: Protocol, res: ProductResult, model: str = "sc"
) -> VerificationResult:
    """Lift a raw :class:`ProductResult` into the user-facing verdict
    (shared by :func:`verify_protocol` and the budgeted harness)."""
    return VerificationResult(
        protocol=protocol.describe(),
        sequentially_consistent=res.ok,
        complete=not res.stats.truncated,
        counterexample=res.counterexample,
        stats=res.stats,
        non_quiescible=res.non_quiescible,
        confidence=_confidence_of(res),
        model=model,
    )


def verify_protocol(
    protocol: Protocol,
    st_order: Optional[STOrderGenerator] = None,
    *,
    mode: str = "fast",
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    should_stop=None,
    reduce: str = "off",
    model: str = "sc",
    preemptions: Optional[int] = None,
    por: str = "off",
    telemetry=None,
) -> VerificationResult:
    """Model-check sequential consistency of ``protocol``.

    Uses the real-time ST order generator (the ``|G| = 0`` case that
    all implemented protocols satisfy) unless ``st_order`` is given.
    With no caps, termination is guaranteed because the joint state
    space is finite for protocols in Γ; caps turn the run into a
    bounded search with a correspondingly weaker verdict.

    ``mode="fast"`` (default) checks the protocol-dependent conditions
    only (acyclicity + tracking consistency), relying on Theorem 4.1
    for the structural constraints the observer guarantees by
    construction; ``mode="full"`` carries the paper's complete
    protocol-independent checker through the product — same verdicts,
    far more joint states (see
    :func:`repro.modelcheck.product.explore_product`).

    ``should_stop(stats)`` is a cooperative budget hook (see
    :class:`repro.harness.Budget`): returning a reason string halts
    the search with an honest ``bounded`` confidence instead of a
    proof.  For a *resumable* budgeted run, use
    :func:`repro.harness.run_verification` instead.

    ``reduce`` selects the symmetry-reduction level (``"off"``,
    ``"proc"``, ``"proc+block"``, ``"full"``; see
    :mod:`repro.engine.reduction`): joint states are interned under
    the minimum key over their orbit, so symmetric configurations
    explore a quotient of the state space with the same verdict and
    concrete (un-permuted) counterexamples.  Only protocols declaring
    a :meth:`~repro.core.protocol.Protocol.symmetry_spec` support it.

    ``model`` selects the consistency condition to check (``"sc"`` —
    the default, and everything this docstring says about Γ — or
    ``"causal"``; see :mod:`repro.models` and ``docs/MODELS.md``).
    ``preemptions`` (SC only) restricts the search to runs with at
    most that many context switches — an under-approximation whose
    violations are real but whose clean verdict is only
    ``bounded(...)`` confidence, never a proof.

    ``por`` (``"off"``/``"on"``) turns on partial-order reduction
    (see :mod:`repro.engine.por`): states where a provably-commuting,
    witness-invisible *ample* subset of the enabled actions exists are
    expanded through that subset only, deferring the independent rest.
    The verdict, counterexample replays and the canonically reported
    violation are unchanged; explored-state counts shrink (or stay
    identical for protocols/configurations with no commuting pairs —
    including any protocol that declares no
    :meth:`~repro.core.protocol.Protocol.por_spec`, for which POR
    degrades to the exact unreduced search).  SC only for now
    (:class:`~repro.models.ModelError` otherwise).

    ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) records
    run traces, metrics and live progress for this verification; the
    verdict is unaffected (see ``docs/OBSERVABILITY.md``).
    """
    if telemetry is not None:
        extra = {} if preemptions is None else {"preemptions": preemptions}
        telemetry.start_run(
            protocol=protocol.describe(), mode=mode,
            reduce=reduce, model=model, por=por, **extra,
        )
    res: ProductResult = explore_product(
        protocol,
        st_order,
        mode=mode,
        max_states=max_states,
        max_depth=max_depth,
        should_stop=should_stop,
        reduce=reduce,
        model=model,
        preemptions=preemptions,
        por=por,
        telemetry=telemetry,
    )
    result = result_from_product(protocol, res, model=model)
    if preemptions is not None and result.counterexample is None:
        # a clean bounded search proves nothing beyond the <=K-switch
        # slice of the run tree: never a proof
        result.complete = False
        result.confidence = f"bounded(preemptions<={preemptions})"
    if telemetry is not None:
        telemetry.finish_run(
            verdict=result.verdict,
            states=res.stats.states,
            stats=res.stats.as_dict(),
        )
    return result


@dataclass
class RunCheck:
    """Verdict of :func:`check_run` on one concrete run."""

    ok: bool
    reason: Optional[str]
    symbols: Tuple[Symbol, ...]
    quiescent_end: bool

    @property
    def verdict(self) -> str:
        if self.ok:
            return "run consistent" + ("" if self.quiescent_end else " (non-quiescent end; partial check)")
        return f"violation: {self.reason}"


def _checker_reason(checker) -> str:
    violations = checker.violations()
    return violations[0] if violations else "constraint-graph cycle"


def check_run(
    protocol: Protocol,
    run: Iterable[Action],
    st_order: Optional[STOrderGenerator] = None,
    model: str = "sc",
) -> RunCheck:
    """Check a single run (the testing scenario of Section 5).

    Replays ``run`` on the protocol, streams the observer's witness
    descriptor into the checker, and evaluates end conditions if the
    run ends quiescent (for a non-quiescent end, only the eager safety
    checks apply — serialisation obligations may legitimately still be
    open).  ``model`` selects the consistency condition (default SC,
    judged by the complete checker; other models use their strongest
    supported mode, with the observer self-check standing in for the
    annotation constraints).
    """
    from ..models import get_model

    m = get_model(model)
    replay_mode = "full" if "full" in m.modes else "fast"
    observer = m.make_observer(
        protocol, st_order, self_check=replay_mode == "fast"
    )
    checker = m.make_checker(replay_mode)
    state = protocol.initial_state()
    symbols: List[Symbol] = []
    for i, action in enumerate(run):
        for t in protocol.transitions(state):
            if t.action == action:
                break
        else:
            raise ValueError(f"action #{i} ({action!r}) is not enabled — not a run")
        syms = observer.on_transition(t)
        symbols.extend(syms)
        if not checker.feed_all(syms) or observer.violation is not None:
            reason = observer.violation or _checker_reason(checker)
            return RunCheck(False, reason, tuple(symbols), False)
        state = t.state
    quiescent = protocol.is_quiescent(state)
    if quiescent and not checker.accepts_at_end():
        return RunCheck(False, _checker_reason(checker), tuple(symbols), True)
    return RunCheck(True, None, tuple(symbols), quiescent)
