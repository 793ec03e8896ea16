"""Product exploration: protocol × observer × checker.

This is the model-checking step of Figure 2: a search over joint
states ``(protocol state, observer state, checker state)``.  The
observer emits descriptor symbols for each protocol transition; the
checker consumes them.  The search reports the first reachable
violation — either an eager safety rejection (a cycle, a malformed
edge) or an end-of-string failure at a *quiescent* protocol state —
as a :class:`~repro.modelcheck.counterexample.Counterexample`.

End checks only at quiescent states are justified by prefix closure:
the constraint graph of any run prefix embeds into the graph of a
quiescent extension (every added STo/forced edge is implied by a path
there), so acyclicity and validity at quiescent states imply a serial
reordering for every prefix trace.  For this to cover all behaviour,
quiescence must be reachable from every state — which
:func:`explore_product` verifies on the explored graph.

Since the unified-engine refactor this module is a thin adapter: the
composition lives in :class:`repro.engine.ComposedSystem`, and the
search itself — interned state store, frontier strategy, caps, the
cooperative ``should_stop`` hook, the snapshot/restore pair behind
checkpoints — in :class:`repro.engine.SearchEngine`.
:class:`ProductSearch` keeps its historical surface: a resumable
object whose ``run`` can be halted by a budget hook
(:mod:`repro.harness.budget`) mid-frontier, checkpointed as a data
record (:mod:`repro.harness.checkpoint`) and continued exactly where
it stopped.  :func:`explore_product` remains the one-shot functional
entry point.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.operations import Action
from ..core.protocol import Protocol
from ..core.storder import STOrderGenerator
from ..engine import ComposedSystem, SearchEngine
from ..engine.intern import as_config
from ..engine.strategy import StopHook
from ..obs.stats import ExplorationStats
from .counterexample import Counterexample

__all__ = ["ProductResult", "ProductSearch", "explore_product"]

#: reusable no-op context for un-instrumented spans
_NULL_CTX = contextlib.nullcontext()


@dataclass
class ProductResult:
    """Outcome of a product exploration."""

    ok: bool
    counterexample: Optional[Counterexample]
    stats: ExplorationStats
    #: joint states from which no quiescent state is reachable (empty
    #: when verification is complete); non-empty makes ``ok`` False
    #: unless the protocol genuinely never quiesces from there
    non_quiescible: int = 0

    @property
    def verdict(self) -> str:
        if self.ok:
            return "VERIFIED (bounded)" if self.stats.truncated else "VERIFIED"
        if self.counterexample is not None:
            return "VIOLATION"
        return "INCOMPLETE"


def _replay(
    protocol: Protocol,
    st_order: Optional[STOrderGenerator],
    actions: List[Action],
    model,
) -> Tuple[Tuple, str]:
    """Re-execute a run to recover the emitted symbols and the first
    checker violation message, judged under ``model`` (with the
    strongest checker the model supports)."""
    observer = model.make_observer(protocol, st_order, self_check=True)
    checker = model.make_checker("full" if "full" in model.modes else "fast")
    state = protocol.initial_state()
    symbols = []
    for action in actions:
        for t in protocol.transitions(state):
            if t.action == action:
                break
        else:  # pragma: no cover - internal invariant
            raise AssertionError("counterexample replay diverged")
        symbols.extend(observer.on_transition(t))
        state = t.state
    checker.feed_all(symbols)
    violations = checker.violations()
    if observer.violation is not None:
        violations.insert(0, observer.violation)
    reason = violations[0] if violations else "checker rejected"
    return tuple(symbols), reason


class ProductSearch:
    """Resumable search over the verification product.

    Construct, then call :meth:`run` — repeatedly, if a ``should_stop``
    hook halts it.  Between calls the underlying engine holds the full
    frontier, interned-state store and parent pointers; a checkpoint
    records the constructor arguments plus
    :meth:`~repro.engine.SearchEngine.snapshot`, and resumes in another
    process by calling this constructor again and restoring the
    snapshot into the fresh engine.

    ``st_order`` is a *template* generator — it is copied for the
    initial observer (``None`` = real-time ST order).  Caps make the
    result a bounded (testing-grade) verdict rather than a proof.
    ``strategy`` picks the frontier policy (``"bfs"`` — the default,
    and the only one that yields shortest counterexamples — ``"dfs"``
    or ``"random-walk"``; see :mod:`repro.engine.strategy`).

    ``stop_on_violation=False`` selects the exhaustive discipline,
    where every violating state is recorded and the canonical one
    reported.

    ``mode`` selects the checking depth:

    * ``"full"`` — the literal Figure 2 pipeline: the complete
      protocol-independent checker (cycle + all five edge-annotation
      constraints) rides along in the product.  Exactly the paper, but
      the checker's window state multiplies the joint state space.
    * ``"fast"`` — exploits Theorem 4.1: the observer's output
      satisfies the structural constraints (2, 3, 5 and the edge shape
      of 4) *by construction* (a property the test suite verifies
      against the full checker on both exhaustive and random runs), so
      only the protocol-dependent checks ride along: acyclicity
      (CycleChecker) and value/block agreement of inheritance
      (observer self-check).  Same verdicts, far fewer joint states.
    """

    def __init__(
        self,
        protocol: Protocol,
        st_order: Optional[STOrderGenerator] = None,
        *,
        mode: str = "full",
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        check_quiescence_reachability: bool = True,
        canonical_ids: bool = True,
        eager_free: bool = True,
        unpin_heads: bool = True,
        strategy: str = "bfs",
        seed: int = 0,
        stop_on_violation: bool = True,
        reduce: str = "off",
        model: str = "sc",
        preemptions: Optional[int] = None,
        por: str = "off",
        store=None,
    ):
        self.protocol = protocol
        self.st_order = st_order
        self.mode = mode
        self.max_states = max_states
        self.max_depth = max_depth
        self.canonical_ids = canonical_ids
        self.eager_free = eager_free
        self.unpin_heads = unpin_heads
        self.reduce = reduce
        self.por = por
        self.strategy = strategy
        self.seed = seed
        self.stop_on_violation = stop_on_violation
        # run policy: which backend interns the state keys — never
        # search provenance
        self.store_config = as_config(store)
        self.system = ComposedSystem(
            protocol,
            st_order,
            mode=mode,
            canonical_ids=canonical_ids,
            eager_free=eager_free,
            unpin_heads=unpin_heads,
            reduce=reduce,
            model=model,
            preemptions=preemptions,
            por=por,
        )
        self.model = self.system.model
        self.model_name = self.model.name
        self.preemptions = preemptions
        if self.model.bounded:
            # budget-exhausted states whose drain needs another context
            # cannot reach quiescence; the side condition would flag
            # every such state, so it is meaningless under a bound
            check_quiescence_reachability = False
        self.check_quiescence_reachability = check_quiescence_reachability
        self.engine = SearchEngine(
            self.system,
            strategy=strategy,
            seed=seed,
            max_states=max_states,
            max_depth=max_depth,
            strict_cap=False,
            stop_on_violation=stop_on_violation,
            track_successors=True,
            check_quiescence_reachability=check_quiescence_reachability,
            store=self.store_config,
        )
        self.stats = self.engine.stats

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """The search reached a final verdict (no further ``run``
        changes it)."""
        return self.engine.done

    def _record_reduction(self, telemetry) -> None:
        """Publish ``reduction.*`` gauges for this run, if reducing."""
        red = self.system.reduction
        if telemetry is not None and red is not None:
            telemetry.record_reduction(red)

    def _record_por(self, telemetry) -> None:
        """Publish ``por.*`` gauges for this run, if reducing."""
        sel = self.system.por_selector
        if telemetry is not None and sel is not None:
            telemetry.record_por(sel)

    def _record_store(self, telemetry) -> None:
        """Publish ``store.*`` gauges for this run."""
        if telemetry is not None:
            telemetry.record_store(self.engine.store.store_stats())

    def _build_cx(self, sid: int) -> Counterexample:
        """Walk the parent pointers of the violating state ``sid`` back
        to the root and replay the run."""
        actions = self.engine.store.path_to(sid)
        symbols, reason = _replay(self.protocol, self.st_order, actions, self.model)
        return Counterexample(tuple(actions), symbols, reason)

    def run(
        self, should_stop: Optional[StopHook] = None, telemetry=None
    ) -> ProductResult:
        """Continue the search until a verdict or a cooperative stop.

        Returns the final :class:`ProductResult` when the state space
        is exhausted (or a violation / cap ends the search); when
        ``should_stop`` halts it, the result is a *partial* one —
        ``ok`` so far, ``stats.truncated`` with ``stats.stop_reason``
        set — and the search stays resumable.

        ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) is
        threaded into the engine — heartbeats while searching, a
        ``violation_found`` trace event and the final search gauges
        here.  It is *not* stored on the search object,
        so checkpoints never capture telemetry handles.
        """
        with (telemetry.span("phase.search") if telemetry is not None
              else _NULL_CTX):
            out = self.engine.run(should_stop, telemetry)
        if telemetry is not None:
            telemetry.record_search(out.stats)
            self._record_reduction(telemetry)
            self._record_por(telemetry)
            self._record_store(telemetry)
        if out.status == "violation":
            assert out.violating is not None
            with (telemetry.span("phase.replay") if telemetry is not None
                  else _NULL_CTX):
                cx = self._build_cx(out.violating)
            if telemetry is not None:
                telemetry.emit(
                    "violation_found",
                    states=out.stats.states,
                    reason=cx.reason,
                    cx_len=len(cx.run),
                    violations=len(out.violations),
                )
            return ProductResult(False, cx, out.stats)
        if out.status == "stopped":
            return ProductResult(True, None, out.stats)
        return ProductResult(
            out.non_quiescible == 0, None, out.stats, out.non_quiescible
        )


def explore_product(
    protocol: Protocol,
    st_order: Optional[STOrderGenerator] = None,
    *,
    mode: str = "full",
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    check_quiescence_reachability: bool = True,
    canonical_ids: bool = True,
    eager_free: bool = True,
    unpin_heads: bool = True,
    strategy: str = "bfs",
    seed: int = 0,
    stop_on_violation: bool = True,
    reduce: str = "off",
    model: str = "sc",
    preemptions: Optional[int] = None,
    por: str = "off",
    store=None,
    should_stop: Optional[StopHook] = None,
    telemetry=None,
) -> ProductResult:
    """Run the verification search in one shot (see
    :class:`ProductSearch` for the knobs and resumable form).  ``telemetry``
    (a :class:`repro.obs.Telemetry`) turns on traces/metrics/progress
    for this run."""
    search = ProductSearch(
        protocol,
        st_order,
        mode=mode,
        max_states=max_states,
        max_depth=max_depth,
        check_quiescence_reachability=check_quiescence_reachability,
        canonical_ids=canonical_ids,
        eager_free=eager_free,
        unpin_heads=unpin_heads,
        strategy=strategy,
        seed=seed,
        stop_on_violation=stop_on_violation,
        reduce=reduce,
        model=model,
        preemptions=preemptions,
        por=por,
        store=store,
    )
    return search.run(should_stop, telemetry)
