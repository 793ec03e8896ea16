"""Graceful degradation: always return *some* honest verdict.

:func:`degrade` runs the fallback chain

1. **full product model-check** under ~60% of the wall budget — a
   proof (or a counterexample) if it finishes;
2. **bounded-depth model-check** — a *completed* depth-bounded search
   ("all runs of ≤ d actions are violation-free") is stronger evidence
   than an arbitrarily truncated frontier;
3. **litmus-corpus run** — every corpus program that fits the
   protocol's parameters, protocol outcomes compared against the SC
   outcome set;
4. **randomised fuzz** via :func:`repro.core.verify.check_run` until
   the budget runs dry.

Stages 3 and 4 each run at least one program / run, even when the
model checks spent the whole budget.

The returned :class:`~repro.core.verify.VerificationResult` never
lies: a full proof keeps ``confidence="proof"``, any concrete
violation (from whichever stage) is ``"refuted"`` with a
counterexample attached, and a budget-starved run reports the trail of
evidence actually gathered, e.g. ``"bounded(depth≤6)+litmus(2)+fuzz(180)"``.

Every rung rides the unified engine: stages 1–2 are
:class:`~repro.modelcheck.product.ProductSearch` runs (a
:class:`~repro.engine.SearchEngine` over the composed product), stage
3 the litmus adapter, and stage 4 per-run checking of engine-free
random walks — this module owns only the ladder policy.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..core.operations import Action
from ..core.protocol import Protocol, random_run
from ..core.storder import STOrderGenerator
from ..core.verify import VerificationResult, check_run, result_from_product
from ..modelcheck.counterexample import Counterexample
from ..modelcheck.product import ProductSearch
from .budget import Budget

__all__ = ["degrade"]


def _violation_result(
    protocol: Protocol,
    base: VerificationResult,
    run: Tuple[Action, ...],
    symbols,
    reason: str,
    confidence: str,
) -> VerificationResult:
    cx = Counterexample(tuple(run), tuple(symbols), reason)
    return VerificationResult(
        protocol=base.protocol,
        sequentially_consistent=False,
        complete=False,
        counterexample=cx,
        stats=base.stats,
        non_quiescible=base.non_quiescible,
        confidence=confidence,
    )


def degrade(
    protocol: Protocol,
    st_order: Optional[STOrderGenerator] = None,
    *,
    budget: Budget,
    mode: str = "fast",
    reduce: str = "off",
    por: str = "off",
    fuzz_length: int = 12,
    max_fuzz_runs: int = 2000,
    seed: int = 0,
    store=None,
    telemetry=None,
) -> VerificationResult:
    """Verify ``protocol`` within ``budget``, degrading gracefully.

    Never raises on resource exhaustion and never hangs (every stage
    is budget-polled; the litmus and fuzz rungs may overrun the wall
    budget by their first program / run); the result's ``confidence``
    field states which rung of the ladder produced the verdict.  ``reduce``, ``por`` and
    ``store`` configure the model-check rungs as in
    :class:`~repro.modelcheck.product.ProductSearch`, except that the
    depth-bounded rung runs without POR, which a depth bound makes
    incomplete.  The litmus/fuzz rungs check single runs, so none of
    the three applies there.  ``telemetry`` (a
    :class:`repro.obs.Telemetry`, optional) records the run's
    ``run_start`` / ``run_end`` events and a ``degrade_stage`` trace
    event as each rung is entered.
    """
    if telemetry is not None:
        telemetry.start_run(
            protocol=protocol.describe(), mode=mode, reduce=reduce, por=por,
            degrade=True,
        )
        if telemetry.progress is not None:
            telemetry.progress.budget = budget
    search = dict(mode=mode, reduce=reduce, por=por, store=store)
    budget.start()
    res = _degrade(
        protocol, st_order, budget, search, fuzz_length, max_fuzz_runs,
        seed, telemetry,
    )
    if telemetry is not None:
        telemetry.finish_run(
            verdict=res.verdict, states=res.stats.states,
            confidence=res.confidence,
        )
    return res


def _stage(telemetry, stage: str, **fields) -> None:
    if telemetry is not None:
        telemetry.emit("degrade_stage", stage=stage, **fields)


def _degrade(protocol, st_order, budget, search, fuzz_length, max_fuzz_runs,
             seed, telemetry):
    # stage 1: the real thing, under most of the budget -----------------
    stage1 = budget.slice(0.6)
    stage1.start()
    _stage(telemetry, "model-check")
    res = ProductSearch(protocol, st_order, **search).run(
        stage1.should_stop, telemetry
    )
    base = result_from_product(protocol, res)
    if res.counterexample is not None or not res.stats.truncated:
        return base  # proof, refutation, or genuine INCONCLUSIVE

    evidence: List[str] = ["bounded"]

    # stage 2: a *completed* bounded-depth model check ------------------
    reached = res.stats.max_depth
    depth = max(2, (2 * reached) // 3)
    if not budget.exhausted():
        stage2 = budget.slice(0.5)
        stage2.start()
        _stage(telemetry, "bounded-depth", depth=depth)
        # POR stays off here: an ample-set search may reach a state only
        # by a longer run than the full graph does, so under a depth
        # bound it would not cover every run of <= depth actions
        bounded = ProductSearch(
            protocol, st_order, max_depth=depth,
            check_quiescence_reachability=False, **dict(search, por="off"),
        ).run(stage2.should_stop, telemetry)
        if bounded.counterexample is not None:
            return result_from_product(protocol, bounded)
        if bounded.stats.stop_reason is None:
            # finished: every run of ≤ depth actions is violation-free
            evidence[-1] = f"bounded(depth≤{depth})"

    # stage 3: litmus corpus --------------------------------------------
    from ..litmus import CORPUS, outcomes_sc
    from ..litmus.runner import runs_for_outcome

    # the cheap rungs run at least one program / run each even when the
    # model checks spent the whole budget: a starved ladder then still
    # meets a bug those find at once, at the price of overrunning the
    # wall budget by one litmus program and one fuzz run
    _stage(telemetry, "litmus")
    ran = 0
    for prog in CORPUS:
        if ran and budget.exhausted():
            break
        if (
            prog.num_procs > protocol.p
            or prog.max_value > protocol.v
            or max(prog.blocks, default=1) > protocol.b
        ):
            continue
        witness = runs_for_outcome(protocol, prog)
        ran += 1
        sc = outcomes_sc(prog)
        for outcome, run in witness.items():
            if outcome not in sc:
                gen = st_order.copy() if st_order is not None else None
                verdict = check_run(protocol, run, gen)
                reason = verdict.reason or f"litmus {prog.name}: non-SC outcome {outcome}"
                return _violation_result(
                    protocol, base, run, verdict.symbols, reason, "litmus"
                )
    if ran:
        evidence.append(f"litmus({ran})")

    # stage 4: randomised per-run fuzzing -------------------------------
    _stage(telemetry, "fuzz")
    rng = random.Random(seed)
    runs = 0
    while runs < max_fuzz_runs and not (runs and budget.exhausted()):
        run = random_run(protocol, fuzz_length, rng, end_quiescent=True)
        gen = st_order.copy() if st_order is not None else None
        verdict = check_run(protocol, run, gen)
        runs += 1
        if not verdict.ok:
            return _violation_result(
                protocol, base, run, verdict.symbols,
                verdict.reason or "fuzz run rejected", "fuzz",
            )
    if runs:
        evidence.append(f"fuzz({runs})")

    return VerificationResult(
        protocol=base.protocol,
        sequentially_consistent=True,
        complete=False,
        counterexample=None,
        stats=base.stats,
        non_quiescible=0,
        confidence="+".join(evidence),
    )
