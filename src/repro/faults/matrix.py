"""The fault matrix: verify every (protocol × fault) pair and check
the checker's verdicts against the fault taxonomy's expectations.

This is the robustness test the companion model-checking paper insists
on: a verifier is only trustworthy if it provably *rejects* broken
protocols.  The matrix generalises the single hand-written
``BuggyMSIProtocol`` into dozens of adversarial variants — every
internal message class dropped or double-delivered, stale load hits,
skipped invalidations, corrupted tracking labels, perturbed ST-order
emission — and asserts:

* every unmodified protocol still verifies;
* every fault expected to break SC (or the witness property) produces
  a counterexample;
* no SC-preserving perturbation is ever refuted with a counterexample
  (at worst it degrades to an honest INCONCLUSIVE when the fault makes
  quiescence unreachable).

Budgets from :mod:`repro.harness` bound each pair's search; a pair
whose expectation could not be confirmed within the budget is reported
as unmet rather than silently skipped.

Each pair's search goes through :func:`~repro.core.verify.verify_protocol`
— an adapter over the unified :mod:`repro.engine` — so a
:class:`~repro.faults.wrapper.FaultyProtocol` rides the same
``Component``/``SearchEngine`` stack as every other protocol; this
module composes no search machinery of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.verify import VerificationResult, verify_protocol
from ..memory import NON_SC_PROTOCOLS, build_protocol
from ..util import format_table
from .spec import (
    EXPECT_NO_COUNTEREXAMPLE,
    EXPECT_REJECT,
    EXPECT_SC,
    FaultSpec,
    standard_faults,
)
from .wrapper import apply_faults

__all__ = ["MatrixEntry", "MatrixReport", "fault_matrix", "DEFAULT_MATRIX_PROTOCOLS"]

#: default protocol set: modest state spaces, every fault kind exercised
DEFAULT_MATRIX_PROTOCOLS = ("msi", "mesi", "write-through", "serial")

@dataclass(frozen=True)
class MatrixEntry:
    """One (protocol × fault) verification outcome."""

    protocol: str
    fault: str
    expect: str
    result: VerificationResult
    seconds: float

    @property
    def verdict(self) -> str:
        r = self.result
        if r.counterexample is not None:
            return "REJECTED"
        if r.non_quiescible:
            return "INCONCLUSIVE"
        if not r.complete:
            return "BOUNDED"
        return "VERIFIED"

    @property
    def met(self) -> bool:
        r = self.result
        if self.expect == EXPECT_REJECT:
            # the checker must actively refute the faulty system; a
            # budget-truncated search that found nothing does not count
            return not r.sequentially_consistent
        if self.expect == EXPECT_SC:
            if r.counterexample is not None:
                return False
            # bounded/no-violation is acceptable evidence, full proof ideal
            return r.sequentially_consistent or not r.complete
        assert self.expect == EXPECT_NO_COUNTEREXAMPLE
        return r.counterexample is None


@dataclass
class MatrixReport:
    """All matrix entries plus the overall pass/fail."""

    entries: List[MatrixEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.met for e in self.entries)

    @property
    def unmet(self) -> List[MatrixEntry]:
        return [e for e in self.entries if not e.met]

    def summary(self) -> str:
        rows = [
            (
                e.protocol,
                e.fault,
                e.expect,
                e.verdict,
                "yes" if e.met else "NO",
                e.result.stats.states,
                f"{e.seconds:.2f}s",
            )
            for e in self.entries
        ]
        table = format_table(
            ["protocol", "fault", "expect", "verdict", "met", "joint states", "time"],
            rows,
            title="Fault matrix",
        )
        n_met = sum(e.met for e in self.entries)
        return (
            f"{table}\n{n_met}/{len(self.entries)} expectations met"
            + ("" if self.ok else " — MATRIX FAILED")
        )


def fault_matrix(
    protocols: Optional[Sequence[str]] = None,
    *,
    mode: str = "fast",
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    should_stop=None,
    seed: int = 0,
    include_baseline: bool = True,
    faults_for: Optional[Callable[..., List[FaultSpec]]] = None,
    reduce: str = "off",
    por: str = "off",
    telemetry=None,
) -> MatrixReport:
    """Verify every (protocol × fault) pair.

    ``protocols`` are registry names (see :data:`repro.memory.PROTOCOLS`);
    defaults to :data:`DEFAULT_MATRIX_PROTOCOLS`.  ``should_stop`` is a
    cooperative budget hook shared across all pairs (each pair has its
    own stats, so a state budget applies per pair while a wall-clock
    budget is global).  ``faults_for`` overrides the fault battery
    (defaults to :func:`~repro.faults.spec.standard_faults`).
    ``reduce`` requests symmetry reduction per pair where the pair's
    protocol supports it: faults may target specific indices and
    reshape states, so a :class:`~repro.faults.wrapper.FaultyProtocol`
    declares no symmetry spec and such pairs silently run unreduced
    (``reduce`` then only accelerates the baselines) — the matrix
    verdict never depends on the reduction level.
    ``por`` requests partial-order reduction the same way: a
    :class:`~repro.faults.wrapper.FaultyProtocol` declares no POR spec
    (a fault can break a declared footprint), so faulted pairs run
    fully expanded and ``por`` only accelerates the baselines.
    ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) records a
    ``fault_activated`` trace event per pair plus each pair's full run
    trace.
    """
    names = list(protocols) if protocols else list(DEFAULT_MATRIX_PROTOCOLS)
    make_faults = faults_for or standard_faults
    report = MatrixReport()
    for name in names:
        proto, gen = build_protocol(name)
        jobs: List[Tuple[str, str, object, object]] = []
        if include_baseline:
            expect = EXPECT_REJECT if name in NON_SC_PROTOCOLS else EXPECT_SC
            jobs.append(("(none)", expect, proto, gen))
        for spec in make_faults(proto, gen, seed=seed):
            fproto, fgen = apply_faults(proto, gen, [spec])
            jobs.append((spec.name, spec.expect, fproto, fgen))
        for fault_name, expect, fproto, fgen in jobs:
            if telemetry is not None:
                telemetry.emit(
                    "fault_activated",
                    protocol=name,
                    fault=fault_name,
                    expect=expect,
                )
            t0 = time.perf_counter()
            pair_reduce = (
                reduce
                if reduce != "off" and fproto.symmetry_spec() is not None
                else "off"
            )
            pair_por = (
                por
                if por != "off" and fproto.por_spec() is not None
                else "off"
            )
            res = verify_protocol(
                fproto,
                fgen,
                mode=mode,
                max_states=max_states,
                max_depth=max_depth,
                should_stop=should_stop,
                reduce=pair_reduce,
                por=pair_por,
                telemetry=telemetry,
            )
            report.entries.append(MatrixEntry(
                protocol=name,
                fault=fault_name,
                expect=expect,
                result=res,
                seconds=time.perf_counter() - t0,
            ))
    return report
