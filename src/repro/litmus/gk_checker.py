"""Per-run SC checking — the "testing scenario" of Section 5.

The paper notes the observer/checker pair also works as a *runtime
checker*: simulate a protocol too large to model-check, stream each
run through the observer and checker, and flag any run whose witness
graph is not an acyclic constraint graph.  The per-run check is
:func:`~repro.core.verify.check_run` (linear in the run length; this is
the method under benchmark); this module packages the campaign around
it:

* :func:`fuzz_protocol` — randomised testing campaign: many random
  quiescent-ended runs, each checked streaming, with optional
  cross-checking of the trace against the exponential baselines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.operations import Run, Trace, trace_of_run
from ..core.protocol import Protocol, random_run
from ..core.storder import STOrderGenerator
from ..core.verify import check_run
from .bruteforce import check_trace_bruteforce

__all__ = ["FuzzReport", "fuzz_protocol"]


@dataclass
class FuzzReport:
    """Result of a randomised per-run testing campaign.

    Cross-checking compares the streaming verdict with the brute-force
    SC oracle on the trace.  The two can legitimately differ in one
    direction: the streaming check is relative to the protocol's own
    serialisation order (its ST-order generator), so on a *non-SC*
    protocol it may reject a run whose trace happens to be SC under a
    different store order (``conservative_rejections``).  The other
    direction — streaming accepts but the trace is not SC — would be
    a soundness bug and is recorded in ``unsound_accepts``.
    """

    runs: int = 0
    trace_ops: int = 0
    violations: List[Tuple[Run, str]] = field(default_factory=list)
    cross_checked: int = 0
    unsound_accepts: List[Trace] = field(default_factory=list)
    conservative_rejections: List[Trace] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unsound_accepts

    def summary(self) -> str:
        return (
            f"{self.runs} runs, {self.trace_ops} trace ops, "
            f"{len(self.violations)} violations, "
            f"{self.cross_checked} cross-checked "
            f"({len(self.unsound_accepts)} unsound accepts, "
            f"{len(self.conservative_rejections)} conservative rejections)"
        )


def fuzz_protocol(
    protocol: Protocol,
    *,
    runs: int = 100,
    length: int = 30,
    seed: int = 0,
    st_order: Optional[STOrderGenerator] = None,
    cross_check_max_ops: int = 0,
) -> FuzzReport:
    """Randomised Section 5 testing.

    Generates ``runs`` random runs of about ``length`` actions
    (extended to a quiescent end), checks each with the streaming
    observer/checker, and — for runs whose trace has at most
    ``cross_check_max_ops`` operations — cross-checks the verdict
    against the brute-force interleaving oracle.
    """
    rng = random.Random(seed)
    report = FuzzReport()
    for _ in range(runs):
        run = random_run(protocol, length, rng, end_quiescent=True)
        report.runs += 1
        trace = trace_of_run(run)
        report.trace_ops += len(trace)
        fresh = st_order.copy() if st_order is not None else None
        verdict = check_run(protocol, run, fresh)
        if not verdict.ok:
            report.violations.append((run, verdict.reason or "rejected"))
        if cross_check_max_ops and len(trace) <= cross_check_max_ops:
            report.cross_checked += 1
            oracle = check_trace_bruteforce(trace)
            if verdict.ok and not oracle:
                report.unsound_accepts.append(trace)
            elif not verdict.ok and oracle:
                report.conservative_rejections.append(trace)
    return report
