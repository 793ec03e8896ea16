"""The benchmark file format and trace summaries.

This module owns the ``BENCH_verification.json`` format.  Its one
writer is ``benchmarks/record_verification.py``: :func:`build_record`
/ :func:`write_record` produce the whole file (baseline, current,
speedups and the reduction/POR/store sections).

:func:`check_states_per_sec` is the CI gate: it compares a run's
states/sec against the checked-in baseline for the same workload and
reports a regression beyond tolerance (timing-derived, so the
tolerance is a *tripwire* for gross regressions, not a precision
benchmark — see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .metrics import MetricsSnapshot
from .trace import TraceError, read_trace

__all__ = [
    "RunSummary",
    "summarize_trace",
    "load_summary",
    "build_record",
    "write_record",
    "check_states_per_sec",
]


# ----------------------------------------------------------------------
# trace summaries
# ----------------------------------------------------------------------


@dataclass
class RunSummary:
    """What ``repro metrics`` knows about one run."""

    verdict: str
    states: int
    elapsed_s: float
    protocol: Optional[str] = None
    reduce: Optional[str] = None  #: symmetry-reduction level of the run
    por: Optional[str] = None  #: partial-order-reduction level of the run
    snapshot: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    stats: Dict[str, object] = field(default_factory=dict)
    events: int = 0
    complete: bool = True  #: False when reconstructed from a partial trace
    #: whether a full metrics snapshot was actually present (a trace
    #: with no ``metrics`` event keeps the default empty snapshot, and
    #: ``repro metrics A B`` refuses to diff it)
    has_snapshot: bool = False

    @property
    def states_per_sec(self) -> Optional[float]:
        if self.elapsed_s <= 0:
            return None
        return self.states / self.elapsed_s

    def format(self) -> str:
        head = [
            f"run: {self.protocol or '(unknown protocol)'}"
            + (
                f"  reduce={self.reduce}"
                if self.reduce and self.reduce != "off"
                else ""
            )
            + (f"  por={self.por}" if self.por and self.por != "off" else ""),
            f"verdict: {self.verdict}"
            + ("" if self.complete else "  (partial trace — run did not finish)"),
            f"states: {self.states}  elapsed: {self.elapsed_s:.3f}s"
            + (
                f"  ({self.states_per_sec:.0f} states/s)"
                if self.states_per_sec is not None
                else ""
            ),
        ]
        parts = ["\n".join(head)]
        snap_text = self.snapshot.format(title="Metrics snapshot")
        if "(empty)" not in snap_text:
            parts.append(snap_text)
        return "\n\n".join(parts)


def summarize_trace(events: List[dict]) -> RunSummary:
    """Fold a validated event list into a :class:`RunSummary`.

    A complete trace ends with ``run_end`` (and usually ``metrics``);
    a partial one — the run crashed or is still going — is summarised
    from its last heartbeat instead, flagged ``complete=False``.
    """
    summary = RunSummary(verdict="(no events)", states=0, elapsed_s=0.0, complete=False)
    summary.events = len(events)
    for ev in events:
        kind = ev["ev"]
        if kind == "run_start":
            summary.protocol = ev.get("protocol")
            summary.reduce = ev.get("reduce")
            summary.por = ev.get("por")
        elif kind == "heartbeat":
            summary.verdict = "(in progress)"
            summary.states = ev.get("states", summary.states)
            summary.elapsed_s = ev.get("elapsed_s", summary.elapsed_s)
            summary.complete = False
        elif kind == "metrics":
            summary.snapshot = MetricsSnapshot.from_dict(ev["snapshot"])
            summary.has_snapshot = True
        elif kind == "run_end":
            summary.verdict = ev["verdict"]
            summary.states = ev["states"]
            summary.elapsed_s = ev["elapsed_s"]
            summary.stats = ev.get("stats", {})
            summary.complete = True
    return summary


def load_summary(path: str) -> RunSummary:
    """Load a run summary from a trace JSONL *or* a bare metrics
    snapshot JSON file (``{"counters": ..., ...}``).

    A trace whose *final* line is torn (the run crashed mid-write) is
    summarised from its complete prefix — necessarily as a partial run
    (``complete`` only comes from a ``run_end`` event, which a torn
    tail cannot be)."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict) and "ev" not in obj:
            snap = MetricsSnapshot.from_dict(obj)
            return RunSummary(
                verdict=str(obj.get("verdict", "(snapshot)")),
                states=int(obj.get("gauges", {}).get("search.states", 0)),
                elapsed_s=float(obj.get("elapsed_s", 0.0)),
                snapshot=snap,
                has_snapshot=True,
            )
    return summarize_trace(
        read_trace(text.splitlines(keepends=True), allow_torn_tail=True)
    )


# ----------------------------------------------------------------------
# BENCH_verification.json
# ----------------------------------------------------------------------


def build_record(
    *,
    current: Dict[str, dict],
    baseline: Dict[str, dict],
    baseline_note: str,
    rounds: int,
    previous: Optional[dict] = None,
    reduction: Optional[Dict[str, dict]] = None,
    por: Optional[Dict[str, dict]] = None,
    store: Optional[Dict[str, dict]] = None,
) -> dict:
    """Assemble the full benchmark record (the trajectory file).

    ``current``/``baseline`` map workload name to
    ``{"seconds", "states"}``; ``reduction`` maps workload name to
    the ``--reduce off`` vs reduced-level comparison, ``por`` to the
    ``--por off`` vs ``--por on`` comparison, and ``store`` to the
    ``--store mem`` vs ``--store disk`` capacity comparison (``None``
    carries any previous section forward).
    """
    record = {
        "benchmark": "E-verify representative verification wall time",
        "rounds": rounds,
        "policy": "best-of-N wall seconds per workload",
        "baseline": {"note": baseline_note, "workloads": baseline},
        "current": {"workloads": current},
        "speedup": {},
    }
    if reduction is None and previous:
        reduction = previous.get("reduction", {}).get("workloads")
    if reduction:
        record["reduction"] = {
            "note": (
                "symmetry reduction (--reduce) on the acceptance workload: "
                "identical verdict on the quotient state space. state_gain "
                "is unreduced/reduced interned states (deterministic); "
                "speedup is wall-clock and machine-dependent."
            ),
            "workloads": reduction,
        }
    if por is None and previous:
        por = previous.get("por", {}).get("workloads")
    if por:
        record["por"] = {
            "note": (
                "partial-order reduction (--por) on representative "
                "workloads: identical verdict and counterexample on the "
                "ample-set-pruned state space. state_gain is full/reduced "
                "explored states (deterministic per config); a gain of "
                "1.0 means the protocol's independence structure admits "
                "no deferral at that size (e.g. any single-block snoopy "
                "instance)."
            ),
            "workloads": por,
        }
    if store is None and previous:
        store = previous.get("store", {}).get("workloads")
    if store:
        record["store"] = {
            "note": (
                "state-store backends (--store) on the capacity workload: "
                "verdict and state count asserted bit-identical between "
                "mem and disk while the disk run's resident budget sits "
                "far below the closure's footprint. states_per_sec and "
                "peak_rss_kb are wall-clock/machine figures; "
                "resident_keys/spilled_keys are reproducible per config."
            ),
            "workloads": store,
        }
    for name, cur in current.items():
        base = baseline.get(name)
        if base and base.get("seconds"):
            record["speedup"][name] = round(base["seconds"] / cur["seconds"], 3)
    return record


def write_record(path: Union[str, Path], record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=2) + "\n")


# ----------------------------------------------------------------------
# the CI regression gate
# ----------------------------------------------------------------------


def check_states_per_sec(
    bench_path: Union[str, Path],
    workload: str,
    summary: RunSummary,
    *,
    max_regression: float = 0.05,
) -> Tuple[bool, str]:
    """Compare a run's states/sec against the checked-in baseline.

    The baseline is ``current.workloads[workload]`` in the benchmark
    file (states/seconds).  Returns ``(ok, message)``: not-ok when the
    run's throughput fell more than ``max_regression`` below baseline.
    State-count mismatches (the workload isn't actually the same
    search) are also not-ok — a "fast" run that explored fewer states
    is not faster.
    """
    path = Path(bench_path)
    if not path.exists():
        raise TraceError(f"benchmark file {bench_path!r} does not exist")
    record = json.loads(path.read_text())
    entry = record.get("current", {}).get("workloads", {}).get(workload)
    if not entry or not entry.get("seconds"):
        raise TraceError(
            f"workload {workload!r} has no baseline in {bench_path!r} "
            f"(known: {', '.join(sorted(record.get('current', {}).get('workloads', {})))})"
        )
    if not summary.complete:
        return False, "trace is partial (no run_end event): cannot judge throughput"
    base_sps = entry["states"] / entry["seconds"]
    run_sps = summary.states_per_sec
    if run_sps is None:
        return False, "run reports zero elapsed time"
    if summary.states != entry["states"]:
        return False, (
            f"state-count mismatch: run explored {summary.states} states, "
            f"baseline workload {workload!r} explores {entry['states']} — "
            f"not the same search"
        )
    ratio = run_sps / base_sps
    msg = (
        f"{workload}: {run_sps:.0f} states/s vs baseline {base_sps:.0f} states/s "
        f"({ratio:.2f}x)"
    )
    if ratio < 1.0 - max_regression:
        return False, msg + f" — REGRESSION beyond {max_regression:.0%}"
    return True, msg
