"""The unified telemetry layer: metrics, traces, progress, forensics.

Observability for the verification pipeline:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`: low-overhead
  counters, gauges and monotonic-clock timers/spans, snapshot-able
  and diffable; spans nest into a ``/``-pathed hierarchy
  rendered by :func:`format_span_tree`;
* :mod:`repro.obs.trace` — :class:`TraceWriter`: structured JSONL run
  traces (run lifecycle, heartbeats, degrade steps, checkpoints, fault activations, violations, spans) behind a
  pluggable sink, schema-validated on read;
* :mod:`repro.obs.progress` — :class:`ProgressReporter`: a live
  states/sec + frontier + budget-burn heartbeat on stderr;
* :mod:`repro.obs.flight` — :class:`FlightRecorder`: a bounded ring
  of the latest trace events, dumped as ``<run>.flight.jsonl`` only
  when a run fails (violation, crash, signal);
* :mod:`repro.obs.bench` — the ``BENCH_verification.json`` format,
  trace summaries and the states/sec CI regression gate;
* :mod:`repro.obs.report` — self-contained markdown/HTML run reports
  and benchmark trend tables (``repro report``).

:class:`Telemetry` bundles registry, trace, progress and flight behind
one optional handle threaded through every pipeline entry point;
``telemetry=None`` (the default) keeps every hot path free of
telemetry calls — the **zero-cost-off contract** (see
``docs/OBSERVABILITY.md``).

This package also owns :class:`ExplorationStats`, the per-search
counter dataclass.
"""

from .flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder
from .metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    format_span_tree,
    span_tree_rows,
)
from .progress import ProgressReporter
from .stats import ExplorationStats
from .telemetry import Telemetry
from .trace import EVENT_SCHEMA, TraceError, TraceWriter, read_trace, validate_trace_line

__all__ = [
    "DEFAULT_FLIGHT_CAPACITY",
    "EVENT_SCHEMA",
    "ExplorationStats",
    "FlightRecorder",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ProgressReporter",
    "Telemetry",
    "TraceError",
    "TraceWriter",
    "format_span_tree",
    "read_trace",
    "span_tree_rows",
    "validate_trace_line",
]
