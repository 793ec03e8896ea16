"""The one handle instrumented code takes: registry + trace + progress.

A :class:`Telemetry` bundles the three optional sinks —
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.trace.TraceWriter`,
:class:`~repro.obs.progress.ProgressReporter` — behind cheap guarded
methods.  Every pipeline entry point accepts ``telemetry=None``;
``None`` (the default everywhere) means *no* telemetry call is ever
made on a hot path, which is the zero-overhead contract tier-1
timings rely on.

Telemetry is deliberately **not** stored on search engines or
``ProductSearch`` objects: a search outlives any one leg of a budgeted
run, and a telemetry handle (open file, stderr stream) belongs to the
leg.  It is threaded through ``run(...)`` calls instead, so a resumed
checkpoint attaches a fresh handle.
"""

from __future__ import annotations

import time
from typing import Optional

from .flight import FlightRecorder
from .metrics import MetricsRegistry
from .progress import ProgressReporter
from .stats import ExplorationStats
from .trace import TraceWriter

__all__ = ["Telemetry"]

#: default seconds between trace ``heartbeat`` events when no progress
#: reporter (whose interval then governs) is attached
DEFAULT_HEARTBEAT_S = 1.0


class Telemetry:
    """Optional registry, trace writer and progress reporter in one.

    All methods are safe no-ops for whichever sinks are absent; the
    caller's only obligation is to skip calls entirely when it holds
    ``None`` instead of a Telemetry (the zero-cost-off contract).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceWriter] = None,
        progress: Optional[ProgressReporter] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.registry = registry
        self.trace = trace
        self.progress = progress
        self.flight = flight
        self._t0 = time.perf_counter()
        self._hb_last = self._t0
        interval = progress.interval if progress is not None else DEFAULT_HEARTBEAT_S
        self._hb_interval = interval

    # ------------------------------------------------------------------
    def elapsed_s(self) -> float:
        return time.perf_counter() - self._t0

    def emit(self, ev: str, **fields) -> None:
        """Write a trace event to the trace log and/or the flight
        recorder ring (no-op when neither sink is attached)."""
        if self.trace is not None:
            self.trace.emit(ev, **fields)
        if self.flight is not None:
            self.flight.emit(ev, **fields)

    def span(self, name: str):
        """A *hierarchical* timer span: nests under any enclosing
        :meth:`span` in the same registry (the timer's name is the
        ``/``-joined path — see ``MetricsRegistry.span``) and, when a
        trace or flight sink is attached, emits a ``span`` event with
        the path and duration on exit.  Per-state engine timings never
        come through here — they use the registry directly — so the
        event stream stays coarse (phases)."""
        return _TelemetrySpan(self, name)

    # ------------------------------------------------------------------
    def heartbeat(
        self,
        stats: ExplorationStats,
        frontier: Optional[int] = None,
        force: bool = False,
    ) -> None:
        """Rate-limited progress line + trace ``heartbeat`` event.

        Driven from the engines' cooperative polling points; internal
        rate limiting keeps the cost of a non-due call to one clock
        read and a comparison.
        """
        now = time.perf_counter()
        if not force and now - self._hb_last < self._hb_interval:
            return
        self._hb_last = now
        if self.progress is not None:
            self.progress.tick(stats, frontier=frontier, force=True)
        if self.trace is not None or self.flight is not None:
            self.emit(
                "heartbeat",
                states=stats.states,
                transitions=stats.transitions,
                frontier=frontier if frontier is not None else stats.peak_frontier,
                elapsed_s=round(self.elapsed_s(), 6),
            )

    # ------------------------------------------------------------------
    def start_run(
        self,
        *,
        protocol: str,
        mode: str,
        strategy: str = "bfs",
        **extra,
    ) -> None:
        """Emit the ``run_start`` trace event (no-op without a trace)."""
        self.emit(
            "run_start",
            protocol=protocol,
            mode=mode,
            strategy=strategy,
            **extra,
        )

    def finish_run(self, *, verdict: str, states: int, **extra) -> None:
        """Emit the closing pair of trace events: a full ``metrics``
        snapshot (when a registry is attached) followed by ``run_end``.
        Extra keyword fields (``stats``, ``confidence``…) ride on
        ``run_end`` for ``repro metrics`` to summarise."""
        if self.trace is None and self.flight is None:
            return
        if self.registry is not None:
            self.emit("metrics", snapshot=self.registry.snapshot().as_dict())
        self.emit(
            "run_end",
            verdict=verdict,
            states=states,
            elapsed_s=round(self.elapsed_s(), 6),
            **extra,
        )

    # ------------------------------------------------------------------
    def record_search(self, stats: ExplorationStats) -> None:
        """Publish a finished (or paused) search's counters as gauges.

        By the engine's determinism contract the ``search.*`` gauges
        are identical across frontier strategies and store backends
        for completed searches (the differential suite compares them).
        """
        reg = self.registry
        if reg is None:
            return
        reg.gauge("search.states", stats.states)
        reg.gauge("search.transitions", stats.transitions)
        reg.gauge("search.quiescent", stats.quiescent_states)
        reg.gauge("search.interned", stats.interned_states)
        reg.gauge_max("search.peak_frontier", stats.peak_frontier)
        reg.gauge_max("search.max_depth", stats.max_depth)

    def record_reduction(self, reduction) -> None:
        """Publish a run's symmetry-reduction counters as
        ``reduction.*`` gauges (see :mod:`repro.engine.reduction`).

        ``orbit_hits`` counts the canonicalizations won by a
        non-identity group element (states that merged into another
        representative's orbit); ``canon_s`` is the wall-clock span
        spent in orbit minimization.  These are *not* part of the
        deterministic gauge contract: which representative of an orbit
        is reached first — and therefore how many canonicalizations
        are hits — depends on search order.
        """
        reg = self.registry
        if reg is None:
            return
        reg.gauge("reduction.level_group", reduction.group_size)
        reg.gauge("reduction.states", reduction.counters.states)
        reg.gauge("reduction.orbit_hits", reduction.counters.orbit_hits)
        reg.gauge("reduction.canon_s", round(reduction.counters.canon_s, 6))

    def record_por(self, selector) -> None:
        """Publish a run's partial-order-reduction counters as ``por.*``
        gauges (see :mod:`repro.engine.por`).

        ``ample_hits`` counts expansions that took a proper ample
        subset, ``deferred`` the steps those expansions skipped, and
        ``fallbacks`` the expansions that fell back to the full step
        set (no proper candidate, proviso failure, or a protocol with
        no POR declaration).  Like the reduction counters these are
        *not* part of the deterministic gauge contract: whether the
        C3 proviso passes depends on interning order.
        """
        reg = self.registry
        if reg is None:
            return
        reg.gauge("por.ample_hits", selector.counters.ample_hits)
        reg.gauge("por.deferred", selector.counters.deferred)
        reg.gauge("por.fallbacks", selector.counters.fallbacks)

    def record_store(self, stats) -> None:
        """Publish a run's state-store capacity counters as ``store.*``
        gauges (see :mod:`repro.engine.intern`); ``stats`` is the
        store's ``store_stats()`` dict.

        Determinism: ``store.resident_keys``/``spilled_keys`` are
        deterministic for a fixed run *policy* (backend, budget) but —
        unlike the ``search.*`` gauges — change with it, so they are
        not part of the deterministic gauge contract.  ``store.io_s``
        is wall-clock and never comparable.
        """
        reg = self.registry
        if reg is None:
            return
        reg.gauge("store.resident_keys", stats["resident_keys"])
        reg.gauge("store.spilled_keys", stats["spilled_keys"])
        reg.gauge("store.spill_bytes", stats["spill_bytes"])
        lookups = stats["lookups"]
        reg.gauge(
            "store.index_probe_avg",
            round(stats["probes"] / lookups, 6) if lookups else 0.0,
        )
        if stats["io_s"]:
            reg.observe_s("phase.search/store", stats["io_s"])

    def close(self) -> None:
        if self.trace is not None:
            self.trace.close()


class _TelemetrySpan:
    """Context manager behind :meth:`Telemetry.span`: a nesting
    registry span plus a ``span`` trace/flight event on exit."""

    __slots__ = ("_telemetry", "_name", "_inner", "_t0")

    def __init__(self, telemetry: Telemetry, name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._inner = None

    def __enter__(self) -> "_TelemetrySpan":
        reg = self._telemetry.registry
        if reg is not None:
            self._inner = reg.span(name=self._name)
            self._inner.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self._t0
        path = self._name
        if self._inner is not None:
            path = self._inner.path or self._name
            self._inner.__exit__(*exc)
        t = self._telemetry
        if t.trace is not None or t.flight is not None:
            t.emit("span", name=self._name, path=path, total_s=round(dt, 6))
