"""A low-overhead metrics registry: counters, gauges and timers.

:class:`MetricsRegistry` is the one sink every instrumented layer
writes into — the engine (search counters and per-state timings),
the harness (phase spans), and the CLI (the ``--profile`` span table).
Three metric kinds:

* **counters** — monotonically added values (``inc``): work done, bytes
  shipped, rounds run;
* **gauges** — last-written (or high-water, ``gauge_max``) values:
  state counts at run end, queue depths;
* **timers** — named spans over ``time.perf_counter`` (monotonic), used
  as nesting context managers (:meth:`MetricsRegistry.span`) or fed
  pre-aggregated batches; each records call count, total and max
  seconds.

The **overhead contract**: telemetry is opt-in, and every call site in
a hot path is guarded by the owning :class:`~repro.obs.telemetry.
Telemetry` being active — a run with all telemetry flags off executes
*zero* registry calls, so verdict timings cannot regress.

A registry is summarised by :meth:`MetricsRegistry.snapshot` into a
:class:`MetricsSnapshot` — plain dicts, JSON round-trippable, with a
field-wise :meth:`~MetricsSnapshot.diff` (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "SPAN_SEP",
    "span_tree_rows",
    "format_span_tree",
]

#: separator between parent and child in hierarchical span timer names
SPAN_SEP = "/"


class _TreeSpan:
    """A nesting timer: the recorded timer name is the ``/``-joined
    path of every enclosing tree span in the same registry, so
    ``with reg.span("a"): with reg.span("b")`` records ``a`` and
    ``a/b``.  The path is fixed on ``__enter__`` (read it via
    :attr:`path`)."""

    __slots__ = ("_registry", "_name", "path", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self.path = name

    def __enter__(self) -> "_TreeSpan":
        stack = self._registry._span_stack
        self.path = (stack[-1] + SPAN_SEP + self._name) if stack else self._name
        stack.append(self.path)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self._t0
        stack = self._registry._span_stack
        if stack and stack[-1] == self.path:
            stack.pop()
        self._registry.observe_s(self.path, dt)


class MetricsRegistry:
    """Counters, gauges and timers behind one namespace.

    Metric names are dotted strings (``search.states``,
    ``store.spill_bytes``, ``phase.search``); the registry imposes
    no schema — ``docs/OBSERVABILITY.md`` lists the names the pipeline
    emits.
    """

    __slots__ = ("counters", "gauges", "timers", "_span_stack")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> [count, total seconds, max seconds]
        self.timers: Dict[str, List[float]] = {}
        #: active tree-span paths, innermost last (see :meth:`span`)
        self._span_stack: List[str] = []

    # ------------------------------------------------------------------
    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger (high-water)."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    def span(self, name: str) -> _TreeSpan:
        """A *nesting* span: the timer it records is named by the full
        ``/``-joined path of enclosing :meth:`span` contexts, so the
        snapshot's timers form a tree (:func:`span_tree_rows`)."""
        return _TreeSpan(self, name)

    @property
    def current_span(self) -> str:
        """The innermost active tree-span path (``""`` outside any)."""
        return self._span_stack[-1] if self._span_stack else ""

    def observe_s(self, name: str, seconds: float) -> None:
        """Record one ``seconds``-long observation into timer ``name``."""
        t = self.timers.get(name)
        if t is None:
            self.timers[name] = [1, seconds, seconds]
        else:
            t[0] += 1
            t[1] += seconds
            if seconds > t[2]:
                t[2] = seconds

    def observe_many(self, name: str, count: int, total_s: float) -> None:
        """Fold a pre-aggregated batch of ``count`` observations
        totalling ``total_s`` into timer ``name`` (the engines use this
        for counters accumulated off the telemetry path, e.g.
        canonicalization time).  ``max_s`` takes the batch total as an
        upper bound."""
        t = self.timers.get(name)
        if t is None:
            self.timers[name] = [count, total_s, total_s]
        else:
            t[0] += count
            t[1] += total_s
            if total_s > t[2]:
                t[2] = total_s

    # ------------------------------------------------------------------
    def snapshot(self) -> "MetricsSnapshot":
        """An immutable-by-convention copy of the current values."""
        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            timers={k: {"count": v[0], "total_s": v[1], "max_s": v[2]}
                    for k, v in self.timers.items()},
        )

@dataclass
class MetricsSnapshot:
    """A point-in-time copy of a registry, as plain JSON-able dicts."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {k: dict(v) for k, v in self.timers.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsSnapshot":
        return cls(
            counters=dict(d.get("counters", {})),
            gauges=dict(d.get("gauges", {})),
            timers={k: dict(v) for k, v in d.get("timers", {}).items()},
        )

    # ------------------------------------------------------------------
    def diff(self, other: "MetricsSnapshot") -> List[Tuple[str, Optional[float], Optional[float]]]:
        """Field-wise differences ``(name, self value, other value)``,
        sorted by name; missing-on-one-side values are ``None``.
        Timers diff on their total seconds."""
        out: List[Tuple[str, Optional[float], Optional[float]]] = []
        for kind, a, b in (
            ("counter", self.counters, other.counters),
            ("gauge", self.gauges, other.gauges),
        ):
            for name in sorted(set(a) | set(b)):
                if a.get(name) != b.get(name):
                    out.append((f"{kind}:{name}", a.get(name), b.get(name)))
        at = {k: v["total_s"] for k, v in self.timers.items()}
        bt = {k: v["total_s"] for k, v in other.timers.items()}
        for name in sorted(set(at) | set(bt)):
            if at.get(name) != bt.get(name):
                out.append((f"timer:{name}", at.get(name), bt.get(name)))
        return out

    def format(self, title: str = "metrics", span_tree: bool = False) -> str:
        """A readable multi-section report (counters, gauges, spans).
        With ``span_tree=True`` the timer section is rendered as a
        nested tree with self/total times (:func:`format_span_tree`)
        instead of a flat table."""
        from ..util import format_table

        parts: List[str] = []
        if self.counters:
            rows = [(k, _fmt_num(v)) for k, v in sorted(self.counters.items())]
            parts.append(format_table(["counter", "value"], rows))
        if self.gauges:
            rows = [(k, _fmt_num(v)) for k, v in sorted(self.gauges.items())]
            parts.append(format_table(["gauge", "value"], rows))
        if self.timers:
            if span_tree:
                parts.append(format_span_tree(self.timers))
            else:
                rows = [
                    (k, v["count"], f"{v['total_s']:.4f}s", f"{v['max_s']:.4f}s")
                    for k, v in sorted(self.timers.items())
                ]
                parts.append(format_table(["span", "count", "total", "max"], rows))
        if not parts:
            return f"{title}: (empty)"
        return f"{title}\n\n" + "\n\n".join(parts)


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.4f}"


# ----------------------------------------------------------------------
# span trees
# ----------------------------------------------------------------------


def span_tree_rows(timers: Dict[str, Dict[str, float]]):
    """Flatten ``/``-pathed timers into depth-first tree rows.

    Returns ``(path, name, depth, count, total_s, self_s)`` tuples in
    deterministic (sibling-sorted) pre-order.  ``self_s`` is the span's
    total minus its *direct* children's totals, so within any subtree
    the self times telescope back to the root's total exactly.
    Timers whose name contains no separator and that have no children
    appear as depth-0 leaves (flat timers mix in unharmed)."""
    children: Dict[str, List[str]] = {}
    roots: List[str] = []
    for path in timers:
        head, sep, _ = path.rpartition(SPAN_SEP)
        if sep and head in timers:
            children.setdefault(head, []).append(path)
        else:
            roots.append(path)

    rows: List[Tuple[str, str, int, float, float, float]] = []

    def visit(path: str, depth: int) -> None:
        t = timers[path]
        kids = sorted(children.get(path, ()))
        self_s = t["total_s"] - sum(timers[k]["total_s"] for k in kids)
        name = path.rpartition(SPAN_SEP)[2] if depth else path
        rows.append((path, name, depth, t["count"], t["total_s"], self_s))
        for k in kids:
            visit(k, depth + 1)

    for r in sorted(roots):
        visit(r, 0)
    return rows


def format_span_tree(timers: Dict[str, Dict[str, float]]) -> str:
    """Render ``/``-pathed timers as an indented self/total table."""
    from ..util import format_table

    rows = [
        ("  " * depth + name, int(count), f"{total:.4f}s", f"{self_s:.4f}s")
        for _, name, depth, count, total, self_s in span_tree_rows(timers)
    ]
    return format_table(["span", "count", "total", "self"], rows)
