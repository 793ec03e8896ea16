"""Outside-in tracing of the product step.

:class:`Tracer` times each layer by wrapping that layer's public calls
from here, never from inside ``src/``: :meth:`Tracer.installed`
replaces the methods on their classes (``StateStore`` uses
``__slots__``, so its methods are wrapped on the class too) and puts
the originals back on exit.  Only the traced run installs it; the
end-to-end metrics come from runs that never do.

Every wrapped call is a span: name, start, end and the span that
caused it.  A span's self time is its duration minus that of its
children, so the self times of all layers add up exactly to the time
of the root spans.  The benchmark opens one root span per operation
(:meth:`Tracer.op`), which makes the layer self times telescope to the
operation's verdict time.  Spans stay in memory (up to ``SPAN_CAP``)
and :meth:`Tracer.dump` writes them to one JSON file when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional

import repro.engine.por as por_module
from repro.engine.component import (
    CheckerComponent,
    ComposedSystem,
    ObserverComponent,
    ProtocolComponent,
)
from repro.engine.intern import StateStore
from repro.engine.por import AmpleSelector
from repro.engine.reduction import Reduction
from repro.engine.strategy import SearchEngine
from repro.modelcheck.product import ProductSearch

__all__ = ["LAYERS", "Tracer", "percentile"]

#: layers in the order they are reported, named after the modules
LAYERS = (
    "product", "search", "steps", "memory", "observer", "checker",
    "key", "reduction", "por", "store",
)


def _materialise(out, args, counts):
    out = list(out)
    counts["memory.successors"] += len(out)
    return out


def _symbols(out, args, counts):
    counts["observer.symbols"] += len(out[1])
    return out


def _items(out, args, counts):
    counts["reduction.items"] += len(args[1])
    return out


def _select(out, args, counts):
    counts["por.ample_found"] += out is not None
    return out


def _lookup(out, args, counts):
    counts["store.lookup_keys"] += len(out)
    counts["store.lookup_hits"] += sum(1 for sid in out if sid is not None)
    return out


def _intern(out, args, counts):
    counts["store.intern_new"] += sum(1 for _sid, new in out if new)
    return out


#: (span name, layer, owner, attribute, post-call hook or None)
POINTS = (
    ("ProductSearch.__init__", "product", ProductSearch, "__init__", None),
    ("ProductSearch.run", "product", ProductSearch, "run", None),
    ("SearchEngine.run", "search", SearchEngine, "run", None),
    ("ComposedSystem.steps", "steps", ComposedSystem, "steps", None),
    ("ProtocolComponent.enabled", "memory", ProtocolComponent, "enabled", _materialise),
    ("ObserverComponent.step", "observer", ObserverComponent, "step", _symbols),
    ("CheckerComponent.step", "checker", CheckerComponent, "step", None),
    ("ComposedSystem.key", "key", ComposedSystem, "key", None),
    ("Reduction.canonicalize_batch", "reduction", Reduction, "canonicalize_batch", _items),
    ("AmpleSelector.select", "por", AmpleSelector, "select", _select),
    ("por.proviso", "por", por_module, "proviso", None),
    ("StateStore.lookup_many", "store", StateStore, "lookup_many", _lookup),
    ("StateStore.intern_many", "store", StateStore, "intern_many", _intern),
    ("StateStore.set_parent", "store", StateStore, "set_parent", None),
)

#: spans kept per run; later ones still count, but are not recorded
SPAN_CAP = 100_000
#: spans whose individual durations are kept for percentiles
_KEEP_DURATIONS = frozenset({"ComposedSystem.steps"})


class _Point:
    __slots__ = ("name", "layer", "calls", "total_s", "self_s", "durations")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: Optional[List[float]] = [] if name in _KEEP_DURATIONS else None


class Tracer:
    """Per-layer spans and counts over any number of operations."""

    def __init__(self) -> None:
        self.points: Dict[str, _Point] = {
            name: _Point(name, layer) for name, layer, *_ in POINTS
        }
        self.points["op"] = _Point("op", "product")
        self.counts: Counter = Counter()
        #: (point name, parent span index or -1, start s, end s)
        self.spans: List[tuple] = []
        self.dropped = 0
        #: one frame per open span: [children's seconds, span index,
        #: parent span index]; an index is -1 once SPAN_CAP is reached
        self._stack: List[list] = []

    # -- span bookkeeping ---------------------------------------------
    def _enter(self) -> list:
        stack = self._stack
        idx = -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        frame = [0.0, idx, stack[-1][1] if stack else -1]
        stack.append(frame)
        return frame

    def _exit(self, point: _Point, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        d = t1 - t0
        point.calls += 1
        point.total_s += d
        point.self_s += d - frame[0]
        if point.durations is not None:
            point.durations.append(d)
        if self._stack:
            self._stack[-1][0] += d
        if frame[1] >= 0:
            self.spans[frame[1]] = (point.name, frame[2], t0, t1)

    def _wrap(self, point: _Point, fn, post):
        pc = time.perf_counter
        counts = self.counts
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter()
            t0 = pc()
            try:
                out = fn(*args, **kwargs)
                if post is not None:
                    out = post(out, args, counts)
            finally:
                exit_(point, frame, t0, pc())
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public calls for the duration of the
        block, then restore the originals."""
        saved = []
        try:
            for name, _layer, owner, attr, post in POINTS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(self.points[name], fn, post))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def op(self):
        """The root span of one operation (the benchmark's own glue —
        protocol construction — is its self time)."""
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(self.points["op"], frame, t0, time.perf_counter())

    def harvest(self, search, result) -> None:
        """Fold one finished search's own counters into the counts."""
        stats = result.stats
        c = self.counts
        c["search.states"] += stats.states
        c["search.transitions"] += stats.transitions
        c["product.replay_calls"] += result.counterexample is not None
        red = search.system.reduction
        if red is not None:
            c["reduction.orbit_hits"] += red.counters.orbit_hits
        sel = search.system.por_selector
        if sel is not None:
            c["por.ample_taken"] += sel.counters.ample_hits
            c["por.deferred"] += sel.counters.deferred
            c["por.fallbacks"] += sel.counters.fallbacks
        st = search.engine.store.store_stats()
        for k in ("resident_keys", "spilled_keys", "spill_bytes", "probes", "lookups"):
            c["store." + k] += st[k]

    # -- results -------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for p in self.points.values():
            out[p.layer] += p.self_s
        return out

    def root_s(self) -> float:
        return self.points["op"].total_s

    def metrics(self, rounds: int) -> Dict[str, float]:
        """Per-layer metrics, per round (``rounds`` traced rounds)."""
        pts, c = self.points, self.counts
        selfs = self.layer_self()
        total = sum(selfs.values()) or 1.0
        n = max(rounds, 1)

        def calls(name):
            return pts[name].calls / n

        steps = pts["ComposedSystem.steps"].durations
        search_s = pts["SearchEngine.run"].total_s
        m = {
            "memory.calls": calls("ProtocolComponent.enabled"),
            "memory.successors": c["memory.successors"] / n,
            "observer.calls": calls("ObserverComponent.step"),
            "observer.symbols": c["observer.symbols"] / n,
            "checker.calls": calls("CheckerComponent.step"),
            "checker.shared": calls("ObserverComponent.step") - calls("CheckerComponent.step"),
            "key.calls": calls("ComposedSystem.key"),
            # one key per generated successor plus one per initial state,
            # whichever layer computes it (reduction replaces key)
            "key.new_ratio": (
                c["search.states"] / (c["search.transitions"] + pts["op"].calls)
                if pts["op"].calls else 0.0
            ),
            "reduction.calls": calls("Reduction.canonicalize_batch"),
            "reduction.items": c["reduction.items"] / n,
            "reduction.orbit_hits": c["reduction.orbit_hits"] / n,
            "por.select_calls": calls("AmpleSelector.select"),
            "por.ample_found": c["por.ample_found"] / n,
            "por.ample_taken": c["por.ample_taken"] / n,
            "por.deferred": c["por.deferred"] / n,
            "por.fallbacks": c["por.fallbacks"] / n,
            "store.lookup_keys": c["store.lookup_keys"] / n,
            "store.hit_ratio": (
                c["store.lookup_hits"] / c["store.lookup_keys"]
                if c["store.lookup_keys"] else 0.0
            ),
            "store.intern_new": c["store.intern_new"] / n,
            "store.resident_keys": c["store.resident_keys"] / n,
            "store.spilled_keys": c["store.spilled_keys"] / n,
            "store.spill_bytes": c["store.spill_bytes"] / n,
            "store.index_probe_avg": (
                c["store.probes"] / c["store.lookups"] if c["store.lookups"] else 0.0
            ),
            "steps.calls": calls("ComposedSystem.steps"),
            "steps.us_p50": percentile(steps, 50) * 1e6,
            "steps.us_p99": percentile(steps, 99) * 1e6,
            "search.states_per_s": c["search.states"] / search_s if search_s else 0.0,
            "search.transitions": c["search.transitions"] / n,
            "product.construct_s": pts["ProductSearch.__init__"].total_s / n,
            "product.replay_calls": c["product.replay_calls"] / n,
            "product.replay_s": pts["ProductSearch.run"].self_s / n,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = selfs[layer] / n
            m[f"{layer}.share"] = selfs[layer] / total
        return m

    def dump(self, path: str, meta: dict) -> None:
        """Write every recorded span, with the layer table, as JSON."""
        names = list(self.points)
        index = {name: i for i, name in enumerate(names)}
        spans = [
            [index[s[0]], s[1], round(s[2] * 1e6, 1), round(s[3] * 1e6, 1)]
            for s in self.spans if s is not None
        ]
        doc = dict(meta)
        doc.update(
            points=names,
            layers={n: self.points[n].layer for n in names},
            span_fields=["point", "parent", "start_us", "end_us"],
            spans=spans,
            dropped=self.dropped,
        )
        with open(path, "w") as f:
            json.dump(doc, f)


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, or the only value when there is one."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
