"""The hierarchical span profiler.

Contracts (docs/OBSERVABILITY.md): spans nest into ``/``-joined timer
paths; ``self`` time telescopes exactly (a subtree's self times sum to
its root's total — the acceptance bound is 1%, the construction gives
float-epsilon); engine instrumentation shows up under the enclosing
phase span; and none of it perturbs verdicts or state counts.
"""

import pytest

from repro.memory import MSIProtocol
from repro.modelcheck.product import ProductSearch
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    TraceWriter,
    format_span_tree,
    span_tree_rows,
)


# ------------------------------------------------------- registry spans


def test_spans_nest_into_slash_paths():
    reg = MetricsRegistry()
    with reg.span("run"):
        assert reg.current_span == "run"
        with reg.span("search"):
            assert reg.current_span == "run/search"
            with reg.span("expand"):
                pass
        with reg.span("replay"):
            pass
    assert reg.current_span == ""
    timers = reg.snapshot().timers
    assert set(timers) == {"run", "run/search", "run/search/expand",
                           "run/replay"}


def test_sibling_spans_at_top_level_do_not_nest():
    reg = MetricsRegistry()
    with reg.span("a"):
        pass
    with reg.span("b"):
        pass
    assert set(reg.snapshot().timers) == {"a", "b"}


def test_observe_many_folds_a_batch():
    reg = MetricsRegistry()
    reg.observe_many("canon", 100, 0.25)
    reg.observe_many("canon", 50, 0.05)
    t = reg.snapshot().timers["canon"]
    assert t["count"] == 150
    assert t["total_s"] == pytest.approx(0.30)


# ------------------------------------------------------------ tree math


def _fake_timers():
    def t(count, total):
        return {"count": count, "total_s": total, "max_s": total}

    return {
        "run": t(1, 10.0),
        "run/search": t(1, 8.0),
        "run/search/expand": t(40, 5.0),
        "run/search/expand/canonicalize": t(40, 2.0),
        "run/replay": t(1, 1.0),
        "other": t(2, 3.0),
    }


def test_span_tree_rows_depth_and_self_times():
    rows = {r[0]: r for r in span_tree_rows(_fake_timers())}
    # (path, name, depth, count, total_s, self_s)
    assert rows["run"][2] == 0 and rows["run"][5] == pytest.approx(1.0)
    assert rows["run/search"][2] == 1
    assert rows["run/search"][5] == pytest.approx(3.0)  # 8 - 5
    assert rows["run/search/expand"][5] == pytest.approx(3.0)  # 5 - 2
    assert rows["run/search/expand/canonicalize"][5] == pytest.approx(2.0)
    assert rows["other"][2] == 0 and rows["other"][5] == pytest.approx(3.0)


def test_span_tree_rows_are_preorder_with_sorted_siblings():
    paths = [r[0] for r in span_tree_rows(_fake_timers())]
    assert paths == [
        "other",
        "run",
        "run/replay",
        "run/search",
        "run/search/expand",
        "run/search/expand/canonicalize",
    ]


def test_self_times_telescope_to_the_root_total():
    rows = span_tree_rows(_fake_timers())
    subtree_self = sum(r[5] for r in rows if r[0].startswith("run"))
    assert subtree_self == pytest.approx(10.0)


def test_format_span_tree_indents_by_depth():
    text = format_span_tree(_fake_timers())
    lines = text.splitlines()
    assert any(line.startswith("run ") for line in lines)
    assert any(line.startswith("  search") for line in lines)
    assert any(line.startswith("    expand") for line in lines)
    assert any(line.startswith("      canonicalize") for line in lines)


def test_snapshot_format_can_render_the_tree():
    reg = MetricsRegistry()
    with reg.span("outer"):
        with reg.span("inner"):
            pass
    text = reg.snapshot().format(title="T", span_tree=True)
    assert "outer" in text and "  inner" in text and "self" in text


# ------------------------------------------------------ telemetry spans


def test_telemetry_span_emits_span_event_with_path():
    events = []
    t = Telemetry(registry=MetricsRegistry(), trace=TraceWriter(events))
    with t.span("phase.search"):
        with t.span("leg"):
            pass
    got = [(e["name"], e["path"]) for e in events if e["ev"] == "span"]
    assert got == [("leg", "phase.search/leg"),
                   ("phase.search", "phase.search")]
    assert all(e["total_s"] >= 0 for e in events if e["ev"] == "span")


def test_telemetry_span_without_trace_still_times():
    t = Telemetry(registry=MetricsRegistry())
    with t.span("phase.search"):
        pass
    assert "phase.search" in t.registry.snapshot().timers


# ----------------------------------------------------- engine profiling


def test_sequential_run_self_times_sum_to_search_total():
    t = Telemetry(registry=MetricsRegistry())
    res = ProductSearch(MSIProtocol(p=2, b=1, v=1), mode="fast").run(None, t)
    timers = t.registry.snapshot().timers
    assert "phase.search" in timers and "phase.search/expand" in timers
    # per-state instrumentation: one expand observation per state
    assert timers["phase.search/expand"]["count"] == res.stats.states
    rows = span_tree_rows(timers)
    subtree_self = sum(r[5] for r in rows if r[0].startswith("phase.search"))
    total = timers["phase.search"]["total_s"]
    # the acceptance bound — by construction this is exact to float eps
    assert subtree_self == pytest.approx(total, rel=0.01)


def test_reduction_run_nests_canonicalize_under_expand():
    t = Telemetry(registry=MetricsRegistry())
    ProductSearch(
        MSIProtocol(p=2, b=1, v=1), mode="fast", reduce="proc",
    ).run(None, t)
    timers = t.registry.snapshot().timers
    assert "phase.search/expand/canonicalize" in timers
    canon = timers["phase.search/expand/canonicalize"]
    expand = timers["phase.search/expand"]
    assert canon["count"] > 0
    assert canon["total_s"] <= expand["total_s"]  # nested, telescoping


def test_profiling_does_not_change_fingerprinted_counts():
    plain = ProductSearch(MSIProtocol(p=2, b=1, v=1), mode="fast").run()
    t = Telemetry(registry=MetricsRegistry(), trace=TraceWriter([]))
    spanned = ProductSearch(
        MSIProtocol(p=2, b=1, v=1), mode="fast",
    ).run(None, t)
    assert (plain.ok, plain.stats.states, plain.stats.transitions,
            plain.stats.quiescent_states) == (
        spanned.ok, spanned.stats.states, spanned.stats.transitions,
        spanned.stats.quiescent_states)
