"""The telemetry layer: registry, snapshots, progress, determinism.

The two contracts under test here (docs/OBSERVABILITY.md):

* **zero-cost-off** — with no telemetry attached, runs behave exactly
  as before (same verdicts, same counts), and the deprecated stats
  import paths keep working (including unpickling);
* **determinism** — telemetry never perturbs a verdict or a count.
"""

import io

import pytest

from repro.memory import MSIProtocol, SerialMemory
from repro.modelcheck.product import ProductSearch
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    ProgressReporter,
    Telemetry,
    TraceWriter,
)
from repro.obs.stats import ExplorationStats


# ------------------------------------------------------------- registry


def test_counters_gauges_timers_roundtrip():
    reg = MetricsRegistry()
    reg.inc("work")
    reg.inc("work", 4)
    reg.gauge("depth", 7)
    reg.gauge("depth", 3)  # last write wins
    reg.gauge_max("peak", 5)
    reg.gauge_max("peak", 2)  # high-water keeps 5
    reg.observe_s("span", 0.5)
    reg.observe_s("span", 1.5)
    snap = reg.snapshot()
    assert snap.counters == {"work": 5}
    assert snap.gauges == {"depth": 3, "peak": 5}
    assert snap.timers["span"] == {"count": 2, "total_s": 2.0, "max_s": 1.5}
    # JSON round trip
    assert MetricsSnapshot.from_dict(snap.as_dict()) == snap


def test_snapshot_diff_reports_only_differences():
    a = MetricsSnapshot(counters={"n": 1}, gauges={"g": 2, "same": 9},
                        timers={"t": {"count": 1, "total_s": 1.0, "max_s": 1.0}})
    b = MetricsSnapshot(counters={"n": 3}, gauges={"same": 9},
                        timers={"t": {"count": 2, "total_s": 4.0, "max_s": 3.0}})
    diffs = a.diff(b)
    assert ("counter:n", 1, 3) in diffs
    assert ("gauge:g", 2, None) in diffs
    assert ("timer:t", 1.0, 4.0) in diffs
    assert not any(name == "gauge:same" for name, _, _ in diffs)
    assert a.diff(a) == []


def test_snapshot_format_mentions_every_metric():
    reg = MetricsRegistry()
    reg.inc("c.one")
    reg.gauge("g.two", 2)
    reg.observe_s("s.three", 0.1)
    text = reg.snapshot().format(title="T")
    for name in ("c.one", "g.two", "s.three", "T"):
        assert name in text
    assert "(empty)" in MetricsSnapshot().format(title="T")


# ------------------------------------------------------------- progress


def test_progress_reporter_writes_rate_line():
    out = io.StringIO()
    rep = ProgressReporter(interval=0.05, stream=out)
    stats = ExplorationStats(states=42, transitions=99, max_depth=3)
    assert rep.tick(stats, frontier=7, force=True)
    line = out.getvalue()
    assert "42 states" in line and "frontier=7" in line and "depth=3" in line
    assert "budget=" not in line  # no budget attached


def test_progress_reporter_budget_burn():
    class FakeBudget:
        def burn(self):
            return 0.25

    out = io.StringIO()
    rep = ProgressReporter(interval=0.05, stream=out, budget=FakeBudget())
    rep.tick(ExplorationStats(states=1), force=True)
    assert "budget=25%" in out.getvalue()


def test_progress_reporter_rate_limits():
    out = io.StringIO()
    rep = ProgressReporter(interval=60.0, stream=out)
    rep.tick(ExplorationStats(states=1), force=True)
    assert not rep.tick(ExplorationStats(states=2))  # not due yet
    assert out.getvalue().count("progress:") == 1


def test_budget_burn_fraction():
    from repro.harness import Budget

    assert Budget().burn() is None  # no wall budget
    b = Budget(wall_s=10_000.0).start()
    burn = b.burn()
    assert burn is not None and 0.0 <= burn < 0.01


# ------------------------------------------------------------ telemetry


def test_telemetry_heartbeat_rate_limited_and_forced():
    events = []
    t = Telemetry(trace=TraceWriter(events),
                  progress=ProgressReporter(interval=60.0, stream=io.StringIO()))
    stats = ExplorationStats(states=5, transitions=6)
    t.heartbeat(stats)  # not due (interval 60 s)
    assert events == []
    t.heartbeat(stats, frontier=3, force=True)
    assert len(events) == 1 and events[0]["ev"] == "heartbeat"
    assert events[0]["frontier"] == 3


def test_telemetry_span_without_registry_is_noop():
    t = Telemetry()
    with t.span("anything"):
        pass
    t.emit("degrade_stage", stage="x")  # no trace: swallowed
    t.finish_run(verdict="v", states=0)  # no trace: swallowed
    t.close()


def test_telemetry_finish_run_emits_metrics_then_run_end():
    events = []
    t = Telemetry(registry=MetricsRegistry(), trace=TraceWriter(events))
    t.registry.gauge("search.states", 12)
    t.finish_run(verdict="VERIFIED", states=12)
    assert [e["ev"] for e in events] == ["metrics", "run_end"]
    assert events[0]["snapshot"]["gauges"]["search.states"] == 12
    assert events[1]["verdict"] == "VERIFIED"


# ------------------------------------------- determinism: tracing on vs off


def test_tracing_does_not_change_the_verdict_or_counts():
    def run(telemetry):
        return ProductSearch(
            MSIProtocol(p=2, b=1, v=1), mode="fast",
        ).run(None, telemetry)

    plain = run(None)
    events = []
    t = Telemetry(registry=MetricsRegistry(), trace=TraceWriter(events))
    traced = run(t)
    assert traced.ok == plain.ok
    assert traced.stats.states == plain.stats.states
    assert traced.stats.transitions == plain.stats.transitions
    assert traced.stats.quiescent_states == plain.stats.quiescent_states
    # the search always lands in the registry
    assert t.registry.snapshot().gauges["search.states"] == plain.stats.states


def test_checker_gauges_published_in_fast_mode_only():
    from repro.difftest import DETERMINISTIC_GAUGES

    def gauges(mode):
        search = ProductSearch(SerialMemory(p=1, b=1, v=1), mode=mode)
        t = Telemetry(registry=MetricsRegistry())
        search.run(None, t)
        return search, t.registry.snapshot().gauges

    fast, g = gauges("fast")
    comp = fast.system.checker_comp
    assert g["checker.states"] == comp.states > 0
    assert g["checker.misses"] == comp.misses >= comp.states - 1
    # full mode keeps fork and feed: nothing interned, nothing published
    _full, g = gauges("full")
    assert "checker.states" not in g and "checker.misses" not in g
    # both figures move with the kept representative, so they stay out
    # of the cross-configuration contract
    assert not {"checker.states", "checker.misses"} & set(DETERMINISTIC_GAUGES)


# ------------------------------------------------- budget burn: both axes


def test_budget_burn_states_axis():
    from repro.harness import Budget

    b = Budget(states=200).start()
    assert b.burn(states=50) == pytest.approx(0.25)
    assert b.burn(states=400) == 1.0  # clamped
    assert b.burn() is None  # no wall budget, no states supplied


def test_budget_burn_reports_the_tighter_axis():
    from repro.harness import Budget

    b = Budget(wall_s=1_000_000.0, states=100).start()
    # wall burn ~0, state burn 80% — heartbeat shows the tighter one
    assert b.burn(states=80) == pytest.approx(0.8)


def test_progress_reporter_shows_states_budget_burn():
    from repro.harness import Budget

    out = io.StringIO()
    rep = ProgressReporter(
        interval=0.05, stream=out, budget=Budget(states=100).start()
    )
    rep.tick(ExplorationStats(states=25), force=True)
    assert "budget=25%" in out.getvalue()


# ------------------------------------------------------ benchmark record


def test_build_record_keeps_entries_it_did_not_remeasure():
    from repro.obs.bench import build_record

    hand_added = {"states": 14639, "note": "added by hand"}
    previous = build_record(
        current={}, baseline={}, baseline_note="", rounds=1,
        reduction={"mesi_p3b1v1_native_compare": hand_added,
                   "msi_p2b1v2": {"state_gain": 1.0}},
        store={"mesi_p3b1v1": {"states": 86612}},
    )
    fresh = {"msi_p2b1v2": {"state_gain": 2.5}}
    record = build_record(
        current={}, baseline={}, baseline_note="", rounds=1,
        previous=previous, reduction=fresh, por={"lazy": {"state_gain": 1.2}},
    )
    assert record["reduction"]["workloads"] == {
        "mesi_p3b1v1_native_compare": hand_added,
        "msi_p2b1v2": {"state_gain": 2.5},
    }
    assert record["store"] == previous["store"]
    assert record["por"]["workloads"] == {"lazy": {"state_gain": 1.2}}
