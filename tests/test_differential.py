"""Differential tests: every engine configuration against the BFS oracle.

The honesty contract (see :mod:`repro.difftest`): changing the
frontier strategy or the state-store backend may change wall-clock
time and *nothing else*.
Verdicts always agree; state/transition/quiescent counts agree for
every completed search; exhaustive searches agree on the full
violation-key set and on the canonically reported violating state; and
every counterexample, whatever path the engine's parent pointers
recorded, replays through a fresh observer + checker to a genuine
rejection.

The fast tier covers the small protocols and the buggy baseline; the
``slow``-marked matrices sweep the whole zoo × every strategy, store
backend and POR level (CI runs them on main, not on PRs).
On divergence, :func:`repro.difftest.assert_equivalent` prints the
minimized report — only the diverging configurations, only the fields
on which they diverge.
"""

from __future__ import annotations

import pytest

from repro.difftest import (
    DETERMINISTIC_GAUGES,
    SearchFingerprint,
    assert_equivalent,
    compare_fingerprints,
    divergence_report,
    fingerprint,
)
from repro.memory import BUGGY_VARIANTS, NON_SC_PROTOCOLS, PROTOCOLS

STRATEGIES = ("bfs", "dfs", "random-walk")

#: non-SC zoo entries whose exhaustive closure is too large for the
#: matrix budget — compared in stop-on-first mode (verdict + replay
#: validity), which is the contract that mode promises
STOP_MODE_ONLY = frozenset({"storebuffer", "buggy-msi-stale-s"})


def _make(name):
    ctor, gen_factory, (p, b, v) = PROTOCOLS[name]
    return ctor(p=p, b=b, v=v), (gen_factory() if gen_factory is not None else None)


def _fp(name, *, strategy="bfs", exhaustive=True, seed=3,
        reduce="off", por="off", store=None):
    proto, gen = _make(name)
    return fingerprint(
        proto, gen, mode="fast", strategy=strategy,
        exhaustive=exhaustive, seed=seed, reduce=reduce, por=por,
        store=store,
    )


# ----------------------------------------------------------------- fast tier


@pytest.mark.parametrize("name", ["serial", "lazy", "directory"])
def test_strategy_invariance_sequential(name):
    base = _fp(name, strategy="bfs")
    assert_equivalent(
        base, [_fp(name, strategy=s) for s in ("dfs", "random-walk")]
    )


@pytest.mark.parametrize(
    "variant", [cls.__name__ for cls, _cfg in BUGGY_VARIANTS]
)
def test_buggy_variants_caught(variant):
    """Catch rate: every buggy variant is flagged non-SC, with a
    counterexample that replays to a genuine rejection."""
    cls, cfg = next(
        (c, cfg) for c, cfg in BUGGY_VARIANTS if c.__name__ == variant
    )
    fp = fingerprint(cls(*cfg), exhaustive=False)
    assert fp.verdict == "violation"
    assert fp.cx_replays is True


@pytest.mark.parametrize("name", ["serial", "lazy"])
def test_merged_metrics_identical_across_worker_counts(name):
    """The telemetry contract rides the differential suite: the
    ``search.*`` gauge snapshot is identical across frontier strategies
    and reports exactly the search the configurations agree on.  The
    search runs in one process, so the only worker count left is the
    sequential one; the strategy axis now carries the comparison."""
    base = _fp(name)
    others = [_fp(name, strategy=s) for s in ("dfs", "random-walk")]
    got = dict(base.metrics)
    assert set(got) == set(DETERMINISTIC_GAUGES)
    assert got["search.states"] == base.states
    assert got["search.transitions"] == base.transitions
    for fp in others:
        assert fp.metrics == base.metrics
    assert_equivalent(base, others)


def test_random_walk_seed_does_not_change_the_contract():
    base = _fp("lazy", strategy="random-walk", seed=1)
    assert_equivalent(
        base, [_fp("lazy", strategy="random-walk", seed=s) for s in (2, 99)]
    )


# ------------------------------------------------------ the cross-POR axis


@pytest.mark.parametrize("name", ["msi", "mesi", "lazy"])
def test_cross_por_contract_fast(name):
    """POR off vs on on the same configuration: the comparison
    automatically restricts to :data:`repro.difftest.CROSS_POR_FIELDS`
    (verdict + counterexample replay) — counts legitimately shrink
    under the quotient, and never grow."""
    base = _fp(name)
    reduced = _fp(name, por="on")
    assert_equivalent(base, [reduced])
    assert reduced.states <= base.states
    # b=1 snoopy configs admit no ample set (the degeneracy theorem,
    # tested bit-exactly in test_por_fuzz); lazy genuinely reduces
    if name == "lazy":
        assert reduced.states < base.states


def test_cross_por_comparison_ignores_counts_but_not_replay():
    on = _fab(por="on", states=7, transitions=9)
    assert not compare_fingerprints(_fab(), on)
    assert ("verdict", "verified", "violation") in compare_fingerprints(
        _fab(), _fab(por="on", verdict="violation", cx_replays=True)
    )
    base = _fab(verdict="violation", cx_replays=True, cx_len=3)
    bad = _fab(por="on", verdict="violation", cx_replays=False, cx_len=9)
    assert ("cx_replays", True, False) in compare_fingerprints(base, bad)


# ------------------------------------------------- the report is minimized


def _fab(**over):
    defaults = dict(
        protocol="P", mode="fast", strategy="bfs", exhaustive=True,
        verdict="verified", states=10, transitions=20, quiescent=10,
        non_quiescible=0, violation_keys=frozenset(), canonical_violation=None,
        cx_len=None, cx_replays=None,
    )
    defaults.update(over)
    return SearchFingerprint(**defaults)


def test_divergence_report_names_only_diverging_fields():
    base = _fab()
    agree = _fab(strategy="dfs")
    diverge = _fab(strategy="random-walk", states=11)
    report = divergence_report(base, [agree, diverge])
    assert "strategy=random-walk" in report and "states: 10 vs 11" in report
    assert "strategy=dfs" not in report  # agreeing configs are omitted
    assert "transitions" not in report  # agreeing fields are omitted


def test_divergence_report_diffs_violation_key_sets_tersely():
    base = _fab(verdict="violation", violation_keys=frozenset(range(100)),
                canonical_violation=0, cx_len=4, cx_replays=True)
    other = _fab(strategy="dfs", verdict="violation",
                 violation_keys=frozenset(range(1, 101)),
                 canonical_violation=1, cx_len=4, cx_replays=True)
    report = divergence_report(base, [other])
    assert "100 vs 100 keys" in report
    assert "only-baseline [0]" in report and "only-other [100]" in report


def test_stop_mode_violation_counts_are_not_compared():
    # a stop-on-first halt finds the violation whenever its search
    # order gets there; counts measure the engine's luck, not the
    # protocol, and must not fail the differential
    a = _fab(exhaustive=False, verdict="violation", states=50,
             cx_len=6, cx_replays=True)
    b = _fab(exhaustive=False, strategy="dfs", verdict="violation", states=900,
             cx_len=12, cx_replays=True)
    assert not compare_fingerprints(a, b)
    # ... but a counterexample that fails replay always diverges
    c = _fab(exhaustive=False, strategy="random-walk", verdict="violation", states=50,
             cx_len=6, cx_replays=False)
    assert compare_fingerprints(a, c) == [("cx_replays", True, False)]


def test_assert_equivalent_raises_with_report():
    base = _fab()
    with pytest.raises(AssertionError, match="states: 10 vs 11"):
        assert_equivalent(base, [_fab(states=11)])


# ----------------------------------------------------------- the full matrix


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_zoo_cross_por_matrix(name):
    """Every zoo protocol × por {off, on} × reduce {off, full} holds
    the cross-POR contract; protocols with no symmetry declaration
    sweep the reduce=off column only (``--reduce full`` rejects
    them)."""
    exhaustive = name not in STOP_MODE_ONLY
    proto, _ = _make(name)
    reduces = ("off", "full") if proto.symmetry_spec() is not None else ("off",)
    for reduce in reduces:
        base = _fp(name, exhaustive=exhaustive, reduce=reduce)
        reduced = _fp(name, exhaustive=exhaustive, reduce=reduce, por="on")
        assert_equivalent(base, [reduced])
        # stop-on-first halts measure search order, not the quotient
        if exhaustive:
            assert reduced.states <= base.states
        if name in NON_SC_PROTOCOLS:
            assert reduced.verdict == "violation"
            assert reduced.cx_replays is True


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_zoo_cross_backend_matrix(name):
    """Every zoo protocol × store {mem, disk} holds full fingerprint
    equality — the backend-invariance invariant of
    docs/ARCHITECTURE.md, with the disk side pinned to a 16-key
    resident cap so every run spills."""
    from repro.engine.intern import StoreConfig

    tiny = StoreConfig(kind="disk", cap_keys=16)
    exhaustive = name not in STOP_MODE_ONLY
    base = _fp(name, exhaustive=exhaustive)
    disk = _fp(name, exhaustive=exhaustive, store=tiny)
    assert_equivalent(base, [disk])
    if name in NON_SC_PROTOCOLS:
        assert disk.cx_replays


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_zoo_matrix_every_strategy_every_worker_count(name):
    """Every zoo protocol × {dfs, random-walk} agrees with the BFS
    baseline on the full contract.  The search runs in one process, so
    "every worker count" is the sequential one."""
    exhaustive = name not in STOP_MODE_ONLY
    base = _fp(name, strategy="bfs", exhaustive=exhaustive)
    others = [
        _fp(name, strategy=s, exhaustive=exhaustive)
        for s in STRATEGIES
        if s != "bfs"
    ]
    assert_equivalent(base, others)
    if name in NON_SC_PROTOCOLS:
        assert base.verdict == "violation"
        assert base.cx_replays is True
        assert all(fp.cx_replays for fp in others)
    else:
        assert base.verdict == "verified"
