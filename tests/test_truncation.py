"""Truncation paths: caps, budget stops, and honest incomplete verdicts.

A bounded search must (a) actually stop, (b) mark its stats
``truncated``, and (c) propagate ``complete=False`` into the verdict a
user sees — silently presenting a capped search as a proof would be
the worst failure mode this repo can have.
"""

from repro.core.verify import verify_protocol
from repro.memory import MSIProtocol, SerialMemory
from repro.modelcheck.explorer import explore
from repro.modelcheck.product import ProductSearch


FULL_MSI_PRODUCT_STATES = 4340  # fast-mode joint states at p=2, b=1, v=2


# ------------------------------------------------------- plain explorer


def test_explore_uncapped_is_not_truncated():
    stats = explore(SerialMemory(p=2, b=1, v=2))
    assert not stats.truncated and stats.stop_reason is None


def test_explore_state_cap_truncates():
    stats = explore(MSIProtocol(p=2, b=1, v=2), max_states=10)
    assert stats.truncated
    assert stats.states <= 10 + 1  # cap checked after each admission


def test_explore_depth_cap_truncates():
    capped = explore(MSIProtocol(p=2, b=1, v=2), max_depth=2)
    free = explore(MSIProtocol(p=2, b=1, v=2))
    assert capped.truncated
    assert capped.states < free.states


def test_explore_should_stop_records_reason():
    stats = explore(
        MSIProtocol(p=2, b=1, v=2),
        should_stop=lambda s: "enough" if s.states >= 5 else None,
    )
    assert stats.truncated
    assert stats.stop_reason == "enough"


# ------------------------------------------------------- product search


def test_product_cap_mid_frontier():
    # a cap far below the full space stops with a partial frontier
    res = ProductSearch(MSIProtocol(p=2, b=1, v=2), mode="fast", max_states=50).run()
    assert res.ok  # no violation seen in the explored fragment
    assert res.stats.truncated
    # the cap stops queueing, not counting: the state being expanded
    # finishes its transitions, so a small overshoot is expected
    assert 50 <= res.stats.states < 50 + 20
    assert res.stats.states < FULL_MSI_PRODUCT_STATES


def test_product_cap_exactly_at_boundary():
    # cap == the exact size of the state space: every state is seen, but
    # the run is still reported truncated (the cap fired on admission of
    # the last state, so exhaustiveness was never established)
    res = ProductSearch(
        MSIProtocol(p=2, b=1, v=2), mode="fast", max_states=FULL_MSI_PRODUCT_STATES
    ).run()
    assert res.stats.states == FULL_MSI_PRODUCT_STATES
    assert res.stats.truncated

    # one above: the space is exhausted before the cap can fire
    res = ProductSearch(
        MSIProtocol(p=2, b=1, v=2), mode="fast", max_states=FULL_MSI_PRODUCT_STATES + 1
    ).run()
    assert res.stats.states == FULL_MSI_PRODUCT_STATES
    assert not res.stats.truncated


def test_product_cap_truncation_is_permanent():
    # unlike a budget stop, a cap drops frontier entries: re-running the
    # same search must not "un-truncate" the verdict
    search = ProductSearch(MSIProtocol(p=2, b=1, v=2), mode="fast", max_states=50)
    res = search.run()
    assert res.stats.truncated and res.stats.stop_reason is None
    again = search.run()
    assert again.stats.truncated


def test_product_depth_cap_truncates():
    res = ProductSearch(MSIProtocol(p=2, b=1, v=2), mode="fast", max_depth=3).run()
    assert res.stats.truncated
    assert res.stats.max_depth <= 3


def test_truncated_search_skips_quiescence_reachability():
    # the closure argument needs the whole graph; on a truncated search
    # it must not report spurious non-quiescible states
    res = ProductSearch(MSIProtocol(p=2, b=1, v=2), mode="fast", max_states=30).run()
    assert res.non_quiescible == 0


# --------------------------------------- verdict-level (VerificationResult)


def test_incomplete_propagates_into_result_str():
    res = verify_protocol(MSIProtocol(p=2, b=1, v=2), max_states=50)
    assert not res.complete
    assert res.sequentially_consistent  # no violation in the fragment
    assert res.confidence == "bounded"
    text = str(res)
    assert "bounded" in text
    assert "SEQUENTIALLY CONSISTENT" not in text  # never claim the proof


def test_complete_result_str_claims_the_proof():
    res = verify_protocol(SerialMemory(p=2, b=1, v=2))
    assert res.complete
    assert "SEQUENTIALLY CONSISTENT" in str(res)


def test_budget_stop_reason_shows_in_result_str():
    res = verify_protocol(
        MSIProtocol(p=2, b=1, v=2),
        should_stop=lambda s: "test budget" if s.states >= 20 else None,
    )
    assert not res.complete
    assert "test budget" in str(res)
