"""The ablation switches must never change verdicts — only state
counts."""

import pytest

from repro.memory import (
    BuggyMSIProtocol,
    SerialMemory,
    StoreBufferProtocol,
    store_buffer_st_order,
)
from repro.modelcheck.product import ProductSearch

ABLATIONS = [
    {"canonical_ids": False},
    {"eager_free": False},
    {"unpin_heads": False},
    {"canonical_ids": False, "eager_free": False, "unpin_heads": False},
]


@pytest.mark.parametrize("kw", ABLATIONS, ids=lambda k: "+".join(sorted(k)))
def test_sc_verdict_unchanged(kw):
    base = ProductSearch(SerialMemory(p=2, b=1, v=1), mode="fast").run()
    res = ProductSearch(SerialMemory(p=2, b=1, v=1), mode="fast", max_states=50_000, **kw).run()
    assert res.ok == base.ok is True
    assert res.stats.states >= base.stats.states


@pytest.mark.parametrize("kw", ABLATIONS, ids=lambda k: "+".join(sorted(k)))
def test_violation_verdict_unchanged(kw):
    res = ProductSearch(
        BuggyMSIProtocol(p=2, b=1, v=1), mode="fast", max_states=50_000, **kw
    ).run()
    assert not res.ok
    assert res.counterexample is not None


def test_ablations_apply_in_full_mode_too():
    res = ProductSearch(
        SerialMemory(p=1, b=1, v=1), mode="full", eager_free=False, max_states=20_000
    ).run()
    assert res.ok


def test_store_buffer_violation_found_without_eager_free():
    res = ProductSearch(
        StoreBufferProtocol(p=2, b=2, v=1),
        store_buffer_st_order(),
        mode="fast",
        eager_free=False,
        max_states=100_000,
    ).run()
    assert not res.ok and res.counterexample is not None


def test_eager_free_off_state_count_is_pinned():
    # without free-ID symbols the cycle checker keeps IDs the canonical
    # renaming does not cover, so two of its ID-sets can rename alike and
    # its key falls back on token age; interning checker states there
    # would merge differently (575 states instead of 555)
    res = ProductSearch(SerialMemory(p=2, b=1, v=1), mode="fast", eager_free=False).run()
    assert res.ok
    assert (res.stats.states, res.stats.transitions) == (555, 2220)
