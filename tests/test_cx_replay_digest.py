"""Counterexample replay is pinned bit for bit.

A counterexample is rebuilt by replaying the violating state's action
path through a fresh self-checking observer and the strongest checker
(``modelcheck.product._replay``).  These tests pin the sha256 of
``repr((run, symbols, reason))`` for a fixed set of counterexamples,
so any change to how a run is replayed — which transition an action
maps to, what the observer emits, which violation is reported first —
shows here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.operations import InternalAction
from repro.core.protocol import Protocol, Transition
from repro.core.verify import verify_protocol
from repro.faults import apply_faults
from repro.faults.spec import EXPECT_REJECT, FaultSpec
from repro.memory import BuggyMSIProtocol, MSIProtocol, build_protocol


class DeadEndTwins(Protocol):
    """``inner`` where every internal action also has a second
    transition, with the same action and tracking, into a dead end.
    The search steps the first one; replay must take it too."""

    def __init__(self, inner: Protocol):
        self.inner = inner
        self.p, self.b, self.v = inner.p, inner.b, inner.v
        self.num_locations = inner.num_locations

    def initial_state(self):
        return (self.inner.initial_state(), True)

    def transitions(self, state):
        inner_state, alive = state
        if not alive:
            return
        for t in self.inner.transitions(inner_state):
            yield Transition(t.action, (t.state, True), t.tracking)
            if isinstance(t.action, InternalAction):
                yield Transition(t.action, (t.state, False), t.tracking)

    def is_quiescent(self, state):
        return self.inner.is_quiescent(state[0])


def _registry(name, p, b, v):
    def build():
        return build_protocol(name, p, b, v), {}
    return build


def _stale_load_msi():
    spec = FaultSpec("stale-load", "stale-load", EXPECT_REJECT)
    return apply_faults(MSIProtocol(p=2, b=1, v=2), None, [spec]), {}


#: case -> (builder returning ((protocol, st_order), verify kwargs),
#: sha256 of repr((run, symbols, reason)) of its counterexample)
CASES = {
    "buggy-msi-p2b1v1": (
        _registry("buggy-msi", 2, 1, 1),
        "ac8283e1333698792e0bb7d1ca258b033678167975b39aacd6f2c6d43223bc32",
    ),
    "buggy-msi-nowb-p2b1v1": (
        _registry("buggy-msi-nowb", 2, 1, 1),
        "0acce58bf5c7e632daf6a08a742ad3f5bea48342a41883711bd8d345133de317",
    ),
    "storebuffer-p2b2v1": (
        _registry("storebuffer", 2, 2, 1),
        "1e824210ba0275df63622f8e42e27d658827da4ec5cd3e1e8908033adfe2e1c4",
    ),
    "buggy-msi-p2b1v1-preemptions2": (
        lambda: ((BuggyMSIProtocol(p=2, b=1, v=1), None), {"preemptions": 2}),
        "ac8283e1333698792e0bb7d1ca258b033678167975b39aacd6f2c6d43223bc32",
    ),
    # the reason is the observer self-check's, not the checker's
    "msi-p2b1v2-stale-load": (
        _stale_load_msi,
        "7d35c87b5904268e1131af32665273467b26b4b7f6ef0570e1577657b1957db5",
    ),
    # the first match is the transition the search stepped
    "dead-end-twins-buggy-msi-p2b1v1": (
        lambda: ((DeadEndTwins(BuggyMSIProtocol(p=2, b=1, v=1)), None), {}),
        "ac8283e1333698792e0bb7d1ca258b033678167975b39aacd6f2c6d43223bc32",
    ),
}


def cx_digest(case: str) -> str:
    (protocol, st_order), kwargs = CASES[case][0]()
    cx = verify_protocol(protocol, st_order, **kwargs).counterexample
    assert cx is not None, f"{case}: no counterexample"
    return hashlib.sha256(repr((cx.run, cx.symbols, cx.reason)).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_counterexample_replay_is_bit_identical(case):
    assert cx_digest(case) == CASES[case][1]


if __name__ == "__main__":
    for name in CASES:
        print(name, cx_digest(name))
