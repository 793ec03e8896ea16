"""Core protocol utilities: run replay, enumeration, random walks."""


import pytest

from repro.core.operations import LD, ST, InternalAction
from repro.core.protocol import (
    FRESH,
    Protocol,
    Tracking,
    Transition,
    enumerate_runs,
    random_run,
)
from repro.memory import LazyCachingProtocol, SerialMemory, StoreBufferProtocol


def test_run_states_replays():
    proto = SerialMemory(p=1, b=1, v=2)
    states = proto.run_states((ST(1, 1, 1), ST(1, 1, 2), LD(1, 1, 2)))
    assert len(states) == 4
    assert states[0] == (0,)
    assert states[-1] == (2,)


class TwoTicks(Protocol):
    """A toy protocol whose ``tick`` is enabled twice in state 0: first
    into state 1, then into state 2.  Only state 1 enables ``tock``."""

    p = b = v = 1
    num_locations = 1
    TICK = InternalAction("tick")
    TOCK = InternalAction("tock")

    def initial_state(self):
        return 0

    def transitions(self, state):
        if state == 0:
            yield Transition(self.TICK, 1, Tracking())
            yield Transition(self.TICK, 2, Tracking())
        elif state == 1:
            yield Transition(self.TOCK, 3, Tracking())


def test_transition_for_takes_the_first_match():
    proto = TwoTicks()
    assert proto.transition_for(0, TwoTicks.TICK).state == 1
    assert [t.state for t in proto.replay((TwoTicks.TICK, TwoTicks.TOCK))] == [1, 3]
    assert proto.run_states((TwoTicks.TICK, TwoTicks.TOCK)) == [0, 1, 3]


def test_transition_for_is_none_for_a_disabled_action():
    proto = TwoTicks()
    assert proto.transition_for(0, TwoTicks.TOCK) is None
    assert proto.transition_for(3, TwoTicks.TICK) is None


def test_replay_of_a_non_run_names_the_index():
    proto = TwoTicks()
    with pytest.raises(ValueError, match=r"action #2 .*not enabled"):
        list(proto.replay((TwoTicks.TICK, TwoTicks.TOCK, TwoTicks.TOCK)))
    assert not proto.is_run((TwoTicks.TICK, TwoTicks.TOCK, TwoTicks.TOCK))


def test_run_states_rejects_disabled_action():
    proto = SerialMemory(p=1, b=1, v=1)
    with pytest.raises(ValueError):
        proto.run_states((LD(1, 1, 1),))


def test_is_run():
    proto = SerialMemory(p=1, b=1, v=1)
    assert proto.is_run((ST(1, 1, 1), LD(1, 1, 1)))
    assert not proto.is_run((LD(1, 1, 1),))
    assert proto.is_run(())


def test_enumerate_runs_counts():
    proto = SerialMemory(p=1, b=1, v=1)
    runs = list(enumerate_runs(proto, 2))
    # depth 0: (), depth 1: LD⊥, ST; depth 2: four two-step runs
    assert () in runs
    assert (ST(1, 1, 1), LD(1, 1, 1)) in runs
    assert all(len(r) <= 2 for r in runs)
    assert len(runs) == 1 + 2 + 4


def test_enumerate_runs_trace_only_dedupes():
    proto = SerialMemory(p=1, b=1, v=1)
    traces = list(enumerate_runs(proto, 3, trace_only=True))
    assert len(traces) == len(set(traces))
    assert () in traces


def test_random_run_is_valid(rng):
    proto = StoreBufferProtocol(p=2, b=2, v=1)
    for _ in range(10):
        run = random_run(proto, 15, rng)
        assert proto.is_run(run)


def test_random_run_quiescent_extension(rng):
    proto = LazyCachingProtocol(p=2, b=1, v=1)
    for _ in range(10):
        run = random_run(proto, 12, rng, end_quiescent=True)
        states = proto.run_states(run)
        assert proto.is_quiescent(states[-1])


def test_tracking_defaults():
    t = Tracking()
    assert t.location is None and t.copies == {}
    assert FRESH == 0


def test_describe_mentions_parameters():
    d = SerialMemory(p=3, b=2, v=4).describe()
    assert "p=3" in d and "b=2" in d and "v=4" in d and "L=2" in d


def test_default_may_load_bottom_true():
    from repro.core.protocol import Protocol

    class Dummy(Protocol):
        p = b = v = 1
        num_locations = 1

        def initial_state(self):
            return 0

        def transitions(self, state):
            return ()

    assert Dummy().may_load_bottom(0, 1)
    assert Dummy().is_quiescent(0)
