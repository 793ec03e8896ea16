"""ST-index tracking and the Lemma 4.1 inheritance generator
(Section 4.1, Figure 4)."""


import pytest

from repro.core.constraint_graph import EdgeKind
from repro.core.descriptor import AddIdSym, decode
from repro.core.operations import LD, ST, InternalAction
from repro.core.protocol import FRESH, Tracking, random_run
from repro.core.tracking import (
    InheritanceGenerator,
    STIndexTracker,
    inheritance_edges_of_run,
    st_indices_after,
)
from repro.memory.figure4 import Figure4Protocol, figure4_run, figure4_steps
from repro.memory.msi import MSIProtocol
from repro.memory.serial_memory import SerialMemory


def test_figure4_st_indices_exact():
    """Figure 4(c): ST-index(R,1..4) = 3, 0, 1, 2."""
    tracker = STIndexTracker(4)
    for action, tracking in figure4_steps():
        tracker.feed(action, tracking)
    assert tracker.all_indices() == {1: 3, 2: 0, 3: 1, 4: 2}
    assert tracker.trace_length == 3


def test_figure4_run_is_a_protocol_run():
    proto = Figure4Protocol()
    assert proto.is_run(figure4_run())


def test_st_index_initially_zero():
    t = STIndexTracker(3)
    assert t.all_indices() == {1: 0, 2: 0, 3: 0}


def test_loads_do_not_change_indices():
    t = STIndexTracker(2)
    t.feed(ST(1, 1, 1), Tracking(location=1))
    t.feed(LD(1, 1, 1), Tracking(location=1))
    assert t.index_of(1) == 1
    assert t.trace_length == 2  # loads count as trace operations


def test_copy_semantics_are_simultaneous():
    t = STIndexTracker(2)
    t.feed(ST(1, 1, 1), Tracking(location=1))
    t.feed(ST(1, 1, 2), Tracking(location=2))
    # swap: both right-hand sides read the pre-transition snapshot
    t.feed(InternalAction("swap"), Tracking(copies={1: 2, 2: 1}))
    assert t.index_of(1) == 2 and t.index_of(2) == 1


def test_fresh_erases_location():
    t = STIndexTracker(1)
    t.feed(ST(1, 1, 1), Tracking(location=1))
    t.feed(InternalAction("inv"), Tracking(copies={1: FRESH}))
    assert t.index_of(1) == 0


def test_st_without_location_label_raises():
    t = STIndexTracker(1)
    with pytest.raises(ValueError):
        t.feed(ST(1, 1, 1), Tracking())


def test_st_indices_after_on_serial_memory():
    proto = SerialMemory(p=1, b=2, v=2)
    run = (ST(1, 1, 1), ST(1, 2, 2), ST(1, 1, 2))
    assert st_indices_after(proto, run) == {1: 3, 2: 2}


# ----------------------------------------------------------------------
# Lemma 4.1 generator vs the direct oracle
# ----------------------------------------------------------------------
def _random_transition_walk(protocol, rng, length):
    """A random walk returning the Transition objects themselves
    (avoids action-ambiguity on replay: several transitions may share
    an action, e.g. stores to different scratchpad slots)."""
    state = protocol.initial_state()
    walk = []
    for _ in range(length):
        options = list(protocol.transitions(state))
        if not options:
            break
        t = options[rng.randrange(len(options))]
        walk.append(t)
        state = t.state
    return walk


def _oracle_edges(protocol, walk):
    """Inheritance edges from ST-indices, straight off the tracker."""
    from repro.core.operations import Load, Operation

    tracker = STIndexTracker(protocol.num_locations)
    edges = []
    j = 0
    for t in walk:
        if isinstance(t.action, Operation):
            j += 1
            if isinstance(t.action, Load):
                i = tracker.index_of(t.tracking.location)
                if i != 0:
                    edges.append((i, j))
        tracker.feed(t.action, t.tracking)
    return sorted(edges)


def _generator_edges(protocol, walk):
    """Decode the generator's descriptor and map its inheritance edges
    back to trace indices."""
    gen = InheritanceGenerator(protocol.num_locations)
    syms = []
    for t in walk:
        syms.extend(gen.feed(t.action, t.tracking))
    labelled = decode(syms, strict=True)
    # node numbers in the decoded graph count *emitted* nodes (LD and
    # ST only), which equals trace numbering because the generator
    # emits exactly one node per trace operation
    return sorted(labelled.graph.edges()), labelled


def test_generator_matches_oracle_on_figure4_protocol(rng):
    proto = Figure4Protocol(p=2, b=2, v=2)
    for _ in range(25):
        walk = _random_transition_walk(proto, rng, rng.randint(1, 15))
        assert _generator_edges(proto, walk)[0] == _oracle_edges(proto, walk)


def test_generator_matches_oracle_on_msi(rng):
    proto = MSIProtocol(p=2, b=2, v=2)
    for _ in range(25):
        walk = _random_transition_walk(proto, rng, rng.randint(1, 20))
        assert _generator_edges(proto, walk)[0] == _oracle_edges(proto, walk)


def test_oracle_by_action_replay_on_unambiguous_protocol(rng):
    # serial memory has one transition per action, so action replay
    # (inheritance_edges_of_run) is well-defined there
    proto = SerialMemory(p=2, b=2, v=2)
    for _ in range(10):
        run = random_run(proto, rng.randint(1, 12), rng)
        walk = list(proto.replay(run))
        assert sorted(inheritance_edges_of_run(proto, run)) == _oracle_edges(proto, walk)


def test_generator_emits_add_id_on_copies():
    proto = Figure4Protocol()
    run = figure4_run()
    gen = InheritanceGenerator(proto.num_locations)
    syms = []
    for t in proto.replay(run):
        syms.extend(gen.feed(t.action, t.tracking))
    assert any(isinstance(s, AddIdSym) for s in syms), "Get-Shared must add-ID"


def test_generator_edge_labels_are_inheritance():
    proto = SerialMemory(p=2, b=1, v=1)
    run = (ST(1, 1, 1), LD(2, 1, 1))
    gen = InheritanceGenerator(proto.num_locations)
    syms = []
    for t in proto.replay(run):
        syms.extend(gen.feed(t.action, t.tracking))
    g = decode(syms)
    assert g.graph.label(1, 2) == EdgeKind.INH
    assert g.node_labels == [ST(1, 1, 1), LD(2, 1, 1)]


def test_bottom_loads_get_no_inheritance_edge():
    proto = SerialMemory(p=1, b=1, v=1)
    run = (LD(1, 1, 0),)
    assert inheritance_edges_of_run(proto, run) == []
    walk = list(proto.replay(run))
    got, labelled = _generator_edges(proto, walk)
    assert got == [] and labelled.n == 1
