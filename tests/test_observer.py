"""The witness observer (Theorem 4.1).

The central property backing both verification modes: on every run of
a protocol with correct tracking labels, the observer's emitted
descriptor satisfies all five edge-annotation constraints (full-
checker acceptance), and describes a graph whose offline validation
agrees.  For SC protocols the graph is additionally acyclic.
"""

import random

import pytest

from repro.core.checker import Checker
from repro.core.constraint_graph import ConstraintGraph, EdgeKind
from repro.core.descriptor import FreeIdSym, NodeSym, decode
from repro.core.observer import Observer
from repro.core.operations import BOTTOM, LD, ST
from repro.core.bounds import implementation_bandwidth_bound
from repro.core.protocol import Tracking, Transition, random_run
from repro.memory import (
    DirectoryProtocol,
    LazyCachingProtocol,
    MSIProtocol,
    SerialMemory,
    StoreBufferProtocol,
    lazy_caching_st_order,
    store_buffer_st_order,
)
from repro.models.causal import CausalObserver


def drive(protocol, run, st_order=None, self_check=False):
    obs = Observer(protocol, st_order, self_check=self_check)
    state = protocol.initial_state()
    syms = []
    for action in run:
        for t in protocol.transitions(state):
            if t.action == action:
                break
        else:
            raise AssertionError(f"{action!r} not enabled")
        syms.extend(obs.on_transition(t))
        state = t.state
    return obs, syms, state


def to_constraint_graph(protocol, run, syms) -> ConstraintGraph:
    labelled = decode(syms, strict=True)
    cg = ConstraintGraph(labelled.node_labels)
    for (u, v) in labelled.graph.edges():
        cg.add_edge(u, v, labelled.graph.label(u, v) or EdgeKind.NONE)
    return cg


def test_simple_store_load_stream():
    proto = SerialMemory(p=2, b=1, v=1)
    run = (ST(1, 1, 1), LD(2, 1, 1))
    _obs, syms, _ = drive(proto, run)
    labelled = decode(syms, strict=True)
    assert labelled.node_labels == [ST(1, 1, 1), LD(2, 1, 1)]
    assert labelled.graph.label(1, 2) & EdgeKind.INH


def test_po_edges_per_processor_chain():
    proto = SerialMemory(p=2, b=1, v=2)
    run = (ST(1, 1, 1), ST(2, 1, 2), ST(1, 1, 1), LD(2, 1, 1))
    _obs, syms, _ = drive(proto, run)
    g = decode(syms, strict=True).graph
    assert g.label(1, 3) & EdgeKind.PO
    assert g.label(2, 4) & EdgeKind.PO
    assert not (g.has_edge(1, 2) and g.label(1, 2) & EdgeKind.PO)


def test_sto_edges_real_time_order():
    proto = SerialMemory(p=2, b=1, v=2)
    run = (ST(1, 1, 1), ST(2, 1, 2))
    _obs, syms, _ = drive(proto, run)
    g = decode(syms, strict=True).graph
    assert g.label(1, 2) & EdgeKind.STO


def test_forced_edge_emitted_for_stale_read():
    # Figure 3's situation: a load inherits from a ST that already has
    # a STo successor -> forced edge immediately
    proto = MSIProtocol(p=2, b=1, v=2)
    from repro.core.operations import InternalAction

    run = (
        InternalAction("AcquireS", (2, 1)),   # P2 caches ⊥... then:
        InternalAction("AcquireM", (1, 1)),
        ST(1, 1, 1),
        LD(1, 1, 1),
    )
    _obs, syms, _ = drive(proto, run)
    g = decode(syms, strict=True).graph
    # node numbering: 1=ST, 2=LD
    assert g.label(1, 2) & EdgeKind.INH


def test_bottom_load_forced_edge_to_head():
    proto = StoreBufferProtocol(p=2, b=2, v=1)
    from repro.core.operations import InternalAction

    run = (
        ST(1, 1, 1),          # node 1, buffered
        LD(2, 1, 0),          # node 2: ⊥ from memory, head unknown yet
        InternalAction("flush", (1,)),  # ST 1 serialises -> head of B1
    )
    _obs, syms, _ = drive(proto, run, store_buffer_st_order())
    g = decode(syms, strict=True).graph
    assert g.label(2, 1) & EdgeKind.FORCED


def _assert_run_stream_valid(proto, run, st_order=None, expect_acyclic=None):
    obs, syms, end_state = drive(proto, run, st_order)
    chk = Checker()
    safety_ok = chk.feed_all(syms)
    cg = to_constraint_graph(proto, run, syms)
    # annotation validity at quiescent ends (full constraint graph)
    if proto.is_quiescent(end_state):
        offline_valid = cg.is_valid()
        streaming_ok = safety_ok and chk.accepts_at_end()
        acyclic = cg.is_acyclic()
        assert offline_valid, cg.validate()
        assert streaming_ok == acyclic, (run, chk.violations())
        if expect_acyclic is not None:
            assert acyclic == expect_acyclic, run
    return cg


@pytest.mark.parametrize(
    "proto,st_order",
    [
        (SerialMemory(p=2, b=2, v=2), None),
        (MSIProtocol(p=2, b=2, v=2), None),
        (DirectoryProtocol(p=2, b=1, v=2), None),
        (LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order()),
    ],
    ids=["serial", "msi", "directory", "lazy"],
)
def test_observer_streams_are_valid_constraint_graphs(proto, st_order):
    rng = random.Random(7)
    for _ in range(20):
        run = random_run(proto, rng.randint(1, 25), rng, end_quiescent=True)
        fresh = st_order.copy() if st_order is not None else None
        _assert_run_stream_valid(proto, run, fresh, expect_acyclic=True)


def test_observer_stream_cyclic_for_sb_violation():
    proto = StoreBufferProtocol(p=2, b=2, v=1)
    from repro.core.operations import InternalAction

    run = (
        ST(1, 1, 1),
        LD(1, 2, 0),
        ST(2, 2, 1),
        LD(2, 1, 0),
        InternalAction("flush", (1,)),
        InternalAction("flush", (2,)),
    )
    cg = _assert_run_stream_valid(proto, run, store_buffer_st_order(), expect_acyclic=False)
    assert not cg.is_acyclic()


def test_self_check_flags_value_mismatch():
    # drive the observer with a deliberately wrong tracking label
    from repro.core.protocol import Tracking, Transition

    proto = SerialMemory(p=1, b=1, v=2)
    obs = Observer(proto, self_check=True)
    st = proto.initial_state()
    obs.on_transition(Transition(ST(1, 1, 1), st, Tracking(location=1)))
    obs.on_transition(Transition(LD(1, 1, 2), st, Tracking(location=1)))
    assert obs.violation is not None and "holds the" in obs.violation


def test_self_check_flags_value_load_from_bottom_location():
    from repro.core.protocol import Tracking, Transition

    proto = SerialMemory(p=1, b=1, v=2)
    obs = Observer(proto, self_check=True)
    obs.on_transition(Transition(LD(1, 1, 2), proto.initial_state(), Tracking(location=1)))
    assert obs.violation is not None and "⊥" in obs.violation


def test_live_nodes_within_bound(rng):
    for proto, st_order in [
        (SerialMemory(p=2, b=2, v=2), None),
        (MSIProtocol(p=2, b=2, v=2), None),
        (LazyCachingProtocol(p=2, b=2, v=1), lazy_caching_st_order()),
    ]:
        bound = implementation_bandwidth_bound(proto.p, proto.b, proto.num_locations)
        for _ in range(10):
            run = random_run(proto, 40, rng)
            fresh = st_order.copy() if st_order is not None else None
            obs, _syms, _ = drive(proto, run, fresh)
            assert obs.max_live <= bound


def test_fork_independence():
    proto = SerialMemory(p=2, b=1, v=1)
    obs = Observer(proto)
    state = proto.initial_state()
    t = next(iter(proto.transitions(state)))
    obs.on_transition(t)
    other = obs.fork()
    assert obs.state_key() == other.state_key()
    # make the fork diverge with a store (a repeated ⊥-load would
    # legitimately merge back to the same canonical state)
    t2 = next(x for x in proto.transitions(t.state) if isinstance(x.action, ST(1,1,1).__class__))
    other.on_transition(t2)
    assert obs.state_key() != other.state_key()


def test_state_key_ignores_dead_history():
    # two different histories converging to the same live structure
    # must share a state key (this is what makes model checking close)
    proto = SerialMemory(p=1, b=1, v=2)
    runs = [
        (ST(1, 1, 1), ST(1, 1, 2), ST(1, 1, 1)),
        (ST(1, 1, 2), ST(1, 1, 2), ST(1, 1, 1)),
    ]
    keys = []
    for run in runs:
        obs, _s, _ = drive(proto, run)
        keys.append(obs.state_key())
    assert keys[0] == keys[1]


# ------------------------------------------- the shared witness-observer core
#
# Observer (SC) and CausalObserver inherit the ID pool, the location
# map, the LD self-check and forking from WitnessObserver; each test
# below drives both on hand-built transitions.

OBSERVERS = pytest.mark.parametrize("cls", [Observer, CausalObserver])


def _feed(obs, proto, actions, location=1):
    """Drive ``obs`` with each action at ``location``; all emitted symbols."""
    state = proto.initial_state()
    out = []
    for action in actions:
        out.extend(obs.on_transition(Transition(action, state, Tracking(location=location))))
    return out


@OBSERVERS
@pytest.mark.parametrize(
    "actions, message",
    [
        (
            [LD(1, 1, 2)],
            "LD(P1,B1,2) returns a value, but location 1 holds no ST's value (⊥)",
        ),
        (
            [ST(1, 1, 1), LD(1, 1, 2)],
            "LD(P1,B1,2) reads location 1, which holds the value of ST(P1,B1,1)",
        ),
        (
            # a ⊥ value is never stored by a real protocol; built by hand
            [ST(1, 1, BOTTOM), LD(1, 1, BOTTOM)],
            "LD(P1,B1,⊥) is a ⊥-load of a tracked ST value",
        ),
    ],
)
def test_self_check_messages(cls, actions, message):
    proto = SerialMemory(p=1, b=1, v=2)
    obs = cls(proto, self_check=True)
    # a later mismatch never overwrites the first one
    _feed(obs, proto, actions + [LD(1, 1, 1)])
    assert obs.violation == message
    unchecked = cls(proto)
    _feed(unchecked, proto, actions)
    assert unchecked.violation is None


@OBSERVERS
@pytest.mark.parametrize("action, kind", [(ST(1, 1, 1), "ST"), (LD(1, 1, 1), "LD")])
def test_operation_without_location_label_is_rejected(cls, action, kind):
    proto = SerialMemory(p=1, b=1, v=1)
    obs = cls(proto, self_check=True)
    with pytest.raises(ValueError, match=f"{kind} transition without a location label"):
        obs.on_transition(Transition(action, proto.initial_state(), Tracking()))


#: two processors taking turns on one block, every load reading the
#: value its location holds
_TURNS = [
    ST(1, 1, 1), ST(2, 1, 2), LD(2, 1, 2), ST(1, 1, 1), LD(2, 1, 1),
    ST(2, 1, 2), LD(1, 1, 2), ST(1, 1, 1), ST(2, 1, 2), LD(1, 1, 2),
]


#: a run (values unchecked) in which both observers allocate while
#: holding several freed IDs, the first of them freed not the lowest
_REUSE = [
    ST(2, 1, 2), ST(2, 1, 1), LD(1, 1, 2), LD(2, 1, 2), ST(1, 1, 2),
    ST(1, 1, 1), LD(2, 1, 2), LD(1, 1, 1), ST(2, 1, 2), ST(2, 1, 2),
]


@OBSERVERS
def test_freed_ids_are_reused_lowest_first(cls):
    proto = SerialMemory(p=2, b=1, v=2)
    obs = cls(proto)
    syms = _feed(obs, proto, _REUSE)
    free, fresh, not_fifo = [], 0, 0  # free: freed IDs in freeing order
    for sym in syms:
        if isinstance(sym, FreeIdSym):
            free.append(sym.id)
        elif isinstance(sym, NodeSym):
            if free:
                not_fifo += free[0] != min(free)
                assert sym.id == min(free)
                free.remove(sym.id)
            else:
                fresh += 1
                assert sym.id == fresh
    assert not_fifo
    assert obs.max_ids_allocated == fresh < len(_REUSE)
    assert obs.ids_in_use == fresh - len(free)


@OBSERVERS
def test_free_id_symbols_only_with_eager_free(cls):
    proto = SerialMemory(p=2, b=1, v=2)
    eager = _feed(cls(proto), proto, _REUSE)
    lazy = _feed(cls(proto, eager_free=False), proto, _REUSE)
    assert any(isinstance(s, FreeIdSym) for s in eager)
    assert lazy == [s for s in eager if not isinstance(s, FreeIdSym)]


@OBSERVERS
def test_fork_shares_no_mutable_state(cls):
    proto = SerialMemory(p=2, b=1, v=2)
    obs = cls(proto, self_check=True)
    _feed(obs, proto, _TURNS[:5])
    key = obs.state_key()
    other = obs.fork()
    assert other.state_key() == key
    slots = {s for c in type(obs).__mro__ for s in getattr(c, "__slots__", ())}
    for slot in slots - {"_canon_cache"}:  # a read-only memo, reset on mutation
        value = getattr(obs, slot)
        if isinstance(value, (dict, list, set)):
            assert getattr(other, slot) is not value, slot
    # diverge both ways: each side's key survives the other's steps
    _feed(other, proto, _TURNS[5:])
    assert obs.state_key() == key and obs.violation is None
    other_key = other.state_key()
    _feed(obs, proto, [LD(1, 1, 2)])
    assert obs.violation is not None and other.violation is None
    assert other.state_key() == other_key
