"""The unified verification engine (src/repro/engine/).

Covers the three tentpole pieces in isolation — the interning
:class:`StateStore`, the uniform :class:`Component` stepping protocol,
and the pluggable frontier strategies behind :class:`SearchEngine` —
plus the stats contract the adapters rely on (peak frontier and
interned-state counters that survive budget stops).
"""

import pytest

from repro.core.cycle_checker import CycleChecker, CycleState
from repro.core.descriptor import AddIdSym, EdgeSym, FreeIdSym, NodeSym
from repro.core.observer import Observer
from repro.engine import (
    BFSFrontier,
    CheckerComponent,
    ComposedSystem,
    DFSFrontier,
    ObserverComponent,
    ProtocolComponent,
    ProtocolSystem,
    RandomWalkFrontier,
    SearchEngine,
    StateStore,
    make_frontier,
)
from repro.harness import Budget
from repro.memory import (
    MSIProtocol,
    SerialMemory,
    StoreBufferProtocol,
    build_protocol,
    store_buffer_st_order,
)
from repro.modelcheck.explorer import explore
from repro.modelcheck.product import ProductSearch


# -------------------------------------------------------------- StateStore


def test_statestore_interns_to_dense_ids():
    store = StateStore()
    a, new_a = store.intern(("x", 1))
    b, new_b = store.intern(("x", 2))
    again, new_again = store.intern(("x", 1))
    assert (a, b) == (0, 1)
    assert new_a and new_b and not new_again
    assert again == a
    assert len(store) == 2
    assert ("x", 1) in store and ("y", 9) not in store
    assert store.id_of(("x", 2)) == 1
    assert store.id_of(("nope",)) is None


def test_statestore_path_reconstruction():
    store = StateStore()
    root, _ = store.intern("root")
    mid, _ = store.intern("mid")
    leaf, _ = store.intern("leaf")
    store.set_parent(mid, root, "a1")
    store.set_parent(leaf, mid, "a2")
    assert store.path_to(root) == []
    assert store.path_to(mid) == ["a1"]
    assert store.path_to(leaf) == ["a1", "a2"]
    assert store.depth_of(root) == 0
    assert store.depth_of(leaf) == 2


# --------------------------------------------------------------- frontiers


def test_bfs_frontier_is_fifo():
    f = BFSFrontier()
    for e in [("s", 0, 0), ("t", 1, 0), ("u", 2, 1)]:
        f.push(e)
    assert len(f) == 3 and bool(f)
    assert [f.pop()[0] for _ in range(3)] == ["s", "t", "u"]
    assert not f


def test_dfs_frontier_is_lifo():
    f = DFSFrontier()
    for e in [("s", 0, 0), ("t", 1, 0), ("u", 2, 1)]:
        f.push(e)
    assert [f.pop()[0] for _ in range(3)] == ["u", "t", "s"]


def test_random_walk_frontier_is_seeded_and_complete():
    def drain(seed):
        f = RandomWalkFrontier(seed)
        for i in range(20):
            f.push((f"s{i}", i, 0))
        return [f.pop()[0] for _ in range(len(f))]

    a, b = drain(7), drain(7)
    assert a == b  # reproducible
    assert sorted(a) == sorted(f"s{i}" for i in range(20))  # no loss
    assert drain(8) != a  # the seed matters


def test_make_frontier_resolves_names_and_rejects_unknown():
    assert isinstance(make_frontier("bfs"), BFSFrontier)
    assert isinstance(make_frontier("dfs"), DFSFrontier)
    assert isinstance(make_frontier("random-walk", seed=3), RandomWalkFrontier)
    ready = DFSFrontier()
    assert make_frontier(ready) is ready
    with pytest.raises(ValueError, match="unknown search strategy"):
        make_frontier("best-first")


# -------------------------------------------------------------- components


def test_protocol_component_steps_through_enabled_transitions():
    comp = ProtocolComponent(SerialMemory(p=2, b=1, v=1))
    state = comp.initial()
    for t in comp.enabled(state):
        nxt, emitted = comp.step(state, t)
        assert nxt == t.state
        assert emitted == (t,)


def test_observer_component_forks_instead_of_mutating():
    proto = SerialMemory(p=2, b=1, v=1)
    comp = ObserverComponent(proto)
    obs = comp.initial()
    assert isinstance(obs, Observer)
    key_before = obs.state_key()
    t = next(iter(proto.transitions(proto.initial_state())))
    obs2, symbols = comp.step(obs, t)
    assert obs2 is not obs
    assert obs.state_key() == key_before  # parent untouched
    assert isinstance(symbols, tuple) and symbols  # a LD/ST emits


def test_checker_component_shares_state_on_empty_batch():
    comp = CheckerComponent(full=False)
    chk = comp.initial()
    same, emitted = comp.step(chk, ())
    assert same is chk and emitted == ()
    assert chk.accepts_so_far and chk.accepts_at_end()


def test_checker_component_memoizes_interned_transitions():
    comp = CheckerComponent(full=False)
    root = comp.initial()
    assert isinstance(root, CycleState)
    batch = (NodeSym(1, "a"), NodeSym(2, "b"), EdgeSym(1, 2, "po"))
    one, _ = comp.step(root, batch)
    assert isinstance(one, CycleState)
    assert (comp.states, comp.misses) == (2, 1)
    # labels are not part of the projection: a relabelled batch hits
    again, _ = comp.step(root, (NodeSym(1), NodeSym(2), EdgeSym(1, 2)))
    assert again is one
    assert (comp.states, comp.misses) == (2, 1)
    # a different step that lands on a known key reuses its state
    back, _ = comp.step(one, (FreeIdSym(1), FreeIdSym(2)))
    assert back is root
    assert (comp.states, comp.misses) == (2, 2)


def test_checker_component_rejected_step_is_fresh_and_uninterned():
    comp = CheckerComponent(full=False)
    one, _ = comp.step(comp.initial(), (NodeSym(1), NodeSym(2), EdgeSym(1, 2)))
    closing = (EdgeSym(2, 1),)
    bad, _ = comp.step(one, closing)
    bad_again, _ = comp.step(one, closing)
    assert type(bad) is CycleChecker and type(bad_again) is CycleChecker
    assert bad is not bad_again  # never memoized
    assert not bad.accepts_so_far and not bad.accepts_at_end()
    assert bad.violations() == ["constraint-graph cycle"]
    assert bad.state_key() == ("REJECTED",)
    assert comp.states == 2 and comp.misses == 3
    # a rejected checker steps by fork and feed, and stays rejected
    later, _ = comp.step(bad, (NodeSym(3),))
    assert later is not bad and not later.accepts_so_far


def test_interned_checker_state_cannot_be_mutated_in_place():
    comp = CheckerComponent(full=False)
    state, _ = comp.step(comp.initial(), (NodeSym(1), NodeSym(2), EdgeSym(1, 2)))
    key = state.state_key()
    assert isinstance(key, tuple) and state.key is key
    with pytest.raises(AttributeError):
        state.key = ()
    with pytest.raises(AttributeError):
        state.rejected = True
    with pytest.raises(AttributeError):
        state.feed(EdgeSym(2, 1))
    # decoding hands out a mutable checker in the same state; feeding
    # it leaves the interned state as it was
    chk = CycleChecker.from_key(key)
    assert chk.state_key() == key
    assert not chk.feed(EdgeSym(2, 1))
    assert state.state_key() == key and state.accepts_so_far
    with pytest.raises(ValueError):
        CycleState(("REJECTED",))


def test_cycle_checker_from_key_round_trips_and_behaves_alike():
    syms = [NodeSym(1), NodeSym(2), NodeSym(3), EdgeSym(1, 2), EdgeSym(3, 2),
            AddIdSym(2, 4), FreeIdSym(2)]
    chk = CycleChecker()
    chk.feed_all(syms)
    decoded = CycleChecker.from_key(chk.state_key())
    assert decoded.state_key() == chk.state_key()
    rename = {1: 2, 3: 0, 4: 1}
    assert decoded.state_key(rename) == chk.state_key(rename)
    assert CycleState(chk.state_key()).state_key(rename) == chk.state_key(rename)
    for more in ([EdgeSym(4, 1)], [EdgeSym(4, 3)], [FreeIdSym(4), EdgeSym(3, 1)]):
        a, b = chk.fork(), decoded.fork()
        assert a.feed_all(more) == b.feed_all(more)
        assert a.state_key() == b.state_key()
    assert not CycleChecker.from_key(("REJECTED",)).accepts


def test_fast_lazy_caching_unreduced_state_count_is_pinned():
    # the interned checker must not merge or split product states:
    # lazy caching p2b1v2 under its write-order generator, unreduced
    proto, gen = build_protocol("lazy", 2, 1, 2)
    search = ProductSearch(proto, gen, mode="fast", stop_on_violation=False)
    result = search.run()
    assert result.ok
    assert (result.stats.states, result.stats.transitions) == (2748, 10040)
    assert 0 < search.system.checker_comp.states <= search.system.checker_comp.misses + 1


# ---------------------------------------------------------- search engine


def test_protocol_system_matches_legacy_explorer():
    proto = MSIProtocol(p=2, b=1, v=2)
    engine = SearchEngine(
        ProtocolSystem(proto),
        check_quiescence_reachability=False,
    )
    out = engine.run()
    legacy = explore(MSIProtocol(p=2, b=1, v=2))
    assert out.status == "done"
    assert engine.stats.states == legacy.states
    assert engine.stats.transitions == legacy.transitions


def test_all_strategies_exhaust_the_same_state_space():
    counts = set()
    for strategy in ("bfs", "dfs", "random-walk"):
        engine = SearchEngine(
            ProtocolSystem(MSIProtocol(p=2, b=1, v=1)),
            strategy=strategy,
            seed=11,
            check_quiescence_reachability=False,
        )
        engine.run()
        counts.add(engine.stats.states)
    assert len(counts) == 1  # expansion order cannot change reachability


def _product_engine():
    # MSI p2b1v1's joint space (1290 states) is big enough that every
    # cap/budget below actually bites; the 26-state protocol-only space
    # is not.
    return SearchEngine(
        ComposedSystem(MSIProtocol(p=2, b=1, v=1), mode="fast"),
        check_quiescence_reachability=False,
    )


def test_strict_cap_never_exceeds_max_states():
    engine = SearchEngine(
        ComposedSystem(MSIProtocol(p=2, b=1, v=1), mode="fast"),
        max_states=50,
        strict_cap=True,
        check_quiescence_reachability=False,
    )
    out = engine.run()
    assert out.status == "done"
    assert engine.stats.truncated
    assert engine.stats.states <= 50


def test_cooperative_stop_then_resume_reaches_same_outcome():
    reference = _product_engine()
    reference.run()

    engine = _product_engine()
    stopped = engine.run(Budget(states=40).start().should_stop)
    assert stopped.status == "stopped"
    assert engine.stats.stop_reason is not None
    assert not engine.done
    final = engine.run()
    assert final.status == "done"
    assert engine.done
    assert engine.stats.states == reference.stats.states
    assert engine.stats.stop_reason is None and not engine.stats.truncated


def test_stats_counters_are_cumulative_across_resume():
    engine = _product_engine()
    engine.run(Budget(states=40).start().should_stop)
    peak_leg1 = engine.stats.peak_frontier
    states_leg1 = engine.stats.states
    assert peak_leg1 >= 1 and states_leg1 >= 1
    engine.run()
    # the resumed leg maxes/continues the first leg's counters instead
    # of restarting them
    assert engine.stats.peak_frontier >= peak_leg1
    assert engine.stats.states >= states_leg1
    d = engine.stats.as_dict()
    assert d["peak_frontier"] == engine.stats.peak_frontier
    assert d["states"] == engine.stats.states


def test_composed_system_key_is_stable_and_canonical():
    system = ComposedSystem(SerialMemory(p=2, b=1, v=1), mode="fast")
    state = system.initial()
    assert system.key(state) == system.key(state)
    steps = list(system.steps(state))
    assert steps and all(s.ok for s in steps)
    # stepping twice from the same parent state gives identical keys
    again = list(system.steps(state))
    assert [s.key for s in steps] == [s.key for s in again]


def test_composed_system_end_check_only_at_quiescence():
    # the store buffer has real non-quiescent states (non-empty
    # buffers); MSI's atomic bus is quiescent everywhere
    proto = StoreBufferProtocol(p=2, b=1, v=1)
    system = ComposedSystem(proto, store_buffer_st_order(), mode="fast")
    state = system.initial()
    assert proto.is_quiescent(state[0])
    assert system.end_check(state) is True
    # walk a few levels: some reachable state must be non-quiescent
    frontier, busy = [state], None
    for _ in range(4):
        if busy is not None:
            break
        nxt = []
        for s in frontier:
            for step in system.steps(s):
                if not proto.is_quiescent(step.state[0]):
                    busy = step.state
                    break
                nxt.append(step.state)
            if busy is not None:
                break
        frontier = nxt
    assert busy is not None
    assert system.end_check(busy) is None
