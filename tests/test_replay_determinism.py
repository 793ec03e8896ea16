"""Counterexample replay determinism and interning invariants.

A budget-interrupted search that is later resumed must reach exactly
the same verdict as the uninterrupted run — same state count, same
counterexample run, same replayed symbol stream.  Two protocols cover
both verdict polarities:

* **MSI** (sequentially consistent) through the full file
  checkpoint/resume path of :func:`run_verification`;
* **TSO store buffer** (a real SC violation) through in-place
  stop/resume of a single :class:`ProductSearch`.

The second half fuzzes the search engine on seeded random-DAG
workloads (:class:`SeededDagSystem`): across seeds, every canonical
key is interned exactly once; the interned set equals the
independently computed reachable closure; and every counterexample
path replays edge-by-edge to its violating state.

The final section fuzzes the symmetry-reduction layer
(:mod:`repro.engine.reduction`): composed canonical keys are invariant
under every group permutation along seeded random walks of MSI, MESI
and the DSL MSI; counterexamples found under any ``--reduce`` level
replay concretely; and a checkpoint resumes only under the level it
was written with.
"""

import random

import pytest

from repro.core.operations import InternalAction, Operation
from repro.engine import SearchEngine
from repro.engine.component import ComposedSystem, Step, System
from repro.engine.sharding import stable_hash
from repro.harness import Budget, CheckpointError, run_verification
from repro.memory import (
    BuggyMSIProtocol,
    LazyCachingProtocol,
    MESIProtocol,
    MSIProtocol,
    StoreBufferProtocol,
    lazy_caching_st_order,
    store_buffer_st_order,
)
from repro.modelcheck.product import ProductSearch
from repro.pdl.examples import msi_spec


# ------------------------------------------------------------------- MSI


def test_msi_checkpoint_resume_matches_unbudgeted_run(tmp_path):
    baseline = run_verification(MSIProtocol(p=2, b=1, v=1))
    assert baseline.sequentially_consistent and baseline.complete
    assert baseline.counterexample is None

    cp = tmp_path / "msi.ckpt"
    first = run_verification(
        MSIProtocol(p=2, b=1, v=1),
        budget=Budget(states=100),
        checkpoint_path=str(cp),
    )
    assert not first.complete and cp.exists()
    resumed = run_verification(resume_from=str(cp))

    assert resumed.sequentially_consistent == baseline.sequentially_consistent
    assert resumed.complete and resumed.confidence == "proof"
    assert resumed.counterexample is None
    assert resumed.stats.states == baseline.stats.states
    assert resumed.stats.transitions == baseline.stats.transitions
    assert resumed.stats.interned_states == baseline.stats.interned_states


def test_msi_multi_increment_resume_is_stable(tmp_path):
    """Ratcheting through several budget increments changes nothing."""
    baseline = run_verification(MSIProtocol(p=2, b=1, v=1))
    cp = tmp_path / "msi.ckpt"
    res = run_verification(
        MSIProtocol(p=2, b=1, v=1),
        budget=Budget(states=60),
        checkpoint_path=str(cp),
    )
    hops = 0
    while not res.complete:
        hops += 1
        # the state axis is a *cumulative* cap, so each hop must raise it
        res = run_verification(
            resume_from=str(cp),
            budget=Budget(states=60 + 200 * hops),
            checkpoint_path=str(cp),
        )
        assert hops < 100, "resume loop failed to converge"
    assert hops >= 1
    assert res.sequentially_consistent
    assert res.stats.states == baseline.stats.states
    assert res.stats.transitions == baseline.stats.transitions


# ------------------------------------------------- TSO store buffer (non-SC)


def _tso_search():
    return ProductSearch(
        StoreBufferProtocol(p=2, b=2, v=1),
        store_buffer_st_order(),
        mode="fast",
    )


@pytest.fixture(scope="module")
def tso_baseline():
    res = _tso_search().run()
    assert res.counterexample is not None
    return res


def test_tso_baseline_is_refuted(tso_baseline):
    assert not tso_baseline.ok
    cx = tso_baseline.counterexample
    assert cx.run and cx.symbols


def test_tso_inplace_resume_replays_identical_counterexample(tso_baseline):
    search = _tso_search()
    stopped = search.run(Budget(states=30).start().should_stop)
    # the violation lies beyond 30 states, so the first leg must pause
    assert stopped.counterexample is None
    assert stopped.stats.stop_reason is not None

    resumed = search.run()
    cx, base = resumed.counterexample, tso_baseline.counterexample
    assert cx is not None
    assert resumed.stats.states == tso_baseline.stats.states
    assert cx.run == base.run
    assert cx.symbols == base.symbols
    assert cx.reason == base.reason


def test_tso_replay_is_deterministic_across_fresh_searches(tso_baseline):
    again = _tso_search().run()
    assert again.counterexample is not None
    assert again.counterexample.run == tso_baseline.counterexample.run
    assert again.counterexample.symbols == tso_baseline.counterexample.symbols
    assert again.stats.states == tso_baseline.stats.states


# -------------------------------------------- interning invariants (fuzz)


class SeededDagSystem(System):
    """A seeded random DAG over integer nodes: node 0 is the root,
    every node is reachable (each gets a parent among the smaller
    ones), a ``bad_fraction`` of the non-root nodes is marked
    violating (``ok=False``)."""

    def __init__(self, n=40, extra_edges=2.0, bad_fraction=0.15, seed=0):
        rng = random.Random(seed)
        succs = {i: set() for i in range(n)}
        for j in range(1, n):
            succs[rng.randrange(j)].add(j)
        for _ in range(int(extra_edges * n)):
            i = rng.randrange(n - 1)
            succs[i].add(rng.randrange(i + 1, n))
        self.succs = {i: tuple(sorted(s)) for i, s in succs.items()}
        self.bad = frozenset(j for j in range(1, n) if rng.random() < bad_fraction)

    def initial(self):
        return 0

    def key(self, node):
        return ("dag", node)

    def steps(self, node):
        for t in self.succs[node]:
            yield Step(("edge", node, t), t, ("dag", t), t not in self.bad)

    def reachable_closure(self):
        """Nodes the engine must intern: closure from 0 expanding
        only non-violating nodes (violations are recorded, never
        expanded)."""
        seen, todo = {0}, [0]
        while todo:
            n = todo.pop()
            if n in self.bad:
                continue
            for t in self.succs[n]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen


def _exhaustive_engine(system):
    return SearchEngine(
        system,
        stop_on_violation=False,
        track_successors=True,
        check_quiescence_reachability=False,
    )


DAG_SEEDS = [1, 7, 23, 91, 404]


@pytest.mark.parametrize("seed", DAG_SEEDS)
def test_interning_is_unique_and_complete(seed):
    system = SeededDagSystem(seed=seed)
    engine = _exhaustive_engine(system)
    engine.run()

    keys = [engine.store.key_of(sid) for sid in range(len(engine.store))]
    assert len(set(keys)) == len(keys)
    expected = {("dag", n) for n in system.reachable_closure()}
    assert set(keys) == expected
    assert engine.stats.states == len(expected)


@pytest.mark.parametrize("seed", DAG_SEEDS)
def test_paths_replay_to_each_violation(seed):
    system = SeededDagSystem(seed=seed)
    engine = _exhaustive_engine(system)
    out = engine.run()

    expected_bad = {
        ("dag", n) for n in system.reachable_closure() if n in system.bad
    }
    assert engine.violation_keys() == frozenset(expected_bad)
    if not expected_bad:
        assert out.status == "done"
        return

    assert out.status == "violation"
    for sid in out.violations:
        node = 0
        for action in engine.store.path_to(sid):
            tag, src, dst = action
            assert tag == "edge" and src == node
            assert dst in system.succs[src], "replayed a non-edge"
            node = dst
        assert ("dag", node) == engine.store.key_of(sid)
        assert node in system.bad


# ------------------------------------- symmetry reduction (property fuzz)
#
# The quotient-key invariant the whole reduction layer rests on: two
# concrete composed states that are π-images of each other — for any π
# in the declared symmetry group — produce the *same* canonical key.
# The test is non-circular: the π-image state is constructed by
# replaying the π-image *action sequence* through a second, independent
# composed system, never by the reduction's own permutation machinery
# (which is only consulted for the protocol-state half, where it is
# cross-checked against the actually-reached successor).


def _permute_action(action, perm):
    """π-image of a protocol action.  LD/ST permute through the group
    element itself; internal actions of the protocols under test carry
    either ``(proc,)`` args (Lazy Caching's ``memory-write`` /
    ``cache-update``) or ``(proc, block)`` args (everything else)."""
    if isinstance(action, Operation):
        return perm.op(action)
    assert isinstance(action, InternalAction)
    if len(action.args) == 1:
        (P,) = action.args
        return InternalAction(action.name, (perm.proc[P - 1],))
    assert len(action.args) == 2
    P, B = action.args
    return InternalAction(action.name, (perm.proc[P - 1], perm.block[B - 1]))


def _assert_keys_invariant_along_walk(system, perm, rng, steps=25):
    red = system.reduction
    s = system.initial()
    t = system.initial()  # tracks the π-image of s, concretely
    assert system.key(s) == system.key(t)
    for _ in range(steps):
        succs = [st for st in system.steps(s) if st.ok]
        if not succs:
            break
        step = rng.choice(succs)
        pa = _permute_action(step.action, perm)
        tsuccs = [st for st in system.steps(t) if st.action == pa]
        assert len(tsuccs) == 1, f"π-image action {pa!r} not uniquely enabled"
        tstep = tsuccs[0]
        # index-uniformity at the protocol layer: the π-image action
        # from the π-image state lands on the π-image successor
        assert tstep.state[0] == red.permute_pstate(step.state[0], perm)
        # the tentpole invariant: equal quotient keys
        assert tstep.key == step.key
        # and the walk itself, not just the orbit minima: the
        # π-snapshot of s is the identity snapshot of its image
        (_, s_obs, s_chk), (_, t_obs, t_chk) = step.state, tstep.state
        canon_s, okey_s = s_obs.canonical_snapshot(perm)
        canon_t, okey_t = t_obs.canonical_snapshot()
        assert okey_s == okey_t and (
            s_chk.state_key(canon_s, perm) == t_chk.state_key(canon_t)
        )
        s, t = step.state, tstep.state


REDUCTION_FUZZ_SYSTEMS = [
    pytest.param(lambda: MSIProtocol(p=2, b=2, v=2), None, "fast", id="msi-fast"),
    pytest.param(lambda: MSIProtocol(p=2, b=2, v=2), None, "full", id="msi-full"),
    pytest.param(lambda: MESIProtocol(p=2, b=1, v=2), None, "fast", id="mesi-fast"),
    pytest.param(lambda: MESIProtocol(p=3, b=1, v=1), None, "full", id="mesi3-full"),
    pytest.param(lambda: msi_spec(p=2, b=2, v=2), None, "fast", id="dsl-msi-fast"),
    pytest.param(lambda: msi_spec(p=2, b=1, v=2), None, "full", id="dsl-msi-full"),
    # Lazy Caching exercises the structured-content declarations
    # (ArrayContent caches, QueueContent out/in-queues) and the
    # WriteOrderSTOrder permuted walk in one system
    pytest.param(
        lambda: LazyCachingProtocol(p=2, b=2, v=2),
        lazy_caching_st_order,
        "fast",
        id="lazy-fast",
    ),
    pytest.param(
        lambda: LazyCachingProtocol(p=2, b=1, v=2),
        lazy_caching_st_order,
        "full",
        id="lazy-full",
    ),
]


@pytest.mark.parametrize("make_proto,make_gen,mode", REDUCTION_FUZZ_SYSTEMS)
@pytest.mark.parametrize("seed", [0, 13, 77])
def test_composed_key_invariant_under_symmetry_group(make_proto, make_gen, mode, seed):
    system = ComposedSystem(
        make_proto(), make_gen() if make_gen else None, mode=mode, reduce="full"
    )
    rng = random.Random(seed)
    for perm in system.reduction.perms:
        if perm.is_identity:
            continue
        _assert_keys_invariant_along_walk(system, perm, rng)


@pytest.mark.parametrize("reduce", ["proc", "proc+block", "full"])
def test_reduced_counterexample_replays_concretely(reduce):
    """Counterexamples under any reduction level are concrete runs: a
    fresh observer + checker replay (check_run) genuinely rejects them
    — no permutation ever needs un-doing."""
    from repro.core.verify import check_run, verify_protocol

    proto = BuggyMSIProtocol(p=2, b=1, v=2)
    res = verify_protocol(proto, None, mode="fast", reduce=reduce)
    assert res.counterexample is not None
    assert not check_run(proto, res.counterexample.run, None).ok


def test_reduced_verdict_and_quotient_match_unreduced_msi():
    """reduce=full verifies the same protocol with a strictly smaller
    interned quotient and the identical verdict."""
    from repro.core.verify import verify_protocol

    base = verify_protocol(MSIProtocol(p=2, b=1, v=2), None, mode="fast")
    red = verify_protocol(
        MSIProtocol(p=2, b=1, v=2), None, mode="fast", reduce="full"
    )
    assert base.sequentially_consistent and red.sequentially_consistent
    assert red.complete and base.complete
    assert red.stats.states * 2 <= base.stats.states


def test_reduced_verdict_and_quotient_match_unreduced_lazy():
    """The structured-content spec (nested caches, payload queues)
    carries Lazy Caching — non-trivial ST order and all — through
    reduce=full with the identical verdict on a smaller quotient."""
    from repro.core.verify import verify_protocol

    base = verify_protocol(
        LazyCachingProtocol(p=2, b=1, v=2), lazy_caching_st_order(), mode="fast"
    )
    red = verify_protocol(
        LazyCachingProtocol(p=2, b=1, v=2),
        lazy_caching_st_order(),
        mode="fast",
        reduce="full",
    )
    assert base.sequentially_consistent and red.sequentially_consistent
    assert red.complete and base.complete
    assert red.stats.states * 2 <= base.stats.states


def test_structured_content_declarations_are_validated():
    from repro.engine.reduction import (
        ArrayContent,
        FieldSym,
        QueueContent,
        ReductionError,
        SymmetrySpec,
        build_reduction,
    )

    class BadArraySort(LazyCachingProtocol):
        def symmetry_spec(self):
            spec = super().symmetry_spec()
            fields = list(spec.state_fields)
            fields[1] = (FieldSym(
                axes=("proc",), content=ArrayContent(axes=("block",), sort="bogus")
            ),)
            return SymmetrySpec(tuple(fields), spec.location_axes)

    with pytest.raises(ReductionError, match="unknown content sort"):
        build_reduction(BadArraySort(p=2, b=1, v=1), "proc")

    class BadQueueSort(LazyCachingProtocol):
        def symmetry_spec(self):
            spec = super().symmetry_spec()
            fields = list(spec.state_fields)
            fields[2] = (FieldSym(
                axes=("proc",), content=QueueContent(sorts=("block", "bogus"))
            ),)
            return SymmetrySpec(tuple(fields), spec.location_axes)

    with pytest.raises(ReductionError, match="unknown content sort"):
        build_reduction(BadQueueSort(p=2, b=1, v=1), "proc")


def test_queue_item_arity_mismatch_is_rejected():
    """A QueueContent whose declared arity disagrees with the protocol's
    actual queue items must fail loudly during canonicalization, not
    silently truncate payload maps."""
    from repro.engine.reduction import (
        FieldSym,
        QueueContent,
        ReductionError,
        SymmetrySpec,
        build_reduction,
    )

    class WrongArity(LazyCachingProtocol):
        def symmetry_spec(self):
            spec = super().symmetry_spec()
            fields = list(spec.state_fields)
            # out-queue items are (block, value) pairs, declared as triples
            fields[2] = (FieldSym(
                axes=("proc",), content=QueueContent(sorts=("block", "value", None))
            ),)
            return SymmetrySpec(tuple(fields), spec.location_axes)

    proto = WrongArity(p=2, b=1, v=1)
    red = build_reduction(proto, "proc")
    state = (
        (0,),           # mem
        ((0,), (0,)),   # caches
        (((1, 1),), ()),  # outq of proc 1 holds one (block, value) pair
        ((), ()),       # inqs
    )
    swap = next(p for p in red.perms if not p.is_identity)
    with pytest.raises(ReductionError, match="components"):
        red.permute_pstate(state, swap)


def test_negative_sentinels_are_content_map_fixed_points():
    """INVALID (-1) cache slots must survive value permutation unmapped
    — a content map that rewrote them would alias an invalid slot to a
    real value's slot and merge distinct states."""
    from repro.engine.reduction import build_reduction

    proto = LazyCachingProtocol(p=2, b=1, v=2, valid_initial_caches=False)
    red = build_reduction(proto, "full")
    init = proto.initial_state()
    assert init[1] == ((-1,), (-1,))
    for perm in red.perms:
        assert red.permute_pstate(init, perm)[1] == ((-1,), (-1,))


def test_checkpoint_resume_rejects_mismatched_reduce_level(tmp_path):
    cp = tmp_path / "red.ckpt"
    first = run_verification(
        MSIProtocol(p=2, b=1, v=2),
        budget=Budget(states=100),
        checkpoint_path=str(cp),
        reduce="full",
    )
    assert not first.complete and cp.exists()
    with pytest.raises(CheckpointError, match="--reduce full"):
        run_verification(resume_from=str(cp), reduce="off")
    # inheriting the checkpointed level (reduce=None) completes the
    # quotient search and matches a fresh reduced run exactly
    resumed = run_verification(resume_from=str(cp))
    fresh = run_verification(MSIProtocol(p=2, b=1, v=2), reduce="full")
    assert resumed.sequentially_consistent and resumed.complete
    assert resumed.stats.states == fresh.stats.states
    assert resumed.stats.transitions == fresh.stats.transitions


def test_undercounting_symmetry_spec_is_rejected():
    """A spec whose declared field sizes don't cover a state component
    exactly must raise, not silently truncate permuted images (which
    would collide distinct states on one quotient key)."""
    from repro.engine.reduction import (
        FieldSym,
        ReductionError,
        SymmetrySpec,
        build_reduction,
    )

    class UndercountMSI(MSIProtocol):
        def symmetry_spec(self):
            # cval is (proc, block)-indexed; declaring it ('block',)
            # undercounts it by a factor of p
            return SymmetrySpec(
                state_fields=(
                    (FieldSym(axes=("block",), content="value"),),
                    (FieldSym(axes=("proc", "block"), content=None),),
                    (FieldSym(axes=("block",), content="value"),),
                ),
                location_axes=(("block",), ("proc", "block")),
            )

    with pytest.raises(ReductionError, match="state component 2"):
        build_reduction(UndercountMSI(p=2, b=2, v=2), "proc")

    class MissingGroupMSI(MSIProtocol):
        def symmetry_spec(self):
            return SymmetrySpec(
                state_fields=(
                    (FieldSym(axes=("block",), content="value"),),
                    (FieldSym(axes=("proc", "block"), content=None),),
                ),
                location_axes=(("block",), ("proc", "block")),
            )

    with pytest.raises(ReductionError, match="declares 2 state components"):
        build_reduction(MissingGroupMSI(p=2, b=2, v=2), "proc")


def test_content_maps_are_shared_across_slots():
    """build_reduction interns one content-map tuple per sort per
    permutation; every slot of the same sort must reference it."""
    from repro.engine.reduction import build_reduction

    red = build_reduction(MSIProtocol(p=2, b=2, v=2), "full")
    for perm in red.perms:
        mem_contents = perm.field_srcs[0][1]  # all 'value'
        cval_contents = perm.field_srcs[2][1]  # all 'value'
        shared = mem_contents[0]
        assert all(c is shared for c in mem_contents)
        assert all(c is shared for c in cval_contents)
        assert all(c is None for c in perm.field_srcs[1][1])  # sort-free


def test_stable_hash_golden_values_guard_run_independence():
    """The disk store's on-disk index and the exhaustive canonical
    violation order survive fresh interpreters only if stable_hash does;
    these frozen values catch any accidental use of salted hashing or
    layout-dependent folding."""
    assert stable_hash(0) == 844506019972948872
    assert stable_hash(-1) == 873677162369289390
    assert stable_hash("x") == 12111270874281193883
    assert stable_hash(("dag", 3)) == 8006457892223345201
    assert stable_hash((("REJECTED",),)) == 1919040259227599867
    assert stable_hash(frozenset({1, 2})) == 16100660442185421456
