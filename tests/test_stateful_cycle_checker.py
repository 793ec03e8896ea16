"""Stateful property testing: the streaming cycle checker against a
networkx shadow model.

A hypothesis rule-based state machine drives a
:class:`~repro.core.cycle_checker.CycleChecker` with arbitrary
interleavings of node/edge/add-ID/free-ID symbols, one at a time or in
batches, while maintaining the *full* described graph in networkx.
Invariant after every step: ``checker.accepts ⇔ the full graph is
acyclic`` — the checker may never miss a cycle (soundness) nor invent
one (completeness), no matter the symbol order.

Two lineages take every step: the fork + ``feed_all`` checker, and the
interned :class:`~repro.core.cycle_checker.CycleState` that
:class:`~repro.engine.component.CheckerComponent` steps through its
memoized transition table.  They must agree on the verdict and on
``state_key()``, plain and renamed, after every step; one component
serves a whole run, so states recur and the table is hit.
"""

import networkx as nx
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.cycle_checker import CycleChecker
from repro.core.descriptor import AddIdSym, EdgeSym, FreeIdSym, NodeSym
from repro.engine.component import CheckerComponent

MAX_ID = 4
ids = st.integers(1, MAX_ID)
symbols = st.one_of(
    st.builds(NodeSym, ids),
    st.builds(EdgeSym, ids, ids),
    st.builds(AddIdSym, ids, ids),
    st.builds(FreeIdSym, ids),
)
#: a canonical renaming, as the product search passes to state_key
RENAME = {1: 3, 2: 1, 3: 4, 4: 2}


class CycleCheckerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.checker = CycleChecker()
        self.component = CheckerComponent(full=False)
        self.memo = self.component.initial()
        self.shadow = nx.DiGraph()
        self.owner = {}  # ID -> shadow node
        self.idsets = {}  # shadow node -> set of IDs
        self.counter = 0

    # shadow ID-set semantics (mirrors the descriptor definition) ------
    def _release(self, i):
        holder = self.owner.pop(i, None)
        if holder is not None:
            s = self.idsets[holder]
            s.discard(i)
            if not s:
                del self.idsets[holder]

    def _shadow(self, sym):
        if isinstance(sym, NodeSym):
            self._release(sym.id)
            self.counter += 1
            node = self.counter
            self.shadow.add_node(node)
            self.owner[sym.id] = node
            self.idsets[node] = {sym.id}
        elif isinstance(sym, EdgeSym):
            u, v = self.owner.get(sym.src), self.owner.get(sym.dst)
            if u is not None and v is not None:
                self.shadow.add_edge(u, v)
        elif isinstance(sym, AddIdSym):
            target = self.owner.get(sym.id)
            if sym.new_id != sym.id:
                self._release(sym.new_id)
            if target is not None:
                self.owner[sym.new_id] = target
                self.idsets[target].add(sym.new_id)
        else:
            self._release(sym.id)

    def _step(self, batch):
        for sym in batch:
            self._shadow(sym)
        checker = self.checker.fork()
        checker.feed_all(batch)
        self.checker = checker
        self.memo, emitted = self.component.step(self.memo, tuple(batch))
        assert emitted == ()

    @rule(i=ids)
    def new_node(self, i):
        self._step([NodeSym(i)])

    @rule(src=ids, dst=ids)
    def add_edge(self, src, dst):
        self._step([EdgeSym(src, dst)])

    @rule(i=ids, new=ids)
    def add_id(self, i, new):
        self._step([AddIdSym(i, new)])

    @rule(i=ids)
    def free_id(self, i):
        self._step([FreeIdSym(i)])

    @rule(batch=st.lists(symbols, min_size=2, max_size=4))
    def feed_batch(self, batch):
        self._step(batch)

    @invariant()
    def checker_matches_shadow(self):
        truth = nx.is_directed_acyclic_graph(self.shadow)
        assert self.checker.accepts == truth, (
            f"checker={'accept' if self.checker.accepts else 'reject'}, "
            f"full graph {'acyclic' if truth else 'cyclic'}"
        )

    @invariant()
    def memoized_lineage_matches_fork_and_feed(self):
        assert self.memo.accepts_so_far == self.checker.accepts
        assert self.memo.accepts_so_far == nx.is_directed_acyclic_graph(self.shadow)
        assert self.memo.state_key() == self.checker.state_key()
        assert self.memo.state_key(RENAME) == self.checker.state_key(RENAME)


CycleCheckerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestCycleCheckerStateful = CycleCheckerMachine.TestCase
