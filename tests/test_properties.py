"""Cross-cutting property-based tests tying the layers together.

These are the invariants the whole reproduction rests on:

1. trace SC  ⇔  some constraint graph acyclic (Lemma 3.1, both ways,
   via independent implementations);
2. streaming verdicts == offline verdicts (encoder + checkers);
3. protocol-level: the observer/checker pipeline accepts exactly the
   runs whose serialisation-order witness is acyclic, and for SC
   protocols that is all of them.
"""

import random

from hypothesis import HealthCheck, given, settings

from repro.core.checker import check_constraint_graph
from repro.core.constraint_graph import graph_from_serial_reordering
from repro.core.cycle_checker import descriptor_is_acyclic
from repro.core.descriptor import decode, encode_graph
from repro.core.operations import trace_of_run
from repro.core.serial import find_serial_reordering, is_serial_reordering
from repro.core.verify import check_run
from repro.graphs import has_cycle, node_bandwidth
from repro.litmus import check_trace_bruteforce, check_trace_store_orders
from repro.memory import MSIProtocol

from .conftest import dag_strategy, digraph_strategy, ops_strategy


# ----------------------------------------------------------------------
# 1. Lemma 3.1 as an equivalence between independent implementations
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(ops_strategy)
def test_sc_iff_some_constraint_graph_acyclic(trace):
    interleaving_sc = check_trace_bruteforce(trace)
    graph_sc = check_trace_store_orders(trace)
    assert interleaving_sc == graph_sc


@settings(max_examples=60)
@given(ops_strategy)
def test_reordering_roundtrip(trace):
    """serial reordering -> graph -> topological order is again a
    serial reordering."""
    perm = find_serial_reordering(trace)
    if perm is None:
        return
    g = graph_from_serial_reordering(trace, perm)
    topo = g.serial_reordering()
    assert topo is not None and is_serial_reordering(trace, topo)
    # and the streaming checker agrees the graph is a witness
    assert check_constraint_graph(g).ok


# ----------------------------------------------------------------------
# 2. streaming == offline at the graph level
# ----------------------------------------------------------------------
@settings(max_examples=80)
@given(digraph_strategy())
def test_stream_cycle_check_equals_offline(g):
    syms = encode_graph(g)
    assert descriptor_is_acyclic(syms) == (not has_cycle(g))


@settings(max_examples=60)
@given(dag_strategy())
def test_encode_is_within_bandwidth_and_lossless(g):
    k = node_bandwidth(g)
    syms = encode_graph(g)
    back = decode(syms, max_id=k + 1)
    assert set(back.graph.edges()) == set(g.edges())
    assert back.n == len(g)


# ----------------------------------------------------------------------
# 3. protocol level
# ----------------------------------------------------------------------
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=__import__("hypothesis.strategies", fromlist=["x"]).integers(0, 10_000))
def test_msi_runs_always_check_out(seed):
    from repro.core.protocol import random_run

    rng = random.Random(seed)
    proto = MSIProtocol(p=2, b=2, v=2)
    run = random_run(proto, rng.randint(0, 25), rng)
    verdict = check_run(proto, run)
    assert verdict.ok, verdict.reason


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=__import__("hypothesis.strategies", fromlist=["x"]).integers(0, 10_000))
def test_streaming_accept_implies_trace_sc(seed):
    """Soundness on an adversarial (non-SC) protocol: any accepted
    quiescent run has an SC trace."""
    from repro.core.protocol import random_run
    from repro.memory import StoreBufferProtocol, store_buffer_st_order

    rng = random.Random(seed)
    proto = StoreBufferProtocol(p=2, b=2, v=1)
    run = random_run(proto, rng.randint(0, 10), rng, end_quiescent=True)
    verdict = check_run(proto, run, store_buffer_st_order())
    if verdict.ok and verdict.quiescent_end and len(trace_of_run(run)) <= 9:
        assert check_trace_bruteforce(trace_of_run(run))
