"""DOT export."""

from repro.core.constraint_graph import graph_from_serial_reordering
from repro.core.operations import LD, ST
from repro.core.serial import find_serial_reordering
from repro.core.verify import verify_protocol
from repro.memory import BuggyMSIProtocol
from repro.viz import constraint_graph_dot, counterexample_dot, descriptor_dot

FIG3 = (ST(1, 1, 1), LD(2, 1, 1), ST(1, 1, 2), LD(2, 1, 1), LD(2, 1, 2))


def _fig3_graph():
    return graph_from_serial_reordering(FIG3, find_serial_reordering(FIG3))


def test_constraint_graph_dot_structure():
    dot = constraint_graph_dot(_fig3_graph())
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("->") == _fig3_graph().graph.num_edges()
    # node shapes by kind
    assert 'shape=box' in dot and 'shape=ellipse' in dot
    # edge kinds rendered with the paper's names
    assert 'label="po-STo"' in dot
    assert 'label="forced"' in dot


def test_acyclic_graph_has_no_highlight():
    dot = constraint_graph_dot(_fig3_graph())
    assert "penwidth=3" not in dot


def test_cycle_highlighted_in_counterexample():
    res = verify_protocol(BuggyMSIProtocol(p=2, b=1, v=1))
    assert res.counterexample is not None
    dot = counterexample_dot(res.counterexample)
    assert "penwidth=3" in dot  # some edge on the cycle is bold
    assert "style=dashed" in dot  # the ⊥-load node


def test_descriptor_dot_from_observer_stream():
    from repro.core.observer import Observer
    from repro.memory import SerialMemory

    proto = SerialMemory(p=2, b=1, v=1)
    obs = Observer(proto)
    syms = []
    for t in proto.replay((ST(1, 1, 1), LD(2, 1, 1))):
        syms.extend(obs.on_transition(t))
    dot = descriptor_dot(syms)
    assert "ST(P1,B1,1)" in dot and "LD(P2,B1,1)" in dot
    assert 'label="inh"' in dot
