"""Adversarial robustness: the streaming checker vs mutated witness
streams.

Take valid observer streams (accepted by construction), apply random
symbol-level mutations — drop a symbol, re-label an edge, redirect an
edge, duplicate a symbol, swap adjacent symbols — and require the
streaming verdict to agree with the offline ground truth (decode ➜
validate + acyclicity) on every mutant that still decodes.  This is
the strongest completeness/soundness exercise of the checker: it must
reject exactly the mutants that stop describing an acyclic constraint
graph.
"""

import random

import pytest

from repro.core.checker import Checker
from repro.core.constraint_graph import ConstraintGraph, EdgeKind
from repro.core.descriptor import DescriptorError, EdgeSym, NodeSym, decode
from repro.core.observer import Observer
from repro.core.operations import LD, ST
from repro.core.protocol import random_run
from repro.memory import MSIProtocol, SerialMemory


def observer_stream(proto, run, st_order=None):
    obs = Observer(proto, st_order)
    syms = []
    for t in proto.replay(run):
        syms.extend(obs.on_transition(t))
    return syms


def offline_verdict(syms) -> bool:
    """Ground truth: decode (lenient) and validate offline."""
    try:
        labelled = decode(syms, strict=True)
    except DescriptorError:
        return False  # malformed: streaming must reject too (strict)
    cg = ConstraintGraph(labelled.node_labels)
    for (u, v) in labelled.graph.edges():
        cg.add_edge(u, v, labelled.graph.label(u, v) or EdgeKind.NONE)
    return cg.is_acyclic() and cg.is_valid()


def streaming_verdict(syms) -> bool:
    chk = Checker()
    chk.feed_all(syms)
    return chk.accepts_at_end()


EDGE_KINDS = [EdgeKind.PO, EdgeKind.STO, EdgeKind.INH, EdgeKind.FORCED]


def mutate(syms, rng: random.Random):
    """One random mutation of the symbol list."""
    syms = list(syms)
    if not syms:
        return syms
    kind = rng.randrange(5)
    i = rng.randrange(len(syms))
    if kind == 0:  # drop
        del syms[i]
    elif kind == 1:  # duplicate
        syms.insert(i, syms[i])
    elif kind == 2 and isinstance(syms[i], EdgeSym):  # relabel edge
        syms[i] = EdgeSym(syms[i].src, syms[i].dst, rng.choice(EDGE_KINDS))
    elif kind == 3 and isinstance(syms[i], EdgeSym):  # redirect edge
        if rng.random() < 0.5:
            syms[i] = EdgeSym(syms[i].dst, syms[i].src, syms[i].label)
        else:
            syms[i] = EdgeSym(rng.randint(1, 4), rng.randint(1, 4), syms[i].label)
    elif kind == 4 and i + 1 < len(syms):  # swap adjacent
        syms[i], syms[i + 1] = syms[i + 1], syms[i]
    return syms


@pytest.mark.parametrize(
    "proto",
    [SerialMemory(p=2, b=2, v=2), MSIProtocol(p=2, b=1, v=2)],
    ids=["serial", "msi"],
)
def test_streaming_agrees_with_offline_on_mutants(proto, rng):
    agreements = 0
    for trial in range(120):
        run = random_run(proto, rng.randint(2, 12), rng, end_quiescent=True)
        syms = observer_stream(proto, run)
        for _ in range(rng.randint(1, 3)):
            syms = mutate(syms, rng)
        try:
            offline = offline_verdict(syms)
        except Exception:
            continue  # grossly malformed beyond the oracle's domain
        streaming = streaming_verdict(syms)
        # the streaming checker may be *stricter* than the lenient
        # offline oracle only for malformed streams (dangling IDs);
        # on well-formed streams the verdicts must match exactly
        try:
            decode(syms, strict=True)
            well_formed = True
        except DescriptorError:
            well_formed = False
        if well_formed:
            assert streaming == offline, (run, syms)
            agreements += 1
        else:
            assert not streaming  # strict mode: malformed is rejected
    assert agreements >= 30  # the comparison actually exercised


def test_dropped_inheritance_edge_rejected():
    proto = SerialMemory(p=2, b=1, v=1)
    syms = observer_stream(proto, (ST(1, 1, 1), LD(2, 1, 1)))
    mutant = [s for s in syms if not isinstance(s, EdgeSym)]
    assert not streaming_verdict(mutant)


def test_flipped_po_edge_rejected():
    proto = SerialMemory(p=1, b=1, v=2)
    syms = observer_stream(proto, (ST(1, 1, 1), ST(1, 1, 2)))
    mutant = [
        EdgeSym(s.dst, s.src, s.label)
        if isinstance(s, EdgeSym) and s.label & EdgeKind.PO
        else s
        for s in syms
    ]
    assert not streaming_verdict(mutant)


def test_duplicated_node_symbol_rejected():
    # duplicating a labelled node creates a second operation the trace
    # never had; the po chain for its processor then has two heads
    proto = SerialMemory(p=1, b=1, v=1)
    syms = observer_stream(proto, (ST(1, 1, 1),))
    node = next(s for s in syms if isinstance(s, NodeSym))
    mutant = syms + [node]
    assert not streaming_verdict(mutant)


def test_relabel_inh_to_sto_rejected():
    proto = SerialMemory(p=2, b=1, v=1)
    syms = observer_stream(proto, (ST(1, 1, 1), LD(2, 1, 1)))
    mutant = [
        EdgeSym(s.src, s.dst, EdgeKind.STO)
        if isinstance(s, EdgeSym) and s.label & EdgeKind.INH
        else s
        for s in syms
    ]
    assert not streaming_verdict(mutant)
