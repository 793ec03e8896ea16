"""The fault-injection framework (src/repro/faults/).

The framework's contract is double-sided: every seeded non-SC fault
must be *rejected* by the verification pipeline, and faults that keep
the protocol SC (duplicated idempotent messages) must *not* produce a
counterexample.  These tests pin both sides, plus the plumbing
(composition of tracking maps, fault discovery, applicability errors).
"""

import random

import pytest

from repro.core.protocol import FRESH
from repro.core.verify import verify_protocol
from repro.engine import ComposedSystem
from repro.faults import (
    EXPECT_REJECT,
    FAULT_KINDS,
    FaultInapplicable,
    FaultSpec,
    FaultyProtocol,
    SwappedSTOrder,
    apply_faults,
    compose_copies,
    fault_matrix,
    standard_faults,
)
from repro.faults.spec import discover_structure
from repro.memory import (
    LazyCachingProtocol,
    MSIProtocol,
    SerialMemory,
    WriteThroughProtocol,
    lazy_caching_st_order,
)

from .test_replay_determinism import _assert_keys_invariant_along_walk


# ---------------------------------------------------------------- specs


def test_fault_spec_validates_kind():
    with pytest.raises(ValueError):
        FaultSpec("x", "not-a-kind", EXPECT_REJECT)


def test_fault_spec_validates_expectation():
    with pytest.raises(ValueError):
        FaultSpec("x", "stale-load", "definitely-fine")


def test_discover_structure_finds_msi_messages():
    names, has_copies = discover_structure(MSIProtocol(p=2, b=1, v=2))
    assert "AcquireM" in names and "AcquireS" in names
    assert has_copies


def test_standard_faults_cover_every_applicable_kind():
    proto = MSIProtocol(p=2, b=2, v=2)
    specs = standard_faults(proto)
    kinds = {s.kind for s in specs}
    # MSI has internal messages, copies, >1 location, and the
    # invalidate-on-acquire knob: the full taxonomy applies
    assert kinds == set(FAULT_KINDS)


def test_standard_faults_respect_applicability():
    # serial memory: one location, no invalidation knob, no messages
    specs = standard_faults(SerialMemory(p=2, b=1, v=2))
    kinds = {s.kind for s in specs}
    assert "corrupt-ld-location" not in kinds
    assert "skip-invalidation" not in kinds
    assert "drop-internal" not in kinds
    assert "stale-load" in kinds and "perturb-storder" in kinds


# ---------------------------------------------------- copies composition


def test_compose_copies_chains_sources():
    # first hop: loc 5 <- loc 3; second hop: loc 7 <- loc 5
    assert compose_copies({5: 3}, {7: 5}) == {5: 3, 7: 3}


def test_compose_copies_fresh_propagates():
    assert compose_copies({5: FRESH}, {7: 5}) == {5: FRESH, 7: FRESH}


def test_compose_copies_independent_destinations():
    assert compose_copies({5: 3}, {6: 2}) == {5: 3, 6: 2}


# -------------------------------------------------------- applying faults


def test_apply_skip_invalidation_needs_the_knob():
    spec = FaultSpec("skip-invalidation", "skip-invalidation", EXPECT_REJECT)
    with pytest.raises(FaultInapplicable):
        apply_faults(SerialMemory(p=2, b=1, v=2), None, [spec])


def test_faulty_protocol_describe_names_faults():
    proto = MSIProtocol(p=2, b=1, v=2)
    spec = next(s for s in standard_faults(proto) if s.kind == "stale-load")
    faulty, _gen = apply_faults(proto, None, [spec])
    assert isinstance(faulty, FaultyProtocol)
    assert "stale-load" in faulty.describe()


# ------------------------------------------- the double-sided contract


def _verify_with_fault(proto, kind):
    spec = next(s for s in standard_faults(proto) if s.kind == kind)
    faulty, gen = apply_faults(proto, None, [spec])
    return verify_protocol(faulty, gen)


@pytest.mark.parametrize(
    "kind",
    ["stale-load", "corrupt-ld-location", "corrupt-st-location",
     "drop-copies", "perturb-storder", "skip-invalidation"],
)
def test_msi_rejects_every_non_sc_fault(kind):
    proto = MSIProtocol(p=2, b=2, v=2)
    res = _verify_with_fault(proto, kind)
    assert not res.sequentially_consistent, kind
    assert res.counterexample is not None


def test_duplicated_message_stays_sc():
    res = _verify_with_fault(MSIProtocol(p=2, b=1, v=2), "dup-internal")
    assert res.counterexample is None
    assert res.sequentially_consistent


def test_dropped_message_never_yields_counterexample():
    # dropping only removes runs: no new behaviour, hence no violation
    # (the protocol may become non-quiescible, which is a different verdict)
    res = _verify_with_fault(MSIProtocol(p=2, b=1, v=2), "drop-internal")
    assert res.counterexample is None


def test_write_through_rejects_stale_load():
    res = _verify_with_fault(WriteThroughProtocol(p=2, b=1, v=2), "stale-load")
    assert not res.sequentially_consistent


# -------------------------------------------------------------- matrix


def test_fault_matrix_on_serial_is_clean():
    report = fault_matrix(["serial"])
    assert report.ok, report.summary()
    assert not report.unmet
    # baseline row plus at least the two universally applicable faults
    assert len(report.entries) >= 3


def test_fault_matrix_summary_mentions_failures():
    report = fault_matrix(["serial"])
    assert "expectations met" in report.summary()
    assert "MATRIX FAILED" not in report.summary()


def test_fault_matrix_counts_expectations():
    report = fault_matrix(["serial"], include_baseline=False)
    assert all(e.met for e in report.entries)


def test_swapped_storder_keys_are_invariant_under_symmetry():
    """The perturb-storder generator keys its pending per-block event
    and its inner generator's FIFOs through the symmetry permutation,
    so the orbit-minimum key of a state equals that of its image."""
    system = ComposedSystem(
        LazyCachingProtocol(p=2, b=2, v=2),
        SwappedSTOrder(lazy_caching_st_order()),
        mode="fast",
        reduce="full",
    )
    rng = random.Random(0)
    for perm in system.reduction.perms:
        if not perm.is_identity:
            _assert_keys_invariant_along_walk(system, perm, rng)
