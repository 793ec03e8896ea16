"""The Section 5 testing scenario: streaming per-run checking and
randomised campaigns, cross-checked against the brute-force oracle."""

from repro.core.operations import ST, LD, InternalAction
from repro.core.verify import check_run
from repro.litmus import fuzz_protocol
from repro.memory import (
    BuggyMSIProtocol,
    LazyCachingProtocol,
    MSIProtocol,
    SerialMemory,
    StoreBufferProtocol,
    lazy_caching_st_order,
    store_buffer_st_order,
)


def test_streaming_check_accepts_good_run():
    proto = MSIProtocol(p=2, b=1, v=1)
    run = (
        InternalAction("AcquireM", (1, 1)),
        ST(1, 1, 1),
        InternalAction("AcquireS", (2, 1)),
        LD(2, 1, 1),
    )
    res = check_run(proto, run)
    assert res.ok and res.quiescent_end
    assert "consistent" in res.verdict


def test_streaming_check_flags_sb_violation():
    proto = StoreBufferProtocol(p=2, b=2, v=1)
    run = (
        ST(1, 1, 1),
        LD(1, 2, 0),
        ST(2, 2, 1),
        LD(2, 1, 0),
        InternalAction("flush", (1,)),
        InternalAction("flush", (2,)),
    )
    res = check_run(proto, run, store_buffer_st_order())
    assert not res.ok
    assert "cycle" in (res.reason or "")


def test_streaming_check_rejects_non_run():
    proto = SerialMemory(p=1, b=1, v=1)
    try:
        check_run(proto, (LD(1, 1, 1),))
    except ValueError as e:
        assert "not enabled" in str(e)
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


def test_non_quiescent_end_is_partial_verdict():
    proto = StoreBufferProtocol(p=2, b=1, v=1)
    res = check_run(proto, (ST(1, 1, 1),), store_buffer_st_order())
    assert res.ok and not res.quiescent_end
    assert "partial" in res.verdict


def test_fuzz_msi_clean_with_cross_check():
    report = fuzz_protocol(
        MSIProtocol(p=2, b=2, v=2),
        runs=40,
        length=18,
        seed=3,
        cross_check_max_ops=8,
    )
    assert report.ok, report.summary()
    assert report.cross_checked > 0
    assert "0 violations" in report.summary()


def test_fuzz_lazy_caching_clean():
    report = fuzz_protocol(
        LazyCachingProtocol(p=2, b=2, v=1),
        runs=40,
        length=20,
        seed=5,
        st_order=lazy_caching_st_order(),
        cross_check_max_ops=8,
    )
    assert report.ok, report.summary()


def test_fuzz_store_buffer_finds_violations():
    report = fuzz_protocol(
        StoreBufferProtocol(p=2, b=2, v=1),
        runs=200,
        length=10,
        seed=11,
        st_order=store_buffer_st_order(),
        cross_check_max_ops=0,
    )
    assert report.violations, "random testing should stumble on SB violations"


def test_fuzz_buggy_msi_finds_violations():
    report = fuzz_protocol(
        BuggyMSIProtocol(p=2, b=1, v=1),
        runs=200,
        length=12,
        seed=13,
    )
    assert report.violations


def test_fuzz_cross_check_soundness_on_store_buffer(rng):
    # soundness: whenever the streaming check accepts, the trace must
    # genuinely be SC.  (Conservative rejections are expected on a
    # non-SC protocol: the flush-order generator pins a store order
    # that may be the "wrong" witness for an individually-SC trace.)
    report = fuzz_protocol(
        StoreBufferProtocol(p=2, b=2, v=1),
        runs=80,
        length=8,
        seed=17,
        st_order=store_buffer_st_order(),
        cross_check_max_ops=10,
    )
    assert not report.unsound_accepts, report.unsound_accepts[:1]
    assert report.conservative_rejections, "expected some on a non-SC protocol"


def test_fuzz_cross_check_exact_on_sc_protocols():
    # on SC protocols the streaming verdict should simply be "ok" and
    # the oracle must agree — no disagreement in either direction
    for proto, gen in [
        (MSIProtocol(p=2, b=2, v=1), None),
        (LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order()),
    ]:
        report = fuzz_protocol(
            proto, runs=30, length=14, seed=23, st_order=gen, cross_check_max_ops=8
        )
        assert report.ok
        assert not report.conservative_rejections
