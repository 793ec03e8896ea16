"""E-verify — end-to-end verdicts for the whole protocol zoo.

The headline table: every SC protocol verifies (in Γ), every broken
one is rejected with a genuine counterexample run; state counts and
observer bandwidth are reported alongside.  The benchmark times the
cheapest complete verification (MSI) as the representative workload.
"""


from repro.core.serial import is_sequentially_consistent_trace
from repro.core.verify import verify_protocol
from repro.memory import (
    BuggyMSIProtocol,
    DirectoryProtocol,
    FencedStoreBufferProtocol,
    LazyCachingProtocol,
    MESIProtocol,
    MOESIProtocol,
    MSIProtocol,
    SerialMemory,
    StoreBufferProtocol,
    WriteThroughProtocol,
    lazy_caching_st_order,
    store_buffer_st_order,
)
from repro.util import format_table

ZOO = [
    ("SerialMemory", SerialMemory(p=2, b=1, v=2), None, True),
    ("MSI", MSIProtocol(p=2, b=1, v=1), None, True),
    ("MESI", MESIProtocol(p=2, b=1, v=1), None, True),
    ("MOESI", MOESIProtocol(p=2, b=1, v=1), None, True),
    ("WriteThrough", WriteThroughProtocol(p=2, b=1, v=2), None, True),
    ("Directory", DirectoryProtocol(p=2, b=1, v=1), None, True),
    ("FencedStoreBuffer", FencedStoreBufferProtocol(p=2, b=1, v=1), store_buffer_st_order(), True),
    ("LazyCaching", LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order(), True),
    ("StoreBuffer", StoreBufferProtocol(p=2, b=2, v=1), store_buffer_st_order(), False),
    ("BuggyMSI", BuggyMSIProtocol(p=2, b=1, v=1), None, False),
]


def test_zoo_verdicts(benchmark, show):
    results = {}

    def verify_zoo():
        for name, proto, gen, _expect in ZOO:
            if name not in results:  # benchmark reruns: compute once
                results[name] = verify_protocol(
                    proto, gen.copy() if gen is not None else None
                )
        return results

    benchmark.pedantic(verify_zoo, rounds=1, iterations=1)

    rows = []
    for name, proto, _gen, expect_sc in ZOO:
        res = results[name]
        rows.append(
            (
                name,
                f"{proto.p}/{proto.b}/{proto.v}",
                res.verdict,
                res.stats.states,
                res.stats.max_live_nodes,
                len(res.counterexample.trace) if res.counterexample else "-",
            )
        )
        assert res.sequentially_consistent == expect_sc, res.summary()
        if res.counterexample is not None:
            assert proto.is_run(res.counterexample.run)
            assert not is_sequentially_consistent_trace(res.counterexample.trace)
    show(
        format_table(
            ["protocol", "p/b/v", "verdict", "joint states", "max live", "cx trace len"],
            rows,
            title="Protocol zoo: verification verdicts (fast mode)",
        )
    )


def test_verification_representative_timing(benchmark):
    """Wall-clock for one complete verification (MSI p2 b1 v1)."""
    res = benchmark(verify_protocol, MSIProtocol(p=2, b=1, v=1))
    assert res.sequentially_consistent


def test_full_mode_smallest_instance(benchmark, show):
    """The literal paper pipeline (full checker in the product) on the
    smallest protocol, for comparison with fast mode."""
    from repro.modelcheck import ProductSearch

    proto = SerialMemory(p=1, b=1, v=1)

    def run_full():
        return ProductSearch(proto, mode="full").run()

    res = benchmark.pedantic(run_full, rounds=1, iterations=1)
    fast = ProductSearch(proto, mode="fast").run()
    show(
        format_table(
            ["mode", "joint states", "transitions", "verdict"],
            [
                ("full (paper checker)", res.stats.states, res.stats.transitions, res.verdict),
                ("fast (cycle + self-check)", fast.stats.states, fast.stats.transitions, fast.verdict),
            ],
            title="Full vs fast checking mode, serial memory p1 b1 v1",
        )
    )
    assert res.ok and fast.ok
