"""Section 4.4 — observer size bounds.

For a sweep of (p, b, v) over the protocol zoo, tabulates the paper's
formulas — bandwidth bound ``L + p·b`` and extra-state bits
``(L+pb)(lg p + lg b + lg v + 1) + L lg L`` (plus the lg-v-saving
optimisation) — against the bandwidth the observer actually *measures*
(its live-node high-water mark) on random runs.  The measured value
must sit at or below the implementation bound, typically far below.
"""

import random

from repro.core.bounds import bounds_for, implementation_bandwidth_bound
from repro.core.observer import Observer
from repro.core.protocol import random_run
from repro.memory import (
    LazyCachingProtocol,
    MSIProtocol,
    SerialMemory,
    lazy_caching_st_order,
)
from repro.util import format_table


def _measure(proto, st_order=None, runs=20, length=60, seed=0):
    rng = random.Random(seed)
    worst = 0
    for _ in range(runs):
        run = random_run(proto, length, rng)
        obs = Observer(proto, st_order.copy() if st_order is not None else None)
        for t in proto.replay(run):
            obs.on_transition(t)
        worst = max(worst, obs.max_live)
    return worst


def test_size_bound_table(benchmark, show):
    cases = [
        ("SerialMemory", SerialMemory(p=2, b=1, v=2), None),
        ("SerialMemory", SerialMemory(p=2, b=2, v=2), None),
        ("SerialMemory", SerialMemory(p=4, b=4, v=4), None),
        ("MSI", MSIProtocol(p=2, b=1, v=2), None),
        ("MSI", MSIProtocol(p=2, b=2, v=2), None),
        ("MSI", MSIProtocol(p=4, b=2, v=2), None),
        ("LazyCaching", LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order()),
        ("LazyCaching", LazyCachingProtocol(p=2, b=2, v=2), lazy_caching_st_order()),
    ]

    def measure_all():
        return [_measure(proto, gen) for (_n, proto, gen) in cases]

    measured = benchmark(measure_all)

    rows = []
    for (name, proto, _gen), m in zip(cases, measured):
        bb = bounds_for(proto)
        rows.append(
            (
                name,
                f"{proto.p}/{proto.b}/{proto.v}",
                bb.L,
                bb.bandwidth,
                bb.bandwidth_impl,
                m,
                bb.state_bits,
                bb.state_bits_optimised,
            )
        )
        assert m <= implementation_bandwidth_bound(proto.p, proto.b, proto.num_locations)
    show(
        format_table(
            [
                "protocol",
                "p/b/v",
                "L",
                "bound L+pb",
                "impl bound",
                "measured max live",
                "state bits",
                "bits (opt.)",
            ],
            rows,
            title="Section 4.4: observer size bounds vs measured bandwidth",
        )
    )


def test_state_bits_growth(benchmark, show):
    """How the bit bound scales with each parameter (the paper's
    'moderate L in practice' point)."""

    def sweep():
        rows = []
        for p, b, v in [(2, 1, 2), (4, 1, 2), (8, 1, 2), (2, 2, 2), (2, 4, 2), (2, 8, 2),
                        (2, 2, 4), (2, 2, 16)]:
            proto = MSIProtocol(p=p, b=b, v=v)
            bb = bounds_for(proto)
            rows.append((p, b, v, bb.L, bb.bandwidth, bb.state_bits))
        return rows

    rows = benchmark(sweep)
    show(
        format_table(
            ["p", "b", "v", "L", "bandwidth bound", "extra state bits"],
            rows,
            title="Bit-bound scaling over (p, b, v) for MSI (L = b + p·b)",
        )
    )
    # doubling p roughly doubles L and hence the bound
    assert rows[1][5] > rows[0][5]
