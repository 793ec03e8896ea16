"""E-ablation — what each state-space reduction buys.

DESIGN.md calls out three implementation choices that keep the
verification product tractable; each is individually sound to disable,
so their cost is directly measurable:

* **canonical ID renaming** — joint states that agree up to a
  permutation of descriptor IDs are merged;
* **eager free-ID symbols** — checkers retire nodes the moment the
  observer knows no further edge can touch them, instead of at ID
  reuse (the paper's implicit retirement);
* **head unpinning** — each block's STo head is released once the
  protocol rules out further ⊥-loads (``may_load_bottom``).

The verdict never changes (asserted); only the joint-state count and
wall time do.
"""

from repro.memory import MSIProtocol, SerialMemory
from repro.modelcheck.product import ProductSearch
from repro.util import format_table

CONFIGS = [
    ("all reductions on", {}),
    ("no canonical ID renaming", {"canonical_ids": False}),
    ("no eager free-ID", {"eager_free": False}),
    ("no head unpinning", {"unpin_heads": False}),
    ("none (paper-naive)", {"canonical_ids": False, "eager_free": False, "unpin_heads": False}),
]


def _measure(proto, cap):
    rows = []
    base = None
    for name, kw in CONFIGS:
        res = ProductSearch(
            proto, mode="fast", max_states=cap,
            check_quiescence_reachability=False, **kw
        ).run()
        assert res.ok, name
        n = res.stats.states
        if base is None:
            base = n
        rows.append(
            (
                name,
                f"{n}{'+' if res.stats.truncated else ''}",
                f"{n / base:.1f}x",
            )
        )
    return rows


def test_ablation_serial_memory(benchmark, show):
    proto = SerialMemory(p=2, b=1, v=2)
    rows = benchmark.pedantic(lambda: _measure(proto, 100_000), rounds=1, iterations=1)
    show(
        format_table(
            ["configuration", "joint states", "blow-up"],
            rows,
            title="Ablation, serial memory p2 b1 v2 (fast mode)",
        )
    )
    # each reduction matters on its own
    assert int(rows[1][1].rstrip("+")) > int(rows[0][1])
    assert int(rows[2][1].rstrip("+")) > int(rows[0][1])
    assert int(rows[3][1].rstrip("+")) > int(rows[0][1])


def test_ablation_msi(benchmark, show):
    proto = MSIProtocol(p=2, b=1, v=1)
    rows = benchmark.pedantic(lambda: _measure(proto, 15_000), rounds=1, iterations=1)
    show(
        format_table(
            ["configuration", "joint states", "blow-up"],
            rows,
            title="Ablation, MSI p2 b1 v1 (fast mode)",
        )
    )
    assert int(rows[-1][1].rstrip("+")) > int(rows[0][1])
