"""The benchmark's workloads and the results pinned for each case.

Pure data: nothing here imports :mod:`repro`, so the set-up probe can
start its clock before the package is imported.  A *case* is one
verification the benchmark asks for; a *workload* is the list of cases
one round runs, in an order drawn from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["Case", "Workload", "WORKLOADS", "get"]


@dataclass(frozen=True)
class Case:
    """One verification and the oracle its result must satisfy.

    ``states`` pins the explored-state count exactly; ``max_states``
    only bounds it from above (a reduction may legitimately explore
    fewer states, never more than the unreduced search).
    ``transitions`` pins the transition count exactly.  ``disk_cap``
    selects the spilling store with that many resident keys (``None``
    is the in-memory store); the oracle then also requires
    ``resident_keys <= disk_cap``.
    """

    protocol: str
    p: int
    b: int
    v: int
    verdict: str
    reduce: str = "off"
    por: str = "off"
    disk_cap: Optional[int] = None
    states: Optional[int] = None
    max_states: Optional[int] = None
    transitions: Optional[int] = None

    @property
    def name(self) -> str:
        return f"{self.protocol} p{self.p}b{self.b}v{self.v}"


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Tuple[Case, ...]

    def round_order(self, seed: int) -> List[Case]:
        """The cases of one round, shuffled by ``seed``: the same seed
        gives the same order, and no order changes any pinned count."""
        order = list(self.cases)
        random.Random(seed).shuffle(order)
        return order


def _bug(protocol: str, p: int, b: int, v: int, states: int) -> Case:
    return Case(protocol, p, b, v, "VIOLATION", states=states)


# Why each workload exists is recorded in BENCHMARK.json and README.md;
# the counts below are the oracle.
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "mesi-proof",
        (Case("mesi", 2, 1, 2, "VERIFIED", states=4484, transitions=26616),),
    ),
    Workload(
        "mesi-sym",
        # the unreduced search explores 4484 states
        (Case("mesi", 2, 1, 2, "VERIFIED", reduce="full", max_states=1133),),
    ),
    Workload(
        "lazy-por-disk",
        # the search without POR explores 2748 states; with POR, 1564 of
        # the 2076 keys spill past the 512-key resident cap
        (Case("lazy", 2, 1, 2, "VERIFIED", por="on", disk_cap=512, max_states=2076),),
    ),
    Workload(
        "bug-hunt",
        (
            _bug("buggy-msi", 2, 1, 1, 361),
            _bug("buggy-msi", 2, 1, 2, 850),
            _bug("buggy-msi", 3, 1, 1, 1679),
            _bug("buggy-msi", 2, 2, 1, 4154),
            _bug("buggy-msi-nowb", 2, 1, 1, 110),
            _bug("buggy-msi-nowb", 2, 2, 1, 658),
            _bug("buggy-msi-nowb", 3, 1, 1, 256),
            _bug("buggy-msi-nowb", 2, 1, 2, 164),
            _bug("buggy-msi-stale-s", 2, 2, 1, 858),
            _bug("buggy-msi-stale-s", 3, 1, 1, 320),
            _bug("buggy-msi-stale-s", 2, 2, 2, 1270),
            _bug("buggy-msi-stale-s", 3, 2, 1, 2699),
            _bug("storebuffer", 2, 2, 1, 2546),
        ),
    ),
)


def get(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)
