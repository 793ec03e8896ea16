"""Cooperative resource budgets for verification runs.

A :class:`Budget` bounds a search along three axes — wall-clock
seconds, joint-state count, and approximate memory — and plugs into
the explorers' ``should_stop`` hook
(:meth:`repro.modelcheck.product.ProductSearch.run`,
:func:`repro.modelcheck.explorer.explore`).  The hook is polled once
per expanded state, so stopping is cooperative and the BFS frontier
stays intact — which is what makes checkpoint/resume possible.

The memory axis reads the whole process's peak resident set size
(:func:`resource.getrusage`, interpreter included) every
``mem_poll_interval`` polls.  The peak only ever rises, so once it
crosses the budget the stop is final.  A custom ``memory_probe``
(returning MB) can replace it, e.g. a :func:`sys.getsizeof`-based
estimate of the frontier.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..obs.stats import ExplorationStats

__all__ = ["Budget"]

#: ``ru_maxrss`` is in KB on Linux and in bytes on macOS
_MAXRSS_PER_MB = 1024 * 1024 if sys.platform == "darwin" else 1024


@dataclass
class Budget:
    """A reusable wall/state/memory budget.

    Call :meth:`start` once (idempotent), then hand :meth:`should_stop`
    to any explorer.  The wall clock is global to the budget object —
    sharing one budget across many searches (as the fault matrix does)
    bounds their *total* runtime, while the state axis applies to each
    search's own stats.
    """

    wall_s: Optional[float] = None
    states: Optional[int] = None
    memory_mb: Optional[float] = None
    #: polls between (comparatively expensive) memory samples
    mem_poll_interval: int = 256
    #: optional override returning the current footprint in MB
    #: (default: the process's peak RSS)
    memory_probe: Optional[Callable[[], float]] = None

    _t0: Optional[float] = field(default=None, repr=False)
    _polls: int = field(default=0, repr=False)

    def start(self) -> "Budget":
        if self._t0 is None:
            self._t0 = time.perf_counter()
        return self

    # ------------------------------------------------------------------
    def elapsed_s(self) -> float:
        return 0.0 if self._t0 is None else time.perf_counter() - self._t0

    def remaining_s(self) -> Optional[float]:
        if self.wall_s is None:
            return None
        return max(0.0, self.wall_s - self.elapsed_s())

    def exhausted(self) -> bool:
        rem = self.remaining_s()
        return rem is not None and rem <= 0.0

    def burn(self, states: Optional[int] = None) -> Optional[float]:
        """Fraction of the budget consumed (0..1), or ``None`` when no
        budget axis applies — the progress reporter renders it as
        ``budget=NN%``.  With a ``states`` count the state axis is
        measured too, and the *tighter* (larger) fraction wins, so the
        display always tracks whichever budget will bite first."""
        fracs = []
        if self.wall_s is not None and self.wall_s > 0:
            fracs.append(min(1.0, self.elapsed_s() / self.wall_s))
        if self.states is not None and self.states > 0 and states is not None:
            fracs.append(min(1.0, states / self.states))
        return max(fracs) if fracs else None

    def current_memory_mb(self) -> float:
        if self.memory_probe is not None:
            return self.memory_probe()
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _MAXRSS_PER_MB

    # ------------------------------------------------------------------
    def should_stop(self, stats: ExplorationStats) -> Optional[str]:
        """The explorers' cooperative hook: a reason string to halt,
        else None."""
        if self._t0 is None:
            self.start()
        if self.states is not None and stats.states >= self.states:
            return f"state budget exhausted ({self.states} states)"
        if self.wall_s is not None and time.perf_counter() - self._t0 >= self.wall_s:
            return f"wall-clock budget exhausted ({self.wall_s:g}s)"
        self._polls += 1
        if self.memory_mb is not None and self._polls % self.mem_poll_interval == 0:
            mb = self.current_memory_mb()
            if mb >= self.memory_mb:
                return f"memory budget exhausted ({mb:.1f} MB >= {self.memory_mb:g} MB)"
        return None

    # ------------------------------------------------------------------
    def slice(self, fraction: float) -> "Budget":
        """A sub-budget holding ``fraction`` of the *remaining* wall
        clock (state/memory axes carried over) — used by the
        degradation ladder to ration its stages."""
        rem = self.remaining_s()
        return Budget(
            wall_s=None if rem is None else rem * fraction,
            states=self.states,
            memory_mb=self.memory_mb,
            mem_poll_interval=self.mem_poll_interval,
            memory_probe=self.memory_probe,
        )
