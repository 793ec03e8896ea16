"""Live progress heartbeat: states/sec, frontier depth, budget burn.

:class:`ProgressReporter` renders a one-line status to *stderr* (never
stdout — verdict output stays machine-diffable) at most once per
``interval`` seconds.  It is driven by the same telemetry tick the
trace heartbeat uses: the engine polls it through the cooperative
``should_stop`` chain — so enabling ``--progress`` changes what is
printed and nothing about the search.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from .stats import ExplorationStats

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Rate-limited progress lines.

    ``budget`` (a :class:`repro.harness.Budget`, optional, duck-typed
    via its ``burn()`` method) adds a budget-burn percentage to the
    line.  ``stream`` defaults to ``sys.stderr`` resolved at print
    time, so pytest's capture machinery sees it.
    """

    def __init__(
        self,
        interval: float = 2.0,
        stream: Optional[TextIO] = None,
        budget=None,
    ) -> None:
        self.interval = max(0.05, float(interval))
        self.stream = stream
        self.budget = budget
        self._t_start = time.perf_counter()
        self._t_last = self._t_start
        self._states_last = 0
        self._printed = 0

    # ------------------------------------------------------------------
    def due(self, now: Optional[float] = None) -> bool:
        if now is None:
            now = time.perf_counter()
        return now - self._t_last >= self.interval

    def tick(
        self,
        stats: ExplorationStats,
        frontier: Optional[int] = None,
        force: bool = False,
    ) -> bool:
        """Print a progress line if one is due; returns whether it was."""
        now = time.perf_counter()
        if not force and not self.due(now):
            return False
        dt = max(now - self._t_last, 1e-9)
        rate = (stats.states - self._states_last) / dt
        self._t_last = now
        self._states_last = stats.states
        self._printed += 1
        line = (
            f"progress: {stats.states} states ({rate:.0f}/s) "
            f"{stats.transitions} transitions depth={stats.max_depth}"
        )
        if frontier is not None:
            line += f" frontier={frontier}"
        burn = self._budget_burn(stats)
        if burn is not None:
            line += f" budget={burn:.0%}"
        print(line, file=self.stream if self.stream is not None else sys.stderr)
        return True

    def _budget_burn(self, stats: ExplorationStats) -> Optional[float]:
        if self.budget is None:
            return None
        burn = getattr(self.budget, "burn", None)
        if not callable(burn):
            return None
        try:
            # Budget.burn(states=...) folds the state axis in and
            # reports whichever axis is tighter
            return burn(states=stats.states)
        except TypeError:
            # duck-typed budgets predating the states axis
            return burn()
