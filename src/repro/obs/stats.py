"""Exploration statistics — the counters every search fills in.

The dataclass lives with the rest of the telemetry layer
(:mod:`repro.obs`), next to the
:class:`~repro.obs.metrics.MetricsRegistry` that aggregates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ExplorationStats"]


@dataclass
class ExplorationStats:
    """Counters filled in by a reachability / product exploration."""

    states: int = 0  #: distinct states found
    transitions: int = 0  #: transitions expanded
    max_depth: int = 0  #: deepest BFS layer reached
    truncated: bool = False  #: hit a cap or budget before exhausting
    quiescent_states: int = 0  #: states where the end-check was evaluated
    max_live_nodes: int = 0  #: observer active-graph high-water mark
    max_descriptor_ids: int = 0  #: IDs the observer ever allocated
    #: high-water mark of the search frontier, cumulative over the
    #: whole search — a budget-stopped run that resumes keeps maxing
    #: against the earlier legs' peak, never restarts from zero
    peak_frontier: int = 0
    #: states interned in the engine's StateStore; like
    #: ``peak_frontier`` it survives checkpoint/resume because the
    #: checkpoint records every counter
    interned_states: int = 0
    #: why a cooperative ``should_stop`` hook halted the search (None
    #: for cap truncation and for exhaustive runs)
    stop_reason: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "max_depth": self.max_depth,
            "truncated": self.truncated,
            "quiescent_states": self.quiescent_states,
            "max_live_nodes": self.max_live_nodes,
            "max_descriptor_ids": self.max_descriptor_ids,
            "peak_frontier": self.peak_frontier,
            "interned_states": self.interned_states,
            "stop_reason": self.stop_reason,
        }

