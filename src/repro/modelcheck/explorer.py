"""Plain reachability over a protocol's own state space.

Used on its own for the state-explosion benchmarks (how many states
does MSI have at (p, b, v)?) and as the skeleton the product explorer
follows.  Breadth-first, so ``max_depth`` means "all runs of at most
that many actions".

A thin adapter since the unified-engine refactor: the search is a
:class:`~repro.engine.SearchEngine` over a
:class:`~repro.engine.ProtocolSystem`, with the strict cap discipline
this function has always had (the cap is checked *before* admitting a
state, so ``stats.states`` never exceeds ``max_states``).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from ..core.protocol import Protocol
from ..engine import ProtocolSystem, SearchEngine
from ..obs.stats import ExplorationStats

__all__ = ["explore", "reachable_states", "count_actions"]


def explore(
    protocol: Protocol,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    on_state: Optional[Callable[[Hashable, int], None]] = None,
    should_stop: Optional[Callable[[ExplorationStats], Optional[str]]] = None,
    telemetry=None,
) -> ExplorationStats:
    """BFS over the protocol's reachable states.

    ``on_state(state, depth)`` is invoked once per distinct state.
    Caps mark the result ``truncated`` instead of raising.
    ``should_stop(stats)`` is polled once per expanded state; returning
    a reason string halts the search cooperatively, marking the result
    truncated with that ``stop_reason`` (budgeted exploration).
    """
    engine = SearchEngine(
        ProtocolSystem(protocol),
        max_states=max_states,
        max_depth=max_depth,
        strict_cap=True,
        check_quiescence_reachability=False,
        on_state=on_state,
    )
    engine.run(should_stop, telemetry)
    return engine.stats


def reachable_states(
    protocol: Protocol, *, max_states: Optional[int] = None
) -> List[Hashable]:
    """All reachable states (BFS order)."""
    out: List[Hashable] = []
    explore(protocol, max_states=max_states, on_state=lambda s, d: out.append(s))
    return out


def count_actions(protocol: Protocol, *, max_states: Optional[int] = None) -> Dict[str, int]:
    """Histogram of action kinds over all transitions of the reachable
    fragment (diagnostic; also exercised by tests)."""
    counts: Dict[str, int] = {}

    def visit(state, _depth):
        for t in protocol.transitions(state):
            name = type(t.action).__name__
            if hasattr(t.action, "name"):
                name = t.action.name  # type: ignore[union-attr]
            counts[name] = counts.get(name, 0) + 1

    explore(protocol, max_states=max_states, on_state=visit)
    return counts
