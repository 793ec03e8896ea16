"""Explicit-state model checking: plain protocol reachability and the
protocol × observer × checker product exploration of Figure 2."""

from .counterexample import Counterexample
from .explorer import count_actions, explore, reachable_states
from .product import ProductResult, ProductSearch
from ..obs.stats import ExplorationStats

__all__ = [
    "Counterexample",
    "ExplorationStats",
    "ProductResult",
    "ProductSearch",
    "explore",
    "count_actions",
    "reachable_states",
]
