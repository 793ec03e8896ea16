"""The unified verification engine.

One pipeline, one search.  Every verification entry point in this
repository — the Figure 2 product model check, plain protocol
reachability, the litmus-program driver, the fault matrix and the
degradation ladder — is a thin adapter over three pieces:

* :mod:`repro.engine.intern` — :class:`StateStore`: canonical state
  keys are computed once and interned to dense integer IDs; visited
  sets, frontiers and parent pointers hold ints, and counterexample
  runs are rebuilt from a parent-pointer array.
* :mod:`repro.engine.component` — the uniform :class:`Component`
  stepping contract ``step(state, input) -> (next_state, emissions)``
  shared by protocol, observer and checker, and
  :class:`ComposedSystem`, the generic protocol × observer × checker
  composition (Qadeer-style: the whole stack as one transition
  system).
* :mod:`repro.engine.strategy` — pluggable search frontiers (BFS,
  depth-bounded, DFS, random-walk) behind one :class:`SearchEngine`
  that owns caps, the cooperative ``should_stop`` budget hook and the
  state needed for checkpoint/resume.

See ``docs/ARCHITECTURE.md`` for the layering and the adapters.
"""

from .component import (
    CheckerComponent,
    Component,
    ComposedSystem,
    ObserverComponent,
    ProtocolComponent,
    ProtocolSystem,
    Step,
    System,
)
from .hashing import stable_hash
from .intern import StateStore
from .por import (
    POR_LEVELS,
    AmpleSelector,
    Footprint,
    PorError,
    PorSpec,
    build_por,
)
from ..obs.stats import ExplorationStats
from .strategy import (
    BFSFrontier,
    DFSFrontier,
    Frontier,
    RandomWalkFrontier,
    SearchEngine,
    SearchOutcome,
    make_frontier,
)

__all__ = [
    "AmpleSelector",
    "BFSFrontier",
    "CheckerComponent",
    "Component",
    "ComposedSystem",
    "DFSFrontier",
    "ExplorationStats",
    "Footprint",
    "Frontier",
    "ObserverComponent",
    "POR_LEVELS",
    "PorError",
    "PorSpec",
    "ProtocolComponent",
    "ProtocolSystem",
    "RandomWalkFrontier",
    "SearchEngine",
    "SearchOutcome",
    "StateStore",
    "Step",
    "System",
    "build_por",
    "make_frontier",
    "stable_hash",
]
