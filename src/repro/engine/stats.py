"""Exploration statistics (deprecated re-export).

The stats dataclasses moved to the telemetry layer
(:mod:`repro.obs.stats`) so every observability surface — registry,
traces — shares one definition.  This module keeps the historical
import path working, and lets checkpoints that pickled
``ExplorationStats`` under this module path load unchanged.

.. deprecated::
   No first-party code imports this path any more — everything is on
   :mod:`repro.obs.stats`.  The shim exists *only* so old pickles
   resolve, and pickles reference
   classes, never functions — so only ``ExplorationStats`` is
   re-exported.  New code must import from ``repro.obs.stats``.  Do
   not add exports here.
"""

import warnings

from ..obs.stats import ExplorationStats

__all__ = ["ExplorationStats"]

warnings.warn(
    "repro.engine.stats is deprecated; import ExplorationStats from "
    "repro.obs.stats (this shim exists only so old checkpoints "
    "unpickle)",
    DeprecationWarning,
    stacklevel=2,
)
