"""Systematic fault injection for the verification pipeline.

The checker side of this repository proves protocols *are* SC; this
package stresses the opposite obligation — that broken protocols are
provably **rejected**.  A :class:`FaultSpec` names one seedable
mutation (drop/duplicate an internal message class, stale load hits,
skipped invalidations, corrupted tracking labels, perturbed ST-order
emission); :class:`FaultyProtocol` / :func:`apply_faults` compose
mutations onto any registered protocol; :func:`fault_matrix` verifies
every (protocol × fault) pair against the taxonomy's expectations.

See ``docs/ROBUSTNESS.md`` for the full taxonomy and the rationale for
each expected verdict.
"""

from .matrix import (
    DEFAULT_MATRIX_PROTOCOLS,
    MatrixEntry,
    MatrixReport,
    fault_matrix,
)
from .spec import (
    EXPECT_NO_COUNTEREXAMPLE,
    EXPECT_REJECT,
    EXPECT_SC,
    FAULT_KINDS,
    FaultInapplicable,
    FaultSpec,
    discover_structure,
    standard_faults,
)
from .wrapper import FaultyProtocol, SwappedSTOrder, apply_faults, compose_copies

__all__ = [
    "FaultSpec",
    "FaultInapplicable",
    "FAULT_KINDS",
    "EXPECT_SC",
    "EXPECT_REJECT",
    "EXPECT_NO_COUNTEREXAMPLE",
    "standard_faults",
    "discover_structure",
    "FaultyProtocol",
    "SwappedSTOrder",
    "apply_faults",
    "compose_copies",
    "MatrixEntry",
    "MatrixReport",
    "fault_matrix",
    "DEFAULT_MATRIX_PROTOCOLS",
]
