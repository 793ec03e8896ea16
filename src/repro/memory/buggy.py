"""Intentionally broken MSI variants — the checker's regression prey.

Each variant flips exactly one of the protocol's correctness knobs and
is **empirically non-SC**: verification finds a concrete
counterexample at the variant's default configuration, and the
catch-rate regression (``tests/test_differential.py``) asserts every
variant is flagged under every frontier strategy and store backend.

:class:`BuggyMSIProtocol` — ``AcquireM`` forgets to invalidate other
processors' valid copies.  The classic coherence bug: two simultaneous
owners, stale copies surviving writes, stale data flowing back into
memory over a fresher value.  A strikingly small counterexample exists
already at ``p=2, b=1, v=1``::

    AcquireM(P1); AcquireM(P2)   # P1 not invalidated: two owners
    ST(P1,B1,1); Evict(P1)       # memory := 1
    AcquireS(P1)                 # P2 (stale owner, ⊥) supplies data!
    LD(P1,B1,⊥)

The trace ``ST(P1,B1,1), LD(P1,B1,⊥)`` has no serial reordering —
program order forces the LD after the ST, which forces it to return 1.

:class:`BuggyMSINoWritebackProtocol` — ``Evict`` silently drops a
modified line instead of writing it back.  The write is lost; at
``p=2, b=1, v=1`` the owner itself observes it::

    AcquireM(P1); ST(P1,B1,1)
    Evict(P1)                    # modified data dropped, memory stays ⊥
    AcquireS(P1); LD(P1,B1,⊥)    # P1 reads ⊥ *after* its own ST of 1

:class:`BuggyMSIStaleSharedProtocol` — ``AcquireS`` always fetches
from memory, ignoring a modified owner (no downgrade, no writeback).
Per-block reads still look plausible, so the smallest counterexample
is the textbook cross-block violation, needing ``b=2``::

    AcquireM(P1,x); ST(P1,x,1); AcquireM(P1,y); ST(P1,y,1)
    Evict(P1,y)                  # memory y := 1 (x still modified at P1)
    AcquireS(P2,y); LD(P2,y,1)   # P2 sees the *newer* write
    AcquireS(P2,x); LD(P2,x,⊥)   # ...then stale memory for the older one

``LD(P2,x,⊥)`` must serialise before ``ST(P1,x,1)``, but program order
and the value of ``y`` chain it after — a cycle.

All three keep honest tracking labels: the data movement they *claim*
is the movement they *do* (the no-writeback evict claims no memory
copy, the stale ``AcquireS`` claims a copy from memory).  The
violations are genuine protocol bugs, not tracking lies — exactly the
adversaries Section 4's checker must catch.
"""

from __future__ import annotations

from .msi import MSIProtocol

__all__ = [
    "BuggyMSIProtocol",
    "BuggyMSINoWritebackProtocol",
    "BuggyMSIStaleSharedProtocol",
    "BUGGY_VARIANTS",
]


class BuggyMSIProtocol(MSIProtocol):
    """MSI with the invalidation on AcquireM omitted — not SC."""

    invalidate_on_acquire_m = False

    def __init__(self, p: int = 2, b: int = 1, v: int = 1, *, allow_evict: bool = True):
        super().__init__(p, b, v, allow_evict=allow_evict)


class BuggyMSINoWritebackProtocol(MSIProtocol):
    """MSI whose Evict drops modified data without writeback — not SC."""

    writeback_on_evict = False

    def __init__(self, p: int = 2, b: int = 1, v: int = 1, *, allow_evict: bool = True):
        super().__init__(p, b, v, allow_evict=allow_evict)


class BuggyMSIStaleSharedProtocol(MSIProtocol):
    """MSI whose AcquireS ignores a modified owner and reads stale
    memory — not SC (cross-block violation, hence ``b=2`` default)."""

    acquire_s_from_owner = False

    def __init__(self, p: int = 2, b: int = 2, v: int = 1, *, allow_evict: bool = True):
        super().__init__(p, b, v, allow_evict=allow_evict)


#: every buggy variant with the smallest configuration at which its
#: violation is reachable — the catch-rate regression sweeps this
BUGGY_VARIANTS = (
    (BuggyMSIProtocol, (2, 1, 1)),
    (BuggyMSINoWritebackProtocol, (2, 1, 1)),
    (BuggyMSIStaleSharedProtocol, (2, 2, 1)),
)
