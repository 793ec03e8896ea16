"""The memory-protocol zoo: every verification target, modelled from
scratch as a finite-state protocol with storage locations and tracking
labels.

===========================  =====  ==============================
Protocol                     SC?    Notable feature
===========================  =====  ==============================
:class:`SerialMemory`        yes    atomic baseline
:class:`MSIProtocol`         yes    snooping, write-back
:class:`MESIProtocol`        yes    silent E→M upgrade
:class:`DirectoryProtocol`   yes    split transactions, in-flight data
:class:`LazyCachingProtocol` yes    non-real-time ST order (needs the
                                    Section 4.2 generator)
:class:`MOESIProtocol`       yes    dirty sharing (stale memory)
:class:`WriteThroughProtocol` yes   write-update fan-out
:class:`FencedStoreBufferProtocol` yes  TSO + load fence = SC
:class:`StoreBufferProtocol` no     TSO store buffering
:class:`BuggyMSIProtocol`    no     missing invalidation
:class:`BuggyMSINoWritebackProtocol` no  evict drops modified data
:class:`BuggyMSIStaleSharedProtocol` no  AcquireS reads stale memory
:class:`Figure4Protocol`     —      tracking-label demo (Figure 4)
===========================  =====  ==============================

:data:`PROTOCOLS` names every protocol but the Figure 4 demo, and
:func:`build_protocol` builds one from its name (see
:mod:`repro.memory.registry`).
"""

from .base import LocationMap, MemoryProtocol
from .buggy import (
    BUGGY_VARIANTS,
    BuggyMSINoWritebackProtocol,
    BuggyMSIProtocol,
    BuggyMSIStaleSharedProtocol,
)
from .directory import DirectoryProtocol
from .dragon import DragonProtocol
from .fenced_store_buffer import FencedStoreBufferProtocol
from .figure4 import Figure4Protocol, figure4_run, figure4_steps
from .lazy_caching import LazyCachingProtocol, lazy_caching_st_order
from .mesi import MESIProtocol
from .moesi import MOESIProtocol
from .msi import MSIProtocol
from .registry import NON_SC_PROTOCOLS, PROTOCOLS, build_protocol
from .serial_memory import SerialMemory
from .store_buffer import StoreBufferProtocol, store_buffer_st_order
from .write_through import WriteThroughProtocol

__all__ = [
    "LocationMap",
    "MemoryProtocol",
    "SerialMemory",
    "MSIProtocol",
    "MESIProtocol",
    "MOESIProtocol",
    "DragonProtocol",
    "WriteThroughProtocol",
    "FencedStoreBufferProtocol",
    "DirectoryProtocol",
    "LazyCachingProtocol",
    "lazy_caching_st_order",
    "StoreBufferProtocol",
    "store_buffer_st_order",
    "BuggyMSIProtocol",
    "BuggyMSINoWritebackProtocol",
    "BuggyMSIStaleSharedProtocol",
    "BUGGY_VARIANTS",
    "Figure4Protocol",
    "figure4_run",
    "figure4_steps",
    "PROTOCOLS",
    "NON_SC_PROTOCOLS",
    "build_protocol",
]
