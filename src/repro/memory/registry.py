"""The protocol registry: every zoo protocol under a short name.

Each entry knows its constructor, its default ST-order generator and
its default size, so a name alone builds a verification target.  The
CLI, the fault matrix, run files and checkpoints all address protocols
through :func:`build_protocol`; the checker itself knows nothing about
protocols (Theorem 3.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .buggy import (
    BuggyMSINoWritebackProtocol,
    BuggyMSIProtocol,
    BuggyMSIStaleSharedProtocol,
)
from .directory import DirectoryProtocol
from .dragon import DragonProtocol
from .fenced_store_buffer import FencedStoreBufferProtocol
from .lazy_caching import LazyCachingProtocol, lazy_caching_st_order
from .mesi import MESIProtocol
from .moesi import MOESIProtocol
from .msi import MSIProtocol
from .serial_memory import SerialMemory
from .store_buffer import StoreBufferProtocol, store_buffer_st_order
from .write_through import WriteThroughProtocol

__all__ = ["PROTOCOLS", "NON_SC_PROTOCOLS", "build_protocol"]

#: name -> (constructor, default generator factory or None, default p/b/v)
PROTOCOLS: Dict[str, Tuple[Callable, Optional[Callable], Tuple[int, int, int]]] = {
    "serial": (SerialMemory, None, (2, 1, 2)),
    "msi": (MSIProtocol, None, (2, 1, 2)),
    "mesi": (MESIProtocol, None, (2, 1, 2)),
    "moesi": (MOESIProtocol, None, (2, 1, 1)),
    "dragon": (DragonProtocol, None, (2, 1, 1)),
    "write-through": (WriteThroughProtocol, None, (2, 1, 2)),
    "fenced-sb": (FencedStoreBufferProtocol, store_buffer_st_order, (2, 1, 1)),
    "directory": (DirectoryProtocol, None, (2, 1, 1)),
    "lazy": (LazyCachingProtocol, lazy_caching_st_order, (2, 1, 1)),
    "storebuffer": (StoreBufferProtocol, store_buffer_st_order, (2, 2, 1)),
    "buggy-msi": (BuggyMSIProtocol, None, (2, 1, 1)),
    "buggy-msi-nowb": (BuggyMSINoWritebackProtocol, None, (2, 1, 1)),
    "buggy-msi-stale-s": (BuggyMSIStaleSharedProtocol, None, (2, 2, 1)),
}

#: registry names whose (unmodified) protocol is expected non-SC
NON_SC_PROTOCOLS = frozenset(
    {"storebuffer", "buggy-msi", "buggy-msi-nowb", "buggy-msi-stale-s"}
)


def build_protocol(
    name: str,
    p: Optional[int] = None,
    b: Optional[int] = None,
    v: Optional[int] = None,
    *,
    real_time: bool = False,
):
    """``(protocol, generator)`` for registry entry ``name``.

    An omitted ``p``/``b``/``v`` takes the entry's default size.  The
    generator is the entry's default ST-order generator, or ``None``
    (real-time ST order) when the entry has none or ``real_time`` is
    set.  An unknown name raises :class:`ValueError` listing the known
    ones.
    """
    if name not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {name!r} (known: {', '.join(sorted(PROTOCOLS))})"
        )
    ctor, gen_factory, (dp, db, dv) = PROTOCOLS[name]
    proto = ctor(
        p=dp if p is None else p,
        b=db if b is None else b,
        v=dv if v is None else v,
    )
    gen = None if real_time or gen_factory is None else gen_factory()
    return proto, gen
