"""One verification operation: build, search, and check the result.

Importing this module imports :mod:`repro`; ``src/`` must already be
on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, ContextManager, Optional

from repro.core.serial import is_sequentially_consistent_trace
from repro.engine.intern import StoreConfig
from repro.memory import (
    BuggyMSINoWritebackProtocol,
    BuggyMSIProtocol,
    BuggyMSIStaleSharedProtocol,
    LazyCachingProtocol,
    MESIProtocol,
    MSIProtocol,
    StoreBufferProtocol,
    lazy_caching_st_order,
    store_buffer_st_order,
)
from repro.modelcheck.product import ProductSearch

from workloads import Case

__all__ = ["OpResult", "build", "check", "run_op"]

#: protocol name -> (constructor, ST-order generator factory or None).
#: The benchmark's own table rather than ``repro.cli.PROTOCOLS``: set-up
#: time must not include importing the CLI, and a change to the CLI
#: registry must not change the workloads.
PROTOCOLS = {
    "msi": (MSIProtocol, None),
    "mesi": (MESIProtocol, None),
    "lazy": (LazyCachingProtocol, lazy_caching_st_order),
    "storebuffer": (StoreBufferProtocol, store_buffer_st_order),
    "buggy-msi": (BuggyMSIProtocol, None),
    "buggy-msi-nowb": (BuggyMSINoWritebackProtocol, None),
    "buggy-msi-stale-s": (BuggyMSIStaleSharedProtocol, None),
}


@dataclass
class OpResult:
    case: Case
    wall_s: float
    cpu_s: float
    states: int
    #: why the operation failed its oracle or raised; ``None`` if it passed
    error: Optional[str]


def build(case: Case, spill_dir: Optional[str]) -> ProductSearch:
    """The search for ``case``: fast mode, one worker, BFS."""
    ctor, gen = PROTOCOLS[case.protocol]
    store = None
    if case.disk_cap is not None:
        store = StoreConfig(kind="disk", cap_keys=case.disk_cap, dir=spill_dir)
    return ProductSearch(
        ctor(p=case.p, b=case.b, v=case.v),
        gen() if gen is not None else None,
        mode="fast",
        reduce=case.reduce,
        por=case.por,
        store=store,
    )


def check(case: Case, search: ProductSearch, result) -> Optional[str]:
    """Compare a finished search with the case's pinned results."""
    stats = result.stats
    if result.verdict != case.verdict:
        return f"verdict {result.verdict}, expected {case.verdict}"
    if case.states is not None and stats.states != case.states:
        return f"{stats.states} states, expected {case.states}"
    if case.max_states is not None and stats.states > case.max_states:
        return f"{stats.states} states, expected at most {case.max_states}"
    if case.transitions is not None and stats.transitions != case.transitions:
        return f"{stats.transitions} transitions, expected {case.transitions}"
    if case.disk_cap is not None:
        resident = search.engine.store.store_stats()["resident_keys"]
        if resident > case.disk_cap:
            return f"{resident} resident keys, cap {case.disk_cap}"
    if case.verdict == "VIOLATION":
        cx = result.counterexample
        if not search.protocol.is_run(cx.run):
            return "counterexample is not a run of the protocol"
        if is_sequentially_consistent_trace(cx.trace):
            return "counterexample trace is sequentially consistent"
    return None


def run_op(
    case: Case,
    spill_root: str,
    span: Callable[[], ContextManager] = contextlib.nullcontext,
    harvest: Optional[Callable[[ProductSearch, object], None]] = None,
) -> OpResult:
    """Verify ``case`` once.  The timed region runs from building the
    search to its verdict, inside ``span()``; the oracle and
    ``harvest`` (which reads the search's counters) run after it.  Any
    exception is a failed operation, not a crash of the benchmark."""
    spill_dir = tempfile.mkdtemp(prefix="op-", dir=spill_root) if case.disk_cap else None
    wall = cpu = 0.0
    states = 0
    try:
        gc.collect()
        with span():
            c0, t0 = time.process_time(), time.perf_counter()
            search = build(case, spill_dir)
            result = search.run()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        states = result.stats.states
        if harvest is not None:
            harvest(search, result)
        error = check(case, search, result)
        # drop the search before its spill directory goes
        del search, result
    except Exception as exc:  # a failed operation must not end the run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)
    return OpResult(case, wall, cpu, states, error)
