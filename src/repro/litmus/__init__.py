"""Litmus tests and per-trace SC checking: programs, reference memory
models (serial / SC / TSO / relaxed), protocol runners, the exponential
VSC baselines, and the Section 5 runtime-testing workflow."""

from .bruteforce import (
    check_trace_bruteforce,
    check_trace_causal,
    check_trace_store_orders,
    witness_constraint_graph,
)
from .generators import corr_chain, iriw_general, mp_chain, sb_chain
from .gk_checker import FuzzReport, fuzz_protocol
from .programs import (
    CORPUS,
    CORR,
    CORW,
    COWR,
    FIGURE1,
    IRIW,
    LB,
    MP,
    SB,
    TWO_PLUS_TWO_W,
    WRC,
    Ld,
    LitmusProgram,
    St,
)
from .runner import outcomes_on_protocol, runs_for_outcome
from .semantics import (
    classify_outcomes,
    outcomes_relaxed,
    outcomes_sc,
    outcomes_serial_realtime,
    outcomes_tso,
)

__all__ = [
    "LitmusProgram", "St", "Ld",
    "FIGURE1", "SB", "MP", "LB", "CORR", "COWR", "CORW", "WRC", "IRIW",
    "TWO_PLUS_TWO_W",
    "CORPUS",
    "outcomes_serial_realtime", "outcomes_sc", "outcomes_tso",
    "outcomes_relaxed", "classify_outcomes",
    "outcomes_on_protocol", "runs_for_outcome",
    "check_trace_bruteforce", "check_trace_causal",
    "check_trace_store_orders", "witness_constraint_graph",
    "fuzz_protocol", "FuzzReport",
    "sb_chain", "mp_chain", "corr_chain", "iriw_general",
]
