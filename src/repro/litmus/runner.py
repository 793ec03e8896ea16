"""Run litmus programs on concrete protocols.

:func:`outcomes_on_protocol` drives a :class:`~repro.core.protocol.Protocol`
with a litmus program: each processor must issue its instructions in
program order (stores with the program's values, loads accepting
whatever value the protocol offers), while internal protocol actions
interleave freely.  The result is the set of outcomes the *protocol*
can produce — compare it against :func:`repro.litmus.semantics.outcomes_sc`
to test protocol-level sequential consistency on that program, and
against TSO to characterise the store-buffer design.

:func:`runs_for_outcome` additionally returns a witness run per
outcome, which feeds the per-trace checking scenario of Section 5.

A thin adapter since the unified-engine refactor: the constrained
product (protocol × program counters × registers) is a
:class:`~repro.engine.System` explored depth-first by the shared
:class:`~repro.engine.SearchEngine`; witness runs are reconstructed
from the engine's parent-pointer store instead of carrying an action
list per frontier entry.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from ..core.operations import Action, Load, Store
from ..core.protocol import Protocol
from ..engine import SearchEngine, Step, System
from .programs import LitmusProgram, Outcome, St

__all__ = ["outcomes_on_protocol", "runs_for_outcome"]


class _LitmusSystem(System):
    """Protocol constrained by a litmus program.

    States are ``(protocol state, per-processor program counters,
    collected register reads)``; loads and stores must follow each
    processor's instruction sequence while internal actions interleave
    freely.  States are their own keys (all components are hashable
    values already).
    """

    def __init__(self, protocol: Protocol, program: LitmusProgram):
        self.protocol = protocol
        self.program = program
        self.n = program.num_procs

    def initial(self):
        return (self.protocol.initial_state(), (0,) * self.n, ())

    def key(self, state):
        return state

    def steps(self, state) -> Iterator[Step]:
        pstate, pos, regs = state
        n = self.n
        procs = self.program.procs
        for t in self.protocol.transitions(pstate):
            a = t.action
            if isinstance(a, (Load, Store)):
                if a.proc > n or pos[a.proc - 1] >= len(procs[a.proc - 1]):
                    continue
                ins = procs[a.proc - 1][pos[a.proc - 1]]
                if isinstance(ins, St):
                    if not (
                        isinstance(a, Store)
                        and a.block == ins.block
                        and a.value == ins.value
                    ):
                        continue
                    nregs = regs
                else:
                    if not (isinstance(a, Load) and a.block == ins.block):
                        continue
                    nregs = regs + ((ins.reg, a.value),)
                npos = pos[: a.proc - 1] + (pos[a.proc - 1] + 1,) + pos[a.proc :]
                child = (t.state, npos, nregs)
            else:
                child = (t.state, pos, regs)
            yield Step(a, child, child, True)

    def describe(self) -> str:
        return f"{self.protocol.describe()} ⋉ {self.program.name}"


def _search(
    protocol: Protocol,
    program: LitmusProgram,
    *,
    require_quiescent_end: bool = True,
    collect_runs: bool = False,
) -> Dict[Outcome, Tuple[Action, ...]]:
    if program.num_procs > protocol.p:
        raise ValueError(
            f"program needs {program.num_procs} processors, protocol has {protocol.p}"
        )
    if program.max_value > protocol.v:
        raise ValueError("program stores values beyond the protocol's v")
    if max(program.blocks, default=1) > protocol.b:
        raise ValueError("program touches blocks beyond the protocol's b")

    system = _LitmusSystem(protocol, program)
    n = system.n
    procs = program.procs
    #: outcome -> the (self-keyed) state that first exhibited it
    witness_state: Dict[Outcome, Tuple] = {}

    def on_state(state, _depth) -> None:
        pstate, pos, regs = state
        if all(pos[i] == len(procs[i]) for i in range(n)) and (
            not require_quiescent_end or protocol.is_quiescent(pstate)
        ):
            outcome = tuple(sorted(regs))
            if outcome not in witness_state:
                witness_state[outcome] = state

    engine = SearchEngine(
        system,
        strategy="dfs",
        check_quiescence_reachability=False,
        on_state=on_state,
    )
    engine.run()
    if not collect_runs:
        return {outcome: () for outcome in witness_state}
    store = engine.store
    results: Dict[Outcome, Tuple[Action, ...]] = {}
    for outcome, state in witness_state.items():
        sid = store.id_of(state)
        assert sid is not None  # on_state only sees admitted states
        results[outcome] = tuple(store.path_to(sid))
    return results


def outcomes_on_protocol(
    protocol: Protocol,
    program: LitmusProgram,
    *,
    require_quiescent_end: bool = True,
) -> Set[Outcome]:
    """All outcomes the protocol can produce for ``program``."""
    return set(
        _search(protocol, program, require_quiescent_end=require_quiescent_end)
    )


def runs_for_outcome(
    protocol: Protocol,
    program: LitmusProgram,
) -> Dict[Outcome, Tuple[Action, ...]]:
    """One witness run (full action sequence) per reachable outcome."""
    return _search(protocol, program, collect_runs=True)
