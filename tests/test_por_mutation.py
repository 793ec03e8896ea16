"""Mutation tests for the POR independence relation and C3 proviso.

Mirroring ``test_checker_mutation.py``: instead of trusting that the
soundness suite *would* catch an unsound reduction, break the
reduction on purpose and require the suite to fail.  Two mutants, each
attacking one of the two load-bearing soundness pillars:

* **weakened independence** — declare every (writer × pure-reader)
  schema pair independent.  This declares the truly-dependent
  ``AcquireM`` × ``LD`` snoopy pair independent: an upgrade-to-M
  invalidates the very line a concurrent LD reads, so deferring the LD
  past it changes what the load observes.  Killed by the b=1
  degeneracy theorem: single-block snoopy protocols admit *no* valid
  ample set, so any reduction at all is proof the relation got weaker
  than the declarations.
* **dropped C3 proviso** — replace the depth proviso with "always
  ample".  Killed by the spin gadget: its invisible two-state cycle
  then defers the violating program actions forever and the suite sees
  a broken protocol "verify".

Both patches go through the module attributes the engine itself uses —
``repro.engine.por.dependent`` is looked up late when a selector is
built, and the search loop calls ``_por.proviso(...)`` through the
module — so the mutants reach every selector and every expansion.
"""

from __future__ import annotations

import pytest

import repro.engine.por as por
from repro.difftest import fingerprint
from repro.memory import MSIProtocol

from .test_por_fuzz import SpinGadget, run_soundness_suite


def test_weakened_independence_relation_is_killed(monkeypatch):
    real = por.dependent

    def mutant(fa, fb):
        # one truly-dependent pair gone: a pure reader (LD: empty
        # writes) is declared independent of every writer, including
        # the same-block AcquireM that invalidates its line
        if not fa.writes or not fb.writes:
            return False
        return real(fa, fb)

    monkeypatch.setattr(por, "dependent", mutant)
    with pytest.raises(AssertionError, match="b=1 snoopy"):
        run_soundness_suite()


def test_weakened_independence_actually_reduces(monkeypatch):
    # guard against a vacuous kill: under the mutant the b=1 search
    # really does defer steps (the ample machinery engaged), which is
    # exactly the deviation from the degeneracy theorem the suite flags
    real = por.dependent

    def mutant(fa, fb):
        if not fa.writes or not fb.writes:
            return False
        return real(fa, fb)

    monkeypatch.setattr(por, "dependent", mutant)
    proto = MSIProtocol(p=2, b=1, v=2)
    off = fingerprint(proto, mode="fast", por="off")
    on = fingerprint(proto, mode="fast", por="on")
    assert on.transitions < off.transitions


def test_dropped_c3_proviso_is_killed(monkeypatch):
    # the classic ignoring problem: with no cycle condition the
    # invisible spin cycle is ample everywhere and the visible
    # violating actions are deferred forever
    monkeypatch.setattr(por, "proviso", lambda *args, **kwargs: True)
    with pytest.raises(AssertionError, match="spin gadget"):
        run_soundness_suite()


def test_dropped_c3_proviso_actually_hides_the_violation(monkeypatch):
    monkeypatch.setattr(por, "proviso", lambda *args, **kwargs: True)
    fp = fingerprint(SpinGadget(), mode="fast", por="on")
    # the broken reduction walks the 2-state spin cycle and stops
    assert fp.verdict != "violation"
    assert fp.states <= 3


def test_unmutated_baseline_passes():
    # positive control: the kill oracle itself is green without mutants
    run_soundness_suite()
