"""Soundness fuzzing for partial-order reduction.

POR is the one reduction whose bugs are *silent*: an unsound ample set
does not crash, it quietly skips the interleaving that contained the
violation.  So this suite is built to make exactly that failure loud,
and doubles as the kill-oracle for the mutation tests
(``tests/test_por_mutation.py``), which re-run
:func:`run_soundness_suite` under a weakened independence relation and
a broken C3 proviso and require it to fail.

The teeth, in order of sharpness:

* **the spin gadget** — a protocol with an invisible two-state spin
  cycle next to a guaranteed SC violation.  A correct C3 proviso must
  fully expand some state on the cycle and find the violation; a
  broken one defers the visible actions forever and "verifies" a
  broken protocol.  This is the regression the depth proviso is
  measured against.
* **the b=1 degeneracy theorem** — on single-block snoopy protocols
  every reachable state with a readable line has an enabled visible
  LD, and all internal actions share the block's resource token, so
  *no* valid ample set exists and ``--por on`` must explore the state
  space bit-identically.  Any deviation means the independence
  relation got weaker than declared.
* **the buggy zoo** — every known-broken protocol must still be
  refuted under ``--por on``, with a counterexample that replays
  through a fresh observer + checker.
* **seeded sweeps** — DSL protocols (no ``por_spec``: the degradation
  path must be the *exact* unreduced search) and reduction-bearing
  protocols across {bfs, dfs} × reduce {off, full},
  holding the :data:`repro.difftest.CROSS_POR_FIELDS` contract.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Tuple

import pytest

from repro.core.operations import BOTTOM, InternalAction, Load, Store
from repro.core.protocol import Tracking, Transition
from repro.difftest import CROSS_POR_FIELDS, compare_fingerprints, fingerprint
from repro.engine.por import Footprint, PorSpec, footprint
from repro.harness import Budget, CheckpointError, run_verification
from repro.memory import BUGGY_VARIANTS, MSIProtocol, MESIProtocol
from repro.memory.base import MemoryProtocol
from repro.memory.lazy_caching import LazyCachingProtocol, lazy_caching_st_order
from repro.pdl.examples import buggy_msi_spec, msi_spec, serial_spec


# ----------------------------------------------------------------------
# the spin gadget: an invisible cycle guarding a guaranteed violation
# ----------------------------------------------------------------------


class SpinGadgetPorSpec(PorSpec):
    """``spin`` touches only its own token; the program actions share
    the memory/pc tokens.  So {spin} is always a valid ample candidate
    wherever a program action is also enabled — the C3 proviso is the
    *only* thing standing between the selector and unsoundness."""

    def __eq__(self, other) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self).__name__)

    def schemas(self) -> Iterable[Tuple]:
        return (("spin",), ("ST",), ("LD",))

    def schema_of(self, action) -> Optional[Tuple]:
        if isinstance(action, InternalAction):
            return ("spin",) if action.name == "spin" else None
        if isinstance(action, Store):
            return ("ST",)
        if isinstance(action, Load):
            return ("LD",)
        return None

    def footprint(self, schema: Tuple) -> Footprint:
        if schema == ("spin",):
            return footprint(reads=[("s",)], writes=[("s",)])
        if schema == ("ST",):
            return footprint(reads=[("m",), ("pc",)], writes=[("m",), ("pc",)])
        return footprint(reads=[("m",), ("pc",)], writes=[("pc",)])


class SpinGadget(MemoryProtocol):
    """One processor runs ST(1,1,1) then a stale ⊥-load — a guaranteed
    SC violation two program steps from the root — while an invisible
    ``spin`` action toggles an unrelated bit, forming a two-state
    cycle reachable purely through ample sets.

    State: ``(mem, bit, pc)``; pc 0 = before the store, 1 = store done
    (stale load pending), 2 = done.
    """

    def __init__(self):
        super().__init__(1, 1, 1)
        self.num_locations = 1

    def initial_state(self) -> Tuple[int, int, int]:
        return (BOTTOM, 0, 0)

    def may_load_bottom(self, state, block: int) -> bool:
        return True  # the stale ⊥-load is exactly the modelled bug

    def transitions(self, state) -> Iterable[Transition]:
        mem, bit, pc = state
        yield Transition(
            InternalAction("spin"), (mem, 1 - bit, pc), Tracking()
        )
        if pc == 0:
            yield self.store(1, 1, 1, (1, bit, 1), 0)
        elif pc == 1:
            # reads ⊥ after this processor's own store: violates po
            yield self.load(1, 1, BOTTOM, (mem, bit, 2), 0)

    def por_spec(self):
        return SpinGadgetPorSpec()


# ----------------------------------------------------------------------
# the kill-oracle shared with tests/test_por_mutation.py
# ----------------------------------------------------------------------


def run_soundness_suite():
    """The minimal POR soundness battery: raises ``AssertionError``
    under any reduction that skips a needed interleaving.

    Kept fast (a few seconds) because the mutation suite runs it once
    per mutant; the broader sweeps below extend it, the mutants only
    need to die here.
    """
    # 1. the spin gadget: the violation must survive the reduction
    off = fingerprint(SpinGadget(), mode="fast", por="off")
    on = fingerprint(SpinGadget(), mode="fast", por="on")
    assert off.verdict == "violation"
    assert on.verdict == "violation", (
        "POR hid the spin gadget's violation (C3/proviso unsound)"
    )
    assert on.cx_replays is True

    # 2. the b=1 degeneracy theorem: bit-identical exploration
    for proto in (MSIProtocol(p=2, b=1, v=2), MESIProtocol(p=2, b=1, v=1)):
        full = fingerprint(proto, mode="fast", por="off")
        red = fingerprint(proto, mode="fast", por="on")
        assert (red.states, red.transitions, red.verdict) == (
            full.states,
            full.transitions,
            full.verdict,
        ), f"b=1 snoopy must admit no ample set ({proto.describe()})"

    # 3. a buggy protocol is still refuted, with a replaying cx
    cls, cfg = BUGGY_VARIANTS[0]
    fp = fingerprint(cls(*cfg), mode="fast", por="on", exhaustive=False)
    assert fp.verdict == "violation"
    assert fp.cx_replays is True


def test_soundness_suite_passes_unmutated():
    run_soundness_suite()


# ----------------------------------------------------------------------
# the spin gadget, spelled out
# ----------------------------------------------------------------------


def test_spin_gadget_violation_survives_por_and_replays():
    off = fingerprint(SpinGadget(), mode="fast", por="off")
    on = fingerprint(SpinGadget(), mode="fast", por="on")
    assert off.verdict == on.verdict == "violation"
    assert on.cx_replays is True
    # the reduction really happened: the gadget's spin states are
    # ample-expanded wherever the proviso allows
    assert on.states <= off.states


def test_spin_gadget_reduces_somewhere():
    # sanity that the gadget exercises the ample path at all (otherwise
    # the mutation kill would be vacuous): the selector must propose
    # {spin} at the root, and only the proviso decides
    from repro.engine.por import build_por

    sel = build_por(SpinGadget(), "on")
    proto = SpinGadget()
    steps = list(proto.transitions(proto.initial_state()))

    class _Step:
        def __init__(self, t):
            self.action = t.action

    ample = sel.select(proto.initial_state(), [_Step(t) for t in steps])
    assert ample is not None and len(ample) == 1
    assert ample[0].action == InternalAction("spin")


# ----------------------------------------------------------------------
# b=1 degeneracy across the snoopy zoo
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "proto",
    [MSIProtocol(p=2, b=1, v=2), MESIProtocol(p=2, b=1, v=1)],
    ids=["msi-p2b1v2", "mesi-p2b1v1"],
)
def test_b1_snoopy_por_is_bit_identical(proto):
    full = fingerprint(proto, mode="fast", por="off")
    red = fingerprint(proto, mode="fast", por="on")
    assert (red.states, red.transitions, red.quiescent, red.verdict) == (
        full.states,
        full.transitions,
        full.quiescent,
        full.verdict,
    )
    assert red.canonical_violation == full.canonical_violation


# ----------------------------------------------------------------------
# the buggy zoo keeps being caught
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "variant", [cls.__name__ for cls, _cfg in BUGGY_VARIANTS]
)
def test_buggy_zoo_still_refuted_under_por(variant):
    cls, cfg = next(
        (c, cfg) for c, cfg in BUGGY_VARIANTS if c.__name__ == variant
    )
    fp = fingerprint(
        cls(*cfg), mode="fast", por="on", exhaustive=False
    )
    assert fp.verdict == "violation"
    assert fp.cx_replays is True


def test_por_counterexample_replays_on_a_reduced_search():
    # lazy caching under the (deliberately wrong) real-time generator
    # is refuted, and the reduced search is genuinely smaller — the
    # counterexample found inside the quotient must still replay
    off = fingerprint(LazyCachingProtocol(p=2, b=1, v=1), mode="fast", por="off")
    on = fingerprint(LazyCachingProtocol(p=2, b=1, v=1), mode="fast", por="on")
    assert off.verdict == on.verdict == "violation"
    assert on.states < off.states
    assert on.cx_replays is True
    assert not compare_fingerprints(off, on)


# ----------------------------------------------------------------------
# seeded sweeps: DSL degradation + reduction-bearing protocols
# ----------------------------------------------------------------------


def _dsl_protocols(rng):
    """Seeded parameter draws over the DSL builders — none declares a
    ``por_spec``, so ``--por on`` must be the *exact* unreduced
    search (the degradation contract).  The interpreted MSI spec is
    held at p=2 (p=3 is a ~50 s search — slow-tier territory)."""
    yield serial_spec(p=rng.randint(2, 3), b=1, v=rng.randint(1, 2)), True
    yield msi_spec(p=2, b=1, v=rng.randint(1, 2)), True
    yield buggy_msi_spec(p=2, b=1, v=1), False


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
def test_seeded_dsl_protocols_por_degrades_to_identity(rng, strategy):
    for proto, sc in _dsl_protocols(rng):
        off = fingerprint(
            proto, mode="fast", strategy=strategy, por="off", exhaustive=sc
        )
        on = fingerprint(
            proto, mode="fast", strategy=strategy, por="on", exhaustive=sc
        )
        assert on.verdict == off.verdict
        assert (on.states, on.transitions) == (off.states, off.transitions)
        if not sc:
            assert on.verdict == "violation" and on.cx_replays is True


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
def test_lazy_por_verdict_parity_across_configs(strategy):
    proto = LazyCachingProtocol(p=2, b=1, v=1)
    off = fingerprint(
        proto, lazy_caching_st_order(), mode="fast",
        strategy=strategy, por="off",
    )
    on = fingerprint(
        proto, lazy_caching_st_order(), mode="fast",
        strategy=strategy, por="on",
    )
    assert off.verdict == on.verdict == "verified"
    assert on.states <= off.states
    assert not compare_fingerprints(off, on)


@pytest.mark.parametrize("reduce", ["off", "full"])
def test_msi_por_composes_with_symmetry_reduction(reduce):
    proto = MSIProtocol(p=2, b=1, v=2)
    off = fingerprint(proto, mode="fast", reduce=reduce, por="off")
    on = fingerprint(proto, mode="fast", reduce=reduce, por="on")
    assert off.verdict == on.verdict == "verified"
    # b=1: POR is the identity, with or without the symmetry quotient
    assert (on.states, on.transitions) == (off.states, off.transitions)
    assert not compare_fingerprints(off, on)


def test_cross_por_contract_fields_are_exactly_the_promise():
    # the contract names only what survives an ample quotient: the
    # verdict and that every counterexample replays — counts and the
    # canonical violating state legitimately differ across POR levels
    assert CROSS_POR_FIELDS == frozenset({"verdict", "cx_replays"})


# ----------------------------------------------------------------------
# harness, checkpoint, CLI, and gauge semantics
# ----------------------------------------------------------------------


def test_por_level_is_search_state_on_the_checkpoint(tmp_path):
    cp = tmp_path / "lazy.ckpt"
    first = run_verification(
        LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order(),
        budget=Budget(states=100), checkpoint_path=str(cp), por="on",
    )
    assert not first.complete and cp.exists()
    # an explicit mismatch is a usage error, exactly like --reduce
    with pytest.raises(CheckpointError, match="--por on"):
        run_verification(resume_from=str(cp), por="off")
    # inheriting the checkpointed level resumes the same reduced
    # search: the depth proviso reads the checkpointed discovery tree,
    # so the resumed run matches an uninterrupted one exactly
    resumed = run_verification(resume_from=str(cp))
    fresh = run_verification(
        LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order(), por="on"
    )
    assert resumed.sequentially_consistent and resumed.complete
    assert resumed.stats.states == fresh.stats.states
    assert resumed.stats.transitions == fresh.stats.transitions


def test_pre_por_checkpoint_resumes_with_level_off(tmp_path):
    # checkpoints written before the POR layer pickled ProductSearch /
    # ComposedSystem without the por attributes (CHECKPOINT_VERSION
    # deliberately not bumped); they load as --por off and resume
    from repro.harness import Checkpoint
    from repro.modelcheck.product import ProductSearch

    search = ProductSearch(MSIProtocol(p=2, b=1, v=2), mode="fast")
    search.run(Budget(states=30).start().should_stop)
    del search.__dict__["por"]
    del search.system.__dict__["por"]
    del search.system.__dict__["por_selector"]
    path = tmp_path / "old.ckpt"
    Checkpoint.of(search).save(str(path))
    cp = Checkpoint.load(str(path))
    assert cp.search.por == "off"
    assert cp.search.system.por_selector is None
    res = cp.search.run()
    assert res.ok


def test_por_gauges_published_when_reducing():
    from repro.core.verify import verify_protocol
    from repro.obs import MetricsRegistry, Telemetry

    t = Telemetry(registry=MetricsRegistry())
    verify_protocol(
        LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order(),
        mode="fast", por="on", telemetry=t,
    )
    g = t.registry.snapshot().gauges
    assert g["por.ample_hits"] > 0
    assert g["por.deferred"] > 0
    assert "por.fallbacks" in g

    plain = Telemetry(registry=MetricsRegistry())
    verify_protocol(
        LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order(),
        mode="fast", por="off", telemetry=plain,
    )
    assert not any(
        k.startswith("por.") for k in plain.registry.snapshot().gauges
    )


def test_unknown_por_level_raises_por_error():
    from repro.engine.por import PorError, build_por

    with pytest.raises(PorError, match="banana"):
        build_por(MSIProtocol(p=2, b=1, v=1), "banana")


def test_causal_model_rejects_por():
    from repro.models import ModelError

    with pytest.raises(ModelError):
        fingerprint(MSIProtocol(p=2, b=1, v=1), mode="fast",
                    model="causal", por="on")


def _cli(capsys, *argv):
    from repro.cli import main

    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_por_flag_verifies_and_reports(capsys):
    code, _out = _cli(capsys, "verify", "lazy", "--por", "on")
    assert code == 0


def test_cli_por_resume_mismatch_is_exit_2(capsys, tmp_path):
    cp = tmp_path / "lazy.ckpt"
    code, out = _cli(
        capsys, "verify", "lazy", "--por", "on",
        "--budget-states", "100", "--checkpoint", str(cp),
    )
    assert code == 0 and cp.exists()
    code, out = _cli(capsys, "verify", "--resume", str(cp), "--por", "off")
    assert code == 2
    assert "--por on" in out


def test_cli_causal_with_por_is_exit_2(capsys):
    code, out = _cli(
        capsys, "verify", "msi", "--model", "causal", "--por", "on"
    )
    assert code == 2


def test_cli_verify_help_documents_por_resume_semantics(capsys):
    with pytest.raises(SystemExit) as exc:
        _cli(capsys, "verify", "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--por" in out
    assert "resume as --por off" in out
