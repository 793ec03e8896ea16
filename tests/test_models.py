"""The pluggable consistency-model layer (docs/MODELS.md).

Four contracts under test:

* **SC extraction is invisible** — routing the pipeline through
  :class:`repro.models.sc.SequentialConsistency` changes *nothing*:
  every zoo protocol's search fingerprint is bit-identical to the
  frozen pre-refactor table below (counts, violation-key multiset,
  canonical violation);
* **the model lattice** — SC-verified protocols verify under causal,
  causal violations imply SC violations, and the known separations
  (store buffer, the stale-read bug) land on the right side;
* **preemption bounding is a sound under-approximation** — bounded
  violations replay unbounded, and the bound pays for itself in
  explored states on exhaustive runs;
* **the streaming causal checker is sound against the brute-force
  oracle** — every run the streaming observer+checker accepts, the
  existential witness search :func:`repro.litmus.check_trace_causal`
  accepts too (containment, fuzzed over protocol runs and random
  traces).
"""

import random

import pytest

from repro.cli import main
from repro.core.operations import LD, ST, Operation
from repro.core.protocol import random_run
from repro.core.verify import check_run, verify_protocol
from repro.difftest import (
    assert_equivalent,
    assert_model_lattice,
    assert_preemption_refinement,
    compare_fingerprints,
    fingerprint,
)
from repro.engine.component import ComposedSystem
from repro.engine.hashing import stable_hash
from repro.harness import Budget, CheckpointError, run_verification
from repro.litmus import check_trace_causal, check_trace_store_orders
from repro.memory import (
    PROTOCOLS,
    BuggyMSIProtocol,
    MSIProtocol,
    SerialMemory,
    StoreBufferProtocol,
    store_buffer_st_order,
)
from repro.models import (
    MODELS,
    BoundedPreemptionSC,
    CausalConsistency,
    ModelError,
    SequentialConsistency,
    get_model,
)

# ----------------------------------------------------------------------
# SC extraction: bit-identical fingerprints
# ----------------------------------------------------------------------

# Frozen before SC moved behind the ConsistencyModel interface: fast
# mode, exhaustive, workers=1, registry default sizes.  Columns:
# (verdict, states, transitions, quiescent, n violation keys,
#  stable_hash of the sorted violation-key tuple, canonical violation).
GOLDEN_SC = {
    "serial": ("verified", 72, 432, 72, 0, 3764172161856185211, None),
    "msi": ("verified", 4340, 25752, 4340, 0, 3764172161856185211, None),
    "mesi": ("verified", 4484, 26616, 4484, 0, 3764172161856185211, None),
    "write-through": ("verified", 288, 2016, 288, 0, 3764172161856185211, None),
    "fenced-sb": ("verified", 112, 356, 38, 0, 3764172161856185211, None),
    "lazy": ("verified", 440, 1448, 38, 0, 3764172161856185211, None),
    "buggy-msi": (
        "violation", 14808, 74274, 13017, 1791,
        1986683515633138938, 26614738910677573,
    ),
    "buggy-msi-nowb": (
        "violation", 5241, 22380, 4476, 765,
        11979488652890684172, 27727888917755622,
    ),
}


def _registry_fp(name, **kw):
    ctor, gen_factory, (p, b, v) = PROTOCOLS[name]
    gen = gen_factory() if gen_factory else None
    return fingerprint(ctor(p=p, b=b, v=v), gen, **kw)


@pytest.mark.parametrize("name", sorted(GOLDEN_SC))
def test_model_sc_fingerprints_are_bit_identical(name):
    fp = _registry_fp(name, model="sc")
    got = (
        fp.verdict,
        fp.states,
        fp.transitions,
        fp.quiescent,
        len(fp.violation_keys),
        stable_hash(tuple(sorted(fp.violation_keys))),
        fp.canonical_violation,
    )
    assert got == GOLDEN_SC[name]
    assert fp.model == "sc" and fp.preemptions is None


# ----------------------------------------------------------------------
# the model lattice: SC => causal
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["serial", "fenced-sb", "lazy", "buggy-msi-nowb"])
def test_sc_implies_causal_across_zoo(name):
    sc = _registry_fp(name, model="sc")
    causal = _registry_fp(name, model="causal")
    assert_model_lattice(sc, causal)


def test_causal_fingerprint_is_strategy_independent():
    base = fingerprint(MSIProtocol(p=2, b=1, v=2), model="causal")
    dfs = fingerprint(MSIProtocol(p=2, b=1, v=2), model="causal", strategy="dfs")
    assert_equivalent(base, [dfs])


def test_storebuffer_separates_sc_from_causal():
    # the classic SB litmus shape: total store-order checking rejects
    # the store buffer, per-location causality accepts it
    proto = lambda: StoreBufferProtocol(p=2, b=2, v=1)
    sc = fingerprint(proto(), store_buffer_st_order(), exhaustive=False)
    causal = fingerprint(proto(), store_buffer_st_order(), model="causal")
    assert sc.verdict == "violation" and sc.cx_replays
    assert causal.verdict == "verified"
    assert_model_lattice(sc, causal)


def test_stale_read_bug_is_causally_consistent():
    # BuggyMSI's missing invalidation lets a processor read a value
    # the writer has since overwritten — non-SC, but each location's
    # history is still causally explainable
    sc = fingerprint(BuggyMSIProtocol(p=2, b=1, v=1), exhaustive=False)
    causal = fingerprint(BuggyMSIProtocol(p=2, b=1, v=1), model="causal")
    assert sc.verdict == "violation"
    assert causal.verdict == "verified"
    assert_model_lattice(sc, causal)


# ----------------------------------------------------------------------
# bounded preemption: sound under-approximation
# ----------------------------------------------------------------------


def test_bounded_preemption_finds_the_bug_with_fewer_states():
    full = fingerprint(BuggyMSIProtocol(p=2, b=1, v=1))
    k2 = fingerprint(BuggyMSIProtocol(p=2, b=1, v=1), preemptions=2)
    assert full.verdict == "violation"
    assert k2.verdict == "violation" and k2.cx_replays
    assert k2.states < full.states  # 9635 < 14808
    assert_preemption_refinement(k2, full)


def test_preemption_refinement_holds_for_stop_on_first_runs():
    full = fingerprint(BuggyMSIProtocol(p=2, b=1, v=1), exhaustive=False)
    k2 = fingerprint(
        BuggyMSIProtocol(p=2, b=1, v=1), preemptions=2, exhaustive=False
    )
    assert k2.verdict == "violation" and k2.cx_replays
    # no state-count claim for stop-on-first runs — only soundness
    assert_preemption_refinement(k2, full)


def test_bounded_clean_run_is_never_a_proof():
    res = verify_protocol(MSIProtocol(p=2, b=1, v=1), preemptions=1)
    assert res.counterexample is None
    assert not res.complete
    assert res.confidence == "bounded(preemptions<=1)"
    assert res.verdict == "NO VIOLATION (bounded search)"


# ----------------------------------------------------------------------
# fingerprint comparison refuses to cross conditions
# ----------------------------------------------------------------------


def test_cross_model_fingerprints_refuse_field_comparison():
    sc = fingerprint(SerialMemory(p=2, b=1, v=1))
    causal = fingerprint(SerialMemory(p=2, b=1, v=1), model="causal")
    k1 = fingerprint(SerialMemory(p=2, b=1, v=1), preemptions=1)
    with pytest.raises(ValueError, match="assert_model_lattice"):
        compare_fingerprints(sc, causal)
    with pytest.raises(ValueError, match="assert_preemption_refinement"):
        compare_fingerprints(sc, k1)
    with pytest.raises(ValueError, match="assert_equivalent"):
        assert_model_lattice(sc, sc)
    with pytest.raises(ValueError, match="unbounded"):
        assert_preemption_refinement(sc, sc)


# ----------------------------------------------------------------------
# checkpoint resume: model/preemptions are search state
# ----------------------------------------------------------------------


def test_checkpoint_resume_rejects_mismatched_model(tmp_path):
    cp = tmp_path / "causal.ckpt"
    first = run_verification(
        MSIProtocol(p=2, b=1, v=2),
        budget=Budget(states=100),
        checkpoint_path=str(cp),
        model="causal",
    )
    assert not first.complete and cp.exists()
    with pytest.raises(CheckpointError, match="--model"):
        run_verification(resume_from=str(cp), model="sc")
    resumed = run_verification(resume_from=str(cp))  # None: inherited
    assert resumed.complete and resumed.model == "causal"
    fresh = verify_protocol(MSIProtocol(p=2, b=1, v=2), model="causal")
    assert resumed.stats.states == fresh.stats.states


def test_checkpoint_resume_rejects_mismatched_preemptions(tmp_path):
    cp = tmp_path / "bounded.ckpt"
    first = run_verification(
        BuggyMSIProtocol(p=2, b=1, v=1),
        budget=Budget(states=50),
        checkpoint_path=str(cp),
        preemptions=2,
    )
    assert cp.exists()
    with pytest.raises(CheckpointError, match="--preemptions"):
        run_verification(resume_from=str(cp), preemptions=1)
    resumed = run_verification(resume_from=str(cp))  # bound inherited
    assert resumed.counterexample is not None
    assert first.counterexample is None  # truncated before finding it


# ----------------------------------------------------------------------
# model registry and unsupported combinations
# ----------------------------------------------------------------------


def test_model_registry_shape():
    assert set(MODELS) == {"sc", "causal"}
    sc = get_model("sc")
    causal = get_model("causal")
    assert isinstance(sc, SequentialConsistency)
    assert isinstance(causal, CausalConsistency)
    assert "sc" in causal.weaker_than
    assert sc.supports_reduction and not causal.supports_reduction
    assert "full" in sc.modes and causal.modes == ("fast",)
    bounded = get_model("sc", preemptions=3)
    assert isinstance(bounded, BoundedPreemptionSC)
    assert bounded.preemptions == 3
    # passthrough for already-instantiated models
    assert get_model(causal) is causal


def test_unsupported_model_combinations_raise():
    with pytest.raises(ModelError, match="unknown"):
        get_model("tso")
    with pytest.raises(ModelError, match="preemptions"):
        get_model("causal", preemptions=2)
    with pytest.raises(ModelError, match="re-bound"):
        get_model(get_model("sc", preemptions=2), preemptions=1)
    with pytest.raises(ModelError):
        ComposedSystem(MSIProtocol(p=2, b=1, v=1), mode="full", model="causal")
    with pytest.raises(ModelError, match="reduce"):
        ComposedSystem(
            MSIProtocol(p=2, b=1, v=1), mode="fast",
            model="causal", reduce="proc",
        )


# ----------------------------------------------------------------------
# verdict wording
# ----------------------------------------------------------------------


def test_verdict_wording_names_the_model():
    sc = verify_protocol(SerialMemory(p=2, b=1, v=1))
    assert sc.verdict == "SEQUENTIALLY CONSISTENT (in Γ)"
    causal = verify_protocol(SerialMemory(p=2, b=1, v=1), model="causal")
    assert causal.verdict == "CONSISTENT (model=causal)"
    assert causal.model == "causal"


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_model_causal_verifies_the_stale_read_bug(capsys):
    code, out = run_cli(capsys, "verify", "buggy-msi", "--model", "causal")
    assert code == 0
    assert "CONSISTENT (model=causal)" in out


def test_cli_model_causal_rejects_full_mode(capsys):
    code, out = run_cli(
        capsys, "verify", "msi", "--model", "causal", "--mode", "full"
    )
    assert code == 2 and "error:" in out


def test_cli_model_causal_rejects_reduction(capsys):
    code, out = run_cli(
        capsys, "verify", "msi", "--model", "causal", "--reduce", "proc"
    )
    assert code == 2 and "error:" in out


def test_cli_preemptions_finds_the_buggy_msi_violation(capsys):
    code, out = run_cli(capsys, "verify", "buggy-msi", "--preemptions", "2")
    assert code == 1
    assert "NOT SC" in out


def test_cli_preemptions_clean_run_reports_bounded(capsys):
    code, out = run_cli(capsys, "verify", "serial", "--preemptions", "1")
    assert code == 0
    assert "NO VIOLATION (bounded search)" in out
    assert "bounded(preemptions<=1)" in out


def test_cli_preemptions_with_causal_is_usage_error(capsys):
    code, out = run_cli(
        capsys, "verify", "msi", "--model", "causal", "--preemptions", "1"
    )
    assert code == 2 and "error:" in out


def test_cli_degrade_refuses_non_sc_conditions(capsys):
    code, out = run_cli(
        capsys, "verify", "serial", "--degrade", "--budget-s", "30",
        "--model", "causal",
    )
    assert code == 2
    assert "drop --model/--preemptions" in out


# ----------------------------------------------------------------------
# streaming causal checker vs the brute-force oracle
# ----------------------------------------------------------------------


def test_causal_oracle_litmus_cases():
    # SB: both stores then both cross-reads of ⊥ — rejected by
    # total-store-order SC, accepted causally (⊥-loads are
    # unconstrained, and per-location order carries no cycle)
    sb = (ST(1, 1, 1), ST(2, 2, 1), LD(1, 2, 0), LD(2, 1, 0))
    assert not check_trace_store_orders(sb)
    assert check_trace_causal(sb)

    # a stale read: P2 sees the old value after P1 overwrote it
    stale = (ST(1, 1, 1), ST(1, 1, 2), LD(2, 1, 1))
    assert check_trace_causal(stale)

    # an unexplainable value: no store ever wrote 2 to block 1
    orphan = (ST(1, 1, 1), LD(2, 1, 2))
    assert not check_trace_causal(orphan)

    # a per-location cycle: P1 must read 2 before writing 1, but the
    # only store of 2 is forced after P1's own store of 1
    cycle = (LD(1, 1, 2), ST(1, 1, 1), LD(2, 1, 1), ST(2, 1, 2))
    assert not check_trace_causal(cycle)

    # degenerate traces are vacuously causal
    assert check_trace_causal(())
    assert check_trace_causal((ST(1, 1, 1), ST(2, 1, 2)))
    assert check_trace_causal((LD(1, 1, 0),))


@pytest.mark.parametrize(
    "make_proto,make_gen",
    [
        (lambda: SerialMemory(p=2, b=2, v=2), None),
        (lambda: MSIProtocol(p=2, b=2, v=2), None),
        (lambda: BuggyMSIProtocol(p=2, b=1, v=2), None),
        (lambda: StoreBufferProtocol(p=2, b=2, v=1), store_buffer_st_order),
    ],
)
def test_streaming_causal_accept_implies_oracle_accept(make_proto, make_gen, rng):
    # containment: the streaming observer tracks ONE inheritance
    # assignment; the oracle searches over all of them, so every
    # streaming accept must be an oracle accept.  (The converse is
    # false by design — the oracle may find a witness the tracked
    # assignment misses.)
    accepts = 0
    for _ in range(40):
        proto = make_proto()
        gen = make_gen() if make_gen else None
        run = random_run(proto, rng.randint(3, 14), rng)
        rc = check_run(proto, run, gen, model="causal")
        trace = tuple(a for a in run if isinstance(a, Operation))
        if rc.ok:
            accepts += 1
            assert check_trace_causal(trace), (
                f"streaming causal accepted but oracle rejected: {trace}"
            )
    assert accepts >= 10  # the fuzz must actually exercise the accept path


def _random_trace(rng, n, p=2, b=2, v=2):
    # arbitrary (often non-SC) traces, mirroring conftest.random_trace
    out = []
    for _ in range(n):
        P, B, V = rng.randint(1, p), rng.randint(1, b), rng.randint(1, v)
        if rng.random() < 0.5:
            out.append(ST(P, B, V))
        else:
            out.append(LD(P, B, rng.randint(0, v)))
    return tuple(out)


def test_trace_lattice_sc_implies_causal(rng):
    # at the trace level: any trace with consistent total store orders
    # is in particular causally explainable
    causal_accepts = causal_rejects = 0
    for _ in range(300):
        trace = _random_trace(rng, rng.randint(2, 7))
        causal_ok = check_trace_causal(trace)
        if check_trace_store_orders(trace):
            assert causal_ok, f"SC trace not causal: {trace}"
        if causal_ok:
            causal_accepts += 1
        else:
            causal_rejects += 1
    assert causal_accepts >= 30 and causal_rejects >= 30


def test_sc_runs_are_causally_accepted(rng):
    # protocol runs of a serial memory are SC by construction, so the
    # streaming causal pipeline must accept every one of them
    for _ in range(25):
        proto = SerialMemory(p=2, b=2, v=2)
        run = random_run(proto, rng.randint(3, 12), rng)
        rc = check_run(proto, run, model="causal")
        assert rc.ok, f"causal rejected a serial-memory run: {rc.reason}"
