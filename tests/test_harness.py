"""The budgeted, resumable verification harness (src/repro/harness/).

The load-bearing property (an ISSUE acceptance criterion) is at the
bottom: a budget-truncated verify run resumed from its checkpoint
reaches the same verdict as an unbudgeted run, on several protocols.
"""

import os
import pickle
import signal
import struct
import tracemalloc
import zlib

import pytest

from repro.cli import main
from repro.core.verify import verify_protocol
from repro.harness import (
    BACKUP_SUFFIX,
    SIGNAL_STOP_PREFIX,
    Budget,
    Checkpoint,
    CheckpointError,
    degrade,
    run_verification,
)
from repro.obs import MetricsRegistry, Telemetry, TraceWriter
from repro.memory import (
    BuggyMSIProtocol,
    LazyCachingProtocol,
    MESIProtocol,
    MSIProtocol,
    SerialMemory,
    lazy_caching_st_order,
)
from repro.harness.checkpoint import CHECKPOINT_VERSION
from repro.modelcheck.product import PROVENANCE_FIELDS, ProductSearch, search_provenance
from repro.obs.stats import ExplorationStats


# ---------------------------------------------------------------- budget


def test_state_budget_reason():
    b = Budget(states=10).start()
    assert b.should_stop(ExplorationStats(states=5)) is None
    reason = b.should_stop(ExplorationStats(states=10))
    assert reason is not None and "state budget" in reason


def test_wall_budget_reason():
    b = Budget(wall_s=0.0).start()
    reason = b.should_stop(ExplorationStats())
    assert reason is not None and "wall-clock" in reason


def test_no_budget_never_stops():
    b = Budget().start()
    assert b.should_stop(ExplorationStats(states=10**9)) is None


def test_memory_budget_uses_probe():
    b = Budget(memory_mb=1.0, mem_poll_interval=1, memory_probe=lambda: 2.0).start()
    reason = b.should_stop(ExplorationStats())
    assert reason is not None and "memory budget" in reason


def test_memory_budget_default_probe_reads_process_rss():
    # the interpreter alone is far above 1 MB of peak RSS, so the
    # default probe stops on its first poll, with no tracing switched on
    b = Budget(memory_mb=1.0, mem_poll_interval=1).start()
    reason = b.should_stop(ExplorationStats())
    assert reason is not None and "memory budget exhausted" in reason
    assert not tracemalloc.is_tracing()


def test_budget_slice_takes_fraction_of_remaining():
    b = Budget(wall_s=100.0, states=7).start()
    s = b.slice(0.5)
    assert s.states == 7
    assert s.wall_s is not None and 0 < s.wall_s <= 50.0


def test_budget_start_is_idempotent():
    b = Budget(wall_s=100.0).start()
    t0 = b._t0
    b.start()
    assert b._t0 == t0


# ----------------------------------------------------- truncation + stats


def test_budget_truncation_is_resumable_in_place():
    search = ProductSearch(MSIProtocol(p=2, b=1, v=2), mode="fast")
    res = search.run(Budget(states=30).start().should_stop)
    assert res.stats.truncated and res.stats.stop_reason is not None
    assert not search.done
    # same search object continues to the full verdict
    full = search.run()
    assert full.stats.stop_reason is None
    assert not full.stats.truncated
    assert search.done


# ------------------------------------------------------------ checkpoint


def test_checkpoint_roundtrip(tmp_path):
    search = ProductSearch(MSIProtocol(p=2, b=1, v=2), mode="fast")
    search.run(Budget(states=30).start().should_stop)
    path = tmp_path / "msi.ckpt"
    Checkpoint.of(search, elapsed_s=1.5).save(str(path))
    cp = Checkpoint.load(str(path))
    assert cp.protocol == search.protocol.describe()
    assert cp.elapsed_s == 1.5


def test_checkpoint_load_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk.ckpt"
    with open(path, "wb") as fh:
        pickle.dump({"not": "a checkpoint"}, fh)
    with pytest.raises(CheckpointError):
        Checkpoint.load(str(path))


def test_checkpoint_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"\x00\x01garbage")
    with pytest.raises(CheckpointError):
        Checkpoint.load(str(path))


def test_checkpoint_unpicklable_generator_fails_cleanly(tmp_path):
    # a hand-rolled generator capturing a lambda still cannot pickle
    from repro.core.storder import WriteOrderSTOrder

    gen = WriteOrderSTOrder(
        lambda action: action.args[0] if action.name == "memory-write" else None
    )
    search = ProductSearch(LazyCachingProtocol(p=2, b=1, v=1), gen, mode="fast")
    search.run(Budget(states=10).start().should_stop)
    path = tmp_path / "lazy.ckpt"
    with pytest.raises(CheckpointError, match="pickle"):
        Checkpoint.of(search).save(str(path))
    assert not path.exists()  # no corrupt file left behind


def test_checkpoint_lazy_caching_factory_now_picklable(tmp_path):
    # the stock factories use ActionKeyedSerializer and checkpoint fine
    search = ProductSearch(
        LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order(), mode="fast"
    )
    search.run(Budget(states=10).start().should_stop)
    path = tmp_path / "lazy.ckpt"
    Checkpoint.of(search).save(str(path))
    cp = Checkpoint.load(str(path))
    res = cp.resume().run()
    assert res.ok


# ---------------------------------------------------------------- runner


def test_run_verification_requires_protocol_xor_resume():
    with pytest.raises(ValueError):
        run_verification()
    with pytest.raises(ValueError):
        run_verification(MSIProtocol(p=2, b=1, v=2), resume_from="x.ckpt")


def test_run_verification_matches_verify_protocol():
    proto = SerialMemory(p=2, b=1, v=2)
    a = run_verification(proto)
    b = verify_protocol(SerialMemory(p=2, b=1, v=2))
    assert a.sequentially_consistent == b.sequentially_consistent
    assert a.stats.states == b.stats.states


def test_run_verification_finds_violations():
    res = run_verification(BuggyMSIProtocol(p=2, b=1, v=1))
    assert not res.sequentially_consistent
    assert res.confidence == "refuted"


# ---------------------------- acceptance: resume reaches the same verdict


@pytest.mark.parametrize("ctor", [MSIProtocol, MESIProtocol, SerialMemory])
def test_truncated_then_resumed_matches_unbudgeted(ctor, tmp_path):
    kw = dict(p=2, b=1, v=2)
    reference = run_verification(ctor(**kw))

    cp = tmp_path / "run.ckpt"
    partial = run_verification(
        ctor(**kw), budget=Budget(states=40), checkpoint_path=str(cp)
    )
    assert partial.stats.stop_reason is not None
    assert not partial.complete
    assert cp.exists()

    resumed = run_verification(resume_from=str(cp))
    assert resumed.sequentially_consistent == reference.sequentially_consistent
    assert resumed.complete == reference.complete
    assert resumed.stats.states == reference.stats.states


def test_resume_through_multiple_budget_increments(tmp_path):
    reference = run_verification(MSIProtocol(p=2, b=1, v=2))
    cp = tmp_path / "msi.ckpt"
    res = run_verification(
        MSIProtocol(p=2, b=1, v=2), budget=Budget(states=25), checkpoint_path=str(cp)
    )
    hops = 0
    while res.stats.stop_reason is not None:
        assert hops < 500, "resume loop is not making progress"
        # the state axis counts cumulative stats, so each hop raises it
        res = run_verification(
            resume_from=str(cp),
            budget=Budget(states=res.stats.states + 1000),
            checkpoint_path=str(cp),
        )
        hops += 1
    assert hops > 1  # genuinely ratcheted through several budgets
    assert res.complete
    assert res.sequentially_consistent == reference.sequentially_consistent
    assert res.stats.states == reference.stats.states


# --------------------------------------------------------------- degrade


def test_degrade_full_budget_is_a_proof():
    res = degrade(MSIProtocol(p=2, b=1, v=2), budget=Budget(wall_s=120))
    assert res.sequentially_consistent and res.complete
    assert res.confidence == "proof"


def test_degrade_refutes_buggy_protocol():
    res = degrade(BuggyMSIProtocol(p=2, b=1, v=1), budget=Budget(wall_s=120))
    assert not res.sequentially_consistent
    assert res.counterexample is not None
    assert res.confidence == "refuted"


def test_degrade_starved_is_honest():
    res = degrade(MSIProtocol(p=2, b=2, v=2), budget=Budget(wall_s=0.05))
    assert res.sequentially_consistent  # no violation seen...
    assert not res.complete  # ...but no proof either
    assert res.confidence != "proof"
    assert "bounded" in res.confidence
    assert res.confidence in str(res)  # summary surfaces the confidence


def test_degrade_starved_still_catches_buggy_protocol():
    res = degrade(
        BuggyMSIProtocol(p=2, b=2, v=2), budget=Budget(wall_s=0.1), seed=3
    )
    assert not res.sequentially_consistent
    assert res.counterexample is not None
    assert res.confidence in ("refuted", "litmus", "fuzz")


def test_degrade_spent_budget_still_runs_the_cheap_rungs():
    # a zero wall budget is spent before any rung begins, as a loaded
    # machine can make a small one: the litmus and fuzz rungs still run
    # once each, and the first litmus program catches the buggy protocol
    res = degrade(
        BuggyMSIProtocol(p=2, b=2, v=2), budget=Budget(wall_s=0), seed=3
    )
    assert not res.sequentially_consistent
    assert res.counterexample is not None
    assert res.confidence == "litmus"
    res = degrade(MSIProtocol(p=2, b=1, v=1), budget=Budget(wall_s=0), seed=3)
    assert res.sequentially_consistent and not res.complete
    assert res.confidence.endswith("+litmus(1)+fuzz(1)")


# ------------------------------------- checkpoint integrity + .bak fallback


def corrupt_file(path: str, mode: str = "truncate") -> None:
    """Damage a file the way real crashes do: ``truncate`` cuts it to
    half length (a torn write); ``flip`` inverts one byte in the middle
    (silent media corruption — same length, wrong content, only a
    checksum can tell)."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if mode == "truncate":
        data = data[: max(1, len(data) // 2)]
    elif mode == "flip":
        data[len(data) // 2] ^= 0xFF
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def _saved_checkpoint(tmp_path, name="msi.ckpt"):
    search = ProductSearch(MSIProtocol(p=2, b=1, v=2), mode="fast")
    search.run(Budget(states=30).start().should_stop)
    path = tmp_path / name
    Checkpoint.of(search).save(str(path))
    return path


def test_truncated_checkpoint_is_detected(tmp_path):
    path = _saved_checkpoint(tmp_path)
    corrupt_file(str(path), mode="truncate")
    with pytest.raises(CheckpointError, match="truncated: header promises"):
        Checkpoint.load(str(path))


def test_bitflipped_checkpoint_is_detected(tmp_path):
    path = _saved_checkpoint(tmp_path)
    corrupt_file(str(path), mode="flip")
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        Checkpoint.load(str(path))


def test_save_rotates_previous_checkpoint_to_bak(tmp_path):
    cp = tmp_path / "run.ckpt"
    r1 = run_verification(
        SerialMemory(p=2, b=2, v=2), budget=Budget(states=50),
        checkpoint_path=str(cp),
    )
    assert r1.stats.stop_reason is not None
    assert not os.path.exists(str(cp) + BACKUP_SUFFIX)
    r2 = run_verification(
        resume_from=str(cp), budget=Budget(states=50), checkpoint_path=str(cp)
    )
    assert r2.stats.stop_reason is not None
    assert os.path.exists(str(cp) + BACKUP_SUFFIX)
    # both generations verify their frames
    Checkpoint.load(str(cp))
    Checkpoint.load(str(cp) + BACKUP_SUFFIX)


def test_corrupt_latest_falls_back_to_bak(tmp_path):
    cp = tmp_path / "run.ckpt"
    run_verification(
        MSIProtocol(p=2, b=1, v=1), budget=Budget(states=50),
        checkpoint_path=str(cp),
    )
    run_verification(
        resume_from=str(cp), budget=Budget(states=50), checkpoint_path=str(cp)
    )
    corrupt_file(str(cp), mode="flip")
    loaded, backup = Checkpoint.load_or_backup(str(cp))
    assert backup == str(cp) + BACKUP_SUFFIX
    # resume surfaces the fallback as a `recovered` trace event and
    # still completes the proof from the previous-good generation
    events = []
    telemetry = Telemetry(registry=MetricsRegistry(), trace=TraceWriter(events))
    res = run_verification(resume_from=str(cp), telemetry=telemetry)
    assert res.complete and res.sequentially_consistent
    rec = next(e for e in events if e["ev"] == "recovered")
    assert rec["kind"] == "checkpoint-bak"
    assert rec["path"] == str(cp) + BACKUP_SUFFIX


def test_corrupt_beyond_bak_raises_primary_error(tmp_path):
    path = _saved_checkpoint(tmp_path)
    bak = str(path) + BACKUP_SUFFIX
    with open(str(path), "rb") as fh:
        data = fh.read()
    with open(bak, "wb") as fh:
        fh.write(data)
    corrupt_file(str(path), mode="flip")
    corrupt_file(bak, mode="truncate")
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        Checkpoint.load_or_backup(str(path))


def test_load_or_backup_clean_primary_reports_no_backup(tmp_path):
    path = _saved_checkpoint(tmp_path)
    cp, backup = Checkpoint.load_or_backup(str(path))
    assert backup is None
    assert cp.protocol == MSIProtocol(p=2, b=1, v=2).describe()


# --------------------------------------------------- SIGTERM/SIGINT handling


def test_sigterm_stops_cooperatively_and_checkpoints(tmp_path):
    reference = run_verification(MSIProtocol(p=2, b=1, v=2))
    cp = tmp_path / "sig.ckpt"
    fired = []

    def probe():
        # first budget poll raises SIGTERM against ourselves; the
        # handler records it and the *next* poll stops the search
        if not fired:
            fired.append(True)
            os.kill(os.getpid(), signal.SIGTERM)
        return 0.0

    before = signal.getsignal(signal.SIGTERM)
    res = run_verification(
        MSIProtocol(p=2, b=1, v=2),
        budget=Budget(memory_mb=10_000.0, mem_poll_interval=1, memory_probe=probe),
        checkpoint_path=str(cp),
    )
    assert res.stats.stop_reason == f"{SIGNAL_STOP_PREFIX}SIGTERM"
    assert not res.complete
    assert cp.exists()
    # whatever disposition was installed before the run is back
    assert signal.getsignal(signal.SIGTERM) is before
    resumed = run_verification(resume_from=str(cp))
    assert resumed.complete
    assert resumed.stats.states == reference.stats.states


def test_v2_checkpoint_refuses_parallel_resume(tmp_path):
    path = tmp_path / "seq.ckpt"
    res = run_verification(
        MSIProtocol(p=2, b=1, v=1),
        budget=Budget(states=100),
        checkpoint_path=str(path),
    )
    assert not res.complete
    assert Checkpoint.load(str(path)).version == CHECKPOINT_VERSION
    # the search has one engine, so a resume takes no worker count
    with pytest.raises(TypeError, match="workers"):
        run_verification(resume_from=str(path), workers=2)
    # the refusal must not consume the checkpoint: a resume afterwards
    # still completes the proof
    resumed = run_verification(resume_from=str(path))
    assert resumed.complete and resumed.sequentially_consistent


def _framed(payload: bytes) -> bytes:
    """``payload`` wrapped in the checkpoint integrity frame (magic,
    CRC-32, length), so loading gets past the frame check and reaches
    the pickle itself."""
    return b"RPCKPT1\0" + struct.pack("<IQ", zlib.crc32(payload), len(payload)) + payload


def test_sharded_engine_checkpoint_is_a_clean_error(tmp_path, capsys):
    # checkpoints written by the removed sharded engine pickle a class
    # this build no longer has; the intact frame must not let that
    # surface as anything but a CheckpointError (exit 2 on the CLI)
    path = tmp_path / "sharded.ckpt"
    path.write_bytes(_framed(
        b"\x80\x04crepro.engine.parallel\nParallelSearchEngine\n)\x81."
    ))
    with pytest.raises(CheckpointError, match="repro.engine.parallel"):
        Checkpoint.load(str(path))
    assert main(["verify", "--resume", str(path)]) == 2
    assert "error:" in capsys.readouterr().out


# ------------------------------------------- the record: data, not objects


class _TouchOnLoad:
    """Unpickling this opens (creates) ``path``: a stand-in for any
    payload that runs code when a pickled object graph is loaded."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_loading_a_checkpoint_runs_no_code(tmp_path, capsys):
    marker = tmp_path / "marker"
    path = tmp_path / "evil.ckpt"
    path.write_bytes(_framed(pickle.dumps(_TouchOnLoad(str(marker)))))
    with pytest.raises(CheckpointError, match="open"):
        Checkpoint.load(str(path))
    assert main(["verify", "--resume", str(path)]) == 2
    assert "error:" in capsys.readouterr().out
    assert not marker.exists()


@pytest.mark.parametrize("kind", ["pickled-v2", "headerless", "record-v3"])
def test_checkpoints_from_older_builds_are_clean_errors(kind, tmp_path, capsys):
    # versions 2 and 3 pickled the live search; a version-3 record, or
    # a file without the integrity frame, is refused just as cleanly
    old = b"\x80\x04crepro.harness.checkpoint\nCheckpoint\n)\x81."
    data = {
        "pickled-v2": _framed(old),
        "headerless": old,
        "record-v3": _framed(pickle.dumps({"version": 3})),
    }[kind]
    path = tmp_path / "old.ckpt"
    path.write_bytes(data)
    with pytest.raises(CheckpointError):
        Checkpoint.load(str(path))
    assert main(["verify", "--resume", str(path)]) == 2
    assert "error:" in capsys.readouterr().out


def test_checkpoint_refuses_a_protocol_the_registry_cannot_rebuild(tmp_path):
    search = ProductSearch(MSIProtocol(p=2, b=1, v=1, allow_evict=False), mode="fast")
    search.run(Budget(states=10).start().should_stop)
    path = tmp_path / "msi.ckpt"
    with pytest.raises(CheckpointError, match="registry"):
        Checkpoint.of(search).save(str(path))
    assert not path.exists()


def test_resume_verifies_every_rebuilt_key(tmp_path):
    from repro.harness import checkpoint as ckpt

    path = _saved_checkpoint(tmp_path)
    cp = Checkpoint.load(str(path))
    cols = cp.engine["store"]
    # a frontier state whose recorded path ends in a different action
    frontier = cp.engine["frontier"][-1]
    other = next(
        a for a in cols["action"][1:] if a is not None and a != cols["action"][frontier]
    )
    cols["action"][frontier] = other
    with pytest.raises(CheckpointError, match="does not rebuild"):
        cp.resume()
    # an initial state whose stored key differs from the rebuilt one
    cp = Checkpoint.load(str(path))
    keys = cp.engine["store"]["keys"]
    first = ckpt._loads(keys[0])
    first[0] = ("not", "the", "root")
    keys[0] = ckpt._dumps(first)
    with pytest.raises(CheckpointError, match="initial state"):
        cp.resume()


def test_resume_names_every_mismatching_flag_in_one_error(tmp_path):
    cp = tmp_path / "run.ckpt"
    run_verification(
        MSIProtocol(p=2, b=1, v=1), budget=Budget(states=50), checkpoint_path=str(cp)
    )
    with pytest.raises(CheckpointError, match="--reduce off, --por off"):
        run_verification(resume_from=str(cp), reduce="full", por="on")
    # omitted flags inherit the checkpoint's values
    assert run_verification(resume_from=str(cp), reduce="off").complete


#: a pairwise covering set over strategy × reduce × por × store: every
#: pair of values of any two axes appears in some row
PAIRWISE = [
    ("bfs", "off", "off", "mem"),
    ("bfs", "full", "on", "disk"),
    ("dfs", "off", "on", "disk"),
    ("dfs", "full", "off", "mem"),
    ("random-walk", "off", "off", "disk"),
    ("random-walk", "full", "on", "mem"),
]


@pytest.mark.parametrize("strategy,reduce,por,store", PAIRWISE)
def test_stop_and_resume_keeps_the_fingerprint(strategy, reduce, por, store, tmp_path):
    from repro.difftest import search_fingerprint
    from repro.engine.intern import StoreConfig

    cfg = StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path)) if store == "disk" else None

    def search():
        return ProductSearch(
            LazyCachingProtocol(p=2, b=1, v=1), lazy_caching_st_order(),
            mode="fast", strategy=strategy, seed=7, reduce=reduce, por=por,
            stop_on_violation=False, store=cfg,
        )

    whole = search_fingerprint(search())
    paused = search()
    paused.run(Budget(states=whole.states // 2).start().should_stop)
    assert not paused.done
    path = str(tmp_path / "run.ckpt")
    Checkpoint.of(paused).save(path)
    resumed = Checkpoint.load(path).resume()  # the store is inherited
    assert resumed.engine.store.backend_kind == store
    if cfg is not None:
        # keys stream into the disk store; they are never all resident
        assert resumed.engine.store.store_stats()["resident_keys"] <= 16
    assert search_fingerprint(resumed) == whole


# ----------------------------------------------------- search provenance


def _provenance(protocol, st_order=None, **kw):
    return search_provenance(ProductSearch(protocol, st_order, mode="fast", **kw))


def test_generator_and_walk_seed_are_search_provenance():
    # the same protocol under two ST-order generators is two different
    # products (lazy caching verifies under write order, is refuted
    # under real-time order); two random walks with different seeds
    # explore different state sets
    lazy = LazyCachingProtocol(p=2, b=1, v=1)
    assert _provenance(lazy, lazy_caching_st_order())["generator"] == (
        "write-order(memory-write)"
    )
    assert _provenance(lazy)["generator"] == "real-time"

    walks = [
        _provenance(BuggyMSIProtocol(p=2, b=1, v=1), strategy="random-walk", seed=seed)
        for seed in (0, 1, 2)
    ]
    assert [w["seed"] for w in walks] == [0, 1, 2]
    # the seed steers nothing else, so it is not provenance there
    bfs = [_provenance(SerialMemory(p=2, b=1, v=2), seed=seed) for seed in (0, 1)]
    assert bfs[0]["seed"] is None
    assert bfs[0] == bfs[1]


def test_fingerprint_provenance_keys_match_provenance_fields():
    from repro.difftest import SearchFingerprint

    fp = SearchFingerprint(
        protocol="p", mode="fast", strategy="bfs",
        exhaustive=False, verdict="verified", states=1, transitions=1,
        quiescent=1, non_quiescible=0, violation_keys=frozenset(),
        canonical_violation=None, cx_len=None, cx_replays=None,
    )
    assert set(fp.provenance()) == set(PROVENANCE_FIELDS)


def test_store_backend_does_not_change_provenance_or_gauges(tmp_path):
    from repro.difftest import fingerprint
    from repro.engine.intern import StoreConfig

    mem = fingerprint(SerialMemory(p=2, b=1, v=1))
    disk = fingerprint(
        SerialMemory(p=2, b=1, v=1),
        store=StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path)),
    )
    assert mem.provenance() == disk.provenance()
    assert dict(mem.metrics)["search.states"] == mem.states
    assert mem.metrics == disk.metrics
