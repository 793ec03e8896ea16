"""Pluggable state-store backends (``--store {mem,disk}``).

The contract under test is **backend invariance**
(docs/ARCHITECTURE.md): the store backend is run policy — verdicts,
state counts, counterexamples and
``SearchFingerprint``s are bit-identical between the all-in-RAM
``mem`` backend and the spill-to-disk ``disk`` backend at any
resident budget, down to a 16-key cap that forces constant
evict-and-reread thrash.  Plus the durability half: a checkpoint
written under ``--store disk`` references its spill files by path, so
a missing, torn or CRC-damaged spill file must surface as a clean
:class:`CheckpointError` (CLI exit 2), never a corrupt resume.
"""

import glob
import os
import random
import subprocess
import sys

import pytest

from repro.cli import PROTOCOLS, main
from repro.difftest import assert_equivalent, fingerprint
from repro.engine.intern import (
    MemBackend,
    StateStore,
    StoreConfig,
    StoreError,
    as_config,
    make_backend,
)
from repro.harness import (
    Budget,
    Checkpoint,
    CheckpointError,
    run_verification,
)

#: a resident cap small enough that every protocol in the fast tier
#: spills constantly — the thrash regime the invariance must survive
TINY = StoreConfig(kind="disk", cap_keys=16)


def _make(name):
    ctor, gen_factory, (p, b, v) = PROTOCOLS[name]
    return ctor(p=p, b=b, v=v), (
        gen_factory() if gen_factory is not None else None
    )


def _fp(name, *, store=None, strategy="bfs", reduce="off"):
    proto, gen = _make(name)
    return fingerprint(
        proto, gen, mode="fast", seed=3, store=store,
        strategy=strategy, reduce=reduce,
    )


# ------------------------------------------------------ backend unit layer


def _random_keys(rng, n):
    return [
        (rng.randrange(4), (rng.randrange(3), rng.randrange(50)), "k")
        for _ in range(n)
    ]


def test_disk_matches_mem_on_random_interleavings(tmp_path):
    """Interleaved intern/intern_many/lookup traffic produces the same
    IDs, novelty flags and key_of round-trips on both backends, while
    the disk side never holds more than its cap resident."""
    rng = random.Random(7)
    mem = make_backend(StoreConfig())
    disk = make_backend(
        StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path))
    )
    for _ in range(40):
        op = rng.randrange(3)
        keys = _random_keys(rng, rng.randrange(1, 12))
        if op == 0:
            for k in keys:
                assert mem.intern(k) == disk.intern(k)
        elif op == 1:
            hits_m = mem.lookup_many(keys)
            hits_d = disk.lookup_many(keys)
            assert hits_m == hits_d
            assert mem.intern_many(keys, hits_m) == disk.intern_many(
                keys, hits_d
            )
        else:
            for k in keys:
                assert mem.lookup(k) == disk.lookup(k)
        assert disk.store_stats()["resident_keys"] <= 16
    assert len(mem) == len(disk)
    for sid in range(len(mem)):
        assert mem.key_of(sid) == disk.key_of(sid)
    stats = disk.store_stats()
    assert stats["spilled_keys"] == len(disk) - stats["resident_keys"]
    assert stats["spill_bytes"] > 0


def test_store_facade_converted_round_trip(tmp_path):
    """mem→disk→mem conversion preserves every ID, key and column."""
    cfg = StoreConfig(kind="disk", cap_keys=4, dir=str(tmp_path))
    store = StateStore()
    rng = random.Random(1)
    for i, k in enumerate(_random_keys(rng, 30)):
        sid, new = store.intern(k)
        if new and sid > 0:
            store.set_parent(sid, rng.randrange(sid), f"a{i}")
    disk = store.converted(cfg)
    back = disk.converted(None)
    for s in (disk, back):
        assert len(s) == len(store)
        for sid in range(len(store)):
            assert s.key_of(sid) == store.key_of(sid)
            assert s.parent_of(sid) == store.parent_of(sid)
            assert s.depth_of(sid) == store.depth_of(sid)
            assert s.path_to(sid) == store.path_to(sid)
    assert disk.backend_kind == "disk" and back.backend_kind == "mem"


def test_as_config_rejects_unknown_kind():
    with pytest.raises(StoreError):
        as_config("papyrus")
    assert as_config(None) == StoreConfig() == as_config("mem")


# ------------------------------------------------ cross-backend difftest


@pytest.mark.parametrize("name", ["serial", "lazy", "fenced-sb"])
def test_cross_backend_fingerprints_fast(name):
    """mem × disk: bit-identical fingerprints, with the disk side
    pinned to the 16-key thrash cap."""
    base = _fp(name)
    assert_equivalent(base, [_fp(name, store=TINY)])


def test_cross_backend_violation_protocol():
    """A violating search agrees across backends too — same canonical
    violation, same replayable counterexample."""
    base = _fp("buggy-msi")
    assert base.verdict == "violation"
    assert_equivalent(base, [_fp("buggy-msi", store=TINY)])


def test_cross_backend_with_reduction():
    """Quotient keys intern through the same backend interface —
    reduction composes with the disk store."""
    base = _fp("msi", reduce="proc")
    assert_equivalent(base, [_fp("msi", reduce="proc", store=TINY)])


# ----------------------------------------------- checkpoint / durability


def _truncated_run(tmp_path, tag, store):
    cp = str(tmp_path / f"{tag}.ckpt")
    proto, gen = _make("msi")
    res = run_verification(
        proto, gen, mode="fast", budget=Budget(states=600),
        checkpoint_path=cp, store=store,
    )
    assert res.stats.truncated and os.path.exists(cp)
    return cp


def test_disk_checkpoint_resume_round_trip(tmp_path):
    """Budget-truncate under --store disk, resume, and land on the
    same verdict and state count as an uninterrupted mem run."""
    proto, gen = _make("msi")
    full = run_verification(proto, gen, mode="fast")
    cfg = StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path))
    cp = _truncated_run(tmp_path, "disk", cfg)
    resumed = run_verification(resume_from=cp)
    assert resumed.sequentially_consistent == full.sequentially_consistent
    assert resumed.stats.states == full.stats.states


def test_resume_migrates_backend_both_ways(tmp_path):
    """--store on resume is run policy: an explicit backend override
    migrates the interned store, IDs preserved, same final verdict."""
    proto, gen = _make("msi")
    full = run_verification(proto, gen, mode="fast")
    cfg = StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path))
    cp_mem = _truncated_run(tmp_path, "m", None)
    to_disk = run_verification(resume_from=cp_mem, store=cfg)
    cp_disk = _truncated_run(tmp_path, "d", cfg)
    to_mem = run_verification(resume_from=cp_disk, store="mem")
    for res in (to_disk, to_mem):
        assert res.sequentially_consistent
        assert res.stats.states == full.stats.states


def _spill_log(tmp_path):
    logs = glob.glob(str(tmp_path / "repro-store-*" / "*.log"))
    assert logs, "disk backend wrote no spill log"
    return logs[0]


def test_torn_spill_file_is_checkpoint_error(tmp_path, capsys):
    cfg = StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path))
    cp = _truncated_run(tmp_path, "torn", cfg)
    log = _spill_log(tmp_path)
    with open(log, "r+b") as fh:
        fh.truncate(os.path.getsize(log) - 7)
    with pytest.raises(CheckpointError, match="torn"):
        Checkpoint.load(cp)
    code = main(["verify", "--resume", cp])
    assert code == 2
    assert "error:" in capsys.readouterr().out


def test_crc_damaged_spill_file_is_checkpoint_error(tmp_path, capsys):
    cfg = StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path))
    cp = _truncated_run(tmp_path, "crc", cfg)
    log = _spill_log(tmp_path)
    with open(log, "r+b") as fh:
        fh.seek(os.path.getsize(log) // 2)
        fh.write(b"\xff\xff\xff\xff")
    with pytest.raises(CheckpointError, match="corrupt"):
        Checkpoint.load(cp)
    code = main(["verify", "--resume", cp])
    assert code == 2
    assert "error:" in capsys.readouterr().out


def _cli(tmp_path, *argv):
    """Run the CLI in a fresh interpreter whose temp dir is
    ``tmp_path``, so the spill directories it leaves are observable."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


def _spill_dirs(tmp_path):
    return glob.glob(str(tmp_path / "repro-store-*"))


def test_disk_store_removes_its_spill_dir(tmp_path):
    proc = _cli(tmp_path, "verify", "msi", "--v", "1", "--store", "disk")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert _spill_dirs(tmp_path) == []


def test_checkpointed_spill_dir_survives_for_resume(tmp_path):
    cp = str(tmp_path / "run.ckpt")
    proc = _cli(
        tmp_path, "verify", "msi", "--v", "1", "--store", "disk",
        "--budget-states", "100", "--checkpoint", cp,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(_spill_dirs(tmp_path)) == 1  # the checkpoint references it
    resumed = _cli(tmp_path, "verify", "--resume", cp)
    fresh = _cli(tmp_path, "verify", "msi", "--v", "1")
    assert resumed.returncode == fresh.returncode == 0
    assert resumed.stdout.splitlines()[0] == fresh.stdout.splitlines()[0]


def test_missing_spill_file_is_checkpoint_error(tmp_path):
    cfg = StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path))
    cp = _truncated_run(tmp_path, "gone", cfg)
    os.unlink(_spill_log(tmp_path))
    with pytest.raises(CheckpointError):
        Checkpoint.load(cp)


# --------------------------------------------------- spill-thrash property


def test_spill_thrash_keeps_verdict_and_cap(tmp_path):
    """The acceptance property: a resident cap far below the closure's
    footprint (16 keys vs thousands of states) changes nothing but the
    store gauges — and the cap actually held."""
    cfg = StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path))
    base = _fp("msi")
    thrashed = _fp("msi", store=cfg)
    assert base == thrashed  # full bit-identity, metrics included
    proto, gen = _make("msi")
    from repro.modelcheck.product import ProductSearch

    search = ProductSearch(proto, gen, mode="fast", store=cfg)
    res = search.run()
    assert res.ok
    stats = search.engine.store.store_stats()
    assert stats["backend"] == "disk"
    assert 0 < stats["resident_keys"] <= 16
    assert stats["spilled_keys"] == res.stats.states - stats["resident_keys"]


# --------------------------------------------------------------- CLI layer


def test_cli_store_flag_validation(capsys):
    code = main(["verify", "msi", "--store-budget-mb", "1"])
    assert code == 2
    assert "--store disk" in capsys.readouterr().out


def test_cli_disk_store_verifies(capsys, tmp_path):
    code = main([
        "verify", "serial", "--b", "1", "--v", "1",
        "--store", "disk", "--store-budget-mb", "1",
        "--store-dir", str(tmp_path),
    ])
    assert code == 0
    assert "SEQUENTIALLY CONSISTENT" in capsys.readouterr().out


def test_store_gauges_published(tmp_path):
    """store.* gauges land in the metrics registry, resident+spilled
    accounting for every interned state."""
    from repro.obs import MetricsRegistry, Telemetry

    proto, gen = _make("msi")
    telemetry = Telemetry(registry=MetricsRegistry())
    cfg = StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path))
    from repro.modelcheck.product import ProductSearch

    res = ProductSearch(proto, gen, mode="fast", store=cfg).run(
        telemetry=telemetry
    )
    g = telemetry.registry.snapshot().gauges
    assert g["store.resident_keys"] <= 16
    assert (
        g["store.resident_keys"] + g["store.spilled_keys"]
        == res.stats.states
    )
    assert g["store.spill_bytes"] > 0
    assert g["store.index_probe_avg"] >= 1.0


def test_mem_backend_pickles_to_itself():
    m = MemBackend()
    m.intern(("x",))
    import pickle

    m2 = pickle.loads(pickle.dumps(m))
    assert m2.lookup(("x",)) == 0 and m2.kind == "mem"
