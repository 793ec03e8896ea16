"""The run ledger: content hashing, append/lookup, gc, CLI, dedup.

The contract under test (docs/OBSERVABILITY.md): the ledger hash
covers exactly the *search provenance* — what was searched — so run
policy such as the store backend never changes it, while any
knob that changes the explored space (strategy, reduce, model, ...)
does.  Two runs of the same hash must report bit-identical
deterministic gauges, which is the dedup signal the
verification-as-a-service cache needs.
"""

import json

import pytest

from repro.cli import main
from repro.engine.intern import StoreConfig
from repro.harness import run_verification
from repro.memory import BuggyMSIProtocol, SerialMemory
from repro.obs.ledger import (
    DEFAULT_LEDGER_PATH,
    LedgerError,
    PROVENANCE_FIELDS,
    RunLedger,
    content_hash,
    group_by_hash,
)

PROV = {
    "protocol": "MSIProtocol(p=2, b=1, v=2, L=3)",
    "generator": "real-time",
    "mode": "fast",
    "strategy": "bfs",
    "seed": None,
    "exhaustive": False,
    "reduce": "off",
    "model": "sc",
    "preemptions": None,
    "por": "off",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ------------------------------------------------------------- hashing


def test_content_hash_is_order_and_extras_insensitive():
    h = content_hash(PROV)
    reordered = dict(reversed(list(PROV.items())))
    assert content_hash(reordered) == h
    # run policy (and anything else outside PROVENANCE_FIELDS) is inert
    with_policy = dict(PROV, workers=8, chaos="kill-worker@2", verdict="SC")
    assert content_hash(with_policy) == h


def test_content_hash_missing_fields_default_to_none():
    partial = {k: PROV[k] for k in ("protocol", "mode")}
    explicit = dict(partial, strategy=None, exhaustive=None, reduce=None,
                    model=None, preemptions=None, por=None)
    assert content_hash(partial) == content_hash(explicit)


@pytest.mark.parametrize("field,value", [
    ("protocol", "other"),
    ("mode", "full"),
    ("strategy", "dfs"),
    ("exhaustive", True),
    ("reduce", "proc"),
    ("model", "causal"),
    ("preemptions", 2),
    ("por", "on"),
    ("generator", "write-order(memory-write)"),
    ("seed", 3),
])
def test_every_provenance_field_perturbs_the_hash(field, value):
    assert content_hash(dict(PROV, **{field: value})) != content_hash(PROV)


def _provenance(protocol, st_order=None, **kw):
    from repro.modelcheck.product import ProductSearch
    from repro.obs.ledger import search_provenance

    return search_provenance(ProductSearch(protocol, st_order, mode="fast", **kw))


def test_generator_and_walk_seed_are_search_provenance():
    # the same protocol under two ST-order generators is two different
    # products (lazy caching verifies under write order, is refuted
    # under real-time order); two random walks with different seeds
    # explore different state sets — neither pair may share a hash
    from repro.memory import LazyCachingProtocol, lazy_caching_st_order

    lazy = LazyCachingProtocol(p=2, b=1, v=1)
    write_order = _provenance(lazy, lazy_caching_st_order())
    real_time = _provenance(lazy)
    assert write_order["generator"] == "write-order(memory-write)"
    assert real_time["generator"] == "real-time"
    assert content_hash(write_order) != content_hash(real_time)

    walks = {
        content_hash(_provenance(BuggyMSIProtocol(p=2, b=1, v=1),
                                 strategy="random-walk", seed=seed))
        for seed in (0, 1, 2)
    }
    assert len(walks) == 3
    # the seed steers nothing else, so it is not provenance there
    bfs = [_provenance(SerialMemory(p=2, b=1, v=2), seed=seed) for seed in (0, 1)]
    assert bfs[0]["seed"] is None
    assert content_hash(bfs[0]) == content_hash(bfs[1])


def test_ledger_lines_from_before_the_generator_field_still_read(tmp_path):
    path = tmp_path / "led.jsonl"
    old = dict(PROV)
    del old["generator"], old["seed"]
    path.write_text(json.dumps({
        "hash": "0" * 64, "verdict": "SC", "provenance": old, "states": 4,
    }) + "\n")
    led = RunLedger(str(path))
    (entry,) = led.entries()
    assert entry.provenance == old and entry.states == 4
    assert led.lookup("0000") == [entry]
    led.record(provenance=PROV, verdict="SC")
    assert len(led.entries()) == 2


# ------------------------------------------------- record/lookup/entries


def test_record_and_lookup_roundtrip(tmp_path):
    led = RunLedger(str(tmp_path / "led.jsonl"))
    assert led.entries() == []
    e = led.record(provenance=PROV, verdict="SC", states=10, elapsed_s=1.5,
                   gauges={"search.states": 10}, trace="t.jsonl")
    assert e.hash == content_hash(PROV)
    got = led.entries()
    assert len(got) == 1 and got[0].hash == e.hash
    assert got[0].gauges == {"search.states": 10}
    assert got[0].trace == "t.jsonl"
    # lookup by provenance mapping, full hash, and prefix all agree
    assert len(led.lookup(PROV)) == 1
    assert len(led.lookup(e.hash)) == 1
    assert len(led.lookup(e.hash[:8])) == 1
    assert led.lookup(dict(PROV, strategy="dfs")) == []


def test_lookup_accepts_objects_with_provenance(tmp_path):
    led = RunLedger(str(tmp_path / "led.jsonl"))
    entry = led.record(provenance=PROV, verdict="SC")
    # a LedgerEntry (Mapping .provenance attr) is a valid key
    assert len(led.lookup(entry)) == 1

    class FingerprintLike:
        def provenance(self):
            return dict(PROV)

    assert len(led.lookup(FingerprintLike())) == 1
    with pytest.raises(TypeError):
        led.lookup(object())


def test_fingerprint_provenance_keys_match_ledger_fields():
    from repro.difftest import SearchFingerprint

    fp = SearchFingerprint(
        protocol="p", mode="fast", strategy="bfs",
        exhaustive=False, verdict="verified", states=1, transitions=1,
        quiescent=1, non_quiescible=0, violation_keys=frozenset(),
        canonical_violation=None, cx_len=None, cx_replays=None,
    )
    assert set(fp.provenance()) == set(PROVENANCE_FIELDS)


def test_torn_tail_is_dropped_but_mid_file_corruption_raises(tmp_path):
    path = tmp_path / "led.jsonl"
    led = RunLedger(str(path))
    led.record(provenance=PROV, verdict="SC")
    led.record(provenance=dict(PROV, mode="full"), verdict="SC")
    # crash mid-append: a torn, non-JSON final line
    with open(path, "a") as fh:
        fh.write('{"hash": "abc", "verd')
    assert len(led.entries()) == 2  # complete prefix kept
    # but garbage *before* the end is real corruption
    lines = path.read_text().splitlines()
    lines.insert(1, "not json at all")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LedgerError):
        led.entries()


def test_non_entry_json_line_raises(tmp_path):
    path = tmp_path / "led.jsonl"
    path.write_text('{"something": "else"}\n{"also": 1}\n')
    with pytest.raises(LedgerError):
        RunLedger(str(path)).entries()


def test_gc_keeps_newest_per_hash(tmp_path):
    led = RunLedger(str(tmp_path / "led.jsonl"))
    for i in range(3):
        led.record(provenance=PROV, verdict="SC", states=i)
    led.record(provenance=dict(PROV, mode="full"), verdict="SC", states=99)
    assert led.gc(keep=1) == 2
    kept = led.entries()
    assert len(kept) == 2
    by_hash = group_by_hash(kept)
    assert [g[0].states for g in by_hash.values()] == [2, 99]  # newest kept
    assert led.gc(keep=1) == 0  # idempotent
    with pytest.raises(ValueError):
        led.gc(keep=0)


# -------------------------------------------------- harness integration


def test_run_verification_records_and_reports_dedup(tmp_path):
    led_path = str(tmp_path / "led.jsonl")

    def run():
        return run_verification(
            SerialMemory(p=2, b=1, v=1), ledger=led_path
        )

    first, second = run(), run()
    assert first.ledger_hash == second.ledger_hash
    assert first.ledger_prior == 0 and second.ledger_prior == 1
    entries = RunLedger(led_path).entries()
    assert len(entries) == 2
    # the dedup acceptance: deterministic gauges bit-identical
    assert entries[0].gauges == entries[1].gauges
    assert entries[0].gauges["search.states"] == first.stats.states


def test_store_backend_does_not_change_the_hash_or_gauges(tmp_path):
    led_path = str(tmp_path / "led.jsonl")
    mem = run_verification(SerialMemory(p=2, b=1, v=1), ledger=led_path)
    disk = run_verification(
        SerialMemory(p=2, b=1, v=1), ledger=led_path,
        store=StoreConfig(kind="disk", cap_keys=16, dir=str(tmp_path)),
    )
    assert mem.ledger_hash == disk.ledger_hash
    a, b = RunLedger(led_path).entries()
    assert a.gauges == b.gauges


def test_workers_do_not_change_the_hash_or_gauges(tmp_path):
    # entries recorded while the sharded engine existed carry the worker
    # count; it was run policy, so such an entry keeps the hash and the
    # gauges of a fresh run of the same search
    led_path = tmp_path / "led.jsonl"
    first = run_verification(SerialMemory(p=2, b=1, v=1), ledger=str(led_path))
    (line,) = led_path.read_text().splitlines()
    with open(led_path, "a") as fh:
        fh.write(json.dumps(dict(json.loads(line), workers=2)) + "\n")
    again = run_verification(SerialMemory(p=2, b=1, v=1), ledger=str(led_path))
    assert first.ledger_hash == again.ledger_hash
    a, b, c = RunLedger(str(led_path)).entries()
    assert a.hash == b.hash == c.hash == first.ledger_hash
    assert a.gauges == b.gauges == c.gauges


def test_cli_runs_reads_entries_that_carry_a_workers_field(tmp_path, capsys):
    # ledgers written before the sharded engine was removed recorded the
    # worker count on every entry; they must still list
    path = tmp_path / "old.jsonl"
    old = {
        "hash": content_hash(PROV), "verdict": "SC", "provenance": PROV,
        "states": 10, "elapsed_s": 1.5, "workers": 1,
        "gauges": {"search.states": 10}, "recorded_at": 0.0,
    }
    path.write_text(json.dumps(old) + "\n")
    code, out = run_cli(capsys, "runs", "--ledger", str(path))
    assert code == 0
    assert content_hash(PROV)[:12] in out and "1 run(s)" in out


def test_violation_runs_are_recorded(tmp_path):
    led_path = str(tmp_path / "led.jsonl")
    res = run_verification(BuggyMSIProtocol(p=2, b=1, v=1), ledger=led_path)
    assert res.counterexample is not None and res.ledger_hash is not None
    (entry,) = RunLedger(led_path).entries()
    assert "NOT SC" in entry.verdict


def test_truncated_runs_are_not_recorded(tmp_path):
    led_path = str(tmp_path / "led.jsonl")
    res = run_verification(
        SerialMemory(p=2, b=1, v=2), max_states=5, ledger=led_path
    )
    assert res.ledger_hash is None
    assert RunLedger(led_path).entries() == []


# ---------------------------------------------------------------- CLI


def test_cli_ledger_dedup_end_to_end(capsys, tmp_path):
    led = str(tmp_path / "led.jsonl")
    argv = ["verify", "serial", "--b", "1", "--v", "1", "--ledger", led]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and "(new search)" in out
    code, out = run_cli(capsys, *argv)
    assert code == 0 and "hit — 1 prior identical run(s)" in out

    code, out = run_cli(capsys, "runs", "--ledger", led)
    assert code == 0
    assert "2 run(s), 1 distinct search(es), 1 duplicate run(s)" in out

    # the two entries share the hash and the gauges byte-for-byte
    a, b = [json.loads(line) for line in open(led)]
    assert a["hash"] == b["hash"] and a["gauges"] == b["gauges"]


def test_cli_runs_filters_show_and_gc(capsys, tmp_path):
    led = str(tmp_path / "led.jsonl")
    run_cli(capsys, "verify", "serial", "--b", "1", "--v", "1", "--ledger", led)
    run_cli(capsys, "verify", "buggy-msi", "--ledger", led)

    code, out = run_cli(capsys, "runs", "--ledger", led, "--protocol", "Buggy")
    assert code == 0 and "BuggyMSI" in out and "SerialMemory" not in out
    code, out = run_cli(capsys, "runs", "--ledger", led, "--verdict", "not sc")
    assert code == 0 and "BuggyMSI" in out

    full_hash = json.loads(open(led).readline())["hash"]
    code, out = run_cli(capsys, "runs", "--ledger", led, "--show", full_hash[:10])
    assert code == 0 and full_hash in out and '"provenance"' in out
    code, out = run_cli(capsys, "runs", "--ledger", led, "--show", "ffff" * 16)
    assert code == 2

    run_cli(capsys, "verify", "buggy-msi", "--ledger", led)  # duplicate
    code, out = run_cli(capsys, "runs", "--ledger", led, "--gc")
    assert code == 0 and "dropped 1 entry" in out


def test_cli_runs_empty_ledger(capsys, tmp_path):
    code, out = run_cli(capsys, "runs", "--ledger", str(tmp_path / "none.jsonl"))
    assert code == 0 and "no matching runs" in out


def test_cli_runs_corrupt_ledger_exit_2(capsys, tmp_path):
    path = tmp_path / "led.jsonl"
    path.write_text("garbage\n" + '{"hash": "a", "verdict": "v"}\n')
    code, out = run_cli(capsys, "runs", "--ledger", str(path))
    assert code == 2 and "error:" in out


def test_cli_truncated_run_not_recorded_notice(capsys, tmp_path):
    led = str(tmp_path / "led.jsonl")
    code, out = run_cli(
        capsys, "verify", "msi", "--max-states", "20", "--ledger", led
    )
    assert "ledger: not recorded" in out
    assert RunLedger(led).entries() == []


def test_default_ledger_path_is_stable():
    # the CI smoke and docs bake this name in
    assert DEFAULT_LEDGER_PATH == "repro-ledger.jsonl"
