"""The JSONL run-trace schema (docs/OBSERVABILITY.md).

Golden-file checks on a real traced run (every event name known, every
required field present, ``seq`` strictly increasing) and the
crash-mid-run guarantee: because each event is flushed as one complete
line, any prefix of a trace file is line-parseable, and ``repro
metrics`` summarises it as a partial run instead of failing.
"""

import json
import os

import pytest

from repro.harness import Budget, run_verification
from repro.memory import MSIProtocol, SerialMemory
from repro.obs import (
    EVENT_SCHEMA,
    MetricsRegistry,
    Telemetry,
    TraceError,
    TraceWriter,
    read_trace,
    validate_trace_line,
)
from repro.obs.trace import COMMON_FIELDS


def _traced_run(path, *, protocol=None, **kw):
    telemetry = Telemetry(
        registry=MetricsRegistry(), trace=TraceWriter.open(str(path))
    )
    try:
        result = run_verification(
            protocol or MSIProtocol(p=2, b=1, v=1),
            telemetry=telemetry,
            **kw,
        )
    finally:
        telemetry.close()
    return result


# ------------------------------------------------------------ golden file


def test_sequential_trace_is_schema_valid(tmp_path):
    path = tmp_path / "t.jsonl"
    _traced_run(path)
    events = read_trace(str(path))  # raises TraceError on any violation
    names = [e["ev"] for e in events]
    assert names[0] == "run_start"
    assert names[-1] == "run_end"
    assert "metrics" in names
    for e in events:
        assert COMMON_FIELDS <= e.keys()
        assert EVENT_SCHEMA[e["ev"]] <= e.keys()


def test_seq_is_strictly_increasing(tmp_path):
    path = tmp_path / "t.jsonl"
    _traced_run(path)
    seqs = [e["seq"] for e in read_trace(str(path))]
    assert seqs == sorted(set(seqs))


def test_violation_and_checkpoint_events(tmp_path):
    from repro.memory import BuggyMSIProtocol

    path = tmp_path / "viol.jsonl"
    _traced_run(path, protocol=BuggyMSIProtocol(p=2, b=1, v=1))
    names = [e["ev"] for e in read_trace(str(path))]
    assert "violation_found" in names

    cp_trace = tmp_path / "cp.jsonl"
    telemetry = Telemetry(trace=TraceWriter.open(str(cp_trace)))
    try:
        run_verification(
            SerialMemory(p=2, b=1, v=2),
            budget=Budget(states=10),
            checkpoint_path=str(tmp_path / "cp.pkl"),
            telemetry=telemetry,
        )
    finally:
        telemetry.close()
    events = read_trace(str(cp_trace))
    saved = [e for e in events if e["ev"] == "checkpoint_saved"]
    assert len(saved) == 1
    assert saved[0]["path"].endswith("cp.pkl")


def test_recovery_events_are_schema_valid(tmp_path):
    # resuming from a damaged checkpoint falls back to the rotated .bak
    # and says so with a `recovered` event (docs/ROBUSTNESS.md); the
    # trace still validates end to end
    cp = str(tmp_path / "run.ckpt")
    run_verification(
        MSIProtocol(p=2, b=1, v=1), budget=Budget(states=50), checkpoint_path=cp
    )
    # a second leg rotates the first checkpoint to .bak
    run_verification(resume_from=cp, budget=Budget(states=100), checkpoint_path=cp)
    with open(cp, "r+b") as fh:
        fh.truncate(os.path.getsize(cp) // 2)
    path = tmp_path / "rec.jsonl"
    telemetry = Telemetry(
        registry=MetricsRegistry(), trace=TraceWriter.open(str(path))
    )
    try:
        run_verification(resume_from=cp, telemetry=telemetry)
    finally:
        telemetry.close()
    events = read_trace(str(path))  # raises TraceError on any violation
    names = [e["ev"] for e in events]
    rec = next(e for e in events if e["ev"] == "recovered")
    assert EVENT_SCHEMA["recovered"] <= rec.keys()
    assert rec["kind"] == "checkpoint-bak"
    # recovery precedes the verdict: the run still ends normally
    assert names[-1] == "run_end"
    assert names.index("recovered") < len(names) - 1


# -------------------------------------------------------- crash mid-run


def test_partial_trace_every_prefix_is_line_parseable(tmp_path):
    path = tmp_path / "t.jsonl"
    _traced_run(path)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) >= 3
    # a crash truncates the file at a line boundary (each event is one
    # flushed write): every whole-line prefix must parse and validate
    for cut in range(1, len(lines)):
        events = read_trace(lines[:cut])
        assert len(events) == cut


def test_partial_trace_summarises_as_in_progress(tmp_path):
    from repro.obs.bench import load_summary

    partial = tmp_path / "partial.jsonl"
    partial.write_text(
        json.dumps({"ev": "run_start", "ts": 0.0, "seq": 0, "protocol": "P",
                    "mode": "fast", "strategy": "bfs", "workers": 1}) + "\n"
        + json.dumps({"ev": "heartbeat", "ts": 0.1, "seq": 1, "states": 5,
                      "transitions": 9, "frontier": 2, "elapsed_s": 0.1}) + "\n"
    )
    summary = load_summary(str(partial))
    assert summary.complete is False
    assert "progress" in summary.verdict
    assert summary.states == 5


# ----------------------------------------------------------- validation


def test_unknown_event_name_rejected_by_writer_and_reader():
    with pytest.raises(AssertionError):
        TraceWriter([]).emit("not_an_event")
    line = json.dumps({"ev": "not_an_event", "ts": 0, "seq": 0})
    with pytest.raises(TraceError, match="unknown event"):
        validate_trace_line(line, 1)


def test_missing_required_field_rejected():
    line = json.dumps({"ev": "heartbeat", "ts": 0, "seq": 0, "states": 1})
    with pytest.raises(TraceError, match="missing field"):
        validate_trace_line(line, 3)


def test_torn_line_and_non_object_rejected():
    with pytest.raises(TraceError, match="not valid JSON"):
        validate_trace_line('{"ev": "run_end", "ts": 1.0, "se', 9)
    with pytest.raises(TraceError, match="not a JSON object"):
        validate_trace_line("[1, 2]", 2)


def test_shuffled_seq_rejected():
    def mk(seq):
        return json.dumps(
            {"ev": "degrade_stage", "ts": 0, "seq": seq, "stage": "x"}
        ) + "\n"
    with pytest.raises(TraceError, match="not increasing"):
        read_trace([mk(1), mk(0)])
    assert len(read_trace([mk(0), mk(1), "\n"])) == 2  # blank line tolerated


# ------------------------------------------------- span events & torn tails


def test_span_events_are_schema_valid(tmp_path):
    path = tmp_path / "t.jsonl"
    _traced_run(path)
    events = read_trace(str(path))
    spans = [e for e in events if e["ev"] == "span"]
    # coarse phase spans only — never one event per state
    assert {e["path"] for e in spans} >= {"phase.search"}
    assert len(spans) < 10
    for e in spans:
        assert EVENT_SCHEMA["span"] <= e.keys()
        assert e["total_s"] >= 0


def test_span_event_missing_field_rejected():
    line = json.dumps({"ev": "span", "ts": 0, "seq": 0, "name": "x"})
    with pytest.raises(TraceError, match="missing field"):
        validate_trace_line(line, 1)


def _mk(seq):
    return json.dumps(
        {"ev": "degrade_stage", "ts": 0, "seq": seq, "stage": "x"}
    ) + "\n"


def test_torn_tail_opt_in_keeps_the_complete_prefix():
    lines = [_mk(0), _mk(1), '{"ev": "run_end", "ts": 1.0, "se']
    with pytest.raises(TraceError):  # strict by default
        read_trace(lines)
    kept = read_trace(lines, allow_torn_tail=True)
    assert [e["seq"] for e in kept] == [0, 1]


def test_torn_tail_tolerance_does_not_mask_mid_file_corruption():
    lines = [_mk(0), '{"ev": "run_end", "ts": 1.0, "se\n', _mk(1)]
    with pytest.raises(TraceError, match="not valid JSON"):
        read_trace(lines, allow_torn_tail=True)


def test_torn_tail_tolerance_still_rejects_schema_violations():
    # a final line that IS valid JSON but breaks the schema is not a
    # torn tail — it is corruption, and stays an error
    bad = json.dumps({"ev": "heartbeat", "ts": 0, "seq": 1, "states": 1}) + "\n"
    with pytest.raises(TraceError, match="missing field"):
        read_trace([_mk(0), bad], allow_torn_tail=True)


def test_cli_metrics_summarises_a_torn_trace(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "t.jsonl"
    _traced_run(path)
    text = path.read_text()
    torn = text[: len(text) - 40]  # rip the final line mid-JSON
    assert not torn.endswith("\n")
    torn_path = tmp_path / "torn.jsonl"
    torn_path.write_text(torn)
    code = main(["metrics", str(torn_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "in progress" in out or "partial" in out


def test_resumed_run_start_reports_the_checkpointed_search(tmp_path):
    # run_start on resume carries the checkpoint's provenance, not the
    # defaults of the resuming call
    cp = str(tmp_path / "dfs.ckpt")
    run_verification(
        MSIProtocol(p=2, b=1, v=1), strategy="dfs", por="on",
        budget=Budget(states=50), checkpoint_path=cp,
    )
    path = tmp_path / "resume.jsonl"
    telemetry = Telemetry(trace=TraceWriter.open(str(path)))
    try:
        run_verification(resume_from=cp, telemetry=telemetry)
    finally:
        telemetry.close()
    start = read_trace(str(path))[0]
    assert start["ev"] == "run_start" and start["resumed"] is True
    assert start["strategy"] == "dfs"
    assert start["por"] == "on"
    assert start["generator"] == "real-time"
    assert start["protocol"] == MSIProtocol(p=2, b=1, v=1).describe()
