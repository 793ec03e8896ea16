"""Structured run traces: JSONL events with a validated schema.

A :class:`TraceWriter` appends one JSON object per line to a pluggable
sink — a file path (``--trace-log PATH`` on the CLI), any writable
text stream, or an in-memory list (tests).  Every event carries:

* ``ev`` — the event name (one of :data:`EVENT_SCHEMA`);
* ``ts`` — wall-clock UNIX seconds (``time.time``);
* ``seq`` — a per-writer monotonically increasing sequence number;
* the event's required fields (see :data:`EVENT_SCHEMA`) plus any
  optional extras.

Each line is flushed as it is written, so a crashed or killed run
leaves a prefix of complete, parseable lines — never a torn one.
:func:`validate_trace_line` / :func:`read_trace` enforce the schema
(``repro metrics`` refuses malformed traces with exit code 2), and
``docs/OBSERVABILITY.md`` documents every event and field.
"""

from __future__ import annotations

import io
import json
import time
from typing import Dict, FrozenSet, Iterable, List, Optional, TextIO, Union

__all__ = [
    "EVENT_SCHEMA",
    "TraceWriter",
    "TraceError",
    "validate_trace_line",
    "read_trace",
]

#: event name -> fields every instance must carry (beyond ev/ts/seq)
EVENT_SCHEMA: Dict[str, FrozenSet[str]] = {
    # run lifecycle (harness / verify entry points)
    "run_start": frozenset({"protocol", "mode", "strategy"}),
    "run_end": frozenset({"verdict", "states", "elapsed_s"}),
    # periodic progress (budget-hook ticks)
    "heartbeat": frozenset({"states", "transitions", "frontier", "elapsed_s"}),
    # the checkpoint loader fell back to the rotated ``.bak`` file
    # (kind="checkpoint-bak") and the run is proceeding
    # (docs/ROBUSTNESS.md)
    "recovered": frozenset({"kind"}),
    # notable occurrences
    "violation_found": frozenset({"states", "reason"}),
    "checkpoint_saved": frozenset({"path", "states", "elapsed_s"}),
    "degrade_stage": frozenset({"stage"}),
    "fault_activated": frozenset({"protocol", "fault", "expect"}),
    # a closed hierarchical profiler span (coarse phases only —
    # per-state spans never reach the trace)
    "span": frozenset({"name", "path", "total_s"}),
    # a full metrics snapshot (usually once, at run end)
    "metrics": frozenset({"snapshot"}),
}

#: fields common to every event
COMMON_FIELDS = frozenset({"ev", "ts", "seq"})


class TraceError(ValueError):
    """A trace line failed to parse or violated the event schema."""


class TraceWriter:
    """Append-only JSONL event sink.

    ``sink`` is a writable text stream or a list (events are appended
    as dicts — the in-memory form tests and the differential harness
    use).  Use :meth:`open` for a file path; the writer then owns the
    handle and :meth:`close` releases it.  Stream writes are flushed
    per event so partial traces stay line-parseable.
    """

    def __init__(self, sink: Union[TextIO, list]) -> None:
        self._sink = sink
        self._seq = 0
        self._owns = False

    @classmethod
    def open(cls, path: str) -> "TraceWriter":
        w = cls(io.open(path, "w", encoding="utf-8"))
        w._owns = True
        return w

    def emit(self, ev: str, **fields) -> None:
        """Write one event.  Unknown event names are a programming
        error (they would fail validation on read)."""
        assert ev in EVENT_SCHEMA, f"unknown trace event {ev!r}"
        record = {"ev": ev, "ts": time.time(), "seq": self._seq}
        record.update(fields)
        self._seq += 1
        if isinstance(self._sink, list):
            self._sink.append(record)
            return
        self._sink.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
        self._sink.flush()

    def close(self) -> None:
        if self._owns and not isinstance(self._sink, list):
            self._sink.close()


# ----------------------------------------------------------------------
# validation / reading
# ----------------------------------------------------------------------


def validate_trace_line(line: str, lineno: int = 0) -> dict:
    """Parse and schema-check one JSONL line; raises :class:`TraceError`."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"line {lineno}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise TraceError(f"line {lineno}: event is not a JSON object")
    return validate_event(obj, lineno)


def validate_event(obj: dict, lineno: int = 0) -> dict:
    """Schema-check one already-parsed event dict."""
    missing_common = COMMON_FIELDS - obj.keys()
    if missing_common:
        raise TraceError(
            f"line {lineno}: missing common field(s) {sorted(missing_common)}"
        )
    ev = obj["ev"]
    required = EVENT_SCHEMA.get(ev)
    if required is None:
        raise TraceError(f"line {lineno}: unknown event name {ev!r}")
    missing = required - obj.keys()
    if missing:
        raise TraceError(f"line {lineno}: event {ev!r} missing field(s) {sorted(missing)}")
    return obj


def read_trace(
    source: Union[str, Iterable[str]],
    *,
    path: Optional[str] = None,
    allow_torn_tail: bool = False,
) -> List[dict]:
    """Read and validate a whole JSONL trace.

    ``source`` is a file path or an iterable of lines.  A trailing
    *empty* line is tolerated (the writer ends every event with a
    newline); anything else malformed raises :class:`TraceError`.
    Sequence numbers must be strictly increasing — a shuffled or
    spliced trace is rejected.

    With ``allow_torn_tail=True`` a *final* line that is not valid
    JSON — the signature of a crash mid-write — is dropped and the
    complete prefix returned.  Corruption anywhere else (a torn middle
    line, a schema violation, a bad sequence) still raises: tearing
    only ever hits the tail of an append-only file.
    """
    if isinstance(source, str):
        with io.open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    while lines and not lines[-1].strip():
        lines.pop()
    events: List[dict] = []
    last_seq = -1
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = validate_trace_line(line, i)
        except TraceError:
            if allow_torn_tail and i == len(lines):
                try:
                    json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail: keep the complete prefix
            raise
        if obj["seq"] <= last_seq:
            raise TraceError(
                f"line {i}: sequence number {obj['seq']} not increasing "
                f"(previous {last_seq})"
            )
        last_seq = obj["seq"]
        events.append(obj)
    return events
