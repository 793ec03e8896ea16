"""Run files: check recorded protocol runs from plain text.

The Section 5 testing scenario in practice means checking *logs*: a
simulator or an RTL testbench records the actions a memory system
executed, and the observer/checker pair judges each run offline.  This
module defines the log format and the checking entry point, wired to
``python -m repro check-run FILE``.

Format — one action per line, ``#`` comments, one header line::

    # anything after '#' is ignored
    protocol: msi p=2 b=1 v=2
    AcquireM(1,1)
    ST(P1,B1,1)
    LD(P1,B1,1)

The protocol name comes from the protocol registry
(:data:`repro.memory.PROTOCOLS`)
and brings its default ST-order generator along; LD/ST lines use the
paper notation (``⊥`` or ``bot`` for the initial value), internal
actions are ``Name(int,int,...)`` as printed by the library.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .core.operations import Action, InternalAction, parse_operation
from .core.protocol import Protocol
from .core.storder import STOrderGenerator
from .core.verify import RunCheck, check_run
from .memory import build_protocol

__all__ = ["parse_action", "parse_run_file", "check_run_file"]


def parse_action(line: str) -> Action:
    """One action line → an :class:`Action`."""
    text = line.strip()
    if text.startswith(("LD(", "ST(")):
        return parse_operation(text)
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"cannot parse action {text!r}")
    name, inner = text[:-1].split("(", 1)
    name = name.strip()
    if not name:
        raise ValueError(f"cannot parse action {text!r}")
    args: Tuple = ()
    if inner.strip():
        parts = [a.strip() for a in inner.split(",")]
        try:
            args = tuple(int(a) for a in parts)
        except ValueError:
            raise ValueError(f"non-integer argument in {text!r}") from None
    return InternalAction(name, args)


def _parse_header(line: str) -> Tuple[Protocol, Optional[STOrderGenerator]]:
    """Parse one ``protocol:`` header line (no line-number context)."""
    fields = line.split(":", 1)[1].split()
    if not fields:
        raise ValueError("missing protocol name")
    name, params = fields[0], fields[1:]
    kw = {"p": None, "b": None, "v": None}
    for item in params:
        if "=" not in item:
            raise ValueError(f"bad parameter {item!r}")
        k, val = item.split("=", 1)
        if k not in kw:
            raise ValueError(f"unknown parameter {k!r}")
        try:
            kw[k] = int(val)
        except ValueError:
            raise ValueError(f"non-integer value for parameter {k!r}: {val!r}") from None
    return build_protocol(name, **kw)


def parse_run_file(text: str):
    """Parse a run file → ``(protocol, generator, run)``.

    All malformed lines are collected in one pass and reported together
    — a log with three typos produces one ``ValueError`` naming all
    three line numbers, not three successive parse-fix-reparse rounds.
    A file with a single bad line keeps the familiar
    ``line N: <reason>`` message.  An unknown protocol name is
    reported with the known ones listed.
    """
    protocol: Optional[Protocol] = None
    gen: Optional[STOrderGenerator] = None
    run: List[Action] = []
    errors: List[str] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("protocol:"):
            if saw_header:
                errors.append(f"line {lineno}: duplicate protocol header")
                continue
            saw_header = True
            try:
                protocol, gen = _parse_header(line)
            except ValueError as exc:
                errors.append(f"line {lineno}: {exc}")
            continue
        try:
            run.append(parse_action(line))
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
    if not saw_header:
        errors.append("run file has no 'protocol:' header")
    if errors:
        if len(errors) == 1:
            raise ValueError(errors[0])
        raise ValueError(
            f"{len(errors)} parse errors:\n  " + "\n  ".join(errors)
        )
    return protocol, gen, tuple(run)


def check_run_file(text: str) -> RunCheck:
    """Parse and check a recorded run (Section 5 offline testing)."""
    protocol, gen, run = parse_run_file(text)
    return check_run(protocol, run, gen)
