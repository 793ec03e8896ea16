"""Stable structural hashing of canonical state keys.

Exhaustive-mode searches order their violating states by
:func:`stable_hash` of the key, and differential fingerprints
(:class:`~repro.difftest.SearchFingerprint`) record violating states
as :func:`stable_hash` values, so the canonical violation a run reports
and the fingerprint two runs compare depend neither on discovery order
nor on the process.  Python's built-in ``hash`` cannot serve:
``str.__hash__`` is salted per process via ``PYTHONHASHSEED``.

(The disk store's spill index needs no such hash: it lives and dies
with one process, so :class:`~repro.engine.intern.DiskBackend` keys it
with the built-in ``hash``.)

:func:`stable_hash` therefore hashes the key *structurally*: a 64-bit
FNV-1a accumulation over the tree of tuples, with strings hashed by
their UTF-8 bytes and unordered containers (``frozenset``) folded
order-independently.  It is pure arithmetic — identical in every
interpreter, every process, every run.

Canonical state keys in this repository are nested tuples of ints,
strings, ``None`` and booleans (every set-like structure is sorted
into tuples when the key is built — see ``Observer.state_key``), so
the fallback path is effectively never taken; it exists so foreign
:class:`~repro.engine.component.System` implementations with exotic
key atoms still hash consistently within one run.
"""

from __future__ import annotations

import zlib
from typing import Hashable

__all__ = ["stable_hash"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

# type tags keep 0, "", (), None, False from colliding structurally
_T_NONE = 0x9E3779B97F4A7C15
_T_INT = 0x517CC1B727220A95
_T_STR = 0x2545F4914F6CDD1D
_T_BYTES = 0x9E6C63D0876A9A47
_T_TUPLE = 0xD6E8FEB86659FD93
_T_FSET = 0xA5A3564576ABF3C5
_T_BOOL = 0xC2B2AE3D27D4EB4F
_T_FLOAT = 0x27D4EB2F165667C5
_T_OTHER = 0x165667B19E3779F9


def stable_hash(key: Hashable) -> int:
    """A 64-bit hash of ``key`` that depends only on its structure —
    stable across processes, interpreters and runs."""
    return _fold(_FNV_OFFSET, key)


def _fold(h: int, obj) -> int:
    # bool before int: bool is an int subclass but must not collide
    # with 0/1
    if obj is None:
        return _mix(h, _T_NONE)
    t = type(obj)
    if t is bool:
        return _mix(_mix(h, _T_BOOL), 1 if obj else 0)
    if t is int:
        return _mix(_mix(_mix(h, _T_INT), 0 if obj >= 0 else 1), abs(obj) & _MASK)
    if t is str:
        return _mix(_mix(h, _T_STR), zlib.crc32(obj.encode("utf-8")))
    if t is bytes:
        return _mix(_mix(h, _T_BYTES), zlib.crc32(obj))
    if t is float:
        return _mix(_mix(h, _T_FLOAT), zlib.crc32(repr(obj).encode("ascii")))
    if t is tuple:
        h = _mix(h, _T_TUPLE)
        h = _mix(h, len(obj))
        for item in obj:
            h = _fold(h, item)
        return h
    if t is frozenset:
        # order-independent fold: sum of element hashes (mod 2^64)
        acc = 0
        for item in obj:
            acc = (acc + _fold(_FNV_OFFSET, item)) & _MASK
        return _mix(_mix(_mix(h, _T_FSET), len(obj)), acc)
    if isinstance(obj, tuple):  # NamedTuple and tuple subclasses
        h = _mix(_mix(h, _T_TUPLE), zlib.crc32(t.__name__.encode("utf-8")))
        h = _mix(h, len(obj))
        for item in obj:
            h = _fold(h, item)
        return h
    # last resort: repr — deterministic within a run for the atoms
    # that actually appear in state keys, and documented as
    # best-effort for anything else
    return _mix(_mix(h, _T_OTHER), zlib.crc32(repr(obj).encode("utf-8", "replace")))


def _mix(h: int, v: int) -> int:
    h ^= v & _MASK
    h = (h * _FNV_PRIME) & _MASK
    # one round of avalanche so low bits depend on high bits
    h ^= h >> 29
    return h

