"""Checkpoint/resume for budget-truncated product explorations.

A :class:`Checkpoint` snapshots a paused
:class:`~repro.modelcheck.product.ProductSearch` — the engine's
frontier, interned-state store, parent-pointer array, observers,
checkers — so a run that hit its budget can resume later with a larger
one instead of restarting from the initial state.  The snapshot is a
pickle: everything in the search is plain data.  (Every ST-order
generator in the zoo pickles since the lambda-capturing factories were
replaced by :class:`~repro.core.storder.ActionKeyedSerializer`; a
*custom* generator that still captures a lambda cannot be pickled, and
:meth:`Checkpoint.save` reports that clearly instead of writing a
corrupt file.)

Resumption is exact: the continued search explores precisely the
states the truncated one had not reached, and reaches the same verdict
as an unbudgeted run (asserted by the test suite on several
protocols).

**On-disk integrity** (docs/ROBUSTNESS.md): a checkpoint is a framed
pickle — a magic header carrying a CRC-32 and the payload length —
written tmp-file-first with an ``fsync`` before the atomic
``os.replace`` (a crash mid-save leaves the previous file intact, not
a torn one), rotating any previous checkpoint to ``path + ".bak"``.
:meth:`Checkpoint.load` verifies length and checksum before a single
pickle byte is interpreted, so a truncated or bit-flipped file is a
clean :class:`CheckpointError` (CLI exit code 2) instead of
garbage-in-the-search; :meth:`Checkpoint.load_or_backup` falls back to
the rotated previous-good file so one corrupt write costs at most one
budget leg of progress.  Headerless files from builds before the
framing are still read (their pickle errors map to the same
:class:`CheckpointError`).
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..engine.intern import StoreError
from ..modelcheck.product import ProductSearch

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CHECKPOINT_VERSION",
    "READABLE_VERSIONS",
    "BACKUP_SUFFIX",
]

#: bump when the pickled layout changes incompatibly
#:
#: version history:
#:
#: * 1 — pre-engine layout: the search pickled a BFS deque of joint
#:   states, a seen-set of joint keys and a key→(parent, action) dict
#: * 2 — unified-engine layout: the search pickles a
#:   :class:`~repro.engine.SearchEngine` (interned
#:   :class:`~repro.engine.intern.StateStore`, frontier object,
#:   successor map over dense int IDs); version-1 files cannot be
#:   resumed and are rejected loudly
#: * 3 — a sharded-engine layout written by earlier builds; the
#:   sharded engine is gone, so version-3 files are rejected: their
#:   pickle names a class this build no longer has, which loads as a
#:   clean :class:`CheckpointError`
#:
#: No bump for symmetry reduction: the ``reduce`` level rides on the
#: pickled search object itself (``ProductSearch.reduce``, with its
#: :class:`~repro.engine.reduction.Reduction` inside the composed
#: system), and pre-reduction checkpoints load with the level
#: defaulting to ``"off"`` — which is what they were.  Resuming under
#: a *different* explicit level is a :class:`CheckpointError` (exit
#: code 2): interned quotient keys of one group cannot be re-keyed
#: under another.
#:
#: No bump for the integrity framing either: the header is detected by
#: its magic bytes, and files without it take the legacy raw-pickle
#: path.
CHECKPOINT_VERSION = 2

#: versions this build can read back
READABLE_VERSIONS = (CHECKPOINT_VERSION,)

#: the previous-good checkpoint rotated aside by :meth:`Checkpoint.save`
BACKUP_SUFFIX = ".bak"

#: integrity frame: magic, then ``<IQ`` = CRC-32 and payload length
_MAGIC = b"RPCKPT1\0"
_HEADER = struct.Struct("<IQ")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read back."""


@dataclass
class Checkpoint:
    """A paused verification search plus provenance metadata."""

    search: ProductSearch
    protocol: str  #: ``describe()`` of the protocol under verification
    mode: str
    elapsed_s: float = 0.0  #: budget already spent before the pause
    version: int = CHECKPOINT_VERSION

    @classmethod
    def of(cls, search: ProductSearch, elapsed_s: float = 0.0) -> "Checkpoint":
        return cls(
            search=search,
            protocol=search.protocol.describe(),
            mode=search.mode,
            elapsed_s=elapsed_s,
        )

    def save(self, path: str) -> None:
        """Durably and atomically write the checkpoint to ``path``.

        The framed pickle goes to ``path + ".tmp"`` and is fsynced
        before the atomic ``os.replace`` — a crash at any point leaves
        either the old file or the new one, never a torn write.  An
        existing checkpoint is first rotated to ``path + ".bak"`` so a
        later corrupt *read* can still fall back one leg.
        """
        try:
            payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise CheckpointError(
                f"cannot checkpoint {self.protocol}: its search state does not "
                f"pickle ({exc}); protocols whose ST-order generator captures a "
                f"lambda are not checkpointable"
            ) from exc
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(_HEADER.pack(zlib.crc32(payload), len(payload)))
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.exists(path):
            os.replace(path, path + BACKUP_SUFFIX)
        os.replace(tmp, path)
        # make the rename itself durable where the platform allows
        try:
            dfd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(dfd)
        except OSError:  # pragma: no cover - directories not fsyncable
            pass
        finally:
            os.close(dfd)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read ``path`` back, verifying the integrity frame first.

        Raises :class:`CheckpointError` on any damage — truncation,
        checksum mismatch, unpicklable payload, wrong object, unknown
        version — never returns a partially-unpickled search.  A
        checkpoint written under ``--store disk`` references its spill
        files by path (fsync-and-reference); unpickling re-verifies
        every referenced frame, so a missing, torn or CRC-damaged
        spill file surfaces here as a
        :class:`~repro.engine.intern.StoreError`, reported as the same
        clean :class:`CheckpointError`.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        payload = cls._verified_payload(path, data)
        try:
            obj = pickle.loads(payload)
        # corrupt input makes pickle raise all sorts: UnpicklingError,
        # EOFError, ValueError, ImportError, IndexError, ...; a disk
        # store backend raises StoreError for damaged spill files
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ValueError, ImportError, IndexError, StoreError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        if not isinstance(obj, cls):
            raise CheckpointError(
                f"{path!r} is not a verification checkpoint (got {type(obj).__name__})"
            )
        if obj.version not in READABLE_VERSIONS:
            raise CheckpointError(
                f"checkpoint {path!r} has version {obj.version}, "
                f"this build reads versions "
                f"{', '.join(str(v) for v in READABLE_VERSIONS)}"
            )
        return obj

    @classmethod
    def load_or_backup(cls, path: str) -> Tuple["Checkpoint", Optional[str]]:
        """Like :meth:`load`, falling back to the rotated ``.bak``.

        Returns ``(checkpoint, backup_path)`` — ``backup_path`` is the
        ``.bak`` file when the primary was damaged and the previous
        good checkpoint was used instead (the caller should surface
        that: the run restarts one budget leg earlier), ``None`` when
        the primary loaded cleanly.  A missing/corrupt backup re-raises
        the *primary's* error, which is the actionable one.
        """
        try:
            return cls.load(path), None
        except CheckpointError as primary_exc:
            backup = path + BACKUP_SUFFIX
            if not os.path.exists(backup):
                raise
            try:
                return cls.load(backup), backup
            except CheckpointError:
                raise primary_exc

    @staticmethod
    def _verified_payload(path: str, data: bytes) -> bytes:
        """Strip and verify the integrity frame (legacy headerless
        files pass through whole — their corruption surfaces as pickle
        errors, mapped to the same :class:`CheckpointError`)."""
        if not data.startswith(_MAGIC):
            return data
        header_end = len(_MAGIC) + _HEADER.size
        if len(data) < header_end:
            raise CheckpointError(
                f"checkpoint {path!r} is truncated (incomplete header)"
            )
        crc, length = _HEADER.unpack(data[len(_MAGIC):header_end])
        payload = data[header_end:]
        if len(payload) != length:
            raise CheckpointError(
                f"checkpoint {path!r} is truncated: header promises "
                f"{length} payload bytes, file has {len(payload)}"
            )
        if zlib.crc32(payload) != crc:
            raise CheckpointError(
                f"checkpoint {path!r} is corrupt: payload checksum mismatch "
                f"(expected {crc:#010x}, got {zlib.crc32(payload):#010x})"
            )
        return payload
