"""Checkpoint/resume for budget-truncated product explorations.

A :class:`Checkpoint` records a paused
:class:`~repro.modelcheck.product.ProductSearch` as a versioned data
record, never a live object graph: every joint state of the product is
fixed by the protocol, the search configuration and the action path
from the initial state.  The record holds the search provenance (the
run ledger's :data:`~repro.obs.ledger.PROVENANCE_FIELDS`), the rest of
the ``ProductSearch(...)`` arguments (the ``repro.cli.PROTOCOLS``
registry name with p/b/v, caps, ablation switches, store
configuration), :meth:`SearchEngine.snapshot
<repro.engine.SearchEngine.snapshot>` and the budget already spent.
docs/ROBUSTNESS.md describes it field by field.

:meth:`Checkpoint.resume` rebuilds the search through the same
``ProductSearch(...)`` call a fresh run makes, then
:meth:`~repro.engine.SearchEngine.restore` re-interns the keys into
whichever store backend is in force and replays each frontier state
from its parent pointers; a rebuilt key that differs from the stored
one is a :class:`CheckpointError`.  Only registry protocols under
their registry or real-time generator are checkpointable, and
:meth:`Checkpoint.of` refuses anything else before a file is written.

The record holds builtin containers and scalars plus the ``Load`` /
``Store`` / ``InternalAction`` values that actions and full-mode
checker keys embed.  The writer refuses any other type and the
reader's ``find_class`` admits exactly those three classes, so loading
a checkpoint runs no code.  Keys are pickled in chunks, so a resume
into the disk store streams them.

On disk the payload sits in a frame (magic, CRC-32, length) written
tmp-file-first and fsynced before an atomic ``os.replace`` that
rotates the previous checkpoint to ``path + ".bak"``.
:meth:`Checkpoint.load` verifies the frame before decoding a byte, so
a torn or bit-flipped file is a clean :class:`CheckpointError` (CLI
exit code 2), and :meth:`Checkpoint.load_or_backup` falls back to the
``.bak`` file.
"""

from __future__ import annotations

import dataclasses
import io
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.operations import InternalAction, Load, Store
from ..core.storder import describe_generator
from ..engine.intern import StoreConfig
from ..modelcheck.product import ProductSearch
from ..obs.ledger import PROVENANCE_FIELDS, search_provenance

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CHECKPOINT_VERSION",
    "BACKUP_SUFFIX",
]

#: version of the record layout; files of any other version are refused
#:
#: version history:
#:
#: * 1 — pre-engine layout: a pickled BFS deque of joint states
#: * 2 — a pickled :class:`ProductSearch` over the unified engine
#: * 3 — a pickled sharded-engine search (the sharded engine is gone)
#: * 4 — the data record described in the module docstring; versions
#:   1–3 pickled live objects and are refused with a clean
#:   :class:`CheckpointError` naming the class they reference
CHECKPOINT_VERSION = 4

#: the previous-good checkpoint rotated aside by :meth:`Checkpoint.save`
BACKUP_SUFFIX = ".bak"

#: integrity frame: magic, then ``<IQ`` = CRC-32 and payload length
_MAGIC = b"RPCKPT1\0"
_HEADER = struct.Struct("<IQ")

#: the only classes a record may hold besides builtin containers and
#: scalars, keyed as a pickle names them
_CLASSES = {(cls.__module__, cls.__qualname__): cls for cls in (Load, Store, InternalAction)}
_SCALARS = (bool, int, float, str, bytes, type(None))
_ALLOWED = frozenset((*_SCALARS, tuple, list, dict, set, frozenset, *_CLASSES.values()))

#: the ``build`` fields, beside the registry name and p/b/v, that
#: ``ProductSearch`` keeps under the same names
_BUILD_ATTRS = (
    "max_states",
    "max_depth",
    "check_quiescence_reachability",
    "canonical_ids",
    "eager_free",
    "unpin_heads",
)


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read back."""


class _RecordPickler(pickle.Pickler):
    """Pickles builtin containers and scalars plus :data:`_CLASSES`;
    any other object is a :class:`pickle.PicklingError`."""

    def reducer_override(self, obj):
        # a record class is pickled by reference to itself, too
        if type(obj) in _ALLOWED or (isinstance(obj, type) and obj in _CLASSES.values()):
            return NotImplemented
        raise pickle.PicklingError(
            f"{type(obj).__module__}.{type(obj).__qualname__} is not a checkpoint record type"
        )


class _RecordUnpickler(pickle.Unpickler):
    """Resolves only :data:`_CLASSES`; every other global — a pickled
    object graph, a function — is refused before it is looked up."""

    def find_class(self, module, name):
        cls = _CLASSES.get((module, name))
        if cls is None:
            raise pickle.UnpicklingError(
                f"it references {module}.{name}, which no checkpoint record "
                f"holds (files from builds before version {CHECKPOINT_VERSION} "
                f"pickled the live search and cannot be resumed)"
            )
        return cls


def _dumps(obj) -> bytes:
    buf = io.BytesIO()
    _RecordPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def _loads(data: bytes):
    return _RecordUnpickler(io.BytesIO(data)).load()


def _scalars(obj) -> Dict[str, object]:
    """The public scalar attributes of a protocol: its parameters."""
    return {
        k: v for k, v in vars(obj).items()
        if not k.startswith("_") and type(v) in _SCALARS
    }


def _registry_name(search: ProductSearch) -> str:
    """The ``repro.cli.PROTOCOLS`` name whose entry rebuilds
    ``search``'s protocol and generator, or a
    :class:`CheckpointError` naming why none does."""
    from ..cli import PROTOCOLS  # deferred: the CLI owns the registry

    proto = search.protocol
    for name, (ctor, gen_factory, _defaults) in PROTOCOLS.items():
        if type(proto) is not ctor:
            continue
        if _scalars(ctor(p=proto.p, b=proto.b, v=proto.v)) != _scalars(proto):
            break
        generator = describe_generator(search.st_order)
        if generator != "real-time" and (
            gen_factory is None or generator != describe_generator(gen_factory())
        ):
            raise CheckpointError(
                f"cannot checkpoint {proto.describe()}: its ST-order generator "
                f"{generator!r} is neither the registry's nor real-time order; "
                f"checkpoints record how to rebuild a search, they do not "
                f"pickle its objects"
            )
        return name
    raise CheckpointError(
        f"cannot checkpoint {proto.describe()}: only protocols of the "
        f"repro.cli.PROTOCOLS registry, built from p/b/v alone, can be "
        f"rebuilt on resume; checkpoints do not pickle protocol objects"
    )


@dataclass
class Checkpoint:
    """A paused verification search as a versioned data record."""

    provenance: Dict[str, object]
    build: Dict[str, object]
    engine: Dict[str, object]
    elapsed_s: float = 0.0  #: budget already spent before the pause
    version: int = CHECKPOINT_VERSION

    @property
    def protocol(self) -> str:
        """``describe()`` of the protocol under verification."""
        return self.provenance["protocol"]

    @classmethod
    def of(cls, search: ProductSearch, elapsed_s: float = 0.0) -> "Checkpoint":
        """Record the paused ``search``.  Raises
        :class:`CheckpointError` when it cannot be rebuilt from the
        record (not a registry protocol or generator, a finished
        search, a value no record may hold)."""
        proto = search.protocol
        build = {"protocol": _registry_name(search), "p": proto.p, "b": proto.b, "v": proto.v}
        build.update((attr, getattr(search, attr)) for attr in _BUILD_ATTRS)
        build["store"] = dataclasses.asdict(search.store_config)
        try:
            engine = search.engine.snapshot()
            engine["store"]["keys"] = [_dumps(chunk) for chunk in engine["store"]["keys"]]
        except (ValueError, pickle.PicklingError) as exc:
            raise CheckpointError(f"cannot checkpoint {proto.describe()}: {exc}") from exc
        return cls(search_provenance(search), build, engine, elapsed_s)

    def resume(self, store=None) -> ProductSearch:
        """Rebuild the paused search, ready to :meth:`~ProductSearch.run`.

        ``store`` overrides the recorded store configuration (run
        policy: the keys re-intern into any backend with their IDs
        intact).  Raises :class:`CheckpointError` when the record does
        not rebuild: an unknown registry name, different provenance,
        or a rebuilt key that differs from the stored one.
        """
        from ..cli import PROTOCOLS  # deferred: the CLI owns the registry

        prov, build = self.provenance, self.build
        if build.get("protocol") not in PROTOCOLS:
            raise CheckpointError(
                f"checkpoint names protocol {build.get('protocol')!r}, which "
                f"this build's registry does not have"
            )
        ctor, gen_factory, _defaults = PROTOCOLS[build["protocol"]]
        try:
            search = ProductSearch(
                ctor(p=build["p"], b=build["b"], v=build["v"]),
                None if prov["generator"] == "real-time" else gen_factory(),
                mode=prov["mode"],
                strategy=prov["strategy"],
                seed=prov["seed"] if prov["seed"] is not None else 0,
                stop_on_violation=not prov["exhaustive"],
                reduce=prov["reduce"],
                model=prov["model"],
                preemptions=prov["preemptions"],
                por=prov["por"],
                store=store if store is not None else StoreConfig(**build["store"]),
                **{attr: build[attr] for attr in _BUILD_ATTRS},
            )
            rebuilt = search_provenance(search)
            if rebuilt != prov:
                raise ValueError(f"this build derives different provenance {rebuilt}")
            columns = dict(self.engine["store"])
            columns["keys"] = (_loads(blob) for blob in columns["keys"])
            search.engine.restore(dict(self.engine, store=columns))
        # a damaged record fails as whatever its first bad field trips
        except (ValueError, LookupError, TypeError, pickle.UnpicklingError) as exc:
            raise CheckpointError(
                f"checkpoint of {self.protocol} does not rebuild: {exc}"
            ) from exc
        return search

    def save(self, path: str) -> None:
        """Durably and atomically write the checkpoint to ``path``.

        The framed record goes to ``path + ".tmp"`` and is fsynced
        before the atomic ``os.replace`` — a crash at any point leaves
        either the old file or the new one, never a torn write.  An
        existing checkpoint is first rotated to ``path + ".bak"`` so a
        later corrupt *read* can still fall back one leg.
        """
        try:
            payload = _dumps({
                "version": self.version,
                "provenance": self.provenance,
                "build": self.build,
                "engine": self.engine,
                "elapsed_s": self.elapsed_s,
            })
        except pickle.PicklingError as exc:
            raise CheckpointError(f"cannot checkpoint {self.protocol}: {exc}") from exc
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
        checksum mismatch, an undecodable payload, a payload that is
        not a version-:data:`CHECKPOINT_VERSION` record (older pickled
        checkpoints included).  Decoding resolves no class beyond the
        record's three value types, so loading runs no code.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        payload = cls._verified_payload(path, data)
        try:
            record = _loads(payload)
        # corrupt input makes unpickling raise all sorts
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError,
                IndexError, KeyError, TypeError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        version = record.get("version") if isinstance(record, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has version {version}, this build reads "
                f"version {CHECKPOINT_VERSION} only"
            )
        parts = [record.get(f) for f in ("provenance", "build", "engine")]
        if not all(isinstance(part, dict) for part in parts) or not set(
            PROVENANCE_FIELDS
        ) <= set(parts[0]):
            raise CheckpointError(f"checkpoint {path!r} is an incomplete record")
        return cls(*parts, record.get("elapsed_s", 0.0))

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
        """Strip and verify the integrity frame."""
        if not data.startswith(_MAGIC):
            raise CheckpointError(
                f"{path!r} is not a verification checkpoint (no integrity header)"
            )
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
