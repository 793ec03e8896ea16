"""State interning: canonical keys computed once, held as dense ints.

Profiling (DESIGN.md §5) showed ~40% of verification time in canonical
state-key construction, and the old search then *kept* those large
nested tuples everywhere — as seen-set members, parent-map keys and
successor-list entries — paying a full recursive tuple hash at every
membership test and insertion (Python tuples do not cache their hash).

:class:`StateStore` fixes both costs structurally: a key is hashed
exactly once, at :meth:`intern` time, and receives a dense integer ID
(its discovery index).  Everything downstream — visited set, frontier,
parent pointers, successor adjacency, the quiescence closure — works
with ints.  Counterexample runs are reconstructed from a
parent-pointer array (one parent ID + one action per state) instead of
an action list per frontier entry, which also cuts frontier memory.

Storage backends
----------------

What caps protocol size is not search logic but state explosion
(ROADMAP: "Beyond-RAM state spaces"): the interning dict pins every
canonical key in RAM for the lifetime of the search.  The store is
therefore split into a thin **facade** (:class:`StateStore` —
parent/action/depth columns plus the public search API, unchanged)
over a pluggable **key backend**
(:class:`StoreBackend`):

* :class:`MemBackend` (``--store mem``, the default) is the original
  dict-plus-list representation, bit for bit.
* :class:`DiskBackend` (``--store disk``) spills interned keys to an
  append-only CRC-framed key log with an mmap'd open-addressing hash
  index, keeping only a bounded *resident* dict of hot keys in RAM
  (``--store-budget-mb``).  Columns are ``array``-backed.  The spill
  files are scratch space owned by one backend instance: they are
  removed when it goes away, and a torn or corrupted frame read back
  mid-search surfaces as :class:`StoreError`.

The backend is **run policy**, never search provenance: which backend
interned the keys cannot affect a single ID, count or verdict, and the
differential harness enforces bit-identical
:class:`~repro.difftest.SearchFingerprint` across ``mem`` × ``disk``.

The facade additionally exposes batched entry points
(:meth:`StateStore.lookup_many` / :meth:`StateStore.intern_many`) so
the engine hot loop can intern a whole successor batch in array form —
the seam where a compiled kernel can later slot in without touching
callers.

A paused search leaves the store as plain columns
(:meth:`StateStore.columns`) and a checkpoint resume re-interns them in
ID order into whichever backend is in force
(:meth:`StateStore.load_columns`), so a search checkpointed under one
backend continues under the other with every ID preserved
(:mod:`repro.harness.checkpoint`).
"""

from __future__ import annotations

import mmap
import os
import pickle
import shutil
import struct
import tempfile
import weakref
import zlib
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from .sharding import key_hash64

__all__ = [
    "NO_PARENT",
    "StoreError",
    "StoreConfig",
    "as_config",
    "make_backend",
    "StoreBackend",
    "MemBackend",
    "DiskBackend",
    "StateStore",
]

#: parent marker of a root (initial) state
NO_PARENT = -1


class StoreError(RuntimeError):
    """A store backend is misconfigured (unknown kind) or its spill
    files are unreadable, torn or corrupted (CRC mismatch, short frame,
    bad index header).  The CLI reports it with exit code 2."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoreConfig:
    """Which backend to intern state keys in, and its capacity knobs.

    Run policy: a :class:`StoreConfig` never
    appears in search provenance (ledger hash, fingerprint fields) and
    an explicit ``--store`` on resume *overrides* the checkpointed
    backend rather than raising a mismatch error.

    ``budget_mb`` bounds the resident key cache of the disk backend in
    (approximate, pickled-frame) megabytes; ``cap_keys`` bounds it in
    keys directly (a test hook — the spill-thrash property test pins
    it to 16); ``dir`` overrides where spill directories are created
    (default: the system temp dir).
    """

    kind: str = "mem"
    budget_mb: Optional[float] = None
    cap_keys: Optional[int] = None
    dir: Optional[str] = None


def as_config(store) -> StoreConfig:
    """Normalize ``None`` / ``"mem"`` / ``"disk"`` / :class:`StoreConfig`
    to a :class:`StoreConfig`."""
    if store is None:
        return StoreConfig()
    if isinstance(store, StoreConfig):
        return store
    if isinstance(store, str):
        if store not in ("mem", "disk"):
            raise StoreError(f"unknown store backend {store!r} (mem|disk)")
        return StoreConfig(kind=store)
    raise StoreError(f"cannot interpret {store!r} as a store configuration")


def make_backend(config: StoreConfig) -> "StoreBackend":
    """Instantiate the backend a :class:`StoreConfig` names."""
    if config.kind == "mem":
        return MemBackend(config)
    if config.kind == "disk":
        return DiskBackend(config)
    raise StoreError(f"unknown store backend {config.kind!r} (mem|disk)")


# ----------------------------------------------------------------------
# the backend protocol
# ----------------------------------------------------------------------


class StoreBackend(Protocol):
    """What a key backend owes the store facade.

    A backend interns hashable canonical keys to dense IDs in
    discovery order — nothing else.  Parent/action/depth columns stay
    in the facade, but are *allocated* through the backend
    (:meth:`new_int_column` / :meth:`new_action_column`) so a
    spill-oriented backend can choose compact ``array`` storage.

    The contract that keeps backends interchangeable: for the same
    sequence of :meth:`intern` / :meth:`intern_many` calls, every
    backend returns the same ``(id, is_new)`` sequence.  The
    differential tests hold ``mem`` and ``disk`` to it bit for bit.
    """

    kind: str

    @property
    def config(self) -> StoreConfig: ...

    def intern(self, key: Hashable) -> Tuple[int, bool]: ...

    def intern_many(
        self,
        keys: Sequence[Hashable],
        hits: Optional[Sequence[Optional[int]]] = None,
    ) -> List[Tuple[int, bool]]: ...

    def lookup(self, key: Hashable) -> Optional[int]: ...

    def lookup_many(
        self, keys: Sequence[Hashable]
    ) -> List[Optional[int]]: ...

    def key_of(self, sid: int) -> Hashable: ...

    def __len__(self) -> int: ...

    def __contains__(self, key: Hashable) -> bool: ...

    def new_int_column(self): ...

    def new_action_column(self): ...

    def store_stats(self) -> Dict[str, object]: ...


# ----------------------------------------------------------------------
# mem backend — the original representation, bit for bit
# ----------------------------------------------------------------------


class MemBackend:
    """The original dict-plus-list interning: every key resident in
    RAM, IDs allocated by ``len``.  The reference semantics the disk
    backend is difftested against."""

    __slots__ = ("_cfg", "_ids", "_keys")

    kind = "mem"

    def __init__(self, config: Optional[StoreConfig] = None) -> None:
        self._cfg = config if config is not None else StoreConfig()
        self._ids: Dict[Hashable, int] = {}
        self._keys: List[Hashable] = []

    @property
    def config(self) -> StoreConfig:
        return self._cfg

    def intern(self, key: Hashable) -> Tuple[int, bool]:
        sid = self._ids.get(key)
        if sid is not None:
            return sid, False
        sid = len(self._keys)
        self._ids[key] = sid
        self._keys.append(key)
        return sid, True

    def intern_many(self, keys, hits=None):
        ids = self._ids
        keyl = self._keys
        out: List[Tuple[int, bool]] = []
        if hits is None:
            hits = [ids.get(k) for k in keys]
        for key, hit in zip(keys, hits):
            if hit is not None:
                out.append((hit, False))
                continue
            sid = ids.get(key)  # duplicate within this batch?
            if sid is not None:
                out.append((sid, False))
                continue
            sid = len(keyl)
            ids[key] = sid
            keyl.append(key)
            out.append((sid, True))
        return out

    def lookup(self, key: Hashable) -> Optional[int]:
        return self._ids.get(key)

    def lookup_many(self, keys):
        get = self._ids.get
        return [get(k) for k in keys]

    def key_of(self, sid: int) -> Hashable:
        return self._keys[sid]

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._ids

    def new_int_column(self):
        return []

    def new_action_column(self):
        return []

    def store_stats(self) -> Dict[str, object]:
        return {
            "backend": "mem",
            "resident_keys": len(self._keys),
            "spilled_keys": 0,
            "spill_bytes": 0,
            "index_probe_avg": 0.0,
            "probes": 0,
            "lookups": 0,
            "io_s": 0.0,
        }


# ----------------------------------------------------------------------
# disk backend — spill-to-disk interning
# ----------------------------------------------------------------------

#: per-key frame header in the spill log: CRC-32 of the pickled key,
#: then its length — the same framing discipline as checkpoint files
_FRAME = struct.Struct("<IQ")

_IDX_MAGIC = b"RPSIDX1\0"
#: index header after the magic: (slot count, interned key count)
_IDX_HEADER = struct.Struct("<QQ")
#: one open-addressing slot: (64-bit stable key hash, id + 1; 0 = empty)
_IDX_SLOT = struct.Struct("<QQ")
_IDX_BASE = len(_IDX_MAGIC) + _IDX_HEADER.size
_IDX_MIN_SLOTS = 1024


class _PackedActions:
    """Action column for the disk backend.

    Actions repeat heavily (one distinct action per protocol
    transition, not per state), so the column itself is an
    ``array('q')`` of small interned action IDs (-1 = none).  Foreign
    unhashable actions still work — they are stored without
    deduplication.
    """

    __slots__ = ("_col", "_ids", "_vals")

    def __init__(self) -> None:
        self._col = array("q")
        self._ids: Dict[object, int] = {}
        self._vals: List[object] = []

    def _pack(self, action) -> int:
        if action is None:
            return -1
        try:
            aid = self._ids.get(action)
            hashable = True
        except TypeError:
            aid = None
            hashable = False
        if aid is None:
            aid = len(self._vals)
            self._vals.append(action)
            if hashable:
                self._ids[action] = aid
        return aid

    def append(self, action) -> None:
        self._col.append(self._pack(action))

    def __setitem__(self, i: int, action) -> None:
        self._col[i] = self._pack(action)

    def __getitem__(self, i: int):
        aid = self._col[i]
        return None if aid < 0 else self._vals[aid]

    def __len__(self) -> int:
        return len(self._col)


class DiskBackend:
    """Spill-to-disk interning: bounded resident dict over an
    append-only CRC-framed key log plus an mmap'd open-addressing
    hash index.

    Layout on disk (one directory per backend instance, created under
    ``config.dir`` or the system temp dir):

    * ``keys.log`` — one frame per interned key in ID order:
      ``crc32 | length | pickle(key)``.  Append-only; ``_offsets`` and
      ``_lens`` (in-memory ``array('Q')``) locate each frame, so
      :meth:`key_of` is one seek + read.
    * ``keys.idx`` — open-addressing table of
      ``(stable 64-bit key hash, id + 1)`` slots, memory-mapped.
      A hash hit is verified against the real key (resident dict or a
      log read) before it counts, so hash collisions cannot alias two
      states.

    RAM holds only the bounded *resident* dict (hot keys, FIFO
    eviction once ``budget_mb`` / ``cap_keys`` is exceeded) and the
    fixed 24 bytes/state of offset/length bookkeeping — capacity
    becomes a disk problem.

    The spill directory a backend creates is removed when the backend
    is garbage-collected (or at interpreter exit), checkpointed or not:
    a checkpoint carries the interned keys themselves, never a
    reference to spill files.  Lazily reopened file handles are keyed
    to ``os.getpid()`` so a handle inherited across ``fork`` is never
    written through.
    """

    __slots__ = (
        "_cfg",
        "_dir",
        "_log_path",
        "_idx_path",
        "_offsets",
        "_lens",
        "_count",
        "_log_end",
        "_resident",
        "_rkeys",
        "_resident_bytes",
        "_nslots",
        "_probes",
        "_lookups",
        "_io_s",
        "_logw",
        "_logr",
        "_idxf",
        "_mm",
        "_pid",
        "_cleanup",
        "__weakref__",
    )

    kind = "disk"

    def __init__(self, config: Optional[StoreConfig] = None) -> None:
        self._cfg = config if config is not None else StoreConfig(kind="disk")
        base = self._cfg.dir or tempfile.gettempdir()
        os.makedirs(base, exist_ok=True)
        self._dir = tempfile.mkdtemp(prefix="repro-store-", dir=base)
        # ignore_errors: the directory may already be gone (a caller
        # that owns the spill root can remove it first)
        self._cleanup = weakref.finalize(
            self, shutil.rmtree, self._dir, ignore_errors=True
        )
        self._log_path = os.path.join(self._dir, "keys.log")
        self._idx_path = os.path.join(self._dir, "keys.idx")
        with open(self._log_path, "wb"):
            pass
        self._offsets = array("Q")
        self._lens = array("Q")
        self._count = 0
        self._log_end = 0
        self._resident: Dict[Hashable, int] = {}
        self._rkeys: Dict[int, Hashable] = {}
        self._resident_bytes = 0
        self._nslots = _IDX_MIN_SLOTS
        self._probes = 0
        self._lookups = 0
        self._io_s = 0.0
        self._logw = self._logr = self._idxf = self._mm = None
        self._pid: Optional[int] = None
        self._replace_index(self._nslots, ())

    @property
    def config(self) -> StoreConfig:
        return self._cfg

    # -- capacity ------------------------------------------------------

    @property
    def _budget_bytes(self) -> Optional[int]:
        if self._cfg.budget_mb is None:
            return None
        return int(self._cfg.budget_mb * (1 << 20))

    def _admit(self, key: Hashable, sid: int) -> None:
        if key in self._resident:
            return
        self._resident[key] = sid
        self._rkeys[sid] = key
        self._resident_bytes += self._lens[sid] + _FRAME.size
        cap = self._cfg.cap_keys
        budget = self._budget_bytes
        while len(self._resident) > 1:
            over = (cap is not None and len(self._resident) > cap) or (
                budget is not None and self._resident_bytes > budget
            )
            if not over:
                break
            # FIFO: dicts iterate in insertion order
            old_key = next(iter(self._resident))
            old_sid = self._resident.pop(old_key)
            del self._rkeys[old_sid]
            self._resident_bytes -= self._lens[old_sid] + _FRAME.size

    # -- file plumbing -------------------------------------------------

    def _close_handles(self) -> None:
        for attr in ("_mm", "_idxf", "_logr", "_logw"):
            h = getattr(self, attr)
            if h is not None:
                try:
                    h.close()
                except (OSError, ValueError):
                    pass
                setattr(self, attr, None)

    def _ensure_open(self) -> None:
        if self._logw is not None and self._pid == os.getpid():
            return
        self._close_handles()
        try:
            logw = open(self._log_path, "r+b")
            # roll back any bytes past this owner's log end (appends
            # by the other side of a fork)
            logw.truncate(self._log_end)
            logw.seek(self._log_end)
            self._logw = logw
            self._logr = open(self._log_path, "rb")
            self._idxf = open(self._idx_path, "r+b")
            self._mm = mmap.mmap(self._idxf.fileno(), 0)
        except OSError as exc:
            self._close_handles()
            raise StoreError(
                f"cannot open spill files in {self._dir}: {exc}"
            ) from exc
        if (
            len(self._mm) != _IDX_BASE + self._nslots * _IDX_SLOT.size
            or self._mm[: len(_IDX_MAGIC)] != _IDX_MAGIC
        ):
            self._close_handles()
            raise StoreError(f"spill index corrupt: {self._idx_path}")
        self._pid = os.getpid()

    def _append_frame(self, key: Hashable) -> None:
        payload = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _FRAME.pack(zlib.crc32(payload), len(payload)) + payload
        self._logw.write(frame)
        self._offsets.append(self._log_end)
        self._lens.append(len(payload))
        self._log_end += len(frame)

    def _read_key(self, sid: int) -> Hashable:
        self._ensure_open()
        t0 = perf_counter()
        self._logw.flush()
        self._logr.seek(self._offsets[sid])
        plen = self._lens[sid]
        data = self._logr.read(_FRAME.size + plen)
        self._io_s += perf_counter() - t0
        if len(data) < _FRAME.size + plen:
            raise StoreError(
                f"spill log truncated at state {sid}: {self._log_path}"
            )
        crc, flen = _FRAME.unpack_from(data)
        payload = data[_FRAME.size :]
        if flen != plen or zlib.crc32(payload) != crc:
            raise StoreError(
                f"spill log corrupt at state {sid}: {self._log_path}"
            )
        try:
            return pickle.loads(payload)
        except Exception as exc:  # corrupt payload with a lucky CRC
            raise StoreError(
                f"spill log unreadable at state {sid}: {exc}"
            ) from exc

    # -- index ---------------------------------------------------------

    def _replace_index(self, nslots: int, pairs) -> None:
        """Atomically rewrite the index file with ``pairs`` of
        ``(hash, id + 1)`` in a table of ``nslots`` slots."""
        data = bytearray(_IDX_BASE + nslots * _IDX_SLOT.size)
        data[: len(_IDX_MAGIC)] = _IDX_MAGIC
        _IDX_HEADER.pack_into(data, len(_IDX_MAGIC), nslots, self._count)
        mask = nslots - 1
        empty = b"\x00" * 8
        for h, s1 in pairs:
            i = h & mask
            while True:
                off = _IDX_BASE + i * _IDX_SLOT.size
                if data[off + 8 : off + 16] == empty:
                    _IDX_SLOT.pack_into(data, off, h, s1)
                    break
                i = (i + 1) & mask
        tmp = self._idx_path + ".tmp"
        t0 = perf_counter()
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._idx_path)
        self._io_s += perf_counter() - t0
        self._nslots = nslots
        was_open = self._mm is not None and self._pid == os.getpid()
        if was_open:
            # remap the fresh inode
            self._mm.close()
            self._idxf.close()
            self._idxf = open(self._idx_path, "r+b")
            self._mm = mmap.mmap(self._idxf.fileno(), 0)

    def _index_lookup(self, h: int, key: Hashable) -> Optional[int]:
        mm = self._mm
        mask = self._nslots - 1
        i = h & mask
        self._lookups += 1
        while True:
            self._probes += 1
            sh, s1 = _IDX_SLOT.unpack_from(mm, _IDX_BASE + i * _IDX_SLOT.size)
            if s1 == 0:
                return None
            if sh == h:
                sid = s1 - 1
                cand = self._rkeys.get(sid)
                if cand is None:
                    cand = self._read_key(sid)
                if cand == key:
                    return sid
            i = (i + 1) & mask

    def _index_insert(self, h: int, sid: int) -> None:
        if (self._count + 1) * 3 > self._nslots * 2:
            pairs = []
            mm = self._mm
            for i in range(self._nslots):
                sh, s1 = _IDX_SLOT.unpack_from(
                    mm, _IDX_BASE + i * _IDX_SLOT.size
                )
                if s1:
                    pairs.append((sh, s1))
            self._replace_index(self._nslots * 2, pairs)
        mm = self._mm
        mask = self._nslots - 1
        i = h & mask
        while True:
            off = _IDX_BASE + i * _IDX_SLOT.size
            sh, s1 = _IDX_SLOT.unpack_from(mm, off)
            if s1 == 0:
                _IDX_SLOT.pack_into(mm, off, h, sid + 1)
                return
            i = (i + 1) & mask

    # -- the backend API -----------------------------------------------

    def intern(self, key: Hashable) -> Tuple[int, bool]:
        sid = self._resident.get(key)
        if sid is not None:
            return sid, False
        self._ensure_open()
        h = key_hash64(key)
        sid = self._index_lookup(h, key)
        if sid is not None:
            self._admit(key, sid)
            return sid, False
        sid = self._count
        t0 = perf_counter()
        self._append_frame(key)
        self._io_s += perf_counter() - t0
        self._index_insert(h, sid)
        self._count += 1
        self._admit(key, sid)
        return sid, True

    def intern_many(self, keys, hits=None):
        out: List[Tuple[int, bool]] = []
        if hits is None:
            for key in keys:
                out.append(self.intern(key))
            return out
        for key, hit in zip(keys, hits):
            if hit is not None:
                out.append((hit, False))
            else:
                out.append(self.intern(key))
        return out

    def lookup(self, key: Hashable) -> Optional[int]:
        sid = self._resident.get(key)
        if sid is not None:
            return sid
        if self._count == 0:
            return None
        self._ensure_open()
        sid = self._index_lookup(key_hash64(key), key)
        if sid is not None:
            self._admit(key, sid)
        return sid

    def lookup_many(self, keys):
        return [self.lookup(k) for k in keys]

    def key_of(self, sid: int) -> Hashable:
        key = self._rkeys.get(sid)
        if key is not None:
            return key
        key = self._read_key(sid)
        self._admit(key, sid)
        return key

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Hashable) -> bool:
        return self.lookup(key) is not None

    def new_int_column(self):
        return array("q")

    def new_action_column(self):
        return _PackedActions()

    def store_stats(self) -> Dict[str, object]:
        probe_avg = self._probes / self._lookups if self._lookups else 0.0
        return {
            "backend": "disk",
            "resident_keys": len(self._resident),
            "spilled_keys": self._count - len(self._resident),
            "spill_bytes": self._log_end
            + _IDX_BASE
            + self._nslots * _IDX_SLOT.size,
            "index_probe_avg": probe_avg,
            "probes": self._probes,
            "lookups": self._lookups,
            "io_s": self._io_s,
        }


# ----------------------------------------------------------------------
# facades
# ----------------------------------------------------------------------


class StateStore:
    """Interns hashable state keys to dense integer IDs.

    IDs are allocated in discovery order starting at 0, so a BFS store
    doubles as the BFS numbering.  Parent pointers record the search
    tree: :meth:`set_parent` is called once per discovered state, and
    :meth:`path_to` walks the pointers back to a root to rebuild the
    action sequence that reached a state.

    A thin facade: key interning is delegated to a
    :class:`StoreBackend` chosen by run policy (``--store``), while
    the parent/action/depth columns live here, allocated through the
    backend so the disk backend gets compact ``array`` storage.  The
    depth column is filled at :meth:`set_parent` time, making
    :meth:`depth_of` O(1) — POR's C3 proviso calls it once per
    expanded state and used to pay an O(depth) parent walk each time.
    """

    __slots__ = ("_backend", "_parent", "_action", "_depth")

    def __init__(self, store=None) -> None:
        backend = make_backend(as_config(store))
        self._backend = backend
        self._parent = backend.new_int_column()
        self._action = backend.new_action_column()
        self._depth = backend.new_int_column()

    # ------------------------------------------------------------------
    @property
    def backend(self) -> StoreBackend:
        return self._backend

    @property
    def backend_kind(self) -> str:
        return self._backend.kind

    @property
    def config(self) -> StoreConfig:
        return self._backend.config

    # ------------------------------------------------------------------
    def intern(self, key: Hashable) -> Tuple[int, bool]:
        """Return ``(id, is_new)`` for ``key``, interning it if new."""
        sid, new = self._backend.intern(key)
        if new:
            self._parent.append(NO_PARENT)
            self._action.append(None)
            self._depth.append(0)
        return sid, new

    def intern_many(self, keys, hits=None) -> List[Tuple[int, bool]]:
        """Batched :meth:`intern`: one ``(id, is_new)`` per key, in
        order, with duplicates within the batch resolved exactly as
        sequential calls would.  ``hits`` may carry the result of a
        prior :meth:`lookup_many` over the same keys (``None`` per
        miss) to avoid re-probing — valid only if nothing was interned
        in between."""
        pairs = self._backend.intern_many(keys, hits)
        parent, action, depth = self._parent, self._action, self._depth
        for _sid, new in pairs:
            if new:
                parent.append(NO_PARENT)
                action.append(None)
                depth.append(0)
        return pairs

    def set_parent(self, sid: int, parent: int, action: object) -> None:
        """Record that ``sid`` was discovered from ``parent`` via
        ``action`` (roots keep parent ``-1``).  Memoizes the depth
        column: a discovered state is one hop deeper than its parent."""
        self._parent[sid] = parent
        self._action[sid] = action
        self._depth[sid] = 0 if parent == NO_PARENT else self._depth[parent] + 1

    def path_to(self, sid: int) -> List[object]:
        """The action sequence from the root to state ``sid``,
        reconstructed from the parent-pointer array."""
        actions: List[object] = []
        while True:
            parent = self._parent[sid]
            if parent == NO_PARENT:
                break
            actions.append(self._action[sid])
            sid = parent
        actions.reverse()
        return actions

    def depth_of(self, sid: int) -> int:
        """Number of parent hops from ``sid`` back to its root —
        O(1), read from the column :meth:`set_parent` maintains."""
        return self._depth[sid]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._backend

    def id_of(self, key: Hashable) -> Optional[int]:
        return self._backend.lookup(key)

    def lookup_many(self, keys) -> List[Optional[int]]:
        """Batched :meth:`id_of` — non-mutating."""
        return self._backend.lookup_many(keys)

    def key_of(self, sid: int) -> Hashable:
        """The interned key of ``sid`` (IDs are dense, discovery
        order).  The reverse direction of :meth:`intern` — backend
        migration copies stores through it, and the differential
        harness uses it to compare violating-state *keys* (IDs are
        discovery-order artifacts; keys are canonical)."""
        return self._backend.key_of(sid)

    def parent_of(self, sid: int) -> Tuple[int, Optional[object]]:
        """``(parent id, action)`` recorded for ``sid`` (parent is
        ``NO_PARENT`` for roots)."""
        return self._parent[sid], self._action[sid]

    # ------------------------------------------------------------------
    def store_stats(self) -> Dict[str, object]:
        """The backend's capacity counters (``store.*`` gauges)."""
        return self._backend.store_stats()

    def columns(self, chunk: int = 4096) -> Dict[str, object]:
        """The store as plain columns, in ID order: ``parent``,
        ``action`` and ``depth`` lists, plus ``keys`` as a lazy
        iterator of key lists at most ``chunk`` long, so a spilling
        backend is read back a chunk at a time."""
        n = len(self)
        return {
            "keys": (
                [self.key_of(sid) for sid in range(lo, min(lo + chunk, n))]
                for lo in range(0, n, chunk)
            ),
            "parent": list(self._parent),
            "action": [self._action[sid] for sid in range(n)],
            "depth": list(self._depth),
        }

    def load_columns(self, columns: Dict[str, object]) -> None:
        """Refill a store that holds only the root with :meth:`columns`
        from a paused search (possibly under another backend): keys
        are re-interned in ID order, one chunk at a time, so every ID
        is preserved.  Raises :class:`ValueError` when the root key
        differs or the columns are inconsistent."""
        if len(self) != 1:
            raise ValueError("columns load into a store holding only the root")
        backend = self._backend
        n = 0
        for chunk in columns["keys"]:
            if n == 0:
                if not chunk or chunk[0] != backend.key_of(0):
                    raise ValueError("the rebuilt initial state has a different key")
                chunk, n = chunk[1:], 1
            for sid, (got, new) in enumerate(backend.intern_many(chunk), n):
                if not new or got != sid:
                    raise ValueError(f"state {sid} is interned twice")
            n += len(chunk)
        parent = backend.new_int_column()
        action = backend.new_action_column()
        depth = backend.new_int_column()
        for p, a, d in zip(columns["parent"], columns["action"], columns["depth"]):
            parent.append(p)
            action.append(a)
            depth.append(d)
        if not len(parent) == len(action) == len(depth) == n:
            raise ValueError("store columns disagree in length")
        self._parent, self._action, self._depth = parent, action, depth
