"""The run ledger: an append-only, content-addressed record of runs.

Every *completed* verification run (one with a final verdict — stopped
or resumable legs are not recorded) appends one JSON line to the
ledger holding:

* ``hash`` — a canonical content hash of the run's **search
  provenance**: the :data:`PROVENANCE_FIELDS` subset of
  :class:`repro.difftest.SearchFingerprint` (protocol / mode /
  strategy / exhaustive / reduce / model / preemptions / por).
  Run *policy* — the state-store backend — is deliberately excluded:
  by the engine's determinism contract it cannot change what the
  search computes, so the same search under different policies hashes
  identically;
* ``verdict``, ``states``, ``elapsed_s`` — the outcome;
* ``gauges`` — the deterministic search gauges
  (:data:`repro.difftest.DETERMINISTIC_GAUGES` names), which must be
  bit-identical across every run of the same hash;
* ``snapshot`` — the full metrics snapshot when telemetry carried a
  registry (timings; *not* part of the hash);
* ``trace`` — the ``--trace-log`` path when one was written.

:meth:`RunLedger.lookup` answers "has this exact search already run?"
— the seed of the ROADMAP's verification-as-a-service dedup cache.
Appends are flushed and fsynced line-at-a-time, so a crash leaves at
worst one torn final line, which :meth:`RunLedger.entries` drops
(mid-file corruption still raises :class:`LedgerError`).  The ``repro
runs`` subcommand lists / filters / shows / gcs the ledger.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Union

__all__ = [
    "PROVENANCE_FIELDS",
    "LedgerError",
    "LedgerEntry",
    "RunLedger",
    "content_hash",
    "search_provenance",
    "DEFAULT_LEDGER_PATH",
]

#: the fingerprint fields that identify *what was searched* (hashed),
#: as opposed to run policy (the store backend — not hashed)
PROVENANCE_FIELDS = (
    "protocol",
    "mode",
    "strategy",
    "exhaustive",
    "reduce",
    "model",
    "preemptions",
    "por",
)

#: default ledger location for subcommands that take ``--ledger``
DEFAULT_LEDGER_PATH = "repro-ledger.jsonl"


class LedgerError(ValueError):
    """The ledger file is corrupt beyond a torn final line."""


def content_hash(provenance: Mapping[str, object]) -> str:
    """The canonical sha256 of a provenance mapping.

    Only :data:`PROVENANCE_FIELDS` participate, in fixed order with
    canonical JSON encoding, so dict ordering and extra keys (verdict,
    counts, policy) never perturb the hash.
    """
    canonical = json.dumps(
        {k: provenance.get(k) for k in PROVENANCE_FIELDS},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def search_provenance(search) -> Dict[str, object]:
    """Extract the :data:`PROVENANCE_FIELDS` from a live
    :class:`~repro.modelcheck.product.ProductSearch` (fresh or resumed
    from a checkpoint)."""
    return {
        "protocol": search.protocol.describe(),
        "mode": search.mode,
        "strategy": getattr(search, "strategy", "bfs"),
        "exhaustive": not getattr(search, "stop_on_violation", True),
        "reduce": search.reduce,
        "model": search.model_name,
        "preemptions": search.preemptions,
        "por": search.por,
    }


@dataclass
class LedgerEntry:
    """One recorded run (one ledger line)."""

    hash: str
    verdict: str
    provenance: Dict[str, object] = field(default_factory=dict)
    states: int = 0
    elapsed_s: float = 0.0
    gauges: Dict[str, float] = field(default_factory=dict)
    snapshot: Optional[dict] = None
    trace: Optional[str] = None
    recorded_at: float = 0.0

    @property
    def short_hash(self) -> str:
        return self.hash[:12]

    def as_dict(self) -> dict:
        d = {
            "hash": self.hash,
            "verdict": self.verdict,
            "provenance": dict(self.provenance),
            "states": self.states,
            "elapsed_s": self.elapsed_s,
            "gauges": dict(self.gauges),
            "recorded_at": self.recorded_at,
        }
        if self.snapshot is not None:
            d["snapshot"] = self.snapshot
        if self.trace is not None:
            d["trace"] = self.trace
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerEntry":
        return cls(
            hash=d["hash"],
            verdict=d["verdict"],
            provenance=dict(d.get("provenance", {})),
            states=d.get("states", 0),
            elapsed_s=d.get("elapsed_s", 0.0),
            gauges=dict(d.get("gauges", {})),
            snapshot=d.get("snapshot"),
            trace=d.get("trace"),
            recorded_at=d.get("recorded_at", 0.0),
        )


def _provenance_of(key) -> Dict[str, object]:
    """Normalise a lookup key — a provenance mapping, or anything with
    the provenance attributes (a ``SearchFingerprint``, a
    ``ProductSearch`` via :func:`search_provenance`)."""
    if isinstance(key, Mapping):
        return dict(key)
    prov = getattr(key, "provenance", None)
    if callable(prov):
        return prov()
    if isinstance(prov, Mapping):  # a LedgerEntry
        return dict(prov)
    if all(hasattr(key, f) for f in PROVENANCE_FIELDS):
        return {f: getattr(key, f) for f in PROVENANCE_FIELDS}
    raise TypeError(f"cannot derive search provenance from {type(key).__name__}")


class RunLedger:
    """Append-only JSONL run store at ``path``.

    The file need not exist yet — the first :meth:`record` creates it.
    Each append is a single flushed + fsynced line, the same
    crash-safety discipline as the trace writer.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)

    # ----------------------------------------------------------- write
    def record(
        self,
        *,
        provenance: Mapping[str, object],
        verdict: str,
        states: int = 0,
        elapsed_s: float = 0.0,
        gauges: Optional[Mapping[str, float]] = None,
        snapshot: Optional[dict] = None,
        trace: Optional[str] = None,
    ) -> LedgerEntry:
        """Append one completed run; returns the stored entry."""
        entry = LedgerEntry(
            hash=content_hash(provenance),
            verdict=verdict,
            provenance={k: provenance.get(k) for k in PROVENANCE_FIELDS},
            states=states,
            elapsed_s=elapsed_s,
            gauges=dict(sorted((gauges or {}).items())),
            snapshot=snapshot,
            trace=trace,
            recorded_at=time.time(),
        )
        line = json.dumps(entry.as_dict(), separators=(",", ":"), default=str)
        with io.open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return entry

    # ------------------------------------------------------------ read
    def entries(self) -> List[LedgerEntry]:
        """All recorded runs, oldest first.  A torn final line (crash
        mid-append) is dropped; corruption elsewhere raises
        :class:`LedgerError`."""
        if not os.path.exists(self.path):
            return []
        with io.open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        while lines and not lines[-1].strip():
            lines.pop()
        out: List[LedgerEntry] = []
        for i, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                if i == len(lines):
                    break  # torn tail: keep the complete prefix
                raise LedgerError(
                    f"{self.path}:{i}: not valid JSON ({exc})"
                ) from exc
            if not isinstance(obj, dict) or "hash" not in obj or "verdict" not in obj:
                raise LedgerError(f"{self.path}:{i}: not a ledger entry")
            out.append(LedgerEntry.from_dict(obj))
        return out

    def lookup(self, key: Union[str, Mapping, object]) -> List[LedgerEntry]:
        """Entries matching ``key`` — a full or prefix hash string, a
        provenance mapping, or an object carrying the provenance
        fields (e.g. a ``SearchFingerprint``) — oldest first."""
        if isinstance(key, str):
            return [e for e in self.entries() if e.hash.startswith(key)]
        h = content_hash(_provenance_of(key))
        return [e for e in self.entries() if e.hash == h]

    # -------------------------------------------------------------- gc
    def gc(self, keep: int = 1) -> int:
        """Keep only the newest ``keep`` entries per content hash;
        returns how many entries were dropped.  The file is rewritten
        atomically (write-new + rename)."""
        if keep < 1:
            raise ValueError(f"gc keep must be >= 1, got {keep}")
        entries = self.entries()
        kept_rev: List[LedgerEntry] = []
        counts: Dict[str, int] = {}
        for e in reversed(entries):  # newest first
            counts[e.hash] = counts.get(e.hash, 0) + 1
            if counts[e.hash] <= keep:
                kept_rev.append(e)
        kept = list(reversed(kept_rev))
        dropped = len(entries) - len(kept)
        if dropped == 0:
            return 0
        tmp = self.path + ".tmp"
        with io.open(tmp, "w", encoding="utf-8") as fh:
            for e in kept:
                fh.write(json.dumps(e.as_dict(), separators=(",", ":"), default=str) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        return dropped


def group_by_hash(entries: Iterable[LedgerEntry]) -> Dict[str, List[LedgerEntry]]:
    """Entries grouped by content hash, insertion-ordered."""
    groups: Dict[str, List[LedgerEntry]] = {}
    for e in entries:
        groups.setdefault(e.hash, []).append(e)
    return groups
