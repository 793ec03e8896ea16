"""Symmetry reduction: orbit canonicalization of composed states.

Explicit-state verification of the Figure 2 product explores many
states that differ only by a permutation of *symmetric* processors,
blocks, or data values — if processors 1 and 2 are interchangeable in
the protocol, then every reachable joint state has a mirror image
under swapping them, and exploring both is pure waste.  This module
quotients the search by those permutations, Murphi-scalarset style:

* a :class:`SymmetrySpec` *declares* how a protocol's state tuple is
  indexed by the three sorts (``proc`` / ``block`` / ``value``) and
  how its storage locations are numbered over them — declarations,
  not code, so the spec cannot move data the protocol doesn't;
* :func:`build_reduction` turns a spec plus a ``--reduce`` level into
  a :class:`Reduction`: the permutation group (processor permutations,
  optionally × block permutations × value permutations) with every
  index map precomputed;
* :meth:`Reduction.canonical_key` maps a composed state
  ``(protocol state, observer, checker)`` to the minimum key over its
  orbit — the quotient key the engine interns.

The observer and checker compose with the permutation rather than
fight it: :meth:`~repro.core.observer.Observer.canonical_snapshot`
takes the permutation and runs the observer's one canonical-renaming
walk *as if* the whole run had been permuted (descriptor IDs are
allocation artifacts and carry no sort content, so only slot visit
order and the proc/block/value payload change), and the checkers take
the same permutation into their ``state_key``.  Because the search frontiers always hold
**concrete** states and only the interned *keys* are canonicalized,
every interned quotient state keeps one concrete witness and parent
actions connect witnesses concretely — counterexample replay needs no
permutation tracking and reports genuine, un-permuted runs.

Violating observer states are exempt from orbit minimization: their
``violation`` field is a rendered message naming concrete operations,
which no permutation can rewrite.  They are recorded, never expanded,
so the exemption costs reduction only on terminal states — soundness
is unaffected.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.operations import BOTTOM, Load, Operation, Store

__all__ = [
    "REDUCE_LEVELS",
    "ArrayContent",
    "FieldSym",
    "QueueContent",
    "SymmetrySpec",
    "Permutation",
    "Reduction",
    "ReductionError",
    "build_reduction",
    "order_key",
]

#: the ``--reduce`` levels, weakest to strongest
REDUCE_LEVELS = ("off", "proc", "proc+block", "full")

#: refuse to enumerate groups beyond this size — at p!·b!·v! growth a
#: mis-parameterised ``--reduce full`` would otherwise hang silently
MAX_GROUP = 40320  # 8!


class ReductionError(ValueError):
    """A reduction was requested that the protocol cannot support."""


# ----------------------------------------------------------------------
# declarations
# ----------------------------------------------------------------------

#: axis sorts a field may be indexed by
_SORTS = ("proc", "block", "value")


@dataclass(frozen=True)
class ArrayContent:
    """Structured :attr:`FieldSym.content`: each entry of the field is
    *itself* a fixed-size row-major array over ``axes`` whose elements
    carry ``sort`` (same meaning as a string content; ``None`` for
    sort-free elements).  Declares nested state shapes such as Lazy
    Caching's ``caches`` — a proc-indexed tuple of block-indexed value
    tuples — without flattening the protocol's state tuple.

    Negative elements are fixed points of every content map: protocols
    use negative sentinels (``INVALID = -1`` cache slots) that name no
    value, and a sort map must never rewrite them.
    """

    axes: Tuple = ()
    sort: Optional[str] = None


@dataclass(frozen=True)
class QueueContent:
    """Structured :attr:`FieldSym.content`: each entry of the field is
    a variable-length FIFO (tuple) of fixed-arity item tuples, and
    ``sorts`` names the sort of each item component (``None`` leaves
    that component alone — flags, counters).  Queue *order* is program
    order and survives any sort permutation, so only the item payloads
    are mapped; declares shapes such as Lazy Caching's out-queues of
    ``(block, value)`` pairs and in-queues of ``(block, value,
    starred)`` triples.  Negative components are fixed points, as for
    :class:`ArrayContent`.
    """

    sorts: Tuple = ()


@dataclass(frozen=True)
class FieldSym:
    """Symmetry declaration for one flat segment of a state component.

    The segment is a row-major array over ``axes`` — each axis either a
    sort name (``'proc'``/``'block'``/``'value'``, sized by the
    protocol's p/b/v) or a plain int (a fixed-size axis the group does
    not act on).  ``axes=()`` declares a scalar slot.  ``content``
    names the sort of the *entries* themselves: ``'value'`` for data
    values (permuted with ⊥ fixed), ``'proc'``/``'block'`` for entries
    holding a processor/block number, ``None`` for sort-free entries
    (control states, counters) that permutations leave alone.  For
    entries that are themselves containers, ``content`` may instead be
    an :class:`ArrayContent` or :class:`QueueContent` declaration.
    """

    axes: Tuple = ()
    content: Optional[object] = None

    def size(self, p: int, b: int, v: int) -> int:
        n = 1
        for a in self.axes:
            n *= {"proc": p, "block": b, "value": v}.get(a, a if isinstance(a, int) else 0)
        return n


@dataclass(frozen=True)
class SymmetrySpec:
    """A component's full symmetry declaration.

    ``state_fields`` mirrors the protocol's state tuple: one entry per
    top-level component, each a tuple of :class:`FieldSym` segments
    concatenated in order (a component that is a single uniform array
    has one segment).  ``location_axes`` lists the storage-location
    groups in numbering order (locations are contiguous from 1), each
    an axes tuple like ``('block',)`` or ``('proc', 'block')`` — the
    derived location permutation is what keeps the observer's location
    map and the protocol's tracking labels consistent under the group.
    """

    state_fields: Tuple[Tuple[FieldSym, ...], ...]
    location_axes: Tuple[Tuple, ...] = ()


# ----------------------------------------------------------------------
# permutations
# ----------------------------------------------------------------------


def _axis_sizes(axes: Sequence, p: int, b: int, v: int) -> Tuple[int, ...]:
    out = []
    for a in axes:
        if a == "proc":
            out.append(p)
        elif a == "block":
            out.append(b)
        elif a == "value":
            out.append(v)
        elif isinstance(a, int) and a >= 1:
            out.append(a)
        else:
            raise ReductionError(f"unknown symmetry axis {a!r}")
    return tuple(out)


def _axis_maps(axes: Sequence, p: int, b: int, v: int,
               pp: Tuple[int, ...], pb: Tuple[int, ...], pv: Tuple[int, ...]):
    """Per-axis index maps (1-based in, 1-based out) under one group
    element; fixed int axes map identically."""
    maps = []
    for a in axes:
        if a == "proc":
            maps.append(pp)
        elif a == "block":
            maps.append(pb)
        elif a == "value":
            maps.append(pv)
        else:
            maps.append(tuple(range(1, a + 1)))
    return maps


def _flat_perm(axes: Sequence, p: int, b: int, v: int,
               pp, pb, pv) -> Tuple[int, ...]:
    """``src[j]``: the 0-based source offset whose entry lands at
    permuted 0-based offset ``j`` in a row-major array over ``axes``."""
    sizes = _axis_sizes(axes, p, b, v)
    maps = _axis_maps(axes, p, b, v, pp, pb, pv)
    n = 1
    for s in sizes:
        n *= s
    src = [0] * n
    for idx in itertools.product(*(range(1, s + 1) for s in sizes)):
        flat = 0
        dst = 0
        for s, i, m in zip(sizes, idx, maps):
            flat = flat * s + (i - 1)
            dst = dst * s + (m[i - 1] - 1)
        src[dst] = flat
    return tuple(src)


@dataclass(frozen=True)
class _ArrayMap:
    """Compiled :class:`ArrayContent` for one group element: ``srcs``
    is the entry's own flat source-offset table and ``entry`` the
    element sort map (``None`` for sort-free elements).  Negative
    elements pass through unmapped (sentinel fixed points)."""

    srcs: Tuple[int, ...]
    entry: Optional[Tuple[int, ...]]

    def apply(self, x: Tuple) -> Tuple:
        e = self.entry
        if e is None:
            return tuple(x[s] for s in self.srcs)
        return tuple(x[s] if x[s] < 0 else e[x[s]] for s in self.srcs)


@dataclass(frozen=True)
class _QueueMap:
    """Compiled :class:`QueueContent` for one group element: one sort
    map (or ``None``) per item component, applied item-wise with queue
    order preserved."""

    maps: Tuple[Optional[Tuple[int, ...]], ...]

    def apply(self, q: Tuple) -> Tuple:
        maps = self.maps
        out = []
        for item in q:
            if len(item) != len(maps):
                raise ReductionError(
                    f"queue item {item!r} has {len(item)} components; "
                    f"its QueueContent declares {len(maps)}"
                )
            out.append(tuple(
                x if m is None or x < 0 else m[x]
                for x, m in zip(item, maps)
            ))
        return tuple(out)


@dataclass(frozen=True)
class Permutation:
    """One group element, with every index map precomputed.

    ``proc``/``block``/``value`` are 1-based maps as tuples
    (``proc[i-1]`` is the image of processor ``i``); ``vmap`` extends
    the value map with the fixed point ``vmap[BOTTOM] == BOTTOM``.
    ``loc`` maps storage locations (``loc[l-1]`` is the image of
    location ``l``); ``loc_inv`` is its inverse — the observer's
    permuted walk visits location ``l'`` by reading the concrete slot
    ``loc_inv[l'-1]``.  ``field_srcs`` holds, per state-tuple
    component, the flat source-offset table plus a per-slot
    content-map reference used by :meth:`Reduction.permute_pstate` —
    an index tuple for string content sorts, a compiled
    :class:`_ArrayMap`/:class:`_QueueMap` for structured content.
    """

    proc: Tuple[int, ...]
    block: Tuple[int, ...]
    value: Tuple[int, ...]
    vmap: Tuple[int, ...]
    loc: Tuple[int, ...]
    loc_inv: Tuple[int, ...]
    #: per state component: (src offsets, per-slot content map or None)
    field_srcs: Tuple[Tuple[Tuple[int, ...], Tuple], ...]
    is_identity: bool = False

    def op(self, op: Optional[Operation]) -> Optional[Operation]:
        """The image of an LD/ST label (identity on anything else)."""
        if isinstance(op, Load):
            return Load(self.proc[op.proc - 1], self.block[op.block - 1],
                        self.vmap[op.value])
        if isinstance(op, Store):
            return Store(self.proc[op.proc - 1], self.block[op.block - 1],
                         self.vmap[op.value])
        return op


# ----------------------------------------------------------------------
# total order over heterogeneous keys
# ----------------------------------------------------------------------


def order_key(x):
    """A total order over every payload that appears in composed state
    keys (``None``, ints, strings, operations, nested tuples) — plain
    ``min()`` over such keys raises ``TypeError`` the moment a
    ``None`` location slot meets an int, so orbit minimization compares
    through this recursive tagging instead."""
    if x is None:
        return (0,)
    if isinstance(x, bool):
        return (1, int(x))
    if isinstance(x, int):
        return (1, x)
    if isinstance(x, str):
        return (2, x)
    if isinstance(x, Load):
        return (3, 0, x.proc, x.block, x.value)
    if isinstance(x, Store):
        return (3, 1, x.proc, x.block, x.value)
    if isinstance(x, tuple):
        return (5, tuple(order_key(e) for e in x))
    if isinstance(x, frozenset):
        return (5, tuple(sorted(order_key(e) for e in x)))
    return (6, repr(x))


def _composed_key(ps: Tuple, obs, chk, perm: Permutation) -> Tuple:
    """The composed key of the ``perm``-image of ``(obs, chk)`` beside
    the already permuted protocol state ``ps``: one observer walk, whose
    renaming also canonicalizes the checker."""
    p = None if perm.is_identity else perm
    canon, okey = obs.canonical_snapshot(p)
    return (ps, okey, chk.state_key(canon, p))


# ----------------------------------------------------------------------
# the reduction object
# ----------------------------------------------------------------------


@dataclass
class ReductionCounters:
    """Run counters the obs layer publishes as ``reduction.*`` gauges."""

    states: int = 0  #: composed states canonicalized
    orbit_hits: int = 0  #: canonicalizations won by a non-identity element
    canon_s: float = 0.0  #: wall seconds spent in orbit minimization

    def as_dict(self) -> dict:
        return {
            "states": self.states,
            "orbit_hits": self.orbit_hits,
            "canon_s": self.canon_s,
        }


class Reduction:
    """The enumerated permutation group plus the orbit-minimum map.

    ``perms`` always
    starts with the identity, and ties in the orbit minimum are broken
    in its favour, so ``counters.orbit_hits`` counts exactly the
    canonicalizations that landed on a *different* representative.
    """

    def __init__(self, level: str, spec: SymmetrySpec, perms: Sequence[Permutation]):
        self.level = level
        self.spec = spec
        self.perms: Tuple[Permutation, ...] = tuple(perms)
        assert self.perms and self.perms[0].is_identity
        self.counters = ReductionCounters()

    @property
    def group_size(self) -> int:
        return len(self.perms)

    # ------------------------------------------------------------------
    def permute_pstate(self, pstate: Tuple, perm: Permutation) -> Tuple:
        """The image of a protocol state under one group element."""
        out = []
        for comp, (srcs, contents) in zip(pstate, perm.field_srcs):
            if perm.is_identity:
                out.append(comp)
                continue
            part = []
            for j, src in enumerate(srcs):
                x = comp[src]
                cmap = contents[j]
                if cmap is None:
                    part.append(x)
                elif type(cmap) is tuple:
                    # negative sentinels (INVALID slots) are fixed points
                    part.append(x if x < 0 else cmap[x])
                else:
                    part.append(cmap.apply(x))
            out.append(tuple(part))
        return tuple(out)

    # ------------------------------------------------------------------
    def canonical_key(self, pstate: Tuple, obs, chk) -> Tuple:
        """The minimum composed key over the state's orbit.

        Two-stage: protocol states are cheap tuples, so every group
        element first permutes only those and the (much costlier)
        observer walk + checker key run only for the elements whose
        permuted protocol state ties for the minimum.  The singleton
        case of :meth:`canonicalize_batch` — exactly the same
        comparisons, tie-breaks and counters.
        """
        return self.canonicalize_batch(((pstate, obs, chk),))[0]

    def canonicalize_batch(self, items) -> List[Tuple]:
        """Orbit-minimize a whole successor batch at once.

        ``items`` is a sequence of ``(pstate, obs, chk)`` triples; the
        result is one composed key per item, each bit-identical to a
        sequential :meth:`canonical_key` call.  Stage 1 runs
        group-element-outer over the batch, so each element's
        precomputed gather tables (``perm.field_srcs``) stay hot
        across all states in the batch — the array-sweep seam a
        compiled kernel can later slot into.  Stage 2 (observer walk +
        checker key, only for orbit-minimum ties) stays per-item.

        Tie order is preserved: for every item the ties accumulate in
        ``self.perms`` order, identity first, and the strict ``<``
        keeps identity on equal keys — so the winner (and therefore
        ``orbit_hits``) is exactly the sequential winner.
        """
        t0 = time.perf_counter()
        n = len(items)
        best_pks: List[object] = [None] * n
        ties: List[List[Tuple[Permutation, Tuple]]] = [[] for _ in range(n)]
        for perm in self.perms:
            permute = self.permute_pstate
            for idx in range(n):
                ps = permute(items[idx][0], perm)
                pk = order_key(ps)
                bp = best_pks[idx]
                if bp is None or pk < bp:
                    best_pks[idx] = pk
                    ties[idx] = [(perm, ps)]
                elif pk == bp:
                    ties[idx].append((perm, ps))

        keys: List[Tuple] = []
        hits = 0
        for idx in range(n):
            obs, chk = items[idx][1], items[idx][2]
            tied = ties[idx]
            if len(tied) == 1:
                perm, ps = tied[0]
                key = _composed_key(ps, obs, chk, perm)
                winner = perm
            else:
                key = None
                best_fk = None
                winner = tied[0][0]
                for perm, ps in tied:
                    cand = _composed_key(ps, obs, chk, perm)
                    fk = order_key(cand)
                    # identity is first in self.perms, hence first among
                    # ties — strict < keeps it on equal keys
                    if best_fk is None or fk < best_fk:
                        best_fk = fk
                        key = cand
                        winner = perm
            if not winner.is_identity:
                hits += 1
            keys.append(key)
        c = self.counters
        c.states += n
        c.orbit_hits += hits
        c.canon_s += time.perf_counter() - t0
        return keys

    def describe(self) -> str:
        return f"reduce={self.level} |G|={len(self.perms)}"


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def _check_content(content, p: int, b: int, v: int) -> None:
    """Reject malformed ``FieldSym.content`` declarations at build time
    (an unknown sort discovered mid-canonicalization would abort the
    search after arbitrary work)."""
    if content is None or content in _SORTS:
        return
    if isinstance(content, ArrayContent):
        _axis_sizes(content.axes, p, b, v)
        if content.sort is not None and content.sort not in _SORTS:
            raise ReductionError(f"unknown content sort {content.sort!r}")
        return
    if isinstance(content, QueueContent):
        for s in content.sorts:
            if s is not None and s not in _SORTS:
                raise ReductionError(f"unknown content sort {s!r}")
        return
    raise ReductionError(f"unknown field content {content!r}")


def _check_spec(spec: SymmetrySpec, protocol) -> None:
    p, b, v = protocol.p, protocol.b, protocol.v
    init = protocol.initial_state()
    if len(spec.state_fields) != len(init):
        raise ReductionError(
            f"symmetry spec declares {len(spec.state_fields)} state "
            f"components but {protocol.describe()} has {len(init)}"
        )
    # every group must cover its state component exactly: an
    # undercounting spec would make permute_pstate silently truncate
    # non-identity images and collide distinct states on one quotient key
    for i, (group, comp) in enumerate(zip(spec.state_fields, init)):
        total = 0
        for f in group:
            f_size = f.size(p, b, v)
            if f_size < 1:
                raise ReductionError(f"empty symmetry field {f!r}")
            _check_content(f.content, p, b, v)
            total += f_size
        try:
            comp_size = len(comp)
        except TypeError:
            raise ReductionError(
                f"state component {i} of {protocol.describe()} is not a "
                f"sized sequence; symmetry reduction cannot permute it"
            ) from None
        if total != comp_size:
            raise ReductionError(
                f"symmetry spec covers {total} slots of state component "
                f"{i} but {protocol.describe()} has {comp_size}"
            )
    locs = 0
    for axes in spec.location_axes:
        n = 1
        for s in _axis_sizes(axes, p, b, v):
            n *= s
        locs += n
    if spec.location_axes and locs != protocol.num_locations:
        raise ReductionError(
            f"symmetry spec covers {locs} locations but "
            f"{protocol.describe()} has {protocol.num_locations}"
        )


def build_reduction(protocol, level: str) -> Optional[Reduction]:
    """Build the :class:`Reduction` for one protocol and ``--reduce``
    level (``None`` for ``"off"``).

    Raises :class:`ReductionError` when the level is unknown, the
    protocol declares no :meth:`~repro.core.protocol.Protocol.symmetry_spec`,
    or the group would be unreasonably large.
    """
    if level not in REDUCE_LEVELS:
        raise ReductionError(
            f"unknown --reduce level {level!r} (known: {', '.join(REDUCE_LEVELS)})"
        )
    if level == "off":
        return None
    spec = protocol.symmetry_spec()
    if spec is None:
        raise ReductionError(
            f"{protocol.describe()} declares no symmetry spec; "
            f"--reduce {level} is only available for protocols that do "
            f"(use --reduce off)"
        )
    _check_spec(spec, protocol)
    p, b, v = protocol.p, protocol.b, protocol.v

    proc_perms = list(itertools.permutations(range(1, p + 1)))
    block_perms = (
        list(itertools.permutations(range(1, b + 1)))
        if level in ("proc+block", "full")
        else [tuple(range(1, b + 1))]
    )
    value_perms = (
        list(itertools.permutations(range(1, v + 1)))
        if level == "full"
        else [tuple(range(1, v + 1))]
    )
    size = len(proc_perms) * len(block_perms) * len(value_perms)
    if size > MAX_GROUP:
        raise ReductionError(
            f"--reduce {level} on {protocol.describe()} enumerates a "
            f"group of {size} permutations (cap {MAX_GROUP}); use a "
            f"weaker level"
        )

    # location numbering: contiguous groups from 1 in declaration order
    loc_bases = []
    base = 1
    for axes in spec.location_axes:
        loc_bases.append(base)
        n = 1
        for s in _axis_sizes(axes, p, b, v):
            n *= s
        base += n
    L = base - 1

    perms: List[Permutation] = []
    ident = (tuple(range(1, p + 1)), tuple(range(1, b + 1)), tuple(range(1, v + 1)))
    for pp in proc_perms:
        for pb in block_perms:
            for pv in value_perms:
                vmap = (BOTTOM,) + pv
                loc = [0] * L
                for axes, gbase in zip(spec.location_axes, loc_bases):
                    for src_off, dst_off in enumerate(
                        _inverse(_flat_perm(axes, p, b, v, pp, pb, pv))
                    ):
                        loc[gbase - 1 + src_off] = gbase + dst_off
                loc_t = tuple(loc) if L else ()
                loc_inv = _inverse_1based(loc_t)
                field_srcs = []
                for group in spec.state_fields:
                    srcs: List[int] = []
                    contents: List[Optional[str]] = []
                    off = 0
                    for f in group:
                        seg = _flat_perm(f.axes, p, b, v, pp, pb, pv)
                        srcs.extend(off + s for s in seg)
                        contents.extend([f.content] * len(seg))
                        off += len(seg)
                    field_srcs.append((tuple(srcs), tuple(contents)))
                is_id = (pp, pb, pv) == ident
                content_cache: Dict[object, object] = {}

                def _cmap(c, pp=pp, pb=pb, pv=pv, vmap=vmap, cache=content_cache):
                    if c is None:
                        return None
                    if c not in cache:
                        cache[c] = _compile_content(c, p, b, v, pp, pb, pv, vmap)
                    return cache[c]

                perm = Permutation(
                    proc=pp, block=pb, value=pv, vmap=vmap,
                    loc=loc_t, loc_inv=loc_inv,
                    field_srcs=tuple(
                        (srcs, tuple(_cmap(c) for c in contents))
                        for srcs, contents in field_srcs
                    ),
                    is_identity=is_id,
                )
                if is_id:
                    perms.insert(0, perm)
                else:
                    perms.append(perm)
    return Reduction(level, spec, perms)


def _content(sort: str, pp, pb, vmap):
    if sort == "value":
        return vmap
    if sort == "proc":
        return (0,) + pp
    if sort == "block":
        return (0,) + pb
    raise ReductionError(f"unknown content sort {sort!r}")


def _compile_content(c, p, b, v, pp, pb, pv, vmap):
    """One group element's entry map for a ``FieldSym.content``
    declaration: an index tuple for plain sorts, a compiled
    :class:`_ArrayMap`/:class:`_QueueMap` for structured content."""
    if isinstance(c, str):
        return _content(c, pp, pb, vmap)
    if isinstance(c, ArrayContent):
        return _ArrayMap(
            srcs=_flat_perm(c.axes, p, b, v, pp, pb, pv),
            entry=None if c.sort is None else _content(c.sort, pp, pb, vmap),
        )
    if isinstance(c, QueueContent):
        return _QueueMap(maps=tuple(
            None if s is None else _content(s, pp, pb, vmap)
            for s in c.sorts
        ))
    raise ReductionError(f"unknown field content {c!r}")


def _inverse(src_for_dst: Tuple[int, ...]) -> Tuple[int, ...]:
    """Invert a 0-based src-for-dst table into dst-for-src."""
    out = [0] * len(src_for_dst)
    for dst, src in enumerate(src_for_dst):
        out[src] = dst
    return tuple(out)


def _inverse_1based(loc: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * len(loc)
    for src0, dst1 in enumerate(loc):
        out[dst1 - 1] = src0 + 1
    return tuple(out)
