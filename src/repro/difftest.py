"""Differential testing of the search engines.

An engine configuration is only trustworthy if it is *provably
honest*: changing the frontier strategy or the state-store backend
must change wall-clock time and nothing else.  This module captures a
search outcome as a :class:`SearchFingerprint` — a small, comparable
summary of everything the configurations promise to agree on — and
diffs fingerprints across them (BFS vs. DFS vs. random-walk, mem vs.
disk store), producing a minimized divergence report when they
disagree.

What must agree, and when:

* **verdict** — always.  A protocol is (non-)SC regardless of how the
  state space was enumerated.
* **state / transition / quiescent counts** — whenever the search ran
  to completion (every verdict except a ``stop_on_violation`` halt,
  where the counts legitimately depend on when the first violation
  was *reached*, which is search-order dependent).  This is the
  canonical-key congruence property: a successor's canonical key is a
  function of its parent's canonical key and the action alone, so
  every enumeration order closes the same key set.
* **violation-key set and canonical violation** — in exhaustive mode
  (``stop_on_violation=False``): violating states are recorded, never
  expanded, and the reported one is the minimum by stable key hash,
  so all engines report the *same* violating state.
* **counterexample validity** — always, but not the *path*: parent
  pointers record each engine's arrival order, so two honest engines
  may return different runs to (even the same) violating state.  What
  the contract requires is that each run **replays to a genuine
  violation** (:func:`~repro.core.verify.check_run` rejects it).

Symmetry reduction (``--reduce``; :mod:`repro.engine.reduction`) adds
a second axis: two runs at the *same* level are held to the full
contract above (the quotient space is enumerated deterministically,
so counts agree across strategies exactly as the unreduced space
does), while a reduced and an unreduced run are
compared **cross-level**: verdict, counterexample replay validity and
— in exhaustive mode — the canonically reported violating state must
agree, but the counts must *not* (shrinking them is the point of the
reduction) and the violation-key sets are incomparable (violating
states keep their concrete identity keys, and the quotient search
reaches one representative per orbit rather than every member).

Partial-order reduction (``--por``; :mod:`repro.engine.por`) adds its
own axis with a *weaker* cross-level contract than symmetry reduction:
an ample-set search explores a subset of the full state graph chosen
against the interning order (the C3 proviso asks "is this successor
already interned?"), so even two ``--por on`` runs with different
frontier strategies may legitimately explore different state
counts.  What carries across POR configurations is
:data:`CROSS_POR_FIELDS` — the verdict and counterexample replay
validity; fixing (strategy, seed) restores bit-exact
reproducibility, which same-config comparisons still enforce in full.

The consistency-model layer (:mod:`repro.models`) adds a third axis.
Fingerprints of *different models* are never field-compared — a causal
search legitimately reaches a different verdict through a different
state space — so :func:`compare_fingerprints` refuses the comparison
outright.  What holds across models is the **lattice contract**: if a
protocol verifies under a stronger model, it must verify under every
weaker one (every SC trace is causal, so an SC-pass forces a
causal-pass — the witness-edge embedding argument in
:mod:`repro.models.causal`).  :func:`assert_model_lattice` enforces
exactly that implication, plus replay validity of whichever
counterexample the weaker model found.  Bounded-preemption runs add a
refinement contract (:func:`assert_preemption_refinement`): a bounded
violation must replay as a full-search violation (the bound only
*removes* runs), and an exhaustive bounded search must explore
strictly fewer states than the exhaustive unbounded one.

``tests/test_differential.py`` drives this module over the protocol
zoo; :func:`assert_equivalent` is the assertion it uses, and the
report it prints on failure is this module's
:func:`divergence_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .core.protocol import Protocol
from .core.storder import STOrderGenerator
from .core.verify import check_run
from .engine.hashing import stable_hash
from .modelcheck.product import ProductSearch, search_provenance
from .obs import MetricsRegistry, Telemetry, TraceWriter

#: the ``search.*`` gauges every honest engine configuration must agree
#: on for a completed search (peak_frontier and max_depth are excluded:
#: both are high-water marks that legitimately vary with the frontier
#: strategy)
DETERMINISTIC_GAUGES = (
    "search.states",
    "search.transitions",
    "search.quiescent",
    "search.interned",
)

__all__ = [
    "DETERMINISTIC_GAUGES",
    "CROSS_POR_FIELDS",
    "CROSS_REDUCE_FIELDS",
    "SearchFingerprint",
    "fingerprint",
    "search_fingerprint",
    "compare_fingerprints",
    "divergence_report",
    "assert_equivalent",
    "assert_model_lattice",
    "assert_preemption_refinement",
]


@dataclass(frozen=True)
class SearchFingerprint:
    """Everything two honest engines must agree on, plus provenance.

    ``violation_keys`` and ``canonical_violation`` hold
    :func:`~repro.engine.hashing.stable_hash` values of canonical
    state keys (the keys themselves contain unhashable-by-accident
    payloads in no engine, but hashes diff tersely).
    """

    # provenance (never compared — identifies the configuration;
    # ``reduce`` additionally *selects* the contract: fingerprints at
    # different reduction levels are compared cross-level, see
    # :func:`compare_fingerprints`)
    protocol: str
    mode: str
    strategy: str
    exhaustive: bool

    # the contract
    verdict: str  #: "verified" | "violation" | "inconclusive" | "stopped" | "truncated"
    states: int
    transitions: int
    quiescent: int
    non_quiescible: int
    violation_keys: frozenset
    canonical_violation: Optional[int]
    cx_len: Optional[int]
    cx_replays: Optional[bool]  #: None when no counterexample was produced
    #: symmetry-reduction level the search ran under (provenance that
    #: also changes which fields another configuration must reproduce)
    reduce: str = "off"
    #: consistency model the search checked (provenance; fingerprints
    #: of different models are never field-compared — the lattice
    #: contract :func:`assert_model_lattice` relates them instead)
    model: str = "sc"
    #: context-switch bound of a bounded-preemption SC search (``None``
    #: = unbounded; provenance, related to the unbounded run by
    #: :func:`assert_preemption_refinement`)
    preemptions: Optional[int] = None
    #: partial-order-reduction level the search ran under (provenance;
    #: like ``reduce`` it changes which fields another configuration
    #: must reproduce — see :data:`CROSS_POR_FIELDS`)
    por: str = "off"
    #: ST-order generator identity (:func:`~repro.core.storder.describe_generator`;
    #: provenance — the generator shapes the product being searched)
    generator: str = "real-time"
    #: random-walk seed (provenance; ``None`` under every other
    #: strategy, where the seed steers nothing)
    seed: Optional[int] = None
    #: the :data:`DETERMINISTIC_GAUGES` subset of the run's telemetry
    #: snapshot, as sorted (name, value) pairs — proves the metrics
    #: pipeline reports the same search the engines agree on
    metrics: Tuple[Tuple[str, float], ...] = ()

    @property
    def label(self) -> str:
        bound = "" if self.preemptions is None else f" preemptions={self.preemptions}"
        return (
            f"{self.protocol} [model={self.model}{bound} mode={self.mode} "
            f"strategy={self.strategy} "
            f"reduce={self.reduce} por={self.por} "
            f"{'exhaustive' if self.exhaustive else 'stop-on-first'}]"
        )

    def provenance(self) -> Dict[str, object]:
        """The search-identity fields
        (:data:`repro.modelcheck.product.PROVENANCE_FIELDS`): what was
        searched, excluding run policy such as ``store`` — the same
        mapping a checkpoint records."""
        return {
            "protocol": self.protocol,
            "generator": self.generator,
            "mode": self.mode,
            "strategy": self.strategy,
            "seed": self.seed,
            "exhaustive": self.exhaustive,
            "reduce": self.reduce,
            "model": self.model,
            "preemptions": self.preemptions,
            "por": self.por,
        }

    def comparable(self) -> Dict[str, object]:
        """The fields another engine configuration must reproduce.

        Counts are excluded for a stop-on-first-violation halt (they
        measure *when* the engine noticed, not what exists); the
        violation-key set and canonical violation are exhaustive-mode
        promises.  Counterexample *validity* is always in; its length
        never is.
        """
        fields: Dict[str, object] = {"verdict": self.verdict}
        if self.cx_replays is not None:
            fields["cx_replays"] = self.cx_replays
        if not (self.verdict == "violation" and not self.exhaustive):
            fields["states"] = self.states
            fields["transitions"] = self.transitions
            fields["quiescent"] = self.quiescent
            fields["non_quiescible"] = self.non_quiescible
            fields["metrics"] = self.metrics
        if self.exhaustive:
            fields["violation_keys"] = self.violation_keys
            fields["canonical_violation"] = self.canonical_violation
        return fields


def _verdict_of(result) -> str:
    if result.counterexample is not None:
        return "violation"
    if result.stats.stop_reason is not None:
        return "stopped"
    if result.stats.truncated:
        return "truncated"
    if result.non_quiescible:
        return "inconclusive"
    return "verified"


def fingerprint(
    protocol: Protocol,
    st_order: Optional[STOrderGenerator] = None,
    *,
    mode: str = "fast",
    strategy: str = "bfs",
    seed: int = 0,
    reduce: str = "off",
    model: str = "sc",
    preemptions: Optional[int] = None,
    por: str = "off",
    exhaustive: bool = True,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    store=None,
) -> SearchFingerprint:
    """Run one product search and summarise it for comparison.

    Any counterexample is independently validated by replaying its run
    through a *fresh* observer + checker (:func:`check_run`) — the
    fingerprint records whether the replay genuinely rejects, so a
    fabricated or mis-reconstructed path cannot pass as honest.

    The search runs under full telemetry (registry + in-memory trace),
    so fingerprinting also exercises the observability layer and the
    fingerprint's ``metrics`` field captures the deterministic gauge
    subset — tracing a run must never change what it computes.

    ``store`` selects the state-store backend (``"mem"``/``"disk"``
    or a :class:`~repro.engine.intern.StoreConfig`) — run policy and
    deliberately **not** a provenance field: the
    backend-invariance contract (docs/ARCHITECTURE.md) is that a
    spill-to-disk search fingerprints bit-identically to the
    all-in-RAM one, and the cross-backend difftest asserts exactly
    that.
    """
    search = ProductSearch(
        protocol,
        st_order,
        mode=mode,
        strategy=strategy,
        seed=seed,
        reduce=reduce,
        model=model,
        preemptions=preemptions,
        por=por,
        stop_on_violation=not exhaustive,
        max_states=max_states,
        max_depth=max_depth,
        store=store,
    )
    return search_fingerprint(search)


def search_fingerprint(search: ProductSearch) -> SearchFingerprint:
    """Run ``search`` to its end and summarise it — the second half of
    :func:`fingerprint`, for a search built elsewhere: a search resumed
    from a checkpoint must fingerprint exactly like an uninterrupted
    one."""
    telemetry = Telemetry(registry=MetricsRegistry(), trace=TraceWriter([]))
    result = search.run(telemetry=telemetry)
    engine = search.engine
    gauges = telemetry.registry.snapshot().gauges
    metrics = tuple(
        (name, gauges[name]) for name in DETERMINISTIC_GAUGES if name in gauges
    )

    exhaustive = not search.stop_on_violation
    viol_hashes = frozenset(stable_hash(k) for k in engine.violation_keys())
    canonical: Optional[int] = None
    if exhaustive and viol_hashes:
        ref = engine._final.violating if engine._final is not None else None
        if ref is not None:
            canonical = stable_hash(engine.store.key_of(ref))

    cx_len: Optional[int] = None
    cx_replays: Optional[bool] = None
    if result.counterexample is not None:
        cx_len = len(result.counterexample.run)
        # replayed on the *unwrapped* protocol under the model's own
        # acceptance condition — for a bounded-preemption run this is
        # full SC, so replay validity IS the refinement promise: the
        # bounded counterexample is a genuine full-search violation
        cx_replays = not check_run(
            search.protocol, result.counterexample.run, search.st_order,
            model=search.model_name,
        ).ok

    return SearchFingerprint(
        **search_provenance(search),
        verdict=_verdict_of(result),
        states=result.stats.states,
        transitions=result.stats.transitions,
        quiescent=result.stats.quiescent_states,
        non_quiescible=result.non_quiescible,
        violation_keys=viol_hashes,
        canonical_violation=canonical,
        cx_len=cx_len,
        cx_replays=cx_replays,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------

#: one divergence: (field, baseline value, other value)
Divergence = Tuple[str, object, object]


#: the cross-level contract: all a reduced and an unreduced run of the
#: same protocol promise each other.  Counts are out (the quotient is
#: smaller by design), the violation-key *set* is out (the quotient
#: search reaches one concrete representative per violating orbit, not
#: every member) — but the verdict, the canonically reported violating
#: state and counterexample replay validity carry across levels.
CROSS_REDUCE_FIELDS = frozenset(
    {"verdict", "cx_replays", "canonical_violation"}
)

#: the cross-POR contract: what two runs at different POR levels — or
#: two ``--por on`` runs under different frontier strategies — promise
#: each other.  Strictly weaker than
#: :data:`CROSS_REDUCE_FIELDS`: counts are out (the ample search is
#: smaller by design), and so is the canonical violation — ample sets
#: defer *invisible* actions, so the reduced search may first reject
#: in a state whose protocol component differs from any the full
#: search flags (same observer evidence, different concrete key).
#: What survives any sound POR configuration is the verdict and the
#: replay validity of whatever counterexample it produced.
CROSS_POR_FIELDS = frozenset({"verdict", "cx_replays"})


def compare_fingerprints(
    base: SearchFingerprint, other: SearchFingerprint
) -> List[Divergence]:
    """Fields on which ``other`` breaks the contract against ``base``.

    Only fields *both* configurations promise (the intersection of
    their :meth:`~SearchFingerprint.comparable` sets) are diffed — a
    stop-on-first run is not held to an exhaustive run's counts.
    Fingerprints taken at different symmetry-reduction levels are
    further restricted to :data:`CROSS_REDUCE_FIELDS`: a quotient
    search must reach the same verdict through the same canonical
    violation, while exploring *fewer* states — so its counts are
    required to differ, not to agree.  Fingerprints taken at different
    POR levels — or both at ``--por on`` but under different frontier
    strategies, where the C3 proviso's dependence on
    interning order makes the explored subset configuration-specific —
    are restricted to :data:`CROSS_POR_FIELDS`.
    """
    if base.model != other.model or base.preemptions != other.preemptions:
        raise ValueError(
            f"fingerprints check different conditions "
            f"({base.label} vs {other.label}); different models are "
            f"related by assert_model_lattice, bounded and unbounded "
            f"runs by assert_preemption_refinement — neither is a "
            f"field-equality contract"
        )
    a, b = base.comparable(), other.comparable()
    names = set(a) & set(b)
    if base.reduce != other.reduce:
        names &= CROSS_REDUCE_FIELDS
    if base.por != other.por or (
        base.por != "off" and base.strategy != other.strategy
    ):
        names &= CROSS_POR_FIELDS
    return [(name, a[name], b[name]) for name in sorted(names) if a[name] != b[name]]


def _show(field: str, av, bv) -> str:
    if field == "violation_keys":
        only_a = sorted(av - bv)[:5]
        only_b = sorted(bv - av)[:5]
        return (
            f"  violation_keys: {len(av)} vs {len(bv)} keys; "
            f"only-baseline {only_a}{'...' if len(av - bv) > 5 else ''}, "
            f"only-other {only_b}{'...' if len(bv - av) > 5 else ''}"
        )
    return f"  {field}: {av!r} vs {bv!r}"


def divergence_report(
    base: SearchFingerprint, others: Sequence[SearchFingerprint]
) -> str:
    """A minimized human-readable report: only the configurations that
    diverge, and only the fields on which they do."""
    lines = [f"baseline: {base.label}"]
    clean = True
    for fp in others:
        diffs = compare_fingerprints(base, fp)
        if not diffs:
            continue
        clean = False
        lines.append(f"DIVERGES: {fp.label}")
        lines.extend(_show(field, av, bv) for field, av, bv in diffs)
    if clean:
        lines.append("all configurations agree")
    return "\n".join(lines)


def assert_equivalent(
    base: SearchFingerprint, others: Sequence[SearchFingerprint]
) -> None:
    """Raise :class:`AssertionError` carrying the divergence report if
    any configuration disagrees with the baseline."""
    if any(compare_fingerprints(base, fp) for fp in others):
        raise AssertionError(
            "engine configurations diverged\n" + divergence_report(base, others)
        )


# ----------------------------------------------------------------------
# cross-model contracts
# ----------------------------------------------------------------------


def assert_model_lattice(
    stronger: SearchFingerprint, weaker: SearchFingerprint
) -> None:
    """Enforce the model-lattice implication between two fingerprints
    of the *same protocol* under a stronger and a strictly weaker
    consistency model (e.g. SC and causal).

    The contract (both directions of one implication):

    * ``stronger`` verified ⇒ ``weaker`` verified — every trace the
      stronger model accepts, the weaker accepts too, so no run of a
      stronger-verified protocol can violate the weaker model;
    * contrapositively, a ``weaker`` violation ⇒ a ``stronger``
      violation — and the weaker model's counterexample must replay
      (``cx_replays``), so the evidence is concrete, not an artifact
      of its observer.

    Nothing else is promised: state counts, violation keys and even
    the violation/verified split in the *other* direction (a
    stronger-model violation with a weaker-model pass is the
    interesting separation case — e.g. the store buffer under SC vs
    causal) legitimately differ.
    """
    if stronger.protocol != weaker.protocol:
        raise ValueError(
            f"lattice contract needs one protocol, got "
            f"{stronger.protocol!r} vs {weaker.protocol!r}"
        )
    if stronger.model == weaker.model:
        raise ValueError(
            "lattice contract relates two different models; same-model "
            "fingerprints are compared with assert_equivalent"
        )
    if stronger.verdict == "verified" and weaker.verdict != "verified":
        raise AssertionError(
            f"model lattice broken: {stronger.label} verified but "
            f"{weaker.label} reports {weaker.verdict} — a "
            f"{weaker.model} violation on a {stronger.model}-verified "
            f"protocol is impossible if {weaker.model} is weaker"
        )
    if weaker.verdict == "violation" and stronger.verdict != "violation":
        raise AssertionError(
            f"model lattice broken: {weaker.label} found a violation "
            f"but {stronger.label} reports {stronger.verdict}"
        )
    if weaker.cx_replays is False:
        raise AssertionError(
            f"{weaker.label}: counterexample does not replay as a "
            f"{weaker.model} violation"
        )


def assert_preemption_refinement(
    bounded: SearchFingerprint, full: SearchFingerprint
) -> None:
    """Enforce the under-approximation contract between a bounded-
    preemption fingerprint and the unbounded fingerprint of the same
    protocol.

    * a bounded **violation is real**: it must replay as a violation
      under full SC on the unwrapped protocol (``cx_replays`` — the
      fingerprint replays exactly that way), and the unbounded search
      must, of course, also report a violation;
    * a bounded **pass proves nothing** — no implication is checked in
      that direction;
    * on exhaustive runs the bound must **pay for itself**: strictly
      fewer explored states than the unbounded exhaustive search
      (pruning runs can only shrink the reachable joint space; the
      wrapper's context bookkeeping splits states, which is why the
      claim holds for exhaustive counts, not stop-on-first ones).
    """
    if bounded.protocol != full.protocol:
        raise ValueError(
            f"refinement contract needs one protocol, got "
            f"{bounded.protocol!r} vs {full.protocol!r}"
        )
    if bounded.preemptions is None or full.preemptions is not None:
        raise ValueError(
            "refinement contract relates a bounded fingerprint "
            "(preemptions=K) to an unbounded one (preemptions=None)"
        )
    if bounded.verdict == "violation":
        if bounded.cx_replays is False:
            raise AssertionError(
                f"{bounded.label}: bounded counterexample does not "
                f"replay as a full-search violation"
            )
        if full.verdict != "violation":
            raise AssertionError(
                f"refinement broken: {bounded.label} found a violation "
                f"but {full.label} reports {full.verdict} — the bound "
                f"only removes runs, so every bounded violation exists "
                f"unbounded"
            )
    if bounded.exhaustive and full.exhaustive and not (
        bounded.states < full.states
    ):
        raise AssertionError(
            f"preemption bound did not pay for itself: "
            f"{bounded.states} bounded states vs {full.states} "
            f"unbounded ({bounded.label})"
        )
