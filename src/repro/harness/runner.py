"""The budgeted, resumable verification runner.

:func:`run_verification` is the robust counterpart of
:func:`repro.core.verify.verify_protocol`: same verdict object, but
the search runs under a :class:`~repro.harness.budget.Budget`, writes
a :class:`~repro.harness.checkpoint.Checkpoint` when truncated, and
can resume one written earlier — so a run that outgrows any fixed cap
is continued, not redone.

Two robustness layers wrap the search (docs/ROBUSTNESS.md):

* **signals** — while the search runs, SIGTERM/SIGINT are converted
  into a cooperative stop (the same mechanism budget exhaustion uses),
  so preemption or Ctrl-C writes a final checkpoint and exits cleanly
  through the documented truncation path instead of dying mid-write;
* **checkpoint fallback** — resume loads through
  :meth:`~repro.harness.checkpoint.Checkpoint.load_or_backup`, so a
  corrupt latest checkpoint falls back to the rotated previous-good
  file (surfaced as a ``recovered`` trace event) instead of exiting 2.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Optional, Union

from ..core.protocol import Protocol
from ..core.storder import STOrderGenerator
from ..core.verify import VerificationResult, result_from_product
from ..modelcheck.product import ProductSearch
from ..obs.ledger import RunLedger, search_provenance
from .budget import Budget
from .checkpoint import Checkpoint, CheckpointError

__all__ = ["run_verification", "SIGNAL_STOP_PREFIX"]

#: ``stats.stop_reason`` prefix for signal-initiated stops (the suffix
#: is the signal name, e.g. ``signal:SIGTERM``)
SIGNAL_STOP_PREFIX = "signal:"


class _SignalStop:
    """A cooperative stop hook armed by SIGTERM/SIGINT.

    Wraps the budget's ``should_stop`` hook (or stands alone when
    there is no budget): the handler only records the signal — all
    real work happens at the next state poll, on the
    main thread, where the search pauses through its normal truncation
    path and the runner writes the final checkpoint.  A second signal
    restores the default disposition and re-raises itself, so an
    operator who really means it can still kill a wedged run.

    Installed only from the main thread (``signal.signal`` requires
    it); anywhere else — helper threads, embedded interpreters — the
    hook degrades to a transparent pass-through.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.signum: Optional[int] = None
        self._previous: dict = {}

    def install(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass

    def restore(self) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass
        self._previous.clear()

    def _handle(self, signum, frame) -> None:
        if self.signum is not None:
            # second signal: the operator is done waiting
            self.restore()
            signal.raise_signal(signum)
            return
        self.signum = signum

    def __call__(self, stats) -> Optional[str]:
        if self.signum is not None:
            return f"{SIGNAL_STOP_PREFIX}{signal.Signals(self.signum).name}"
        if self.inner is not None:
            return self.inner(stats)
        return None


def _flags(values, fields) -> str:
    """``--reduce full, --por on`` for ``fields`` of a provenance-like
    mapping (``no --preemptions`` for an unset bound)."""
    return ", ".join(
        f"--{f} {values[f]}" if values[f] is not None else f"no --{f}" for f in fields
    )


def run_verification(
    protocol: Optional[Protocol] = None,
    st_order: Optional[STOrderGenerator] = None,
    **kwargs,
) -> VerificationResult:
    """Model-check ``protocol`` under a budget — see
    :func:`_run_verification` for the full parameter contract (this
    wrapper shares its signature and docstring).  The wrapper exists
    for the flight recorder: any exception escaping the run —
    ``CheckpointError``, a store error, a bug — dumps the telemetry
    flight ring (``telemetry.flight``) before propagating, so the last
    events before the failure survive for forensics."""
    telemetry = kwargs.get("telemetry")
    flight = telemetry.flight if telemetry is not None else None
    try:
        return _run_verification(protocol, st_order, **kwargs)
    except BaseException as exc:
        if flight is not None and flight.dumped is None:
            flight.dump(reason=f"exception:{type(exc).__name__}")
        raise


def _run_verification(
    protocol: Optional[Protocol] = None,
    st_order: Optional[STOrderGenerator] = None,
    *,
    mode: str = "fast",
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    budget: Optional[Budget] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    strategy: str = "bfs",
    seed: int = 0,
    reduce: Optional[str] = None,
    model: Optional[str] = None,
    preemptions: Optional[int] = None,
    por: Optional[str] = None,
    store=None,
    telemetry=None,
    ledger: Optional[Union[str, RunLedger]] = None,
) -> VerificationResult:
    """Model-check ``protocol`` under a budget, checkpointing on
    truncation.

    Exactly one of ``protocol`` or ``resume_from`` must be given: with
    ``resume_from``, the search (protocol, generator, mode, caps and
    frontier strategy included) is restored from the checkpoint file
    and continued under the new budget.  When the budget stops the
    search and ``checkpoint_path`` is set, the paused search is written
    there (atomically; resuming and re-truncating overwrites it, so a
    single path ratchets through arbitrarily many budget increments).
    A damaged checkpoint file falls back to its rotated ``.bak``
    automatically; SIGTERM/SIGINT mid-run stop the search
    cooperatively and write the final checkpoint before returning.

    ``strategy``/``seed`` pick the frontier policy (see
    :mod:`repro.engine.strategy`); BFS is the default and the only one
    that yields shortest counterexamples.

    ``reduce``, ``model``, ``preemptions`` and ``por`` select the
    symmetry-reduction level, the consistency condition, the optional
    context-switch bound and the partial-order-reduction level
    (``None`` means: ``"off"`` / ``"sc"`` / unbounded / ``"off"`` for
    a fresh search, whatever the checkpoint used for a resumed one).
    They are search state: the interned store holds quotient keys of
    the reduction level's group, joint states embedding the model's
    observer and checker, exactly the runs the bound admits and
    exactly the states the ample sets explored.  An explicit value on
    resume that differs from the checkpoint's provenance raises
    :class:`CheckpointError` (CLI exit code 2; see ``repro verify
    --help`` for the exit-code contract).

    ``store`` selects the state-store backend (a kind string or a
    :class:`~repro.engine.intern.StoreConfig`; ``None`` means: ``mem``
    for a fresh search, whatever the checkpoint used for a resumed
    one).  It is run policy, not search state: resume re-interns the
    checkpointed keys into the requested backend with every ID
    preserved, so a search checkpointed under ``mem`` can continue
    spilling to disk and vice versa.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, optional) records
    run traces, metrics and live progress — including a
    ``checkpoint_saved`` event when truncation writes one, and a
    ``recovered`` event when resume had to fall back to the ``.bak``
    checkpoint.  Its ``run_start`` event carries the search provenance
    — the checkpoint's on resume.  It is never stored on the search
    (see ``docs/OBSERVABILITY.md``).  When
    it carries a flight recorder, the ring is dumped on a violation or
    a signal stop (exceptions are dumped by the public wrapper).

    ``ledger`` (a :class:`repro.obs.ledger.RunLedger` or a path)
    appends every *completed* run — final verdict, neither
    budget-stopped nor cap-truncated — to the append-only run ledger,
    keyed by the content hash of the search provenance; the result's
    ``ledger_hash`` / ``ledger_prior`` fields report the hash and how
    many identical runs were already recorded (the dedup signal).
    """
    used_backup: Optional[str] = None
    if resume_from is not None:
        if protocol is not None:
            raise ValueError("pass either a protocol or resume_from, not both")
        cp, used_backup = Checkpoint.load_or_backup(resume_from)
        asked = {"reduce": reduce, "model": model, "preemptions": preemptions, "por": por}
        clash = [f for f, v in asked.items() if v is not None and v != cp.provenance[f]]
        if clash:
            raise CheckpointError(
                f"checkpoint {resume_from!r} was written with "
                f"{_flags(cp.provenance, clash)}; its interned states are "
                f"keyed, explored and checked under those settings, so it "
                f"cannot be resumed with {_flags(asked, clash)}. Resume "
                f"with the checkpointed values (or omit the flags), or "
                f"restart the verification from scratch. (Exit code 2 — "
                f"usage error; see `repro verify --help`.)"
            )
        search = cp.resume(store)
        spent = cp.elapsed_s
    else:
        if protocol is None:
            raise ValueError("a protocol (or resume_from) is required")
        search = ProductSearch(
            protocol,
            st_order,
            mode=mode,
            max_states=max_states,
            max_depth=max_depth,
            strategy=strategy,
            seed=seed,
            reduce="off" if reduce is None else reduce,
            model="sc" if model is None else model,
            preemptions=preemptions,
            por="off" if por is None else por,
            store=store,
        )
        spent = 0.0

    provenance = search_provenance(search)
    if telemetry is not None:
        telemetry.start_run(
            **{k: v for k, v in provenance.items() if v is not None},
            resumed=resume_from is not None,
        )
        if used_backup is not None:
            telemetry.emit("recovered", kind="checkpoint-bak", path=used_backup)
        if telemetry.progress is not None and budget is not None:
            telemetry.progress.budget = budget

    sig = _SignalStop(budget.should_stop if budget is not None else None)
    sig.install()
    leg_t0 = time.perf_counter()
    try:
        if budget is not None:
            budget.start()
            try:
                res = search.run(sig, telemetry)
            finally:
                budget.stop()
            spent += budget.elapsed_s()
        else:
            res = search.run(sig, telemetry)
            spent += time.perf_counter() - leg_t0
    finally:
        sig.restore()

    if res.stats.stop_reason is not None and checkpoint_path is not None:
        Checkpoint.of(search, elapsed_s=spent).save(checkpoint_path)
        if telemetry is not None:
            telemetry.emit(
                "checkpoint_saved",
                path=checkpoint_path,
                states=res.stats.states,
                elapsed_s=round(spent, 6),
            )
    result = result_from_product(search.protocol, res, model=search.model_name)
    if search.preemptions is not None and result.counterexample is None:
        result.complete = False
        result.confidence = f"bounded(preemptions<={search.preemptions})"
    if telemetry is not None:
        telemetry.finish_run(
            verdict=result.verdict,
            states=res.stats.states,
            stats=res.stats.as_dict(),
        )
    if telemetry is not None and telemetry.flight is not None:
        # forensic dump triggers that end the run without an exception;
        # dumped after finish_run so the ring's tail carries run_end
        stop_reason = res.stats.stop_reason
        if result.counterexample is not None:
            telemetry.flight.dump(reason="violation")
        elif stop_reason is not None and stop_reason.startswith(SIGNAL_STOP_PREFIX):
            telemetry.flight.dump(reason=stop_reason)
    if ledger is not None and res.stats.stop_reason is None and not res.stats.truncated:
        # only completed searches enter the ledger: a budget-stopped or
        # cap-truncated leg has no final verdict and its counts depend
        # on the caps, which are run policy and outside the hash
        if isinstance(ledger, (str,)):
            ledger = RunLedger(ledger)
        prior = len(ledger.lookup(provenance))
        entry = ledger.record(
            provenance=provenance,
            verdict=result.verdict,
            states=res.stats.states,
            elapsed_s=round(spent, 6),
            gauges={
                "search.states": res.stats.states,
                "search.transitions": res.stats.transitions,
                "search.quiescent": res.stats.quiescent_states,
                "search.interned": res.stats.interned_states,
            },
            snapshot=(
                telemetry.registry.snapshot().as_dict()
                if telemetry is not None and telemetry.registry is not None
                else None
            ),
            trace=(
                telemetry.trace.path
                if telemetry is not None and telemetry.trace is not None
                else None
            ),
        )
        result.ledger_hash = entry.hash
        result.ledger_prior = prior
    return result
