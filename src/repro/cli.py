"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``verify``   model-check one protocol (the Figure 2 pipeline)
``zoo``      verdict table for the whole protocol zoo
``litmus``   run a litmus program against the reference models and,
             optionally, a protocol
``fuzz``     randomised per-run testing (the Section 5 scenario)
``bounds``   Section 4.4 size-bound table for given parameters
``report``   condensed re-run of every experiment, as markdown — or,
             given a trace/--ledger/--bench, a self-contained run
             report / trend document (markdown or HTML)
``runs``     list, filter, show and gc the run ledger (--ledger)
``descriptor`` check a descriptor string (paper syntax) for acyclic
             constraint-graph-ness
``check-run`` judge a recorded protocol run from a log file (§5)
``fault-matrix`` verify every (protocol × injected fault) pair and
             check the checker catches what it must (docs/ROBUSTNESS.md)
``metrics``  summarise a run's trace/metrics snapshot, diff two, append
             a normalized benchmark entry, or gate on a states/sec
             regression (docs/OBSERVABILITY.md)

Protocols are addressed by name (see ``PROTOCOLS``); each entry knows
its default ST-order generator, so ``python -m repro verify lazy``
just works.

Exit codes: 0 success / verdict met, 1 an SC violation (or unmet
fault-matrix expectation) was found, 2 usage or input-parse errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from .core.bounds import bounds_for
from .core.storder import STOrderGenerator
from .core.verify import verify_protocol
from .engine.por import POR_LEVELS
from .engine.reduction import REDUCE_LEVELS
from .engine.strategy import STRATEGIES
from .litmus import (
    CORPUS,
    classify_outcomes,
    fuzz_protocol,
    outcomes_on_protocol,
    outcomes_sc,
)
from .memory import (
    BuggyMSINoWritebackProtocol,
    BuggyMSIProtocol,
    BuggyMSIStaleSharedProtocol,
    DirectoryProtocol,
    DragonProtocol,
    FencedStoreBufferProtocol,
    LazyCachingProtocol,
    MESIProtocol,
    MOESIProtocol,
    MSIProtocol,
    SerialMemory,
    StoreBufferProtocol,
    WriteThroughProtocol,
    lazy_caching_st_order,
    store_buffer_st_order,
)
from .models import MODELS
from .obs.flight import DEFAULT_FLIGHT_CAPACITY
from .obs.ledger import DEFAULT_LEDGER_PATH
from .util import format_table

__all__ = ["main", "PROTOCOLS", "NON_SC_PROTOCOLS"]

#: name -> (constructor, default generator factory or None, default p/b/v)
PROTOCOLS: Dict[str, Tuple[Callable, Optional[Callable[[], STOrderGenerator]], Tuple[int, int, int]]] = {
    "serial": (SerialMemory, None, (2, 1, 2)),
    "msi": (MSIProtocol, None, (2, 1, 2)),
    "mesi": (MESIProtocol, None, (2, 1, 2)),
    "moesi": (MOESIProtocol, None, (2, 1, 1)),
    "dragon": (DragonProtocol, None, (2, 1, 1)),
    "write-through": (WriteThroughProtocol, None, (2, 1, 2)),
    "fenced-sb": (FencedStoreBufferProtocol, store_buffer_st_order, (2, 1, 1)),
    "directory": (DirectoryProtocol, None, (2, 1, 1)),
    "lazy": (LazyCachingProtocol, lazy_caching_st_order, (2, 1, 1)),
    "storebuffer": (StoreBufferProtocol, store_buffer_st_order, (2, 2, 1)),
    "buggy-msi": (BuggyMSIProtocol, None, (2, 1, 1)),
    "buggy-msi-nowb": (BuggyMSINoWritebackProtocol, None, (2, 1, 1)),
    "buggy-msi-stale-s": (BuggyMSIStaleSharedProtocol, None, (2, 2, 1)),
}

#: registry names whose (unmodified) protocol is expected non-SC
NON_SC_PROTOCOLS = frozenset(
    {"storebuffer", "buggy-msi", "buggy-msi-nowb", "buggy-msi-stale-s"}
)


def _make_protocol(args) -> Tuple[object, Optional[STOrderGenerator]]:
    ctor, gen_factory, (dp, db, dv) = PROTOCOLS[args.protocol]
    proto = ctor(
        p=args.p if args.p is not None else dp,
        b=args.b if args.b is not None else db,
        v=args.v if args.v is not None else dv,
    )
    gen = gen_factory() if gen_factory is not None else None
    if getattr(args, "real_time_order", False):
        gen = None
    return proto, gen


def _add_protocol_args(sub, with_params: bool = True) -> None:
    sub.add_argument("protocol", choices=sorted(PROTOCOLS))
    if with_params:
        sub.add_argument("--p", type=int, default=None, help="processors")
        sub.add_argument("--b", type=int, default=None, help="blocks")
        sub.add_argument("--v", type=int, default=None, help="values")


def _add_telemetry_args(sub) -> None:
    sub.add_argument("--trace-log", metavar="PATH", default=None,
                     help="write a structured JSONL run trace here "
                          "(inspect with 'repro metrics PATH')")
    sub.add_argument("--progress", nargs="?", const=2.0, type=float,
                     default=None, metavar="SECONDS",
                     help="print a live progress heartbeat (states/sec, "
                          "frontier, budget burn) to stderr, at most every "
                          "SECONDS (default 2)")
    sub.add_argument("--flight", nargs="?", const=DEFAULT_FLIGHT_CAPACITY,
                     type=int, default=None, metavar="N",
                     help="keep a bounded in-memory ring of the last N trace "
                          f"events (default {DEFAULT_FLIGHT_CAPACITY}) even "
                          "without --trace-log; dumped as schema-valid JSONL "
                          "on a violation, crash or signal stop "
                          "(<trace>.flight.jsonl — readable by 'repro "
                          "metrics' and 'repro report')")


def _telemetry_from_args(args):
    """Build a :class:`repro.obs.Telemetry` from the CLI flags, or
    ``None`` when every telemetry flag is off (the zero-cost default:
    no telemetry object means no telemetry call anywhere)."""
    profile = getattr(args, "profile", False)
    trace_log = getattr(args, "trace_log", None)
    progress = getattr(args, "progress", None)
    flight_n = getattr(args, "flight", None)
    ledger = getattr(args, "ledger", None)
    if (
        not profile
        and trace_log is None
        and progress is None
        and flight_n is None
        and ledger is None
    ):
        return None
    from .obs import (
        FlightRecorder,
        MetricsRegistry,
        ProgressReporter,
        Telemetry,
        TraceWriter,
    )

    # --ledger rides along so the recorded entry carries a full metrics
    # snapshot (span tree included), not just the deterministic gauges
    registry = (
        MetricsRegistry()
        if (profile or trace_log is not None or ledger is not None)
        else None
    )
    trace = TraceWriter.open(trace_log) if trace_log is not None else None
    reporter = ProgressReporter(interval=progress) if progress is not None else None
    flight = None
    if flight_n is not None:
        base = (
            trace_log
            if trace_log is not None
            else f"repro-{getattr(args, 'protocol', None) or 'run'}"
        )
        try:
            flight = FlightRecorder(flight_n, path=f"{base}.flight.jsonl")
        except ValueError as exc:
            print(f"error: {exc}")
            raise SystemExit(2)
    return Telemetry(registry, trace, reporter, flight=flight)


def cmd_verify(args) -> int:
    telemetry = _telemetry_from_args(args)
    try:
        code = _cmd_verify(args, telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
            flight = telemetry.flight
            if flight is not None and flight.dumped is not None:
                dest, reason, n = flight.dumped
                print(
                    f"flight recorder: {n} event(s) dumped to {dest} ({reason})",
                    file=sys.stderr,
                )
    if args.profile and telemetry is not None and telemetry.registry is not None:
        # the span tree replaces the old cProfile dump: the phase.search /
        # phase.replay roots with whatever the engines nested under them
        print()
        print(
            telemetry.registry.snapshot().format(
                title="Profile (span tree)", span_tree=True
            )
        )
    return code


def _cmd_verify(args, telemetry=None) -> int:
    from .engine.intern import StoreConfig, StoreError
    from .engine.por import PorError
    from .engine.reduction import ReductionError
    from .harness import Budget, CheckpointError, degrade, run_verification
    from .models import ModelError

    store = None
    if args.store_budget_mb is not None or args.store_dir is not None:
        if args.store != "disk":
            print(
                "error: --store-budget-mb/--store-dir tune the disk "
                "backend; add --store disk"
            )
            return 2
    if args.store is not None:
        store = StoreConfig(
            kind=args.store,
            budget_mb=args.store_budget_mb,
            dir=args.store_dir,
        )

    budget = None
    if (
        args.budget_s is not None
        or args.budget_states is not None
        or args.budget_mb is not None
    ):
        budget = Budget(
            wall_s=args.budget_s, states=args.budget_states, memory_mb=args.budget_mb
        )

    t0 = time.perf_counter()
    try:
        if args.resume is not None:
            if args.protocol is not None:
                print(
                    "error: --resume restores protocol and parameters from the "
                    "checkpoint; drop the protocol argument"
                )
                return 2
            res = run_verification(
                budget=budget,
                checkpoint_path=args.checkpoint or args.resume,
                resume_from=args.resume,
                ledger=args.ledger,
                reduce=args.reduce,
                model=args.model,
                preemptions=args.preemptions,
                por=args.por,
                store=store,
                telemetry=telemetry,
            )
        else:
            if args.protocol is None:
                print("error: a protocol name (or --resume FILE) is required")
                return 2
            proto, gen = _make_protocol(args)
            if args.degrade:
                if budget is None or budget.wall_s is None:
                    print("error: --degrade needs a wall-clock budget (--budget-s)")
                    return 2
                if (args.model or "sc") != "sc" or args.preemptions is not None:
                    print(
                        "error: --degrade's litmus/fuzz fallbacks check SC "
                        "only; drop --model/--preemptions"
                    )
                    return 2
                if telemetry is not None:
                    telemetry.start_run(
                        protocol=proto.describe(), mode=args.mode,
                        degrade=True,
                    )
                    if telemetry.progress is not None:
                        telemetry.progress.budget = budget
                res = degrade(
                    proto, gen, budget=budget, mode=args.mode, store=store,
                    telemetry=telemetry,
                )
                if telemetry is not None:
                    telemetry.finish_run(
                        verdict=res.verdict,
                        states=res.stats.states,
                        confidence=res.confidence,
                    )
            else:
                res = run_verification(
                    proto,
                    gen,
                    mode=args.mode,
                    max_states=args.max_states,
                    max_depth=args.max_depth,
                    budget=budget,
                    checkpoint_path=args.checkpoint,
                    strategy=args.strategy,
                    seed=args.seed,
                    reduce=args.reduce,
                    model=args.model,
                    preemptions=args.preemptions,
                    por=args.por,
                    store=store,
                    telemetry=telemetry,
                    ledger=args.ledger,
                )
    except (CheckpointError, PorError, ReductionError, ModelError,
            StoreError) as exc:
        print(f"error: {exc}")
        return 2
    dt = time.perf_counter() - t0
    print(res.summary())
    print(f"elapsed: {dt:.2f}s")
    if getattr(res, "ledger_hash", None) is not None:
        dedup = (
            f"hit — {res.ledger_prior} prior identical run(s)"
            if res.ledger_prior
            else "new search"
        )
        print(f"ledger: {res.ledger_hash[:12]} ({dedup}) -> {args.ledger}")
    elif args.ledger is not None and not args.degrade:
        print("ledger: not recorded (run was stopped or truncated)")
    if res.stats is not None and res.stats.stop_reason is not None:
        where = args.checkpoint or args.resume
        if where:
            print(f"checkpoint written: {where} (resume with --resume {where})")
    if res.counterexample is not None:
        print()
        print(res.counterexample.pretty())
    return 0 if res.sequentially_consistent else 1


def cmd_zoo(args) -> int:
    rows = []
    worst = 0
    for name in sorted(PROTOCOLS):
        ctor, gen_factory, (dp, db, dv) = PROTOCOLS[name]
        proto = ctor(p=dp, b=db, v=dv)
        gen = gen_factory() if gen_factory else None
        t0 = time.perf_counter()
        res = verify_protocol(proto, gen, max_states=args.max_states)
        dt = time.perf_counter() - t0
        rows.append(
            (
                name,
                f"{proto.p}/{proto.b}/{proto.v}",
                "SC" if res.sequentially_consistent else "VIOLATION",
                res.stats.states,
                res.stats.max_live_nodes,
                f"{dt:.2f}s",
            )
        )
        worst += 0 if res.sequentially_consistent == (name not in NON_SC_PROTOCOLS) else 1
    print(
        format_table(
            ["protocol", "p/b/v", "verdict", "joint states", "max live", "time"],
            rows,
            title="Protocol zoo",
        )
    )
    if worst:
        print(f"{worst} unexpected verdict(s)")
    return 0 if worst == 0 else 1


def cmd_litmus(args) -> int:
    programs = {p.name.lower(): p for p in CORPUS}
    prog = programs[args.test.lower()]
    tags = classify_outcomes(prog)
    rows = [
        (" ".join(f"{r}={v}" for r, v in o), tag) for o, tag in sorted(tags.items())
    ]
    print(format_table(["outcome", "strongest model"], rows, title=f"{prog.name}: {prog.description}"))
    if args.on is not None:
        ctor, _gen, (dp, db, dv) = PROTOCOLS[args.on]
        proto = ctor(
            p=max(dp, prog.num_procs),
            b=max(db, max(prog.blocks)),
            v=max(dv, prog.max_value),
        )
        got = outcomes_on_protocol(proto, prog)
        sc = outcomes_sc(prog)
        rows = [
            (
                " ".join(f"{r}={v}" for r, v in o),
                "yes" if o in sc else "no",
                "yes" if o in got else "no",
            )
            for o in sorted(got | sc)
        ]
        print()
        print(format_table(["outcome", "SC allows", f"{args.on} produces"], rows))
        return 0 if got <= sc else 1
    return 0


def cmd_fuzz(args) -> int:
    proto, gen = _make_protocol(args)
    report = fuzz_protocol(
        proto,
        runs=args.runs,
        length=args.length,
        seed=args.seed,
        st_order=gen,
        cross_check_max_ops=args.cross_check,
    )
    print(report.summary())
    if report.violations:
        run, reason = report.violations[0]
        print(f"\nfirst violation ({reason}):")
        for a in run:
            print(f"  {a!r}")
    return 0 if report.ok else 1


def cmd_descriptor(args) -> int:
    import sys as _sys

    from .core.checker import Checker
    from .core.cycle_checker import CycleChecker
    from .core.descriptor import NodeSym, parse_descriptor
    from .core.operations import parse_operation

    text = args.text if args.text is not None else _sys.stdin.read()
    try:
        symbols = parse_descriptor(text)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    # node labels come back as strings; lift them to operations so the
    # full annotation checker can judge the graph
    lifted = []
    labelled = True
    for s_ in symbols:
        if isinstance(s_, NodeSym) and s_.label is not None:
            try:
                s_ = NodeSym(s_.id, parse_operation(str(s_.label)))
            except ValueError:
                labelled = False
        lifted.append(s_)
    cyc = CycleChecker()
    cyc.feed_all(lifted)
    print(f"symbols: {len(lifted)}")
    print(f"cycle checker: {'ACCEPTS (acyclic)' if cyc.accepts else 'REJECTS (cycle)'}")
    if labelled:
        chk = Checker()
        chk.feed_all(lifted)
        bad = chk.violations()
        print(
            "constraint-graph checker: "
            + ("ACCEPTS" if not bad else f"REJECTS — {bad[0]}")
        )
        return 0 if not bad else 1
    print("constraint-graph checker: skipped (non-operation node labels)")
    return 0 if cyc.accepts else 1


def cmd_check_run(args) -> int:
    import sys as _sys

    from .tracefile import check_run_file

    text = open(args.file).read() if args.file != "-" else _sys.stdin.read()
    try:
        verdict = check_run_file(text)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(verdict.verdict)
    return 0 if verdict.ok else 1


def cmd_report(args) -> int:
    if args.trace is None and args.ledger is None and args.bench is None:
        # legacy behaviour: condensed re-run of every experiment
        from .report import generate_report

        text = generate_report()
        print(text)
        return 0 if "MISMATCH" not in text else 1

    from .obs import TraceError
    from .obs.ledger import LedgerError, RunLedger
    from .obs.report import render_report

    try:
        entries = RunLedger(args.ledger).entries() if args.ledger is not None else None
        text = render_report(
            trace_path=args.trace,
            ledger_entries=entries,
            bench_path=args.bench,
            fmt=args.format,
        )
    except (TraceError, LedgerError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    except OSError as exc:
        print(f"error: {exc}")
        return 2
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written: {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_runs(args) -> int:
    import json as _json

    from .obs.ledger import LedgerError, RunLedger, group_by_hash

    ledger = RunLedger(args.ledger)
    try:
        if args.gc:
            dropped = ledger.gc(keep=args.keep)
            kept = len(ledger.entries())
            print(
                f"gc: dropped {dropped} entr{'y' if dropped == 1 else 'ies'}, "
                f"kept {kept} (newest {args.keep} per search hash)"
            )
            return 0
        entries = ledger.entries()
    except (LedgerError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    except OSError as exc:
        print(f"error: {exc}")
        return 2

    if args.show is not None:
        matches = [e for e in entries if e.hash.startswith(args.show)]
        if not matches:
            print(f"error: no ledger entry matches hash prefix {args.show!r}")
            return 2
        for e in matches:
            print(_json.dumps(e.as_dict(), indent=2, sort_keys=True, default=str))
        return 0

    if args.protocol is not None:
        entries = [
            e for e in entries
            if args.protocol in str(e.provenance.get("protocol", ""))
        ]
    if args.verdict is not None:
        entries = [e for e in entries if args.verdict.lower() in e.verdict.lower()]
    if args.hash_prefix is not None:
        entries = [e for e in entries if e.hash.startswith(args.hash_prefix)]

    if not entries:
        print(f"no matching runs in {args.ledger}")
        return 0
    rows = [
        (
            e.short_hash,
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(e.recorded_at)),
            str(e.provenance.get("protocol", "?")),
            e.verdict,
            e.states,
            f"{e.elapsed_s:.3g}s",
            e.trace or "-",
        )
        for e in entries
    ]
    print(
        format_table(
            ["hash", "recorded", "protocol", "verdict", "states", "elapsed", "trace"],
            rows,
            title=f"Run ledger: {args.ledger}",
        )
    )
    groups = group_by_hash(entries)
    dupes = sum(len(g) - 1 for g in groups.values())
    print(
        f"{len(entries)} run(s), {len(groups)} distinct search(es)"
        + (f", {dupes} duplicate run(s) — 'repro runs --gc' prunes them" if dupes else "")
    )
    return 0


def cmd_fault_matrix(args) -> int:
    from .faults import fault_matrix
    from .harness import Budget

    protocols = None
    if args.protocols:
        protocols = tuple(p.strip() for p in args.protocols.split(",") if p.strip())
        unknown = [p for p in protocols if p not in PROTOCOLS]
        if unknown:
            print(f"error: unknown protocol(s): {', '.join(unknown)}")
            return 2
    should_stop = None
    budget = None
    if args.budget_s is not None:
        budget = Budget(wall_s=args.budget_s).start()
        should_stop = budget.should_stop
    telemetry = _telemetry_from_args(args)
    if telemetry is not None and telemetry.progress is not None and budget is not None:
        telemetry.progress.budget = budget
    try:
        report = fault_matrix(
            protocols,
            mode=args.mode,
            max_states=args.max_states,
            should_stop=should_stop,
            seed=args.seed,
            include_baseline=not args.no_baseline,
            reduce=args.reduce,
            por=args.por,
            telemetry=telemetry,
        )
    finally:
        if budget is not None:
            budget.stop()
        if telemetry is not None:
            telemetry.close()
    print(report.summary())
    return 0 if report.ok else 1


def cmd_metrics(args) -> int:
    from .obs import TraceError
    from .obs.bench import (
        append_run_entry,
        check_states_per_sec,
        load_summary,
        normalized_entry,
    )

    def _load(path):
        try:
            return load_summary(path)
        except TraceError as exc:
            print(f"error: malformed trace {path!r}: {exc}")
            return None
        except OSError as exc:
            print(f"error: {exc}")
            return None

    summary = _load(args.file)
    if summary is None:
        return 2

    if args.file2 is not None:
        other = _load(args.file2)
        if other is None:
            return 2
        for path, s in ((args.file, summary), (args.file2, other)):
            if not s.has_snapshot:
                print(
                    f"error: {path!r} carries no metrics snapshot to diff — "
                    "re-run with --trace-log (the final 'metrics' event holds "
                    "the snapshot) or pass a snapshot JSON"
                )
                return 2
        diffs = summary.snapshot.diff(other.snapshot)
        if not diffs:
            print("no metric differences")
            return 0
        rows = [
            (name, "-" if a is None else _fmt_metric(a),
             "-" if b is None else _fmt_metric(b))
            for name, a, b in diffs
        ]
        print(format_table(
            ["metric", args.file, args.file2], rows, title="Metrics diff"
        ))
        return 0

    print(summary.format())

    code = 0
    if args.record is not None:
        workload = args.workload or summary.protocol or "(unknown)"
        entry = normalized_entry(
            workload,
            summary.elapsed_s,
            summary.states,
            reduce=summary.reduce or "off",
            por=summary.por or "off",
        )
        append_run_entry(args.record, entry)
        print(f"\nrecorded run entry for {workload!r} in {args.record}")
    if args.check_bench is not None:
        if args.workload is None:
            print("error: --check-bench needs --workload NAME")
            return 2
        try:
            ok, message = check_states_per_sec(
                args.check_bench,
                args.workload,
                summary,
                max_regression=args.max_regression,
            )
        except TraceError as exc:
            print(f"error: {exc}")
            return 2
        print(f"\nbench check: {message}")
        if not ok:
            code = 1
    return code


def _fmt_metric(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.4f}"


def cmd_bounds(args) -> int:
    rows = []
    for name in sorted(PROTOCOLS):
        ctor, _g, (dp, db, dv) = PROTOCOLS[name]
        proto = ctor(
            p=args.p if args.p is not None else dp,
            b=args.b if args.b is not None else db,
            v=args.v if args.v is not None else dv,
        )
        bb = bounds_for(proto)
        rows.append(
            (name, f"{bb.p}/{bb.b}/{bb.v}", bb.L, bb.bandwidth, bb.state_bits, bb.state_bits_optimised)
        )
    print(
        format_table(
            ["protocol", "p/b/v", "L", "bandwidth L+pb", "state bits", "bits (opt.)"],
            rows,
            title="Section 4.4 observer size bounds",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Automatable verification of sequential consistency (Condon & Hu, SPAA 2001)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser(
        "verify",
        help="model-check one protocol",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes (the contract every caller — CI, harness, scripts — "
            "relies on):\n"
            "  0  the protocol verified sequentially consistent (or a bounded/\n"
            "     budgeted search finished without finding a violation)\n"
            "  1  a violation was found (counterexample printed), or the search\n"
            "     ended without the evidence its caller required\n"
            "  2  usage or input error: bad arguments, an unreadable or\n"
            "     incompatible checkpoint (wrong version, corrupt beyond the\n"
            "     .bak fallback, mismatched --reduce level, mismatched --model,\n"
            "     --preemptions or --por), a --reduce level the protocol\n"
            "     declares no symmetry for, an unsupported model combination\n"
            "     (--model causal with --mode full, --reduce or --por,\n"
            "     --preemptions with --model causal), --store-budget-mb/\n"
            "     --store-dir without --store disk, or a checkpoint that does\n"
            "     not rebuild (a rebuilt state key differs from the stored one)\n"
            "\n"
            "resume semantics: --reduce, --model, --preemptions and --por are\n"
            "search state (baked into the checkpoint's interned keys, run set\n"
            "and ample-set pruning; with --resume they are inherited from\n"
            "the checkpoint — one written under --por off can only\n"
            "resume as --por off — and an explicit mismatch exits 2), while\n"
            "--store is run policy: an explicit --store re-interns the\n"
            "checkpoint's keys into the requested backend, IDs preserved.\n"
            "\n"
            "SIGTERM/SIGINT during the search stop it cooperatively: the final\n"
            "checkpoint (with --checkpoint) is written and the run exits 0\n"
            "through the truncation path, resumable with --resume."
        ),
    )
    v.add_argument("protocol", nargs="?", choices=sorted(PROTOCOLS), default=None,
                   help="protocol name (omit when using --resume)")
    v.add_argument("--p", type=int, default=None, help="processors")
    v.add_argument("--b", type=int, default=None, help="blocks")
    v.add_argument("--v", type=int, default=None, help="values")
    v.add_argument("--mode", choices=["fast", "full"], default="fast")
    v.add_argument("--max-states", type=int, default=None)
    v.add_argument("--max-depth", type=int, default=None)
    v.add_argument(
        "--real-time-order",
        action="store_true",
        help="force the trivial real-time ST-order generator (e.g. to see lazy caching rejected)",
    )
    v.add_argument("--budget-s", type=float, default=None, metavar="S",
                   help="wall-clock budget in seconds")
    v.add_argument("--budget-states", type=int, default=None, metavar="N",
                   help="stop after exploring N joint states (resumable, unlike --max-states)")
    v.add_argument("--budget-mb", type=float, default=None, metavar="MB",
                   help="approximate memory budget (tracemalloc-sampled)")
    v.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="write a resumable checkpoint here if the budget stops the search")
    v.add_argument("--resume", metavar="FILE", default=None,
                   help="resume a checkpointed search (replaces the protocol argument)")
    v.add_argument("--degrade", action="store_true",
                   help="on budget exhaustion fall back to bounded search, litmus corpus "
                        "and fuzzing instead of stopping (needs --budget-s)")
    v.add_argument("--strategy", choices=list(STRATEGIES), default="bfs",
                   help="frontier expansion order (bfs gives shortest counterexamples; "
                        "random-walk probes deep under tight budgets)")
    v.add_argument("--seed", type=int, default=0,
                   help="random-walk frontier seed (ignored by bfs/dfs)")
    v.add_argument("--store", choices=["mem", "disk"], default=None,
                   help="state-store backend: mem keeps every interned key in "
                        "RAM (default), disk spills keys past the resident "
                        "budget to an append-only CRC-framed log with an "
                        "mmap'd hash index (see docs/ARCHITECTURE.md). Run "
                        "policy, not search state: verdicts, state counts and "
                        "fingerprints are bit-identical across backends, and "
                        "with --resume an explicit backend re-interns the "
                        "checkpointed keys")
    v.add_argument("--store-budget-mb", type=float, default=None, metavar="MB",
                   help="resident-key budget for --store disk: keys beyond "
                        "this many MB (pickled size) are evicted to the spill "
                        "log and re-read on demand")
    v.add_argument("--store-dir", metavar="DIR", default=None,
                   help="directory for --store disk spill files (default: a "
                        "fresh repro-store-* directory under the system temp "
                        "dir; removed at exit)")
    v.add_argument("--reduce", choices=list(REDUCE_LEVELS), default=None,
                   help="symmetry-reduction level: canonicalize states under "
                        "processor (proc), processor+block (proc+block) or "
                        "processor+block+value (full) permutations before "
                        "interning, shrinking the explored quotient space "
                        "with identical verdicts and concretely replayable "
                        "counterexamples (default off). Search state, not run "
                        "policy: with --resume the checkpointed level is "
                        "inherited and an explicit mismatch exits 2; ignored "
                        "by --degrade's fall-back phases")
    v.add_argument("--por", choices=list(POR_LEVELS), default=None,
                   help="partial-order reduction: expand only an ample subset "
                        "of each state's enabled actions where the protocol's "
                        "declared independence relation proves the deferred "
                        "ones commute invisibly, shrinking the explored space "
                        "with identical verdicts and concretely replayable "
                        "counterexamples (default off; protocols without a "
                        "POR declaration degrade to full expansion). Search "
                        "state like --reduce: with --resume the checkpointed "
                        "level is inherited and an explicit mismatch exits 2")
    v.add_argument("--model", choices=sorted(MODELS), default=None,
                   help="consistency model to check (default sc; see "
                        "docs/MODELS.md). Search state, not run policy: with "
                        "--resume the checkpointed model is inherited and an "
                        "explicit mismatch exits 2")
    v.add_argument("--preemptions", type=int, default=None, metavar="K",
                   help="restrict the search to runs with at most K context "
                        "switches (SC only) — an under-approximation: a "
                        "violation is real and replays on the full protocol, "
                        "a clean verdict is bounded confidence, never a "
                        "proof. Search state like --reduce/--model: inherited "
                        "on --resume, mismatch exits 2")
    v.add_argument("--profile", action="store_true",
                   help="time the pipeline phases through the telemetry span "
                        "system and print the hierarchical span tree "
                        "(total/self per span) afterwards")
    v.add_argument("--ledger", nargs="?", const=DEFAULT_LEDGER_PATH,
                   default=None, metavar="PATH",
                   help="record the completed run in this append-only run "
                        f"ledger (default {DEFAULT_LEDGER_PATH}), keyed by "
                        "the content hash of its search provenance (protocol/"
                        "mode/strategy/reduce/model/preemptions/por — the "
                        "store backend is run policy, excluded). Stopped "
                        "or truncated runs are not recorded. Inspect with "
                        "'repro runs'")
    _add_telemetry_args(v)
    v.set_defaults(func=cmd_verify)

    z = sub.add_parser("zoo", help="verify every protocol at default parameters")
    z.add_argument("--max-states", type=int, default=None)
    z.set_defaults(func=cmd_zoo)

    l = sub.add_parser("litmus", help="classify a litmus test's outcomes")
    l.add_argument("test", choices=sorted(p.name.lower() for p in CORPUS))
    l.add_argument("--on", choices=sorted(PROTOCOLS), default=None,
                   help="also run the program on this protocol")
    l.set_defaults(func=cmd_litmus)

    f = sub.add_parser("fuzz", help="randomised per-run testing (Section 5)")
    _add_protocol_args(f)
    f.add_argument("--runs", type=int, default=200)
    f.add_argument("--length", type=int, default=15)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--cross-check", type=int, default=0, metavar="MAX_OPS",
                   help="cross-check traces up to this many ops against the brute-force oracle")
    f.set_defaults(func=cmd_fuzz)

    r = sub.add_parser(
        "report",
        help="with no arguments: run every experiment condensed and print a "
             "markdown report. Given a trace and/or --ledger/--bench: render "
             "a self-contained run report / trend document",
    )
    r.add_argument("trace", nargs="?", default=None,
                   help="trace JSONL (from --trace-log) or flight dump to "
                        "render a run report for: verdict header, span tree, "
                        "reduction/POR effectiveness, recovery events")
    r.add_argument("--ledger", nargs="?", const=DEFAULT_LEDGER_PATH,
                   default=None, metavar="PATH",
                   help="include cross-run trend tables from this run ledger "
                        "(grouped by search hash)")
    r.add_argument("--bench", metavar="BENCH_JSON", default=None,
                   help="include benchmark trend tables from this "
                        "BENCH_verification.json")
    r.add_argument("--format", choices=["md", "html"], default="md",
                   help="output format (default md; html is a single "
                        "self-contained page)")
    r.add_argument("-o", "--output", metavar="PATH", default=None,
                   help="write the report here instead of stdout")
    r.set_defaults(func=cmd_report)

    ru = sub.add_parser(
        "runs",
        help="list, filter, show and gc the run ledger written by "
             "'verify --ledger'",
    )
    ru.add_argument("--ledger", metavar="PATH", default=DEFAULT_LEDGER_PATH,
                    help=f"ledger path (default {DEFAULT_LEDGER_PATH})")
    ru.add_argument("--protocol", metavar="SUBSTR", default=None,
                    help="only runs whose protocol description contains this")
    ru.add_argument("--verdict", metavar="SUBSTR", default=None,
                    help="only runs whose verdict contains this "
                         "(case-insensitive)")
    ru.add_argument("--hash", dest="hash_prefix", metavar="PREFIX",
                    default=None, help="only runs whose search hash starts "
                                       "with this prefix")
    ru.add_argument("--show", metavar="PREFIX", default=None,
                    help="print the full JSON entries for this hash prefix")
    ru.add_argument("--gc", action="store_true",
                    help="rewrite the ledger keeping only the newest --keep "
                         "entries per search hash")
    ru.add_argument("--keep", type=int, default=1, metavar="N",
                    help="entries kept per hash with --gc (default 1)")
    ru.set_defaults(func=cmd_runs)

    cr = sub.add_parser(
        "check-run",
        help="check a recorded protocol run from a run file (see repro.tracefile)",
    )
    cr.add_argument("file", help="run file path, or '-' for stdin")
    cr.set_defaults(func=cmd_check_run)

    d = sub.add_parser(
        "descriptor",
        help="check a k-graph descriptor in the paper's text syntax (from arg or stdin)",
    )
    d.add_argument("text", nargs="?", default=None,
                   help='e.g. "1, ST(P1,B1,1), 2, LD(P2,B1,1), (1,2), inh"')
    d.set_defaults(func=cmd_descriptor)

    fm = sub.add_parser(
        "fault-matrix",
        help="verify every (protocol × injected fault) pair; fail if the checker "
             "misses a seeded non-SC fault",
    )
    fm.add_argument("--protocols", metavar="NAMES", default=None,
                    help="comma-separated protocol names (default: a representative set)")
    fm.add_argument("--mode", choices=["fast", "full"], default="fast")
    fm.add_argument("--max-states", type=int, default=None)
    fm.add_argument("--budget-s", type=float, default=None, metavar="S",
                    help="total wall-clock budget across all pairs")
    fm.add_argument("--seed", type=int, default=0)
    fm.add_argument("--no-baseline", action="store_true",
                    help="skip the unfaulted baseline row per protocol")
    fm.add_argument("--reduce", choices=list(REDUCE_LEVELS), default="off",
                    help="symmetry-reduction level for pairs whose protocol "
                         "declares a symmetry spec (search state, as in "
                         "`verify`; matrix runs are one-shot, so the level "
                         "simply applies to every eligible pair's fresh "
                         "search. Faulted variants run unreduced — faults "
                         "may break index-uniformity)")
    fm.add_argument("--por", choices=list(POR_LEVELS), default="off",
                    help="partial-order-reduction level for pairs whose "
                         "protocol declares a POR spec (as in `verify`; "
                         "protocols without one run fully expanded)")
    _add_telemetry_args(fm)
    fm.set_defaults(func=cmd_fault_matrix)

    m = sub.add_parser(
        "metrics",
        help="summarise a run's trace/metrics, diff two, record or "
             "regression-check states/sec (docs/OBSERVABILITY.md)",
    )
    m.add_argument("file", help="trace JSONL (from --trace-log) or metrics snapshot JSON")
    m.add_argument("file2", nargs="?", default=None,
                   help="second file: print a metric-by-metric diff instead")
    m.add_argument("--record", metavar="BENCH_JSON", default=None,
                   help="append this run as a normalized entry under 'runs' in "
                        "the benchmark file")
    m.add_argument("--workload", metavar="NAME", default=None,
                   help="workload name for --record / --check-bench "
                        "(e.g. msi_p2b1v1)")
    m.add_argument("--check-bench", metavar="BENCH_JSON", default=None,
                   help="compare states/sec against the checked-in baseline for "
                        "--workload; exit 1 on regression beyond tolerance")
    m.add_argument("--max-regression", type=float, default=0.05, metavar="FRAC",
                   help="tolerated states/sec regression for --check-bench "
                        "(default 0.05 = 5%%)")
    m.set_defaults(func=cmd_metrics)

    b = sub.add_parser("bounds", help="Section 4.4 size-bound table")
    b.add_argument("--p", type=int, default=None)
    b.add_argument("--b", type=int, default=None)
    b.add_argument("--v", type=int, default=None)
    b.set_defaults(func=cmd_bounds)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
