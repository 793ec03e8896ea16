"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``verify``   model-check one protocol (the Figure 2 pipeline)
``zoo``      verdict table for the whole protocol zoo
``litmus``   run a litmus program against the reference models and,
             optionally, a protocol
``fuzz``     randomised per-run testing (the Section 5 scenario)
``bounds``   Section 4.4 size-bound table for given parameters
``reproduce`` condensed re-run of every experiment, as markdown
``report``   a self-contained run report / trend document (markdown or
             HTML) from a trace and/or --bench
``descriptor`` check a descriptor string (paper syntax) for acyclic
             constraint-graph-ness
``check-run`` judge a recorded protocol run from a log file (§5)
``fault-matrix`` verify every (protocol × injected fault) pair and
             check the checker catches what it must (docs/ROBUSTNESS.md)
``metrics``  summarise a run's trace/metrics snapshot, diff two, or gate
             on a states/sec regression (docs/OBSERVABILITY.md)

Protocols are addressed by name (see :data:`repro.memory.PROTOCOLS`);
each entry knows its default ST-order generator, so ``python -m repro
verify lazy`` just works.

Exit codes: 0 success / verdict met, 1 an SC violation (or unmet
fault-matrix expectation) was found, 2 usage or input-parse errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from .core.bounds import bounds_for
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
from .memory import NON_SC_PROTOCOLS, PROTOCOLS, build_protocol
from .models import MODELS
from .obs.flight import DEFAULT_FLIGHT_CAPACITY
from .util import format_table

__all__ = ["main"]


def _make_protocol(args):
    return build_protocol(
        args.protocol, args.p, args.b, args.v,
        real_time=getattr(args, "real_time_order", False),
    )


def _add_size_args(sub) -> None:
    sub.add_argument("--p", type=int, default=None, help="processors")
    sub.add_argument("--b", type=int, default=None, help="blocks")
    sub.add_argument("--v", type=int, default=None, help="values")


def _add_search_args(sub, level_default) -> None:
    """The search flags ``verify`` and ``fault-matrix`` share;
    ``level_default`` is the ``--reduce``/``--por`` default."""
    sub.add_argument("--mode", choices=["fast", "full"], default="fast")
    sub.add_argument("--max-states", type=int, default=None)
    sub.add_argument("--budget-s", type=float, default=None, metavar="S",
                     help="wall-clock budget in seconds")
    sub.add_argument("--reduce", choices=list(REDUCE_LEVELS), default=level_default,
                     help="symmetry-reduction level: canonicalize states under "
                          "processor (proc), processor+block (proc+block) or "
                          "processor+block+value (full) permutations before "
                          "interning, shrinking the explored quotient space "
                          "with identical verdicts and concretely replayable "
                          "counterexamples (default off)")
    sub.add_argument("--por", choices=list(POR_LEVELS), default=level_default,
                     help="partial-order reduction: expand only an ample subset "
                          "of each state's enabled actions where the protocol's "
                          "declared independence relation proves the deferred "
                          "ones commute invisibly, shrinking the explored space "
                          "with identical verdicts and concretely replayable "
                          "counterexamples (default off; protocols without a "
                          "POR declaration run fully expanded)")


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
    if not profile and trace_log is None and progress is None and flight_n is None:
        return None
    from .obs import (
        FlightRecorder,
        MetricsRegistry,
        ProgressReporter,
        Telemetry,
        TraceWriter,
    )

    registry = MetricsRegistry() if (profile or trace_log is not None) else None
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

    if args.degrade:
        refusal = _degrade_refusal(args, budget)
        if refusal is not None:
            print(f"error: {refusal}")
            return 2

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
                res = degrade(
                    proto, gen, budget=budget, mode=args.mode,
                    reduce=args.reduce or "off", por=args.por or "off",
                    store=store, telemetry=telemetry,
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
                )
    except (CheckpointError, PorError, ReductionError, ModelError,
            StoreError) as exc:
        print(f"error: {exc}")
        return 2
    dt = time.perf_counter() - t0
    print(res.summary())
    print(f"elapsed: {dt:.2f}s")
    if res.stats is not None and res.stats.stop_reason is not None:
        where = args.checkpoint or args.resume
        if where:
            print(f"checkpoint written: {where} (resume with --resume {where})")
    if res.counterexample is not None:
        print()
        print(res.counterexample.pretty())
    return 0 if res.sequentially_consistent else 1


def _degrade_refusal(args, budget):
    """Why ``--degrade`` cannot honour these flags, or ``None``."""
    if budget is None or budget.wall_s is None:
        return "--degrade needs a wall-clock budget (--budget-s)"
    if (args.model or "sc") != "sc" or args.preemptions is not None:
        return (
            "--degrade's litmus/fuzz fallbacks check SC only; drop "
            "--model/--preemptions"
        )
    # the ladder runs fresh, uncapped breadth-first searches (a
    # depth-bounded DFS rung would not be complete) and writes no
    # checkpoint
    dropped = [
        flag for flag, given in (
            ("--resume", args.resume is not None),
            ("--checkpoint", args.checkpoint is not None),
            ("--max-states", args.max_states is not None),
            ("--max-depth", args.max_depth is not None),
            ("--strategy", args.strategy != "bfs"),
        )
        if given
    ]
    if dropped:
        return (
            "--degrade runs its own budgeted breadth-first ladder and "
            f"writes no checkpoint; drop {', '.join(dropped)}"
        )
    return None


def cmd_zoo(args) -> int:
    rows = []
    worst = 0
    for name in sorted(PROTOCOLS):
        proto, gen = build_protocol(name)
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
        dp, db, dv = PROTOCOLS[args.on][2]
        proto, _gen = build_protocol(
            args.on,
            max(dp, prog.num_procs),
            max(db, max(prog.blocks)),
            max(dv, prog.max_value),
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


def cmd_reproduce(args) -> int:
    from .report import generate_report

    text = generate_report()
    print(text)
    return 0 if "MISMATCH" not in text else 1


def cmd_report(args) -> int:
    if args.trace is None and args.bench is None:
        args.parser.print_usage()
        print("error: nothing to render: give a trace or --bench "
              "(the reproduction sweep is 'repro reproduce')")
        return 2

    from .obs import TraceError
    from .obs.report import render_report

    try:
        text = render_report(
            trace_path=args.trace,
            bench_path=args.bench,
            fmt=args.format,
        )
    except (TraceError, ValueError) as exc:
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
        if telemetry is not None:
            telemetry.close()
    print(report.summary())
    return 0 if report.ok else 1


def cmd_metrics(args) -> int:
    from .obs import TraceError
    from .obs.bench import check_states_per_sec, load_summary

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

    if args.check_bench is None:
        return 0
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
    return 0 if ok else 1


def _fmt_metric(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.4f}"


def cmd_bounds(args) -> int:
    rows = []
    for name in sorted(PROTOCOLS):
        proto, _gen = build_protocol(name, args.p, args.b, args.v)
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
            "     --store-dir without --store disk, a checkpoint that does\n"
            "     not rebuild (a rebuilt state key differs from the stored one),\n"
            "     or --degrade with a flag its ladder cannot honour (--resume,\n"
            "     --checkpoint, --max-states, --max-depth, --strategy other\n"
            "     than bfs, --model other than sc, --preemptions)\n"
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
    _add_size_args(v)
    _add_search_args(v, None)
    v.add_argument("--max-depth", type=int, default=None)
    v.add_argument(
        "--real-time-order",
        action="store_true",
        help="force the trivial real-time ST-order generator (e.g. to see lazy caching rejected)",
    )
    v.add_argument("--budget-states", type=int, default=None, metavar="N",
                   help="stop after exploring N joint states (resumable, unlike --max-states)")
    v.add_argument("--budget-mb", type=float, default=None, metavar="MB",
                   help="memory budget: stop once the whole process's peak "
                        "RSS (interpreter included) reaches MB")
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
                        "mmap'd hash index (see docs/ARCHITECTURE.md); "
                        "verdicts, state counts and fingerprints are "
                        "bit-identical across backends")
    v.add_argument("--store-budget-mb", type=float, default=None, metavar="MB",
                   help="resident-key budget for --store disk: keys beyond "
                        "this many MB (pickled size) are evicted to the spill "
                        "log and re-read on demand")
    v.add_argument("--store-dir", metavar="DIR", default=None,
                   help="directory for --store disk spill files (default: a "
                        "fresh repro-store-* directory under the system temp "
                        "dir; removed at exit)")
    v.add_argument("--model", choices=sorted(MODELS), default=None,
                   help="consistency model to check (default sc; see "
                        "docs/MODELS.md)")
    v.add_argument("--preemptions", type=int, default=None, metavar="K",
                   help="restrict the search to runs with at most K context "
                        "switches (SC only) — an under-approximation: a "
                        "violation is real and replays on the full protocol, "
                        "a clean verdict is bounded confidence, never a "
                        "proof")
    v.add_argument("--profile", action="store_true",
                   help="time the pipeline phases through the telemetry span "
                        "system and print the hierarchical span tree "
                        "(total/self per span) afterwards")
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
    f.add_argument("protocol", choices=sorted(PROTOCOLS))
    _add_size_args(f)
    f.add_argument("--runs", type=int, default=200)
    f.add_argument("--length", type=int, default=15)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--cross-check", type=int, default=0, metavar="MAX_OPS",
                   help="cross-check traces up to this many ops against the brute-force oracle")
    f.set_defaults(func=cmd_fuzz)

    rp = sub.add_parser(
        "reproduce",
        help="run every experiment condensed and print a markdown "
             "reproduction report (exit 1 on any MISMATCH)",
    )
    rp.set_defaults(func=cmd_reproduce)

    r = sub.add_parser(
        "report",
        help="render a self-contained run report / trend document from a "
             "trace and/or --bench",
    )
    r.add_argument("trace", nargs="?", default=None,
                   help="trace JSONL (from --trace-log) or flight dump to "
                        "render a run report for: verdict header, span tree, "
                        "reduction/POR effectiveness, recovery events")
    r.add_argument("--bench", metavar="BENCH_JSON", default=None,
                   help="include benchmark trend tables from this "
                        "BENCH_verification.json")
    r.add_argument("--format", choices=["md", "html"], default="md",
                   help="output format (default md; html is a single "
                        "self-contained page)")
    r.add_argument("-o", "--output", metavar="PATH", default=None,
                   help="write the report here instead of stdout")
    r.set_defaults(func=cmd_report, parser=r)

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
        description="Verify every (protocol × injected fault) pair and check "
                    "the verdicts against the fault taxonomy "
                    "(docs/ROBUSTNESS.md). --budget-s is one budget across all "
                    "pairs. --reduce and --por apply to each pair whose "
                    "protocol declares a symmetry or POR spec; faulted pairs "
                    "run unreduced and fully expanded, since a fault may break "
                    "index-uniformity or a declared footprint.",
    )
    fm.add_argument("--protocols", metavar="NAMES", default=None,
                    help="comma-separated protocol names (default: a representative set)")
    _add_search_args(fm, "off")
    fm.add_argument("--seed", type=int, default=0,
                    help="fault-battery seed")
    fm.add_argument("--no-baseline", action="store_true",
                    help="skip the unfaulted baseline row per protocol")
    _add_telemetry_args(fm)
    fm.set_defaults(func=cmd_fault_matrix)

    m = sub.add_parser(
        "metrics",
        help="summarise a run's trace/metrics, diff two, or "
             "regression-check states/sec (docs/OBSERVABILITY.md)",
    )
    m.add_argument("file", help="trace JSONL (from --trace-log) or metrics snapshot JSON")
    m.add_argument("file2", nargs="?", default=None,
                   help="second file: print a metric-by-metric diff instead")
    m.add_argument("--workload", metavar="NAME", default=None,
                   help="workload name for --check-bench (e.g. msi_p2b1v1)")
    m.add_argument("--check-bench", metavar="BENCH_JSON", default=None,
                   help="compare states/sec against the checked-in baseline for "
                        "--workload; exit 1 on regression beyond tolerance")
    m.add_argument("--max-regression", type=float, default=0.05, metavar="FRAC",
                   help="tolerated states/sec regression for --check-bench "
                        "(default 0.05 = 5%%)")
    m.set_defaults(func=cmd_metrics)

    b = sub.add_parser("bounds", help="Section 4.4 size-bound table")
    _add_size_args(b)
    b.set_defaults(func=cmd_bounds)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
