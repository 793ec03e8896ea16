"""The command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.memory import PROTOCOLS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_sc_protocol(capsys):
    code, out = run_cli(capsys, "verify", "serial", "--b", "1", "--v", "1")
    assert code == 0
    assert "SEQUENTIALLY CONSISTENT" in out


def test_verify_non_sc_protocol_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "buggy-msi")
    assert code == 1
    assert "NOT SC" in out and "SC violation" in out


def test_verify_lazy_uses_right_generator_by_default(capsys):
    code, out = run_cli(capsys, "verify", "lazy")
    assert code == 0


def test_verify_lazy_real_time_order_rejected(capsys):
    code, out = run_cli(capsys, "verify", "lazy", "--real-time-order")
    assert code == 1


def test_verify_full_mode(capsys):
    code, out = run_cli(capsys, "verify", "serial", "--p", "1", "--b", "1", "--v", "1", "--mode", "full")
    assert code == 0


def test_verify_bounded(capsys):
    code, out = run_cli(capsys, "verify", "msi", "--max-states", "20")
    assert "bounded" in out or "NOT SC" in out


def test_zoo(capsys):
    code, out = run_cli(capsys, "zoo", "--max-states", "5000")
    assert code == 0  # every zoo verdict as expected
    assert "Protocol zoo" in out
    for name in PROTOCOLS:
        assert name in out


def test_litmus_classification(capsys):
    code, out = run_cli(capsys, "litmus", "sb")
    assert code == 0
    assert "TSO" in out


def test_litmus_on_protocol(capsys):
    code, out = run_cli(capsys, "litmus", "sb", "--on", "msi")
    assert code == 0
    code, out = run_cli(capsys, "litmus", "sb", "--on", "storebuffer")
    assert code == 1  # produces a non-SC outcome


def test_fuzz_clean(capsys):
    code, out = run_cli(capsys, "fuzz", "msi", "--runs", "20", "--length", "10")
    assert code == 0
    assert "0 violations" in out


def test_fuzz_finds_violation(capsys):
    code, out = run_cli(capsys, "fuzz", "storebuffer", "--runs", "200", "--length", "10", "--seed", "7")
    assert code == 1
    assert "first violation" in out


def test_bounds_table(capsys):
    code, out = run_cli(capsys, "bounds")
    assert code == 0
    assert "bandwidth L+pb" in out


def test_parser_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "nonexistent"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_descriptor_accepts_valid(capsys):
    code, out = run_cli(
        capsys,
        "descriptor",
        "1, ST(P1,B1,1), 2, LD(P2,B1,1), (1,2), inh",
    )
    assert code == 0
    assert "ACCEPTS" in out


def test_descriptor_rejects_cycle(capsys):
    code, out = run_cli(
        capsys, "descriptor", "1, ST(P1,B1,1), 2, ST(P2,B1,1), (1,2), STo, (2,1), po"
    )
    assert code == 1
    assert "REJECTS" in out


def test_descriptor_rejects_annotation_violation(capsys):
    # inheritance with a value mismatch: acyclic but not a constraint graph
    code, out = run_cli(
        capsys, "descriptor", "1, ST(P1,B1,1), 2, LD(P2,B1,2), (1,2), inh"
    )
    assert code == 1
    assert "constraint-graph checker: REJECTS" in out


def test_descriptor_paper_figure3_string(capsys):
    text = (
        "1, ST(P1,B1,1), 2, LD(P2,B1,1), (1,2), inh, 3, ST(P1,B1,2), "
        "(1,3), po-STo, 4, LD(P2,B1,1), (1,4), inh, (2,4), po, (4,3), forced, "
        "1, LD(P2,B1,2), (3,1), inh, (4,1), po"
    )
    code, out = run_cli(capsys, "descriptor", text)
    assert code == 0, out


def test_descriptor_parse_error_is_exit_2(capsys):
    code, out = run_cli(capsys, "descriptor", "this is not a descriptor ((")
    assert code == 2
    assert "error:" in out


# exit-code contract: 0 = verdict met, 1 = violation found, 2 = usage/parse


def test_check_run_cli_ok(capsys, tmp_path):
    f = tmp_path / "run.txt"
    f.write_text("protocol: msi\nAcquireM(1,1)\nST(P1,B1,1)\nLD(P1,B1,1)\n")
    code, out = run_cli(capsys, "check-run", str(f))
    assert code == 0
    assert "run consistent" in out


def test_check_run_cli_parse_error_is_exit_2(capsys, tmp_path):
    f = tmp_path / "run.txt"
    f.write_text("protocol: msi\ngibberish\nmore gibberish\n")
    code, out = run_cli(capsys, "check-run", str(f))
    assert code == 2
    assert "2 parse errors" in out
    assert "line 2" in out and "line 3" in out


def test_verify_budget_checkpoint_resume_roundtrip(capsys, tmp_path):
    cp = tmp_path / "msi.ckpt"
    code, out = run_cli(
        capsys, "verify", "msi", "--budget-states", "50", "--checkpoint", str(cp)
    )
    assert code == 0  # truncated, no violation
    assert "state budget exhausted" in out
    assert f"checkpoint written: {cp}" in out
    assert cp.exists()

    code, out = run_cli(capsys, "verify", "--resume", str(cp))
    assert code == 0
    assert "SEQUENTIALLY CONSISTENT" in out


def test_verify_resume_plus_protocol_is_exit_2(capsys, tmp_path):
    code, out = run_cli(capsys, "verify", "msi", "--resume", str(tmp_path / "x"))
    assert code == 2


def test_verify_resume_missing_file_is_exit_2(capsys, tmp_path):
    code, out = run_cli(capsys, "verify", "--resume", str(tmp_path / "nope.ckpt"))
    assert code == 2
    assert "error:" in out


def test_verify_degrade_needs_wall_budget(capsys):
    code, out = run_cli(capsys, "verify", "serial", "--degrade")
    assert code == 2


def test_verify_degrade_with_budget(capsys):
    code, out = run_cli(capsys, "verify", "serial", "--degrade", "--budget-s", "30")
    assert code == 0


def test_verify_degrade_honours_reduce_and_por(capsys):
    _, plain = run_cli(capsys, "verify", "msi", "--reduce", "full", "--por", "on")
    code, out = run_cli(
        capsys, "verify", "msi", "--degrade", "--budget-s", "60",
        "--reduce", "full", "--por", "on",
    )
    assert code == 0
    assert "1095 joint states" in plain
    assert out.splitlines()[0] == plain.splitlines()[0]


@pytest.mark.parametrize("flag", [
    ("--resume", "R.ckpt"), ("--checkpoint", "C.ckpt"), ("--max-states", "10"),
    ("--max-depth", "3"), ("--strategy", "dfs"),
])
def test_verify_degrade_refuses_flags_it_cannot_honour(capsys, tmp_path, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "verify", "msi", "--degrade", "--budget-s", "5", *flag)
    assert code == 2
    assert f"drop {flag[0]}" in out
    assert not list(tmp_path.iterdir())


def test_fault_matrix_cli(capsys):
    code, out = run_cli(capsys, "fault-matrix", "--protocols", "serial")
    assert code == 0
    assert "expectations met" in out
    assert "(none)" in out  # the unfaulted baseline row


def test_fault_matrix_unknown_protocol_is_exit_2(capsys):
    code, out = run_cli(capsys, "fault-matrix", "--protocols", "nosuch")
    assert code == 2


#: flags that belonged to the removed sharded engine
REMOVED_FLAGS = (
    "--workers", "--worker-retries", "--on-worker-failure",
    "--round-timeout-s", "--chaos",
)


def test_verify_workers_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "msi", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_verify_v2_checkpoint_with_workers_is_exit_2(capsys, tmp_path):
    cp = tmp_path / "seq.ckpt"
    code, _ = run_cli(
        capsys, "verify", "msi", "--b", "1", "--v", "1",
        "--budget-states", "100", "--checkpoint", str(cp),
    )
    assert cp.exists()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--resume", str(cp), "--workers", "2"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    # the refusal leaves the checkpoint resumable
    code, out = run_cli(capsys, "verify", "--resume", str(cp))
    assert code == 0
    assert "SEQUENTIALLY CONSISTENT" in out


@pytest.mark.parametrize("command", ["verify", "fault-matrix"])
def test_help_lists_no_sharded_engine_flags(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    for flag in REMOVED_FLAGS:
        assert flag not in out


def test_verify_corrupted_checkpoint_is_exit_2(capsys, tmp_path):
    cp = tmp_path / "bad.ckpt"
    cp.write_bytes(b"\x00\x01 not a pickle")
    code, out = run_cli(capsys, "verify", "--resume", str(cp))
    assert code == 2
    assert "error:" in out


# ------------------------------------------------- telemetry flags + metrics


def test_verify_trace_log_and_metrics_summary(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    code, out = run_cli(
        capsys, "verify", "msi", "--v", "1", "--trace-log", str(trace)
    )
    assert code == 0 and trace.exists()

    code, out = run_cli(capsys, "metrics", str(trace))
    assert code == 0
    assert "SEQUENTIALLY CONSISTENT" in out
    assert "states: 1290" in out
    assert "search.states" in out  # the gauge table


def test_verify_progress_heartbeat_goes_to_stderr(capsys):
    code = main(["verify", "msi", "--v", "1", "--progress", "0.01"])
    captured = capsys.readouterr()
    assert code == 0
    assert "progress:" in captured.err
    assert "progress:" not in captured.out  # verdict output stays clean


def test_verify_profile_prints_span_table(capsys):
    code, out = run_cli(capsys, "verify", "serial", "--b", "1", "--v", "1",
                        "--profile")
    assert code == 0
    assert "Profile (span tree)" in out
    assert "phase.search" in out
    assert "\n  expand" in out  # engine spans nest under the phase


def test_metrics_malformed_trace_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ev": "run_end", "ts": 1.0, "seq": 0}\n')  # missing fields
    code, out = run_cli(capsys, "metrics", str(bad))
    assert code == 2
    assert "malformed" in out


def test_metrics_diff_two_snapshots(capsys, tmp_path):
    import json

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"counters": {"n": 1}, "gauges": {}, "timers": {}}))
    b.write_text(json.dumps({"counters": {"n": 2}, "gauges": {}, "timers": {}}))
    code, out = run_cli(capsys, "metrics", str(a), str(b))
    assert code == 0
    assert "counter:n" in out
    code, out = run_cli(capsys, "metrics", str(a), str(a))
    assert "no metric differences" in out


def test_metrics_check_bench(capsys, tmp_path):
    import json

    trace = tmp_path / "t.jsonl"
    code, _ = run_cli(capsys, "verify", "msi", "--v", "1",
                      "--trace-log", str(trace))
    assert code == 0

    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({
        "current": {"workloads": {"msi_p2b1v1": {"seconds": 3600.0, "states": 1290}}}
    }))
    code, out = run_cli(
        capsys, "metrics", str(trace), "--workload", "msi_p2b1v1",
        "--check-bench", str(bench), "--max-regression", "0.05",
    )
    assert code == 0, out  # any real run beats a 3600 s baseline
    assert "bench check:" in out


def test_metrics_check_bench_detects_regression_and_mismatch(capsys, tmp_path):
    import json

    trace = tmp_path / "t.jsonl"
    run_cli(capsys, "verify", "msi", "--v", "1", "--trace-log", str(trace))

    bench = tmp_path / "bench.json"
    # impossibly fast baseline -> any run is a >5% regression
    bench.write_text(json.dumps({
        "current": {"workloads": {"msi_p2b1v1": {"seconds": 1e-9, "states": 1290}}}
    }))
    code, out = run_cli(capsys, "metrics", str(trace),
                        "--workload", "msi_p2b1v1", "--check-bench", str(bench))
    assert code == 1
    assert "REGRESSION" in out

    # same-name workload with different state count: not the same search
    bench.write_text(json.dumps({
        "current": {"workloads": {"msi_p2b1v1": {"seconds": 3600.0, "states": 7}}}
    }))
    code, out = run_cli(capsys, "metrics", str(trace),
                        "--workload", "msi_p2b1v1", "--check-bench", str(bench))
    assert code == 1
    assert "state-count mismatch" in out

    # unknown workload / missing --workload are usage errors
    code, out = run_cli(capsys, "metrics", str(trace),
                        "--workload", "nosuch", "--check-bench", str(bench))
    assert code == 2
    code, out = run_cli(capsys, "metrics", str(trace),
                        "--check-bench", str(bench))
    assert code == 2


def test_fault_matrix_trace_log(capsys, tmp_path):
    trace = tmp_path / "fm.jsonl"
    code, out = run_cli(capsys, "fault-matrix", "--protocols", "serial",
                        "--trace-log", str(trace))
    assert code == 0

    from repro.obs import read_trace

    events = read_trace(str(trace))
    activated = [e for e in events if e["ev"] == "fault_activated"]
    assert activated and activated[0]["protocol"] == "serial"
    assert activated[0]["fault"] == "(none)"  # the baseline row


def test_degrade_trace_has_stage_events(capsys, tmp_path):
    trace = tmp_path / "deg.jsonl"
    code, out = run_cli(
        capsys, "verify", "msi", "--degrade", "--budget-s", "0.05",
        "--trace-log", str(trace),
    )
    assert code == 0

    from repro.obs import read_trace

    stages = [e["stage"] for e in read_trace(str(trace))
              if e["ev"] == "degrade_stage"]
    assert stages and stages[0] == "model-check"


# --------------------------------------------- report: run/trend documents


def _traced_violation(tmp_path, capsys):
    trace = str(tmp_path / "v.jsonl")
    run_cli(capsys, "verify", "buggy-msi", "--trace-log", trace)
    return trace


def test_report_renders_a_run_report_from_a_trace(capsys, tmp_path):
    trace = _traced_violation(tmp_path, capsys)
    code, out = run_cli(capsys, "report", trace)
    assert code == 0
    assert "# Verification run report" in out
    assert "## Span tree" in out and "phase.search" in out
    assert "violation_found" in out
    assert "NOT SC" in out


def test_report_renders_html(capsys, tmp_path):
    trace = _traced_violation(tmp_path, capsys)
    out_file = tmp_path / "r.html"
    code, out = run_cli(capsys, "report", trace, "--format", "html",
                        "-o", str(out_file))
    assert code == 0 and "report written:" in out
    html = out_file.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<table>" in html and "phase.search" in html


def test_report_tolerates_a_torn_trace(capsys, tmp_path):
    trace = _traced_violation(tmp_path, capsys)
    text = open(trace).read()
    torn = tmp_path / "torn.jsonl"
    torn.write_text(text[:-30])  # rip the final line
    code, out = run_cli(capsys, "report", str(torn))
    assert code == 0 and "# Verification run report" in out


def test_report_renders_a_flight_dump(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "verify", "buggy-msi", "--flight")
    dump = tmp_path / "repro-buggy-msi.flight.jsonl"
    assert dump.exists()
    code, out = run_cli(capsys, "report", str(dump))
    assert code == 0 and "violation_found" in out


def test_report_without_input_is_a_usage_error(capsys):
    code, out = run_cli(capsys, "report")
    assert code == 2
    assert out.startswith("usage: repro report") and "repro reproduce" in out


def test_library_modules_do_not_import_the_cli():
    """Only the CLI and ``python -m repro`` import ``repro.cli``; the
    library (checkpoints, fault matrix, run files) gets protocols from
    :mod:`repro.memory`."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in ("cli.py", "__main__.py"):
            continue
        package = ["repro", *path.relative_to(root).parent.parts]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "repro.cli" or n.startswith("repro.cli.") for n in names):
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []


def test_report_corrupt_trace_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ev": "nope", "ts": 0, "seq": 0}\n{"ev": "x"}\n')
    code, out = run_cli(capsys, "report", str(bad))
    assert code == 2 and "error:" in out


def test_metrics_diff_of_two_traces(capsys, tmp_path):
    t1 = str(tmp_path / "a.jsonl")
    t2 = str(tmp_path / "b.jsonl")
    run_cli(capsys, "verify", "serial", "--b", "1", "--v", "1",
            "--trace-log", t1)
    run_cli(capsys, "verify", "msi", "--trace-log", t2)
    code, out = run_cli(capsys, "metrics", t1, t2)
    assert code == 0
    assert "Metrics diff" in out and "search.states" in out


def test_metrics_diff_without_snapshot_exit_2(capsys, tmp_path):
    t1 = str(tmp_path / "a.jsonl")
    run_cli(capsys, "verify", "serial", "--b", "1", "--v", "1",
            "--trace-log", t1)
    nosnap = tmp_path / "nosnap.jsonl"
    nosnap.write_text(
        "".join(l for l in open(t1) if '"ev":"metrics"' not in l.replace(" ", ""))
    )
    code, out = run_cli(capsys, "metrics", t1, str(nosnap))
    assert code == 2 and "no metrics snapshot to diff" in out
