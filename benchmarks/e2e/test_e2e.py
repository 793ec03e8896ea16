"""Self-test of the end-to-end benchmark on tiny instances.

Run with ``pytest benchmarks/e2e``.  Every workload's code path runs
through the same functions as ``run.py`` does, on searches small
enough that the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Case, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

TINY = (
    Workload("proof", (Case("msi", 2, 1, 1, "VERIFIED", states=1290, transitions=6450),)),
    Workload("sym", (Case("mesi", 2, 1, 1, "VERIFIED", reduce="full", max_states=687),)),
    Workload("por-disk", (
        Case("lazy", 2, 1, 1, "VERIFIED", por="on", disk_cap=16, max_states=354),
    )),
    Workload("bugs", (
        Case("buggy-msi-nowb", 2, 1, 1, "VIOLATION", states=110),
        Case("buggy-msi-stale-s", 3, 1, 1, "VIOLATION", states=320),
    )),
)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each tiny workload measured once with tracing: a warm-up, one
    plain round and one traced round."""
    out = {}
    for w in TINY:
        work = str(tmp_path_factory.mktemp(w.name))
        tracer = layers.Tracer()
        out[w.name] = (run.measure(w, 1, 0, work, tracer), tracer, work)
    return out


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", [w.name for w in TINY])
def test_every_metric_emitted_with_its_unit(traced, name):
    m, tracer, _work = traced[name]
    assert not m.failures
    assert len(m.plain) == 1 and len(m.traced) == 1
    m.setup = [(0.1, 0.0125), (0.2, 0.0125), (0.3, 0.0125)]
    e2e = run.end_to_end_metrics(m)
    assert {k: run.END_TO_END[k] for k in e2e} == _names("end_to_end")
    assert all(v > 0 for v in e2e.values())
    per_layer = run.per_layer_metrics(m, tracer)
    assert {k: run.unit_of(k) for k in per_layer} == _names("per_layer")


@pytest.mark.parametrize("name", [w.name for w in TINY])
def test_trace_telescopes(traced, name):
    m, tracer, _work = traced[name]
    selfs = tracer.layer_self()
    assert sum(selfs.values()) == pytest.approx(tracer.root_s(), rel=1e-9)
    assert run.per_layer_metrics(m, tracer)["trace.telescope_err"] <= run.TELESCOPE_TOL
    assert all(s >= 0 for s in selfs.values())


def test_layers_see_their_workloads(traced):
    proof = run.per_layer_metrics(*traced["proof"][:2])
    sym = run.per_layer_metrics(*traced["sym"][:2])
    por = run.per_layer_metrics(*traced["por-disk"][:2])
    bugs = run.per_layer_metrics(*traced["bugs"][:2])
    assert proof["key.calls"] == 6451 and proof["reduction.calls"] == 0
    assert proof["key.new_ratio"] == pytest.approx(1290 / 6451)
    assert sym["reduction.items"] > 0 and sym["key.calls"] < 5
    assert por["por.select_calls"] > 0 and por["store.spilled_keys"] > 0
    assert por["store.resident_keys"] <= 16
    assert bugs["product.replay_calls"] == 2 and proof["product.replay_calls"] == 0
    assert proof["checker.shared"] == proof["observer.calls"] - proof["checker.calls"]


def test_spill_directories_are_removed(traced):
    _m, _tracer, work = traced["por-disk"]
    assert os.listdir(work) == []


def test_tracer_restores_the_originals():
    before = [getattr(owner, attr) for _n, _l, owner, attr, _p in layers.POINTS]
    with layers.Tracer().installed():
        pass
    assert [getattr(owner, attr) for _n, _l, owner, attr, _p in layers.POINTS] == before


def test_wrong_pin_is_a_failed_op_not_an_exception(tmp_path):
    wrong = Workload("wrong", (Case("buggy-msi-nowb", 2, 1, 1, "VIOLATION", states=111),))
    m = run.Measurement(wrong, 1)
    run.run_round(m, str(tmp_path), {})
    assert m.attempted == 1 and len(m.failures) == 1
    assert "110 states, expected 111" in m.failures[0]


def test_seed_changes_order_not_counts(tmp_path):
    bugs = TINY[-1]
    order0 = bugs.round_order(0)
    seed = next(s for s in range(1, 50) if bugs.round_order(s) != order0)
    counts = []
    for s in (0, seed):
        m = run.Measurement(bugs, s)
        counts.append(run.run_round(m, str(tmp_path), {})[2])
        assert not m.failures
    assert counts[0] == counts[1] == 430
    hunt = WORKLOADS[-1]
    assert hunt.round_order(1) != hunt.round_order(2)
    assert sorted(c.name for c in hunt.round_order(1)) == sorted(c.name for c in hunt.cases)


def test_slow_op_fails(tmp_path):
    bugs = TINY[-1]
    m = run.Measurement(bugs, 1)
    run.run_round(m, str(tmp_path), {c.name: 0.0 for c in bugs.cases})
    assert len(m.failures) == 2 and "limit" in m.failures[0]


def test_cli_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "mesi-sym",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _names("end_to_end")


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero
    and print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "bug-hunt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_op_errors_are_caught(tmp_path):
    bad = Case("no-such-protocol", 2, 1, 1, "VERIFIED")
    r = ops.run_op(bad, str(tmp_path))
    assert r.error is not None and r.error.startswith("KeyError")
