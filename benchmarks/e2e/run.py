"""End-to-end benchmark of the SC verifier: time to verdict per workload,
and a separate traced run that splits it over the layers of the
product step.

Run from anywhere inside a checkout (it finds ``src/`` itself)::

    python3 benchmarks/e2e/run.py --workload mesi-proof --seed 1
    python3 benchmarks/e2e/run.py --workload bug-hunt --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --seed 1      # every workload in turn

Load model: a closed loop with one client.  One process runs one
workload at a time, verifying its cases one after another at
``workers=1``; a *round* runs every case once, in an order drawn from
``--seed``.  A warm-up round comes first, then rounds repeat until
``--seconds`` have passed.  Without ``--workload`` every workload runs
in a fresh process of its own, so peak RSS and set-up belong to that
workload alone.

Times are rescaled to the speed of the box at the moment they were
taken: see :func:`calibrate`.

With ``--trace 0`` the metrics are the end-to-end ones (medians over
rounds); with ``--trace 1`` rounds alternate between plain and traced
(see ``layers.py``) and the metrics are the per-layer ones, plus the
tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 0 means the run completed,
not that every operation passed: that is ``correct``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: scratch space: per-run spill directories and the trace files
WORK = os.path.join(ROOT, ".bench_build", "e2e")
BASELINE = os.path.join(HERE, "BASELINE.json")

#: fresh processes timed for ``setup_s``, at least
SETUP_RUNS = 5
#: an operation slower than this many times its baseline median fails
SLOW_FACTOR = 5.0
#: ... but never below this many seconds, so that a scheduling hiccup
#: on a 10 ms search is not a failure
SLOW_FLOOR_S = 1.0
#: traced self times must add up to the verdict time within this share
TELESCOPE_TOL = 0.01
#: about what :func:`calibrate` takes on the baseline box at its
#: fastest; reported times are rescaled to a box where it takes this
CAL_REF_S = 0.010

sys.path.insert(0, HERE)
import workloads  # noqa: E402

END_TO_END = {
    "verdict_s": "s",
    "cpu_s": "s",
    "states": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    metric = name.split(".", 1)[1]
    if metric.endswith("per_s"):
        return "1/s"
    if metric.startswith("us_"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric == "spill_bytes":
        return "bytes"
    if metric in ("share", "new_ratio", "hit_ratio", "overhead", "telescope_err"):
        return "ratio"
    return "count"


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def calibrate() -> Tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python search (a BFS over
    13,824 tuple states), the median of five.

    The box the baseline was taken on is shared.  Its speed changes by
    up to 25% within a second and by up to 2x for minutes at a time,
    and every timed quantity changes with it.  So each sample is timed
    right after a calibration and reported as ``measured * CAL_REF_S /
    calibration``: seconds on a box where the calibration takes
    ``CAL_REF_S``.  The loop uses nothing from ``repro``, so no change
    to the program can move it, and it runs with the collector off, so
    the heap the verifier left behind cannot either."""
    samples = []
    gc.disable()
    try:
        for _ in range(5):
            c0, t0 = time.process_time(), time.perf_counter()
            n = 24
            seen = {(0, 0, 0): 0}
            frontier = deque(seen)
            while frontier:
                a, b, c = frontier.popleft()
                for nxt in (((a + 1) % n, b, c), (a, (b + a) % n, c), (a, b, (c + b + 1) % n)):
                    if nxt not in seen:
                        seen[nxt] = len(seen)
                        frontier.append(nxt)
            samples.append((time.perf_counter() - t0, time.process_time() - c0))
    finally:
        gc.enable()
    return (statistics.median(w for w, _ in samples),
            statistics.median(c for _, c in samples))


def _scaled(x: float, cal: float) -> float:
    return x * CAL_REF_S / cal


# ----------------------------------------------------------------------
# set-up: a fresh process imports repro and builds the workload's searches
# ----------------------------------------------------------------------


def setup_probe(workload: str, work_dir: str) -> int:
    cal, _ = calibrate()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import ops

    for case in workloads.get(workload).cases:
        spill = tempfile.mkdtemp(prefix="setup-", dir=work_dir) if case.disk_cap else None
        ops.build(case, spill)
    print(json.dumps({"setup_s": time.perf_counter() - t0, "cal_s": cal}))
    return 0


def measure_setup(workload: str, work_dir: str) -> Tuple[float, float]:
    """Time one set-up in a fresh process: (seconds, its calibration)."""
    # set-up as a user pays it, with compiled modules cached in src/,
    # whatever the caller's environment says
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--work-dir", work_dir],
        capture_output=True, text=True, timeout=120, check=True, env=env,
    )
    res = json.loads(proc.stdout.splitlines()[-1])
    return res["setup_s"], res["cal_s"]


# ----------------------------------------------------------------------
# the measured loop
# ----------------------------------------------------------------------


def slow_limits(workload: str) -> Dict[str, float]:
    """Per-case time limits from the recorded baseline (none if the
    baseline does not know the workload)."""
    try:
        with open(BASELINE) as f:
            medians = json.load(f)["op_s"].get(workload, {})
    except FileNotFoundError:
        return {}
    return {case: max(SLOW_FACTOR * s, SLOW_FLOOR_S) for case, s in medians.items()}


class Round(NamedTuple):
    wall_s: float
    cpu_s: float
    states: int
    #: the calibration run just before the round, wall and CPU
    cal_wall_s: float
    cal_cpu_s: float

    @property
    def verdict_s(self) -> float:
        return _scaled(self.wall_s, self.cal_wall_s)


class Measurement:
    """Everything one ``--workload`` run observed."""

    def __init__(self, workload: workloads.Workload, seed: int) -> None:
        self.order = workload.round_order(seed)
        self.plain: List[Round] = []
        self.traced: List[Round] = []
        #: per-case verdict times of the plain rounds
        self.op_s: Dict[str, List[float]] = {c.name: [] for c in self.order}
        #: (set-up seconds, calibration seconds), one per fresh process
        self.setup: List[Tuple[float, float]] = []
        self.attempted = 0
        self.failures: List[str] = []


def run_round(m: Measurement, work_dir: str, limits, tracer=None) -> tuple:
    import ops

    wall = cpu = 0.0
    states = 0
    for case in m.order:
        if tracer is None:
            r = ops.run_op(case, work_dir)
        else:
            r = ops.run_op(case, work_dir, span=tracer.op, harvest=tracer.harvest)
        m.attempted += 1
        limit = limits.get(case.name)
        if r.error is None and limit is not None and r.wall_s > limit:
            r.error = f"took {r.wall_s:.3f} s, limit {limit:.3f} s"
        if r.error is not None:
            m.failures.append(f"{case.name}: {r.error}")
        wall += r.wall_s
        cpu += r.cpu_s
        states += r.states
        if tracer is None:
            m.op_s[case.name].append(r.wall_s)
    return wall, cpu, states


def measure(workload: workloads.Workload, seed: int, seconds: float,
            work_dir: str, tracer=None, setup: bool = False) -> Measurement:
    """Warm up with one round, then run rounds until ``seconds`` have
    passed since the start; with a ``tracer``, rounds alternate between
    plain and traced, at least one of each.  Every round is preceded
    by a :func:`calibrate`.  With ``setup``, one set-up is timed before
    every plain round (and more afterwards, up to ``SETUP_RUNS``), so
    that one slow second cannot set the median."""
    m = Measurement(workload, seed)
    limits = slow_limits(workload.name)
    start = time.perf_counter()
    run_round(m, work_dir, limits)
    # the warm-up's verdict times are not samples
    for times in m.op_s.values():
        times.clear()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if setup and not traced:
            m.setup.append(measure_setup(workload.name, work_dir))
        gc.collect()
        cal = calibrate()
        if traced:
            with tracer.installed():
                m.traced.append(Round(*run_round(m, work_dir, limits, tracer), *cal))
        else:
            m.plain.append(Round(*run_round(m, work_dir, limits), *cal))
        k += 1
        if (time.perf_counter() - start >= seconds
                and (tracer is None or m.traced)):
            break
    while setup and len(m.setup) < SETUP_RUNS:
        m.setup.append(measure_setup(workload.name, work_dir))
    return m


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def end_to_end_metrics(m: Measurement) -> Dict[str, float]:
    return {
        "verdict_s": _median([r.verdict_s for r in m.plain]),
        "cpu_s": _median([_scaled(r.cpu_s, r.cal_cpu_s) for r in m.plain]),
        "states": _median([r.states for r in m.plain]),
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": _median([_scaled(s, cal) for s, cal in m.setup]),
    }


def per_layer_metrics(m: Measurement, tracer) -> Dict[str, float]:
    metrics = tracer.metrics(len(m.traced))
    plain = _median([r.verdict_s for r in m.plain])
    traced = _median([r.verdict_s for r in m.traced])
    metrics["trace.overhead"] = traced / plain - 1.0 if plain else 0.0
    verdict = sum(r.wall_s for r in m.traced)
    metrics["trace.telescope_err"] = (
        abs(sum(tracer.layer_self().values()) - verdict) / verdict if verdict else 0.0
    )
    return metrics


def describe(m: Measurement) -> List[str]:
    """Human-readable lines: sample counts, spreads, per-case latency."""
    from layers import percentile

    lines = []
    for label, rounds in (("plain", m.plain), ("traced", m.traced)):
        if not rounds:
            continue
        for what, xs in (("measured", [r.wall_s for r in rounds]),
                         ("rescaled", [r.verdict_s for r in rounds])):
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            lines.append(
                f"{label} rounds: {len(xs)}, {what} round wall s "
                f"q1 {q[0]:.4f} median {q[1]:.4f} q3 {q[2]:.4f}"
            )
        cal = _median([r.cal_wall_s for r in rounds])
        lines.append(f"{label} calibration: median {cal * 1e3:.2f} ms "
                     f"(baseline box {CAL_REF_S * 1e3:.2f} ms)")
    all_ops = [s for times in m.op_s.values() for s in times]
    if len(m.op_s) > 1 and all_ops:
        lines.append(
            f"per-search verdict s over {len(all_ops)} searches: "
            f"p50 {percentile(all_ops, 50):.4f} p90 {percentile(all_ops, 90):.4f}"
        )
    for name, times in m.op_s.items():
        if times:
            lines.append(f"case {name}: median {_median(times):.4f} s over {len(times)}")
    lines += [f"FAILED {f}" for f in m.failures[:20]]
    return lines


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    })


def run_one(args) -> int:
    workload = workloads.get(args.workload)
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        sys.path.insert(0, SRC)
        tracer = None
        if args.trace:
            import layers

            tracer = layers.Tracer()
        m = measure(workload, args.seed, args.seconds, work_dir, tracer,
                    setup=not args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in describe(m):
        print(line)
    correct = not m.failures
    if tracer is None:
        metrics = end_to_end_metrics(m)
        units = END_TO_END.__getitem__
    else:
        metrics = per_layer_metrics(m, tracer)
        units = unit_of
        correct = correct and metrics["trace.telescope_err"] <= TELESCOPE_TOL
        trace_path = os.path.join(WORK, f"trace-{workload.name}.json")
        tracer.dump(trace_path, {"workload": workload.name, "seed": args.seed})
        print(f"spans: {trace_path} ({len(tracer.spans)} kept, {tracer.dropped} dropped)")
    for name, value in metrics.items():
        print(f"{name:<26} {value:>16.6f} {units(name)}")
    print(result_line(correct, m.attempted, len(m.failures), metrics, units))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; the result line prefixes
    every metric with its workload."""
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        print(f"== {workload.name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds * 3 + 180,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, metric in res["metrics"].items():
            metrics[f"{workload.name}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS],
                    help="one workload (default: every workload, each in its own process)")
    ap.add_argument("--seed", type=int, default=1, help="shuffles the case order of a round")
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from alternating traced rounds")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no repro package under {SRC}; run it inside a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.work_dir)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
