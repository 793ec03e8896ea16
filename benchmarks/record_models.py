"""Record the bounded-preemption refinement numbers for buggy MSI.

The ``--preemptions K`` search is an under-approximation of full SC:
it must find the buggy MSI protocol's stale-read violation while
exploring strictly fewer joint states than the unbounded exhaustive
search (``docs/MODELS.md``).  This script

* asserts that contract through :func:`repro.difftest.
  assert_preemption_refinement` on exhaustive fingerprints, and
* re-runs both searches traced, writing one ``--trace-log``-style
  JSONL per run for ``repro metrics`` to summarise:

.. code-block:: console

   $ PYTHONPATH=src python benchmarks/record_models.py
   $ PYTHONPATH=src python -m repro metrics trace-sc-full.jsonl
   $ PYTHONPATH=src python -m repro metrics trace-sc-preempt2.jsonl

The traced runs are exhaustive (``stop_on_violation=False``) — the
CLI's stop-on-first default would make the state counts incomparable,
which is exactly the distinction the refinement contract encodes.
"""

from __future__ import annotations

import argparse

from repro.difftest import assert_preemption_refinement, fingerprint
from repro.memory import BuggyMSIProtocol
from repro.modelcheck.product import ProductSearch
from repro.obs import MetricsRegistry, Telemetry, TraceWriter

PREEMPTIONS = 2


def make_protocol():
    return BuggyMSIProtocol(p=2, b=1, v=1)


def traced_run(path: str, preemptions=None):
    telemetry = Telemetry(
        registry=MetricsRegistry(), trace=TraceWriter.open(path)
    )
    extra = {} if preemptions is None else {"preemptions": preemptions}
    telemetry.start_run(
        protocol=make_protocol().describe(), mode="fast",
        reduce="off", model="sc", **extra,
    )
    res = ProductSearch(
        make_protocol(), mode="fast", stop_on_violation=False,
        model="sc", preemptions=preemptions,
    ).run(None, telemetry)
    telemetry.finish_run(
        verdict="violation" if res.counterexample is not None else "verified",
        states=res.stats.states, stats=res.stats.as_dict(),
    )
    telemetry.close()
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-full", default="trace-sc-full.jsonl",
                    help="trace JSONL for the unbounded exhaustive run")
    ap.add_argument("--trace-bounded", default="trace-sc-preempt2.jsonl",
                    help="trace JSONL for the --preemptions 2 run")
    args = ap.parse_args(argv)

    full = fingerprint(make_protocol())
    bounded = fingerprint(make_protocol(), preemptions=PREEMPTIONS)
    assert_preemption_refinement(bounded, full)
    assert bounded.verdict == "violation", bounded.verdict
    print(
        f"refinement holds: preemptions<={PREEMPTIONS} finds the "
        f"violation in {bounded.states} states vs {full.states} "
        f"unbounded (counterexample replays: {bounded.cx_replays})"
    )

    r_full = traced_run(args.trace_full)
    r_bounded = traced_run(args.trace_bounded, preemptions=PREEMPTIONS)
    # the traced runs must be the same searches the contract was
    # asserted on — a drifting count here means nondeterminism
    assert r_full.stats.states == full.states, (
        r_full.stats.states, full.states)
    assert r_bounded.stats.states == bounded.states, (
        r_bounded.stats.states, bounded.states)
    print(f"traces written: {args.trace_full}, {args.trace_bounded}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
