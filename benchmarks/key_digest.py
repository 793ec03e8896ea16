"""Digest every key a search interns, to compare two builds.

A change to how orbit minima are computed, how keys are built or how
the product steps its components must leave the interned keys
bit-identical.  This script runs exhaustive
fast-mode searches and prints, per configuration, the state and
transition counts, the ``reduction.fallbacks`` counter (``-`` on a
build without it) and the sha256 of the ``repr`` of every interned key
in intern order.  Run it against two checkouts and diff the output:

.. code-block:: console

   $ PYTHONPATH=src python benchmarks/key_digest.py
   $ PYTHONPATH=src python benchmarks/key_digest.py mesi:3:1:1:full

A configuration is ``protocol:p:b:v:reduce[:por[:max_states[:model]]]``;
an empty ``p``, ``b`` or ``v`` takes the protocol's default size,
``por`` is ``off`` unless given, ``max_states`` (empty: no cap) caps
the search (the BFS order is deterministic, so a capped run digests
the same first keys on every build) and ``model`` is the consistency
model (``--model``; ``sc`` unless given).  The default set covers
every registry protocol that declares a symmetry spec at every
``--reduce`` level, plus three unreduced SC searches (``--reduce off``:
MESI, lazy caching and buggy MSI), whose keys are the composed keys
with no orbit minimum taken, and three unreduced causal searches
(MSI, the store buffer and lazy caching), whose keys come from the
causal observer; two-block SC configurations, whose exhaustive
searches run for many minutes, are capped.
"""

from __future__ import annotations

import argparse
import hashlib
import time

from repro.engine.reduction import REDUCE_LEVELS
from repro.memory import PROTOCOLS, build_protocol
from repro.modelcheck.product import ProductSearch

#: registry protocols that declare a symmetry spec, at one-block sizes
REDUCIBLE = (
    "msi::::", "mesi::::", "lazy::::", "buggy-msi::::", "buggy-msi-nowb::::",
    "buggy-msi-stale-s:2:1:1:",
)
#: two-block sizes, so block permutations act; capped
TWO_BLOCK = ("msi:2:2:1:", "buggy-msi-stale-s:2:2:1:")


def default_configs():
    out = [name + level for name in REDUCIBLE for level in REDUCE_LEVELS[1:]]
    out += [name + level + ":off:20000" for name in TWO_BLOCK for level in REDUCE_LEVELS[2:]]
    out += ["lazy:2:1:2:full", "lazy:2:1:2:full:on"]
    out += ["mesi:2:1:2:off", "lazy:2:1:2:off", "buggy-msi:2:1:1:off"]
    out += [
        "msi:2:1:2:off:off::causal",
        "storebuffer::::off:off::causal",
        "lazy:2:1:2:off:off::causal",
    ]
    return out


def digest(config: str) -> str:
    parts = config.split(":")
    name, p, b, v, reduce = parts[:5]
    por = parts[5] if len(parts) > 5 else "off"
    model = parts[7] if len(parts) > 7 else "sc"
    num = lambda s: int(s) if s else None  # noqa: E731
    protocol, gen = build_protocol(name, num(p), num(b), num(v))
    search = ProductSearch(
        protocol, gen, mode="fast", reduce=reduce, por=por, model=model,
        stop_on_violation=False, max_states=num(parts[6]) if len(parts) > 6 else None,
    )
    t0 = time.perf_counter()
    result = search.run()
    secs = time.perf_counter() - t0
    store = search.engine.store
    h = hashlib.sha256()
    for sid in range(len(store)):
        h.update(repr(store.key_of(sid)).encode("utf-8"))
        h.update(b"\n")
    red = search.system.reduction
    fallbacks = getattr(red.counters, "fallbacks", "-") if red is not None else "-"
    return (
        f"{protocol.describe()}{'' if model == 'sc' else ' model=' + model} "
        f"reduce={reduce} por={por} "
        f"verdict={result.verdict} states={result.stats.states} "
        f"transitions={result.stats.transitions} fallbacks={fallbacks} "
        f"sha256={h.hexdigest()} ({secs:.2f} s)"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("configs", nargs="*", help="protocol:p:b:v:reduce[:por[:max_states[:model]]]")
    args = ap.parse_args(argv)
    for config in args.configs or default_configs():
        if config.split(":")[0] not in PROTOCOLS or len(config.split(":")) < 5:
            ap.error(f"not protocol:p:b:v:reduce or unknown protocol: {config!r}")
        print(digest(config), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
