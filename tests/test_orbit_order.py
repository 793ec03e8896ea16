"""Orbit minimization compares keys natively, exactly as ``order_key``.

:meth:`Reduction.canonicalize_batch` picks each orbit minimum with
native ``<``/``==`` and builds :func:`order_key` tag trees only when a
comparison raises ``TypeError``.  These tests pin that the native
answers are the ``order_key`` answers on every key shape the zoo
produces, that the fallback is taken (and counted) where native
comparison cannot answer, and that atoms on which native ``<`` gives a
different, non-raising answer never reach it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import Load, Store
from repro.engine.reduction import (
    FieldSym,
    ReductionError,
    SymmetrySpec,
    _less,
    build_reduction,
    order_key,
)
from repro.memory import MESIProtocol
from repro.modelcheck.product import ProductSearch
from repro.obs import MetricsRegistry, Telemetry, TraceWriter

# a small atom domain, so that random pairs often agree on a prefix
# and the first unequal position lands deep inside the tuples
_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from(["", "a", "b", "REJECTED"]),
    st.builds(Load, st.integers(1, 2), st.integers(1, 2), st.integers(0, 2)),
    st.builds(Store, st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
)
_keys = st.recursive(
    _atoms, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12
)


@settings(max_examples=600, deadline=None)
@given(_keys, _keys)
def test_native_order_agrees_with_order_key(a, b):
    assert _less(a, b) == (order_key(a) < order_key(b))
    assert (a == b) == (order_key(a) == order_key(b))


@settings(max_examples=300, deadline=None)
@given(_keys, st.lists(_atoms, max_size=3))
def test_native_order_agrees_on_shared_prefixes(a, tail):
    """Pairs that agree on a prefix: the decision falls on a later
    position or on the lengths."""
    a = a if isinstance(a, tuple) else (a,)
    b = a + tuple(tail)
    for x, y in ((a, b), (b, a), (a, a)):
        assert _less(x, y) == (order_key(x) < order_key(y))
        assert (x == y) == (order_key(x) == order_key(y))


# ----------------------------------------------------------------------
# hand-built batches
# ----------------------------------------------------------------------


class _Stub:
    """A two-processor protocol whose state is one proc-indexed pair of
    sort-free slots: the ``proc`` group swaps the two entries."""

    p, b, v = 2, 1, 1
    num_locations = 0

    def __init__(self, init):
        self._init = init

    def initial_state(self):
        return self._init

    def describe(self):
        return "Stub(p=2)"

    def symmetry_spec(self):
        return SymmetrySpec(state_fields=((FieldSym(axes=("proc",)),),))


class _Obs:
    """Observer stand-in: ``keys[0]`` under the identity, ``keys[1]``
    under the swap; records how often it is walked."""

    def __init__(self, keys=(("obs",), ("obs",))):
        self.keys = keys
        self.walks = 0

    def canonical_snapshot(self, perm=None):
        self.walks += 1
        return {}, self.keys[0 if perm is None else 1]


class _Chk:
    def state_key(self, canon, perm=None):
        return ("chk",)


def test_stage_one_fallback_returns_the_order_key_minimum():
    """``(1, None)`` against its swap ``(None, 1)``: native ``<`` raises
    at the first slot, and ``order_key`` puts ``None`` first, so the
    swap wins — through one counted fallback."""
    red = build_reduction(_Stub(((1, None),)), "proc")
    items = [(((1, None),), _Obs(), _Chk())]
    (key,) = red.canonicalize_batch(items)
    images = [red.permute_pstate(items[0][0], perm) for perm in red.perms]
    assert key[0] == min(images, key=order_key) == ((None, 1),)
    assert red.counters.fallbacks == 1
    assert red.counters.orbit_hits == 1


def test_stage_two_fallback_returns_the_order_key_minimum():
    """Equal protocol halves tie in stage 1; the observer keys then put
    ``None`` against an int, and the ``order_key`` minimum wins."""
    red = build_reduction(_Stub(((5, 5),)), "proc")
    obs = _Obs(keys=((1,), (None,)))
    (key,) = red.canonicalize_batch([(((5, 5),), obs, _Chk())])
    assert key == (((5, 5),), (None,), ("chk",))
    assert obs.walks == 2
    assert red.counters.fallbacks == 1
    assert red.counters.orbit_hits == 1


def test_identity_keeps_the_win_on_equal_keys():
    """When a non-identity element gives a key equal to the identity's,
    the identity wins and ``orbit_hits`` does not count the state."""
    red = build_reduction(_Stub(((5, 5),)), "proc")
    obs = _Obs()
    (key,) = red.canonicalize_batch([(((5, 5),), obs, _Chk())])
    assert key == (((5, 5),), ("obs",), ("chk",))
    assert obs.walks == 2  # both elements reached stage 2
    assert red.counters.orbit_hits == 0
    assert red.counters.fallbacks == 0


@pytest.mark.parametrize("atom", [frozenset({1}), 1.5], ids=["frozenset", "float"])
def test_atoms_native_order_cannot_rank_are_refused(atom):
    """A frozenset orders by subset without raising, so the native path
    would trust a wrong answer; such states are refused when the
    reduction is built, before any key is compared."""
    with pytest.raises(ReductionError, match=type(atom).__name__):
        build_reduction(_Stub(((atom, atom),)), "proc")


def test_frozenset_is_the_hazard_the_guard_exists_for():
    a, b = (frozenset({1}),), (frozenset({2}),)
    assert not _less(a, b) and not _less(b, a) and a != b
    assert order_key(a) < order_key(b)


def test_mesi_full_reduction_takes_no_fallback():
    telemetry = Telemetry(registry=MetricsRegistry(), trace=TraceWriter([]))
    search = ProductSearch(MESIProtocol(p=2, b=1, v=2), mode="fast", reduce="full")
    result = search.run(telemetry=telemetry)
    assert result.stats.states == 1133
    gauges = telemetry.registry.snapshot().gauges
    assert gauges["reduction.fallbacks"] == 0
    assert gauges["reduction.states"] > 0
