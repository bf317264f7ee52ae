"""Property-based tests: KeyValueStore against a plain-dict model.

A second, deliberately naive implementation of the command set is the
oracle; Hypothesis drives both with random op sequences and the stores
must agree on every observable. A second property round-trips the same
op sequences through the persistence journal (with one mid-sequence
compaction into a snapshot): the recovered store must match the original
(``snapshot_state`` comparison) and the model.

Type-collision sequences (hash op on a list key, ...) are exercised
separately in ``test_store.py``; here each command family draws from its
own key pool so the model never has to replicate ``WrongTypeError``.
"""

from __future__ import annotations

import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import KeyValueStore, StorePersistence


# -- the plain-dict oracle ---------------------------------------------------------


class ModelStore:
    """The simplest possible implementation of the command subset."""

    def __init__(self) -> None:
        self.data: dict = {}

    def container(self, key, default):
        return self.data.setdefault(key, default())

    def peek(self, key, default):
        return self.data.get(key, default())


def normalize(start: int, stop: int, n: int) -> tuple[int, int]:
    """Redis inclusive index semantics, the reference way."""
    if start < 0:
        start += n
    if stop < 0:
        stop += n
    return max(start, 0), stop + 1


# -- strategies --------------------------------------------------------------------

SHORT = st.text(alphabet="abxy", max_size=3)
FIELDS = st.sampled_from(["f0", "f1", "f2"])
MEMBERS = st.sampled_from(["m0", "m1", "m2", "m3"])
SCORES = st.integers(-50, 50).map(float)
INDEX = st.integers(-6, 6)
#: Each family owns its key pool (see module docstring).
HKEYS = st.sampled_from(["h0", "h1"])
LKEYS = st.sampled_from(["l0", "l1"])
ZKEYS = st.sampled_from(["z0", "z1"])


def op_strategy():
    return st.one_of(
        st.tuples(st.just("hmset"), HKEYS, st.dictionaries(FIELDS, SHORT, max_size=3)),
        st.tuples(st.just("rpush"), LKEYS, st.lists(SHORT, min_size=1, max_size=3)),
        st.tuples(st.just("ltrim"), LKEYS, INDEX, INDEX),
        st.tuples(st.just("zadd"), ZKEYS, SCORES, MEMBERS),
    )


OPS = st.lists(op_strategy(), max_size=40)


def apply_op(store: KeyValueStore, model: ModelStore, op: tuple) -> None:
    """Apply one op to both implementations and compare its return."""
    name = op[0]
    if name == "hmset":
        _, key, mapping = op
        store.hmset(key, mapping)
        model.container(key, dict).update(mapping)
    elif name == "rpush":
        _, key, values = op
        lst = model.container(key, list)
        lst.extend(values)
        assert store.rpush(key, *values) == len(lst)
    elif name == "ltrim":
        _, key, start, stop = op
        store.ltrim(key, start, stop)
        if key in model.data:
            lst = model.data[key]
            lo, hi = normalize(start, stop, len(lst))
            lst[:] = lst[lo:hi]
    elif name == "zadd":
        _, key, score, member = op
        store.zadd(key, score, member)
        model.container(key, dict)[member] = score
    else:  # pragma: no cover - strategy and interpreter must agree
        raise AssertionError(name)


def check_observables(store: KeyValueStore, model: ModelStore) -> None:
    """Every read command agrees with the oracle."""
    assert sorted(store.snapshot_state()["data"]) == sorted(model.data)
    for key in ("h0", "h1"):
        assert store.hgetall(key) == model.peek(key, dict)
    for key in ("l0", "l1"):
        lst = model.peek(key, list)
        assert store.lrange(key, 0, -1) == lst
        assert store.llen(key) == len(lst)
        lo, hi = normalize(-3, 2, len(lst))
        assert store.lrange(key, -3, 2) == lst[lo:hi]
    for key in ("z0", "z1"):
        z = model.peek(key, dict)
        ordered = sorted(z.items(), key=lambda kv: (kv[1], kv[0]))
        assert store.zcard(key) == len(z)
        assert store.zrangebyscore(key, -10.0, 10.0) == [
            (m, s) for m, s in ordered if -10.0 <= s <= 10.0
        ]
        assert store.zrangebyscore(key, float("-inf"), float("inf")) == ordered


# -- properties --------------------------------------------------------------------


@given(ops=OPS)
@settings(deadline=None, max_examples=120)
def test_store_matches_plain_dict_model(ops):
    """Interleaved commands: the store and the naive model agree on every
    return value and every observable after each step."""
    store, model = KeyValueStore(), ModelStore()
    for op in ops:
        apply_op(store, model, op)
        check_observables(store, model)


@given(ops=OPS, compact_at=st.integers(0, 40))
@settings(deadline=None, max_examples=60)
def test_journal_round_trip_matches_model(ops, compact_at):
    """Any op sequence -> journal (+ one mid-sequence compaction) ->
    recover into a fresh store: identical to the original *and* to the
    model."""
    with tempfile.TemporaryDirectory() as directory:
        persistence = StorePersistence(directory, compact_every_ops=10_000)
        store = KeyValueStore(persistence)
        model = ModelStore()
        for i, op in enumerate(ops):
            apply_op(store, model, op)
            if i == compact_at:
                persistence.compact(store)
        recovered = KeyValueStore(StorePersistence(directory))
        assert recovered.snapshot_state() == store.snapshot_state()
        check_observables(recovered, model)
