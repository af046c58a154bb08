"""``Grouping.partition`` is ``Grouping.route`` applied to a whole batch.

The process workers route kernel output with one ``partition`` call per
batch and route, so every grouping's vectorized partition must pick, for
every consumer, exactly the rows the per-tuple router sends there, in
batch order, with the same counters.  Property-based over schemas
(including dictionary-encoded string columns and float corner cases
such as ``-0.0`` and NaN), key fields, counter bases and replica counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsps.streams import (
    BroadcastGrouping,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    ShuffleGrouping,
    key_digest,
)
from repro.errors import TopologyError
from repro.runtime.dataplane.columns import ColumnBatch, DictColumn

REPLICAS = (1, 2, 14)
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class SecondOpinion(Grouping):
    """A user-defined grouping with no ``partition`` override: it fans
    some rows out twice (possibly to the same replica) and drops none."""

    def route(self, item, n_consumers, counter):
        first = len(repr(item.values)) % n_consumers
        if counter % 3 == 0:
            return [first, counter % n_consumers]
        return [first]


def stamped(batch: ColumnBatch) -> ColumnBatch:
    """The executor-owned metadata a routed kernel output carries."""
    batch.source_task = 3
    batch.event_times = np.arange(len(batch), dtype="<f8")
    return batch


def _column(draw, code: str, rows: int):
    if code == "q":
        return draw(st.lists(INT64, min_size=rows, max_size=rows))
    if code == "d":
        return draw(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, 1.0]),
                ),
                min_size=rows,
                max_size=rows,
            )
        )
    if code == "?":
        return draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    if code == "s":
        # Few distinct values, so keys repeat and hit the memo.
        words = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4))
        return draw(
            st.lists(st.sampled_from(words), min_size=rows, max_size=rows)
        )
    # "D": codes into a table of distinct strings.
    table = draw(
        st.lists(st.text(max_size=6), min_size=1, max_size=6, unique=True)
    )
    codes = draw(
        st.lists(
            st.integers(0, len(table) - 1), min_size=rows, max_size=rows
        )
    )
    return DictColumn(codes, table)


@st.composite
def batches(draw, min_rows: int = 0):
    schema = draw(st.text(alphabet="qd?sD", min_size=1, max_size=4))
    rows = draw(st.integers(min_value=min_rows, max_value=40))
    columns = [_column(draw, code, rows) for code in schema]
    return stamped(
        ColumnBatch.build("default", schema.replace("D", "s"), columns)
    )


@st.composite
def groupings(draw, arity: int):
    kind = draw(
        st.sampled_from(["shuffle", "fields", "broadcast", "global", "custom"])
    )
    if kind == "shuffle":
        return ShuffleGrouping()
    if kind == "broadcast":
        return BroadcastGrouping()
    if kind == "global":
        return GlobalGrouping()
    if kind == "custom":
        return SecondOpinion()
    keys = draw(
        st.lists(
            st.integers(min_value=-arity, max_value=arity - 1),
            min_size=1,
            max_size=3,
        )
    )
    return FieldsGrouping(*keys)


def routed(grouping, batch, n_consumers, counter):
    """Per-row ``route`` over the burst tuples: the reference partition."""
    expected = [[] for _ in range(n_consumers)]
    for row, item in enumerate(batch.to_tuples()):
        for index in grouping.route(item, n_consumers, counter + row):
            expected[index].append(row)
    return expected


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    batch=batches(),
    n_consumers=st.sampled_from(REPLICAS),
    counter=st.integers(min_value=0, max_value=2**40),
)
def test_partition_equals_per_row_route(data, batch, n_consumers, counter):
    grouping = data.draw(groupings(len(batch.schema)))
    expected = routed(grouping, batch, n_consumers, counter)
    for _ in range(2):  # the second pass hits fields' digest memo
        parts = grouping.partition(batch, n_consumers, counter)
        assert len(parts) == n_consumers
        assert [part.tolist() for part in parts] == expected


def test_memo_keeps_equal_keys_of_different_types_apart():
    # True == 1 and 0.0 == -0.0, but each pair hashes differently.
    grouping = FieldsGrouping(0)
    for schema, values in (
        ("q", [1, 0, 1]),
        ("?", [True, False, True]),
        ("d", [0.0, -0.0, 1.0]),
        ("q", [0, 1, 0]),
    ):
        batch = stamped(ColumnBatch.build("default", schema, [values]))
        parts = grouping.partition(batch, 14, 0)
        assert [p.tolist() for p in parts] == routed(grouping, batch, 14, 0)


@settings(max_examples=100, deadline=None)
@given(
    batch=batches(min_rows=1),
    n_consumers=st.sampled_from(REPLICAS),
    beyond=st.integers(min_value=0, max_value=3),
    negative=st.booleans(),
)
def test_out_of_range_key_raises_like_route(batch, n_consumers, beyond, negative):
    arity = len(batch.schema)
    field = -(arity + 1 + beyond) if negative else arity + beyond
    grouping = FieldsGrouping(0, field)
    with pytest.raises(TopologyError):
        grouping.route(batch.to_tuples()[0], n_consumers, 0)
    with pytest.raises(TopologyError):
        grouping.partition(batch, n_consumers, 0)


def test_signed_zeros_are_different_keys():
    # Equal as floats, different reprs: a value-keyed memo would merge them.
    assert key_digest((0.0,)) != key_digest((-0.0,))
    batch = stamped(ColumnBatch.build("default", "d", [[0.0, -0.0] * 8]))
    parts = FieldsGrouping(0).partition(batch, 14, 0)
    assert [p.tolist() for p in parts] == routed(FieldsGrouping(0), batch, 14, 0)


def test_dict_column_keys_hash_like_their_strings():
    table = ["b", "a", "c"]
    batch = stamped(
        ColumnBatch.build(
            "default", "sq", [DictColumn([0, 1, 0, 2], table), [1, 2, 3, 4]]
        )
    )
    grouping = FieldsGrouping(0)
    assert batch.schema == "Dq"
    parts = grouping.partition(batch, 14, 0)
    for word, row in (("b", 0), ("a", 1), ("c", 3)):
        assert row in parts[key_digest((word,)) % 14]


def test_single_consumer_skips_the_hash(monkeypatch):
    def no_digest(key):
        raise AssertionError("a single replica needs no key digest")

    monkeypatch.setattr("repro.dsps.streams.key_digest", no_digest)
    batch = stamped(ColumnBatch.build("default", "qs", [[3, 1, 2], list("abc")]))
    item = batch.to_tuples()[0]
    for fields in ((0,), (1, 0), (-2, 1), (-1,)):
        grouping = FieldsGrouping(*fields)
        assert grouping.route(item, 1, 0) == [0]
        assert [p.tolist() for p in grouping.partition(batch, 1, 0)] == [[0, 1, 2]]
    for fields in ((0, 2), (-3,), (2, -3)):
        grouping = FieldsGrouping(*fields)
        with pytest.raises(TopologyError):
            grouping.route(item, 1, 0)
        with pytest.raises(TopologyError):
            grouping.partition(batch, 1, 0)
