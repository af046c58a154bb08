"""Streams and partitioning (grouping) strategies.

An edge of the logical DAG carries a *grouping* that decides, for every
tuple a producer replica emits, which consumer replica receives it.  The
strategies mirror Storm's groupings, which BriskStream adopts (Appendix A:
"partition controller ... according to application specified partition
strategies such as shuffle partitioning").

Every grouping routes one tuple (:meth:`Grouping.route`) or partitions a
whole columnar batch in one vectorized step (:meth:`Grouping.partition`);
the two are equivalent row for row, which ``tests/test_partition.py``
checks property-based.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.dsps.tuples import DEFAULT_STREAM, StreamTuple
from repro.errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover - runtime imports dsps, not vice versa
    from repro.runtime.dataplane.columns import ColumnBatch


def key_digest(key: tuple) -> int:
    """The fields-grouping hash of one key tuple.

    ``crc32`` of the key's ``repr`` is stable across processes and
    ``PYTHONHASHSEED`` values; keys must be pure-Python values (the
    ``repr`` of an ``np.int64`` differs from that of an ``int``).
    """
    return zlib.crc32(repr(key).encode("utf-8"))


#: A fields grouping drops its memoized digests past this many keys, so a
#: stream of ever-new keys cannot grow them without bound.
_MEMO_LIMIT = 1 << 16


class Grouping(ABC):
    """Strategy mapping an output tuple to consumer replica indices."""

    #: True when each tuple goes to exactly one consumer replica.
    unicast: bool = True

    @abstractmethod
    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        """Return the consumer replica indices that must receive ``item``.

        Parameters
        ----------
        item:
            The tuple being routed.
        n_consumers:
            Number of replicas of the consuming operator.
        counter:
            Monotone per-producer-edge counter, used by round-robin style
            strategies.
        """

    def partition(
        self, batch: "ColumnBatch", n_consumers: int, counter: int
    ) -> list[np.ndarray]:
        """Partition a columnar batch: the row indices each consumer
        replica receives, in batch order.

        Row ``i`` routes with counter ``counter + i``, exactly as the
        per-tuple router would.  This default bursts the batch and calls
        :meth:`route` per row, so a user-defined grouping is correct
        without a vectorized override.
        """
        rows: list[list[int]] = [[] for _ in range(n_consumers)]
        for offset, item in enumerate(batch.to_tuples()):
            for index in self.route(item, n_consumers, counter + offset):
                rows[index].append(offset)
        return [np.asarray(indices, dtype=np.intp) for indices in rows]

    def fan_out(self, n_consumers: int) -> float:
        """Average number of consumer replicas receiving each tuple."""
        return 1.0

    def rate_share(self, consumer_index: int, n_consumers: int) -> float:
        """Fraction of the producer's output rate reaching one replica.

        The performance model uses this to split an operator's output rate
        over the consumer's replicas without enumerating tuples.
        """
        if n_consumers <= 0:
            raise TopologyError("consumer replica count must be positive")
        return 1.0 / n_consumers


class ShuffleGrouping(Grouping):
    """Round-robin tuples over consumer replicas (load balancing)."""

    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        return [counter % n_consumers]

    def partition(
        self, batch: "ColumnBatch", n_consumers: int, counter: int
    ) -> list[np.ndarray]:
        # Consumer c takes every row r with (counter + r) % n == c.
        rows = len(batch)
        return [
            np.arange((index - counter) % n_consumers, rows, n_consumers)
            for index in range(n_consumers)
        ]


class FieldsGrouping(Grouping):
    """Hash-partition on key fields: same key -> same consumer replica."""

    def __init__(self, *key_fields: int) -> None:
        if not key_fields:
            raise TopologyError("fields grouping needs at least one key field")
        self.key_fields = tuple(key_fields)
        # Every key field indexes a record of arity n iff the extremes do
        # (-n <= lo and hi < n): the single-consumer shortcut checks only
        # these two.
        self._extremes = (min(key_fields), max(key_fields))
        # Digest memo per key-column typecodes: within one typecode
        # string, equal keys have equal reprs (True == 1 would not).
        self._memo: dict[str, dict] = {}

    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        try:
            if n_consumers == 1:  # one replica: no hash to compute
                for f in self._extremes:
                    item.values[f]
                return [0]
            key = tuple(item.values[f] for f in self.key_fields)
        except IndexError as exc:
            raise TopologyError(
                f"tuple {item.values!r} lacks key fields {self.key_fields}"
            ) from exc
        return [key_digest(key) % n_consumers]

    def partition(
        self, batch: "ColumnBatch", n_consumers: int, counter: int
    ) -> list[np.ndarray]:
        """Hash each distinct key once, memoized across batches (float
        keys excepted); a dictionary-coded key is first reduced to its
        distinct codes with ``np.unique``."""
        if len(batch) == 0:
            return [np.empty(0, dtype=np.intp) for _ in range(n_consumers)]
        try:
            if n_consumers == 1:  # one replica: every row, no hash
                for f in self._extremes:
                    batch.schema[f]
                return [np.arange(len(batch))]
            columns = [batch.columns[f] for f in self.key_fields]
            codes = "".join(batch.schema[f] for f in self.key_fields)
        except IndexError as exc:
            raise TopologyError(
                f"batch schema {batch.schema!r} lacks key fields "
                f"{self.key_fields}"
            ) from exc
        if codes == "D":
            column = columns[0]
            distinct, inverse = np.unique(column.codes, return_inverse=True)
            table = column.table
            keys = [(table[code],) for code in distinct.tolist()]
            digests = np.asarray(self._digests(codes, keys))[inverse]
        else:
            values = [
                column if isinstance(column, list) else column.tolist()
                for column in columns
            ]
            digests = np.asarray(self._digests(codes, zip(*values)))
        dest = digests % n_consumers
        return [np.flatnonzero(dest == index) for index in range(n_consumers)]

    def _digests(self, codes: str, keys) -> list[int]:
        """:func:`key_digest` of each key, memoized per key typecodes."""
        if "d" in codes:  # 0.0 == -0.0, but their reprs differ
            return [key_digest(key) for key in keys]
        memo = self._memo.get(codes)
        if memo is None or len(memo) > _MEMO_LIMIT:
            memo = self._memo[codes] = {}
        digests = []
        for key in keys:
            digest = memo.get(key)
            if digest is None:
                digest = memo[key] = key_digest(key)
            digests.append(digest)
        return digests


class BroadcastGrouping(Grouping):
    """Every consumer replica receives every tuple."""

    unicast = False

    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        return list(range(n_consumers))

    def partition(
        self, batch: "ColumnBatch", n_consumers: int, counter: int
    ) -> list[np.ndarray]:
        return [np.arange(len(batch))] * n_consumers

    def fan_out(self, n_consumers: int) -> float:
        return float(n_consumers)

    def rate_share(self, consumer_index: int, n_consumers: int) -> float:
        return 1.0


class GlobalGrouping(Grouping):
    """All tuples go to the lowest-indexed consumer replica."""

    def route(self, item: StreamTuple, n_consumers: int, counter: int) -> list[int]:
        return [0]

    def partition(
        self, batch: "ColumnBatch", n_consumers: int, counter: int
    ) -> list[np.ndarray]:
        none = np.empty(0, dtype=np.intp)
        return [np.arange(len(batch))] + [none] * (n_consumers - 1)

    def rate_share(self, consumer_index: int, n_consumers: int) -> float:
        return 1.0 if consumer_index == 0 else 0.0


@dataclass(frozen=True)
class StreamEdge:
    """A logical DAG edge: producer --(stream, grouping)--> consumer."""

    producer: str
    consumer: str
    stream: str = DEFAULT_STREAM
    grouping: Grouping = ShuffleGrouping()

    def describe(self) -> str:
        kind = type(self.grouping).__name__.replace("Grouping", "").lower()
        return f"{self.producer} --[{self.stream}/{kind}]--> {self.consumer}"


def shuffle() -> Grouping:
    """Convenience constructor for :class:`ShuffleGrouping`."""
    return ShuffleGrouping()


def fields(*key_fields: int) -> Grouping:
    """Convenience constructor for :class:`FieldsGrouping`."""
    return FieldsGrouping(*key_fields)


def broadcast() -> Grouping:
    """Convenience constructor for :class:`BroadcastGrouping`."""
    return BroadcastGrouping()


def global_() -> Grouping:
    """Convenience constructor for :class:`GlobalGrouping`."""
    return GlobalGrouping()
