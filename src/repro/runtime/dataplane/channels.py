"""Transport half of the data plane: how sealed batches cross workers.

BriskStream's central runtime claim is that tuples cross sockets by
*reference*: the producer writes the payload once and hands the consumer
a pointer (Appendix A).  The process backend's original transport was the
opposite — every sealed batch was pickled and *copied* through an
OS-pipe-backed ``mp.Queue``.  This module makes the transport pluggable:

* :class:`PickleQueueChannel` — the original behavior, refactored out of
  ``process_pool.py``: batches travel as pickled payloads inside the
  bounded control queue.  Still the default.
* :class:`ShmRingChannel` — the pass-by-reference analogue.  One
  fixed-size :class:`ShmRing` (a SPSC byte ring over
  ``multiprocessing.shared_memory``) per ordered producer→consumer
  *worker* pair.  A sealed batch is encoded once with the binary
  :class:`~repro.runtime.dataplane.codec.BatchCodec` and written once
  into the ring; only a tiny ``(offset, length)`` descriptor crosses the
  control queue.  When a ring is full (or a payload exceeds its
  capacity) the encoded batch falls back to travelling out-of-band
  inside the control message — counted, never blocking correctness.

Both sides keep the worker's existing flow control: the bounded control
queue is still what backpressure, spout throttling and the blocked-send
watchdogs act on, so the ring only changes *where bytes live*, not the
liveness story.

Ring layout (one ring per directed worker pair)::

      offset 0        8        16                       16+capacity
      +--------+--------+------------------------------+
      | write  | read   |  data region (byte ring)     |
      | pos u64| pos u64|                              |
      +--------+--------+------------------------------+

Positions are *monotonic* byte counters (never wrapped), so ``write_pos -
read_pos`` is the exact number of unconsumed bytes; the physical offset
of position ``p`` is ``16 + p % capacity`` and a payload crossing the end
of the region is written/read as two slices.  The producer writes data
before publishing ``write_pos``; the consumer copies data out before
publishing ``read_pos``; each counter has exactly one writer, which makes
the ring safe without locks on architectures with aligned 8-byte stores
(every platform CPython's shared memory supports).

Descriptor ordering relies on a per-sender FIFO guarantee the control
queue provides (one feeder per sending process): descriptors for one
ring arrive in write order, so the consumer's ``read_pos`` only ever
advances to the end of the oldest unconsumed payload.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue as queue_mod
import struct
from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Any, Mapping

from repro.dsps.tuples import StreamTuple
from repro.errors import ExecutionError
from repro.runtime.dataplane.codec import BatchCodec
from repro.runtime.dataplane.columns import ColumnBatch

#: Data-plane names accepted by ``--dataplane`` and ``create_dataplane``.
DATAPLANE_NAMES = ("pickle", "shm")

#: Shared-memory segment name prefix (kept short for macOS's 31-char cap).
SHM_NAME_PREFIX = "rdp"

#: Per-worker-pair ring capacity in bytes.
DEFAULT_RING_BYTES = 1 << 20

#: Bound, in jumbo batches, of each worker's inbox queue.
DEFAULT_INBOX_BATCHES = 64

#: Ring header: two u64 positions (write, read).
_RING_HEADER_BYTES = 16

_POS = struct.Struct("<Q")

_ring_sequence = itertools.count()


def shm_available() -> bool:
    """True when POSIX shared memory actually works on this platform."""
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=16)
        probe.close()
        probe.unlink()
        return True
    except Exception:
        return False


class _suppress_tracking:
    """Silence resource-tracker registration while attaching a segment.

    On POSIX, ``SharedMemory(name=...)`` registers the segment with the
    resource tracker even when merely *attaching* (fixed only in 3.13's
    ``track=False``).  Segment lifetime belongs to the parent — which
    created it and unlinks it in ``DataPlane.close`` — so an attacher
    must leave the tracker untouched: under ``fork`` all processes share
    one tracker whose cache is a set, and attach-side register/unregister
    pairs would unbalance the creator's entry.
    """

    def __enter__(self) -> None:
        from multiprocessing import resource_tracker

        self._module = resource_tracker
        self._register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None

    def __exit__(self, *exc: Any) -> None:
        self._module.register = self._register


class ShmRing:
    """Single-producer single-consumer byte ring over one shm segment."""

    def __init__(self, shm: Any, capacity: int) -> None:
        self._shm = shm
        self.capacity = capacity

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(cls, name: str, capacity: int) -> "ShmRing":
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            name=name, create=True, size=_RING_HEADER_BYTES + capacity
        )
        shm.buf[:_RING_HEADER_BYTES] = bytes(_RING_HEADER_BYTES)
        return cls(shm, capacity)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        from multiprocessing import shared_memory

        with _suppress_tracking():
            shm = shared_memory.SharedMemory(name=name)
        return cls(shm, shm.size - _RING_HEADER_BYTES)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        try:
            self._shm.close()
        except Exception:  # pragma: no cover - idempotent teardown
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # -- positions ------------------------------------------------------
    def _write_pos(self) -> int:
        return _POS.unpack_from(self._shm.buf, 0)[0]

    def _read_pos(self) -> int:
        return _POS.unpack_from(self._shm.buf, 8)[0]

    # -- producer side --------------------------------------------------
    def try_write(self, payload: bytes) -> int | None:
        """Copy ``payload`` into the ring; its start position, or None
        when the payload does not fit right now (or ever)."""
        size = len(payload)
        write = self._write_pos()
        if size > self.capacity - (write - self._read_pos()):
            return None
        start = write % self.capacity
        end = start + size
        buf = self._shm.buf
        if end <= self.capacity:
            buf[
                _RING_HEADER_BYTES + start : _RING_HEADER_BYTES + end
            ] = payload
        else:
            split = self.capacity - start
            buf[_RING_HEADER_BYTES + start : _RING_HEADER_BYTES + self.capacity] = (
                payload[:split]
            )
            buf[_RING_HEADER_BYTES : _RING_HEADER_BYTES + size - split] = payload[
                split:
            ]
        # Publish after the data is in place: the consumer never reads
        # bytes beyond write_pos.
        _POS.pack_into(buf, 0, write + size)
        return write

    # -- consumer side --------------------------------------------------
    def consume(self, start: int, size: int) -> bytes:
        """Copy ``size`` bytes written at position ``start`` out of the
        ring and free them (advances ``read_pos`` past the payload)."""
        offset = start % self.capacity
        end = offset + size
        buf = self._shm.buf
        if end <= self.capacity:
            payload = bytes(
                buf[_RING_HEADER_BYTES + offset : _RING_HEADER_BYTES + end]
            )
        else:
            split = self.capacity - offset
            payload = bytes(
                buf[_RING_HEADER_BYTES + offset : _RING_HEADER_BYTES + self.capacity]
            ) + bytes(buf[_RING_HEADER_BYTES : _RING_HEADER_BYTES + size - split])
        # Free only after the copy: the producer may reuse the space as
        # soon as read_pos moves.
        _POS.pack_into(buf, 8, start + size)
        return payload


# ----------------------------------------------------------------------
# Worker-side endpoints
# ----------------------------------------------------------------------
class ChannelEndpoint(ABC):
    """One worker's view of the data plane.

    The worker keeps all scheduling/liveness logic (bounded blocking
    sends, soft draining, EOF bookkeeping) and talks to the transport
    only through this interface.  ``pack`` serializes a sealed batch
    exactly once — byte counters live here, so retried puts of the same
    message can never double-count (see docs/dataplane.md).

    Endpoints are built parent-side (picklable) and activated in the
    worker process via :meth:`connect`.
    """

    plane: str = "abstract"

    def __init__(self, worker_id: int, inboxes: list) -> None:
        self.me = worker_id
        self.inboxes = inboxes
        self.metrics: dict[str, float] = defaultdict(float)

    def connect(self) -> None:
        """Attach process-local resources (called in the worker)."""

    def close(self) -> None:
        """Release process-local resources (never unlinks segments)."""

    def snapshot_metrics(self) -> dict[str, float]:
        """Channel counters to merge into the worker's result metrics."""
        return dict(self.metrics)

    # -- serialization --------------------------------------------------
    @abstractmethod
    def pack(
        self, dest: int, producer: int, consumer: int, tuples: list[StreamTuple]
    ) -> tuple:
        """Serialize one sealed batch into a control message for ``dest``."""

    @abstractmethod
    def unpack(self, message: tuple) -> tuple[int, int, list[StreamTuple]]:
        """Inverse of :meth:`pack`: ``(producer, consumer, tuples)``."""

    def peek_consumer(self, message: tuple) -> int:
        """Consumer task id of a data message, without unpacking it.

        Lets the receiving worker decide *how* to unpack — columnar for
        consumers with a vectorized kernel, rows otherwise — before
        paying for the payload.
        """
        return message[3] if message[0] == "shm" else message[2]

    def pack_columns(
        self, dest: int, producer: int, consumer: int, batch: ColumnBatch
    ) -> tuple:
        """Serialize one :class:`ColumnBatch` into a control message.

        Default burst-and-pack keeps any endpoint correct; the concrete
        channels override it to keep the payload columnar end-to-end.
        """
        return self.pack(dest, producer, consumer, batch.to_tuples())

    def unpack_columns(
        self, message: tuple
    ) -> "tuple[int, int, ColumnBatch | list[StreamTuple]]":
        """Unpack preferring a :class:`ColumnBatch` payload.

        Falls back to row unpacking when the payload cannot stay
        columnar (pickle fallbacks, row-packed messages); callers must
        accept either payload shape.
        """
        return self.unpack(message)

    # -- control queue --------------------------------------------------
    def try_put(self, dest: int, message: tuple) -> bool:
        try:
            self.inboxes[dest].put_nowait(message)
            return True
        except queue_mod.Full:
            return False

    def try_get(self) -> tuple | None:
        try:
            return self.inboxes[self.me].get_nowait()
        except queue_mod.Empty:
            return None

    def dest_full(self, dest: int) -> bool:
        try:
            return self.inboxes[dest].full()
        except NotImplementedError:  # pragma: no cover - platform specific
            return False


class PickleQueueChannel(ChannelEndpoint):
    """The historical transport: pickled batches inside the control queue."""

    plane = "pickle"

    def pack(
        self, dest: int, producer: int, consumer: int, tuples: list[StreamTuple]
    ) -> tuple:
        payload = pickle.dumps(tuples, protocol=pickle.HIGHEST_PROTOCOL)
        self.metrics["pickled_bytes_out"] += len(payload)
        self.metrics["remote_batches_out"] += 1
        return ("batch", producer, consumer, payload)

    def unpack(self, message: tuple) -> tuple[int, int, list[StreamTuple]]:
        _, producer, consumer, payload = message
        return producer, consumer, pickle.loads(payload)

    def pack_columns(
        self, dest: int, producer: int, consumer: int, batch: ColumnBatch
    ) -> tuple:
        # Ship the ColumnBatch object itself: the receiver's unpack
        # (columns or rows) loads it and bursts only if it must.
        payload = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        self.metrics["pickled_bytes_out"] += len(payload)
        self.metrics["remote_batches_out"] += 1
        return ("batch", producer, consumer, payload)


class ShmRingChannel(ChannelEndpoint):
    """Codec-encoded batches written once into per-pair shm rings.

    Control messages are either ``("shm", sender, producer, consumer,
    start, length)`` descriptors pointing into the sender→receiver ring,
    or ``("batch", producer, consumer, payload)`` out-of-band fallbacks
    when the ring is full or the payload oversized.
    """

    plane = "shm"

    def __init__(
        self,
        worker_id: int,
        inboxes: list,
        ring_names: Mapping[tuple[int, int], str],
        edge_schemas: Mapping[tuple[int, int], str] | None = None,
        string_dict: str = "auto",
    ) -> None:
        super().__init__(worker_id, inboxes)
        self.ring_names = dict(ring_names)
        self.edge_schemas = dict(edge_schemas or {})
        self.string_dict = string_dict
        self.codec: BatchCodec | None = None
        self.send_rings: dict[int, ShmRing] = {}
        self.recv_rings: dict[int, ShmRing] = {}

    def connect(self) -> None:
        # The codec — and with it all per-edge dictionary/mirror state —
        # is built fresh inside the worker process, once per worker pool:
        # both ends persist across epoch slices, and a Supervisor retry or
        # a migration restart reconnects, resetting producer dictionaries
        # and consumer mirrors together.
        self.codec = BatchCodec(
            self.edge_schemas, string_dict=self.string_dict
        )
        for (sender, dest), name in self.ring_names.items():
            if sender == self.me:
                self.send_rings[dest] = ShmRing.attach(name)
            elif dest == self.me:
                self.recv_rings[sender] = ShmRing.attach(name)

    def close(self) -> None:
        for ring in (*self.send_rings.values(), *self.recv_rings.values()):
            ring.close()
        self.send_rings.clear()
        self.recv_rings.clear()

    def snapshot_metrics(self) -> dict[str, float]:
        snapshot = dict(self.metrics)
        if self.codec is not None:
            codec = self.codec
            snapshot["codec_fallbacks"] = float(codec.fallback_batches)
            snapshot["dict_columns"] = float(codec.dict_columns)
            snapshot["dict_pages"] = float(codec.dict_pages)
            snapshot["dict_bytes"] = float(codec.dict_bytes)
            snapshot["dict_promotions"] = float(codec.dict_promotions)
            snapshot["dict_demotions"] = float(codec.dict_demotions)
        return snapshot

    def pack(
        self, dest: int, producer: int, consumer: int, tuples: list[StreamTuple]
    ) -> tuple:
        payload = self.codec.encode((producer, consumer), tuples)
        return self._ship(dest, producer, consumer, payload)

    def pack_columns(
        self, dest: int, producer: int, consumer: int, batch: ColumnBatch
    ) -> tuple:
        # Same wire format as pack() on the burst rows, emitted straight
        # from the columns — the receiver cannot tell which side packed.
        payload = self.codec.encode_columns((producer, consumer), batch)
        return self._ship(dest, producer, consumer, payload)

    def _ship(
        self, dest: int, producer: int, consumer: int, payload: bytes
    ) -> tuple:
        self.metrics["remote_batches_out"] += 1
        ring = self.send_rings.get(dest)
        if ring is not None:
            start = ring.try_write(payload)
            if start is not None:
                self.metrics["bytes_inline"] += len(payload)
                return ("shm", self.me, producer, consumer, start, len(payload))
            self.metrics["ring_full_blocks"] += 1
        self.metrics["bytes_oob"] += len(payload)
        return ("batch", producer, consumer, payload)

    def _consume(self, message: tuple) -> tuple[int, int, bytes]:
        if message[0] == "shm":
            _, sender, producer, consumer, start, length = message
            payload = self.recv_rings[sender].consume(start, length)
        else:
            _, producer, consumer, payload = message
        return producer, consumer, payload

    def unpack(self, message: tuple) -> tuple[int, int, list[StreamTuple]]:
        producer, consumer, payload = self._consume(message)
        edge = (producer, consumer)
        return producer, consumer, self.codec.decode(payload, edge)

    def unpack_columns(
        self, message: tuple
    ) -> "tuple[int, int, ColumnBatch | list[StreamTuple]]":
        producer, consumer, payload = self._consume(message)
        edge = (producer, consumer)
        batch = self.codec.decode_columns(payload, edge)
        if batch is None:  # pickle fallback or empty: rows it is
            return producer, consumer, self.codec.decode(payload, edge)
        return producer, consumer, batch


# ----------------------------------------------------------------------
# Parent-side planes
# ----------------------------------------------------------------------
class DataPlane(ABC):
    """Parent-side owner of a run's transport resources.

    Created per ``execute()`` attempt; ``close`` must be unconditionally
    safe to call from the backend's ``finally`` block — including after
    worker crashes — because it is what guarantees shared-memory
    segments never outlive a run (no leaked ``/dev/shm`` entries).
    """

    name: str = "abstract"

    def __init__(self, ctx: Any, n_workers: int) -> None:
        self.n_workers = n_workers
        self.inboxes = [
            ctx.Queue(maxsize=DEFAULT_INBOX_BATCHES) for _ in range(n_workers)
        ]

    @abstractmethod
    def endpoint(self, worker_id: int) -> ChannelEndpoint:
        """A (picklable, unconnected) endpoint for one worker."""

    def close(self) -> None:
        for inbox in self.inboxes:
            inbox.cancel_join_thread()


class PickleDataPlane(DataPlane):
    name = "pickle"

    def endpoint(self, worker_id: int) -> PickleQueueChannel:
        return PickleQueueChannel(worker_id, self.inboxes)


class ShmDataPlane(DataPlane):
    name = "shm"

    def __init__(
        self,
        ctx: Any,
        n_workers: int,
        *,
        edge_schemas: Mapping[tuple[int, int], str] | None = None,
        string_dict: str = "auto",
    ) -> None:
        super().__init__(ctx, n_workers)
        self.edge_schemas = dict(edge_schemas or {})
        self.string_dict = string_dict
        self.rings: dict[tuple[int, int], ShmRing] = {}
        run_tag = f"{SHM_NAME_PREFIX}{os.getpid():x}_{next(_ring_sequence):x}"
        try:
            for sender in range(n_workers):
                for dest in range(n_workers):
                    if sender == dest:
                        continue
                    name = f"{run_tag}_{sender}_{dest}"
                    self.rings[(sender, dest)] = ShmRing.create(name, DEFAULT_RING_BYTES)
        except Exception as exc:
            self.close()
            raise ExecutionError(
                f"cannot create shared-memory rings ({exc!r}); "
                "use --dataplane pickle on this platform"
            ) from exc

    def endpoint(self, worker_id: int) -> ShmRingChannel:
        return ShmRingChannel(
            worker_id,
            self.inboxes,
            {key: ring.name for key, ring in self.rings.items()},
            self.edge_schemas,
            self.string_dict,
        )

    def close(self) -> None:
        super().close()
        for ring in self.rings.values():
            ring.close()
            ring.unlink()
        self.rings.clear()


def create_dataplane(
    name: str,
    ctx: Any,
    n_workers: int,
    *,
    edge_schemas: Mapping[tuple[int, int], str] | None = None,
    string_dict: str = "auto",
) -> DataPlane:
    """Build the parent-side data plane for one execution attempt."""
    if name == "pickle":
        return PickleDataPlane(ctx, n_workers)
    if name == "shm":
        if not shm_available():
            raise ExecutionError(
                "dataplane 'shm' is unavailable: this platform has no "
                "working POSIX shared memory; use --dataplane pickle"
            )
        return ShmDataPlane(
            ctx,
            n_workers,
            edge_schemas=edge_schemas,
            string_dict=string_dict,
        )
    raise ExecutionError(
        f"unknown dataplane {name!r}; expected one of {DATAPLANE_NAMES}"
    )
