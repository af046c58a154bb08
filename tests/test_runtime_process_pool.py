"""White-box tests for the process backend's worker internals.

These run the ``_Worker`` machinery in-process (plain ``queue.Queue``
stand-ins for the mp inboxes, lists for the shared liveness arrays) to
pin the admission-control and bounded-blocking behavior that the
end-to-end suites can only observe indirectly:

* ``_admit``: hard admission refuses over-capacity batches (backpressure
  holds the message), soft admission always lands and is counted;
* ``_enqueue_backlog``: arrival mode drains cross-edge batches in
  arrival order, ordered mode in strict edge-declaration order;
* ``_blocking_put``: a full peer inbox blocks with bounded patience —
  a dead peer raises WorkerCrashError, a live-but-stuck one raises
  QueueDeadlockError after ``send_timeout_s`` (this path used to spin
  forever);
* columnar routing through the worker's task core: kernel output
  partitioned over a fan-out route reaches ``_dispatch_columns``
  coalesced per edge into jumbo batches of exactly the edge's batch size
  (the last of a slice excepted), also after ``begin_slice`` resizes the
  edges, in per-edge FIFO order with scalar tuples, never mixing
  dictionary columns over different decode tables.  The core itself is
  tested against an ``emit`` spy in ``tests/test_runtime_inline_columns.py``.
"""

import queue
import threading
from collections import defaultdict

import numpy as np
import pytest

from repro.apps import load_application
from repro.dsps import LocalEngine
from repro.dsps.tuples import StreamTuple
from repro.errors import (
    ExecutionError,
    QueueDeadlockError,
    WorkerCrashError,
)
from repro.metrics import MetricsRegistry
from repro.runtime import ProcessPoolBackend, shm_available
from repro.runtime.dataplane.columns import ColumnBatch, DictColumn
from repro.runtime.lowering import apply_edge_batches
from repro.runtime.process_pool import _STATUS_RUNNING, _Worker


def make_worker(
    *, ordered=False, queue_capacity=None, inboxes=None, replication=None,
    **kwargs,
):
    """A single-worker ``_Worker`` over the lowered WC spec."""
    topology, _ = load_application("wc")
    engine = LocalEngine(
        topology, queue_capacity=queue_capacity, replication=replication
    )
    spec = engine.spec
    owner = {rt.task_id: 0 for rt in spec.tasks}
    return (
        _Worker(
            0,
            spec,
            owner,
            100,
            inboxes if inboxes is not None else [queue.Queue()],
            ordered,
            **kwargs,
        ),
        spec,
    )


def tuples_of(n, producer=0):
    return [
        StreamTuple(values=(f"w{i}",), source_task=producer) for i in range(n)
    ]


def some_edge(spec):
    """An arbitrary (producer, consumer) edge of the lowered spec."""
    return spec.edges[0].producer, spec.edges[0].consumer


class TestConstructorValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"inbox_batches": 0},
            {"timeout_s": 0},
            {"timeout_s": -5.0},
            {"heartbeat_timeout_s": 0},
            {"send_timeout_s": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ExecutionError):
            ProcessPoolBackend(**kwargs)


class TestAdmission:
    def test_hard_admission_refuses_over_capacity(self):
        worker, spec = make_worker(queue_capacity=64)
        producer, consumer = some_edge(spec)
        assert worker._admit(producer, consumer, tuples_of(60), soft=False)
        # 60 buffered + 10 more would exceed the 64-tuple capacity.
        assert not worker._admit(producer, consumer, tuples_of(10), soft=False)
        assert worker.edge_depth[(producer, consumer)] == 60
        assert worker.metrics["overflow_admissions"] == 0

    def test_soft_admission_always_lands_and_is_counted(self):
        worker, spec = make_worker(queue_capacity=64)
        producer, consumer = some_edge(spec)
        assert worker._admit(producer, consumer, tuples_of(60), soft=True)
        assert worker._admit(producer, consumer, tuples_of(10), soft=True)
        assert worker.edge_depth[(producer, consumer)] == 70
        assert worker.metrics["overflow_admissions"] == 1

    def test_unbounded_edges_never_refuse(self):
        worker, spec = make_worker(queue_capacity=None)
        producer, consumer = some_edge(spec)
        for _ in range(10):
            assert worker._admit(producer, consumer, tuples_of(64), soft=False)
        assert worker.edge_depth[(producer, consumer)] == 640

    def test_depth_and_stats_bookkeeping(self):
        worker, spec = make_worker(queue_capacity=256)
        key = some_edge(spec)
        worker._enqueue_backlog(key, tuples_of(64))
        worker._enqueue_backlog(key, tuples_of(32))
        stats = worker.edge_stats[key]
        assert stats.enqueued_batches == 2
        assert stats.enqueued_tuples == 96
        assert stats.max_depth_tuples == 96
        assert worker.edge_depth[key] == 96


class TestBacklogDrainOrder:
    def test_arrival_mode_drains_in_arrival_order(self):
        worker, spec = make_worker(ordered=False)
        # A consumer with at least one input edge.
        rt = next(r for r in spec.tasks if r.in_edges)
        keys = [(e.producer, e.consumer) for e in rt.in_edges]
        first = tuples_of(3, producer=keys[0][0])
        second = tuples_of(2, producer=keys[0][0])
        worker._enqueue_backlog(keys[0], first)
        worker._enqueue_backlog(keys[0], second)
        got_key, got = worker._next_batch(rt)
        assert got_key == keys[0]
        assert got is first  # FIFO: first-arrived batch drains first
        _, got2 = worker._next_batch(rt)
        assert got2 is second

    def test_ordered_mode_respects_edge_declaration_order(self):
        # LR has true multi-input operators; use one to get >= 2 in-edges.
        topology, _ = load_application("lr")
        engine = LocalEngine(topology)
        spec = engine.spec
        rt = next(r for r in spec.tasks if len(r.in_edges) >= 2)
        owner = {t.task_id: 0 for t in spec.tasks}
        worker = _Worker(0, spec, owner, 100, [queue.Queue()], True)
        keys = [(e.producer, e.consumer) for e in rt.in_edges]
        late_edge_batch = tuples_of(2, producer=keys[1][0])
        worker._enqueue_backlog(keys[1], late_edge_batch)
        # The earliest declared edge has no data and no EOF: ordered mode
        # must wait for it rather than consume the later edge.
        assert worker._next_batch(rt) is None
        worker.eof.add(keys[0])
        got_key, got = worker._next_batch(rt)
        assert got_key == keys[1]
        assert got is late_edge_batch


class TestBoundedBlockingPut:
    def _two_worker_setup(self, *, status, send_timeout_s=0.2):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue(maxsize=1)
        peer_inbox.put(("batch", 0, 0, b"full"))  # peer inbox already full
        worker, _spec = make_worker(
            inboxes=[own_inbox, peer_inbox],
            status=status,
            send_timeout_s=send_timeout_s,
        )
        return worker

    def test_dead_peer_raises_worker_crash(self):
        status = [_STATUS_RUNNING, 70]  # parent recorded peer's exit code
        worker = self._two_worker_setup(status=status)
        with pytest.raises(WorkerCrashError, match="died"):
            worker._blocking_put(1, ("batch", 0, 0, b"payload"))

    def test_live_stuck_peer_raises_deadlock_after_timeout(self):
        status = [_STATUS_RUNNING, _STATUS_RUNNING]
        worker = self._two_worker_setup(status=status, send_timeout_s=0.2)
        with pytest.raises(QueueDeadlockError, match="blocked"):
            worker._blocking_put(1, ("batch", 0, 0, b"payload"))

    def test_send_completes_when_peer_drains(self):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue(maxsize=1)
        worker, _spec = make_worker(
            inboxes=[own_inbox, peer_inbox],
            status=[_STATUS_RUNNING, _STATUS_RUNNING],
        )
        worker._blocking_put(1, ("batch", 0, 0, b"payload"))
        assert peer_inbox.get_nowait() == ("batch", 0, 0, b"payload")

    def test_blocked_sender_keeps_draining_own_inbox(self):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue(maxsize=1)
        peer_inbox.put(("stuck",))
        worker, spec = make_worker(
            inboxes=[own_inbox, peer_inbox],
            status=[_STATUS_RUNNING, _STATUS_RUNNING],
            send_timeout_s=0.2,
        )
        # An EOF waiting in our own inbox must be absorbed while blocked
        # (soft receive), not left to deadlock the worker graph.
        producer, consumer = some_edge(spec)
        own_inbox.put(("eof", producer, consumer))
        with pytest.raises(QueueDeadlockError):
            worker._blocking_put(1, ("batch", 0, 0, b"payload"))
        assert (producer, consumer) in worker.eof


class TestSealedBatchByteAccounting:
    """Byte counters tick exactly once per sealed batch.

    ``pack()`` seals (and counts) a batch before ``_blocking_put`` starts
    retrying, so a send that blocks on a full peer inbox and loops must
    not inflate ``pickled_bytes_out``/``remote_batches_out``.
    """

    def test_retried_send_counts_bytes_once(self):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue(maxsize=1)
        peer_inbox.put(("stuck",))  # first try_put attempts fail
        worker, spec = make_worker(
            inboxes=[own_inbox, peer_inbox],
            status=[_STATUS_RUNNING, _STATUS_RUNNING],
            send_timeout_s=5.0,
        )
        producer, consumer = some_edge(spec)
        worker.owner[consumer] = 1  # force the remote-dispatch path
        # Unstick the peer inbox only after the sender has started
        # retrying, so the batch is demonstrably re-put at least once.
        threading.Timer(0.2, peer_inbox.get).start()
        worker._dispatch(producer, consumer, tuples_of(8, producer=producer))
        message = peer_inbox.get_nowait()
        assert message[0] == "batch"
        assert worker.metrics["send_blocks"] == 1  # the send did retry
        metrics = worker.channel.metrics
        assert metrics["remote_batches_out"] == 1
        assert metrics["pickled_bytes_out"] == len(message[3])

    def test_unblocked_send_counts_bytes_once(self):
        own_inbox = queue.Queue()
        peer_inbox = queue.Queue()
        worker, spec = make_worker(
            inboxes=[own_inbox, peer_inbox],
            status=[_STATUS_RUNNING, _STATUS_RUNNING],
        )
        producer, consumer = some_edge(spec)
        worker.owner[consumer] = 1
        for _ in range(3):
            worker._dispatch(producer, consumer, tuples_of(4, producer=producer))
        total = sum(len(peer_inbox.get_nowait()[3]) for _ in range(3))
        metrics = worker.channel.metrics
        assert metrics["remote_batches_out"] == 3
        assert metrics["pickled_bytes_out"] == total


#: WC with a 14-way fields edge (splitter -> counter).
FANOUT = {"spout": 1, "parser": 1, "splitter": 1, "counter": 14, "sink": 1}


def task_of(spec, component):
    return next(rt for rt in spec.tasks if rt.component == component)


def word_batch(words, producer):
    """A stamped kernel-output batch of one word column."""
    batch = ColumnBatch.build("default", "s", [list(words)])
    batch.source_task = producer
    batch.event_times = np.zeros(len(batch))
    return batch


def record_sends(worker):
    """Capture every dispatched message, in order, per edge: a list of
    ("columns" | "tuples", rows, batch) with rows as value tuples."""
    sent = defaultdict(list)

    def columns(producer, consumer, batch):
        sent[(producer, consumer)].append(
            ("columns", [t.values for t in batch.to_tuples()], batch)
        )

    def tuples(producer, consumer, items):
        sent[(producer, consumer)].append(
            ("tuples", [t.values for t in items], None)
        )

    worker._dispatch_columns = columns
    worker._dispatch = tuples
    return sent


class TestColumnarCoalescing:
    def _route_words(self, worker, splitter, batches, rows):
        for b in range(batches):
            worker.core.route_columns(
                splitter,
                word_batch(
                    [f"w{(b * 7 + i) % 97}" for i in range(rows)],
                    splitter.task_id,
                ),
            )
        worker.core.flush(splitter.task_id, final=False)  # slice end

    def _assert_full_batches(self, worker, sent, routed_rows):
        total = 0
        for edge, messages in sent.items():
            size = worker.spec.batch_for(edge)
            lengths = [len(rows) for kind, rows, _ in messages]
            assert all(kind == "columns" for kind, _, _ in messages)
            assert all(n == size for n in lengths[:-1]), (edge, size, lengths)
            assert 0 < lengths[-1] <= size, (edge, size, lengths)
            total += sum(lengths)
        assert total == routed_rows

    def test_fields_edge_seals_exact_jumbo_batches(self):
        worker, spec = make_worker(replication=FANOUT)
        splitter = task_of(spec, "splitter")
        (route,) = splitter.routes
        assert len(route.consumers) == 14
        sent = record_sends(worker)
        self._route_words(worker, splitter, batches=40, rows=64)
        assert len(sent) == 14
        self._assert_full_batches(worker, sent, 40 * 64)
        # A 14-way partition of a 64-row batch averages < 5 rows per
        # consumer; coalescing is what keeps messages full.
        assert sum(map(len, sent.values())) < 40 * 14 / 4

    def test_resized_edges_seal_at_their_new_size(self):
        worker, spec = make_worker(replication=FANOUT)
        splitter = task_of(spec, "splitter")
        edges = [(splitter.task_id, c) for c in splitter.routes[0].consumers]
        resized = apply_edge_batches(
            spec, {edge: 5 + index for index, edge in enumerate(edges)}
        )
        worker.begin_slice(100, True, None, dict(resized.edge_batch_size), None)
        sent = record_sends(worker)
        self._route_words(worker, splitter, batches=20, rows=64)
        assert {worker.spec.batch_for(e) for e in sent} == set(range(5, 19))
        self._assert_full_batches(worker, sent, 20 * 64)

    def test_scalar_tuples_between_columnar_batches_keep_edge_fifo(self):
        worker, spec = make_worker(replication=FANOUT)
        splitter = task_of(spec, "splitter")
        sent = record_sends(worker)
        order = []

        def columnar(tag, n):
            words = [f"{tag}{i}" for i in range(n)]
            order.extend(words)
            worker.core.route_columns(
                splitter, word_batch(words, splitter.task_id)
            )

        columnar("a", 50)
        for i in range(30):  # a scalar fallback batch, routed per tuple
            order.append(f"s{i}")
            worker.core.route(
                splitter,
                StreamTuple(values=(f"s{i}",), source_task=splitter.task_id),
            )
        columnar("b", 50)
        worker.core.flush(splitter.task_id, final=False)
        position = {word: i for i, word in enumerate(order)}
        seen = 0
        for edge, messages in sent.items():
            words = [values[0] for _, rows, _ in messages for values in rows]
            ranks = [position[w] for w in words]
            assert ranks == sorted(ranks), edge
            seen += len(words)
        assert seen == len(order)
        kinds = {kind for messages in sent.values() for kind, _, _ in messages}
        assert kinds == {"columns", "tuples"}

    def test_dict_columns_over_different_tables_never_concatenate(self):
        worker, spec = make_worker()
        splitter = task_of(spec, "splitter")
        edge = (splitter.task_id, splitter.routes[0].consumers[0])
        sent = record_sends(worker)
        mirror, local = ["x", "y"], ["y", "x"]
        for table in (mirror, local, local):
            batch = ColumnBatch.build(
                "default", "s", [DictColumn([0, 1, 1], table)]
            )
            batch.source_task = splitter.task_id
            batch.event_times = np.zeros(3)
            worker.core.route_columns(splitter, batch)
        worker.core.flush(splitter.task_id, final=False)
        assert list(sent) == [edge]
        messages = sent[edge]
        assert [rows for _, rows, _ in messages] == [
            [("x",), ("y",), ("y",)],
            [("y",), ("x",), ("x",)] * 2,
        ]
        assert [m[2].columns[0].table for m in messages] == [mirror, local]
        assert messages[0][2].columns[0].table is mirror


@pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
def test_wc_fanout_on_shm_never_falls_back_to_pickle():
    topology, _ = load_application("wc")
    topology.component("sink").template.keep_samples = 10**6
    replication = {"spout": 1, "parser": 2, "splitter": 2, "counter": 2, "sink": 1}
    registry = MetricsRegistry()
    result = LocalEngine(
        topology,
        replication=replication,
        registry=registry,
        backend=ProcessPoolBackend(
            n_workers=2, dataplane="shm", vectorized="on", string_dict="on"
        ),
    ).run(400)
    reference = LocalEngine(
        load_application("wc")[0], replication=replication, vectorized="off"
    ).run(400)
    assert result.sink_received() == reference.sink_received()
    counters = registry.snapshot()["counters"]
    assert counters.get("runtime.dataplane.codec_fallbacks", 0) == 0
    assert counters.get("runtime.vectorized.fallbacks", 0) == 0
    assert counters["runtime.vectorized.batches"] > 0
