"""White-box tests for columnar routing and the inline backend's intake.

The coalescing tests drive one :class:`~repro.runtime.taskcore.TaskCore`
directly — the routing both backends run — with an ``emit`` spy that
records every sealed message per edge:

* ``route_columns``: kernel output partitioned over a fan-out route is
  coalesced per edge into messages of exactly the edge's batch size (the
  last of a phase excepted), also after the edges are resized, and every
  row reaches the consumer, in the order, that per-tuple routing picks,
  with the same routing counters;
* per-edge FIFO holds between scalar tuples and columnar rows;
* dictionary columns over different decode tables never concatenate,
  neither in the edge buffer nor in a consumer's kernel runs.

The inline backend's own tests drive one ``_InlineRun`` over unbounded
queues, so a task loop never suspends:

* a kernel consumer runs its kernel once per run of joinable payloads
  and never takes the scalar path;
* a sink that keeps the default ``process`` takes columnar intake.
"""

from collections import Counter, defaultdict

import numpy as np

from repro.apps import load_application
from repro.dsps import LocalEngine
from repro.dsps.operators import Operator, Sink, Spout
from repro.dsps.topology import TopologyBuilder
from repro.dsps.tuples import DEFAULT_STREAM, JumboTuple, StreamTuple
from repro.metrics.registry import NULL_REGISTRY
from repro.runtime.backends import _InlineRun
from repro.runtime.config import RunConfig
from repro.runtime.dataplane.columns import ColumnBatch, DictColumn, column_runs
from repro.runtime.lowering import apply_edge_batches
from repro.runtime.taskcore import TaskCore

FANOUT = {"spout": 1, "parser": 1, "splitter": 1, "counter": 14, "sink": 1}


def make_run(topology=None, replication=None):
    """An inline run over the lowered spec (WC by default)."""
    if topology is None:
        topology, _ = load_application("wc")
    spec = LocalEngine(topology, replication=replication).spec
    return _InlineRun(spec, 100, NULL_REGISTRY, RunConfig()), spec


def make_core(replication=None):
    """A task core over every task of the lowered WC spec, and the
    messages it emits, per edge, in order."""
    topology, _ = load_application("wc")
    spec = LocalEngine(topology, replication=replication).spec
    sent = defaultdict(list)
    core = TaskCore(
        spec,
        spec.tasks,
        100,
        vectorized="auto",
        injector=None,
        registry=NULL_REGISTRY,
        emit=lambda producer, consumer, sealed: sent[(producer, consumer)].append(
            sealed
        ),
        fault=None,
    )
    return core, spec, sent


def task_of(spec, component):
    return next(rt for rt in spec.tasks if rt.component == component)


def drive(loop):
    """Run a task-loop generator to the end; it must never suspend."""
    for _ in loop:
        raise AssertionError("task loop suspended on unbounded queues")


def rows(message):
    if isinstance(message, ColumnBatch):
        return [t.values for t in message.to_tuples()]
    return [t.values for t in message.tuples]


def word_batch(words, producer):
    """A stamped kernel-output batch of one word column."""
    batch = ColumnBatch.build(DEFAULT_STREAM, "s", [list(words)])
    batch.source_task = producer
    batch.event_times = np.zeros(len(batch))
    return batch


class TestColumnarCoalescing:
    def _route_words(self, core, splitter, batches, n_rows):
        for b in range(batches):
            words = [f"w{(b * 7 + i) % 97}" for i in range(n_rows)]
            core.route_columns(splitter, word_batch(words, splitter.task_id))
        core.flush(splitter.task_id, final=False)  # phase end

    def _assert_full_batches(self, spec, sent, routed_rows):
        total = 0
        for edge, messages in sent.items():
            size = spec.batch_for(edge)
            lengths = [len(message) for message in messages]
            assert all(isinstance(m, ColumnBatch) for m in messages)
            assert all(n == size for n in lengths[:-1]), (edge, size, lengths)
            assert 0 < lengths[-1] <= size, (edge, size, lengths)
            total += sum(lengths)
        assert total == routed_rows

    def test_fields_edge_seals_exact_jumbo_batches(self):
        core, spec, sent = make_core(replication=FANOUT)
        splitter = task_of(spec, "splitter")
        (route,) = splitter.routes
        assert len(route.consumers) == 14
        self._route_words(core, splitter, batches=40, n_rows=64)
        assert len(sent) == 14
        self._assert_full_batches(spec, sent, 40 * 64)
        # A 14-way partition of a 64-row batch averages < 5 rows per
        # consumer; coalescing is what keeps messages full.
        assert sum(map(len, sent.values())) < 40 * 14 / 4

    def test_resized_edges_seal_at_their_new_size(self):
        core, spec, sent = make_core(replication=FANOUT)
        splitter = task_of(spec, "splitter")
        sizes = {
            (splitter.task_id, consumer): 5 + index
            for index, consumer in enumerate(splitter.routes[0].consumers)
        }
        # What a barrier's AIMD step does to a live run.
        spec = apply_edge_batches(spec, sizes)
        for edge, size in sizes.items():
            core.buffers[edge].batch_size = size
        self._route_words(core, splitter, batches=20, n_rows=64)
        assert {spec.batch_for(edge) for edge in sent} == set(range(5, 19))
        self._assert_full_batches(spec, sent, 20 * 64)

    def test_columns_reach_the_consumers_per_tuple_routing_picks(self):
        # Shuffle (3 splitters) and 14-way fields routes, odd batch
        # sizes: counters must advance by each batch's row count.
        replication = {**FANOUT, "splitter": 3}
        columnar, _, columnar_sent = make_core(replication=replication)
        scalar, spec, scalar_sent = make_core(replication=replication)
        for component in ("parser", "splitter"):
            rt = task_of(spec, component)
            for b, n in enumerate((5, 1, 7, 3, 9)):
                words = [f"w{(b * n + i) % 11}" for i in range(n)]
                batch = word_batch(words, rt.task_id)
                columnar.route_columns(rt, batch)
                for item in batch.to_tuples():
                    scalar.route(rt, item)
            columnar.flush(rt.task_id, final=False)
            scalar.flush(rt.task_id, final=False)
        expected = {
            edge: [values for m in messages for values in rows(m)]
            for edge, messages in scalar_sent.items()
        }
        assert len(expected) > 3 + 5  # every splitter, most counters
        assert {
            edge: [values for m in messages for values in rows(m)]
            for edge, messages in columnar_sent.items()
        } == expected
        assert columnar.counters == scalar.counters

    def test_scalar_tuples_between_columnar_batches_keep_edge_fifo(self):
        core, spec, sent = make_core(replication=FANOUT)
        splitter = task_of(spec, "splitter")
        order = []

        def columnar(tag, n):
            words = [f"{tag}{i}" for i in range(n)]
            order.extend(words)
            core.route_columns(splitter, word_batch(words, splitter.task_id))

        columnar("a", 50)
        for i in range(30):  # a scalar fallback batch, routed per tuple
            order.append(f"s{i}")
            core.route(
                splitter,
                StreamTuple(values=(f"s{i}",), source_task=splitter.task_id),
            )
        columnar("b", 50)
        core.flush(splitter.task_id, final=False)
        position = {word: i for i, word in enumerate(order)}
        seen = 0
        kinds = set()
        for edge, messages in sent.items():
            words = [values[0] for m in messages for values in rows(m)]
            ranks = [position[w] for w in words]
            assert ranks == sorted(ranks), edge
            seen += len(words)
            kinds.update(type(m) for m in messages)
        assert seen == len(order)
        assert kinds == {ColumnBatch, JumboTuple}

    def test_dict_columns_over_different_tables_never_concatenate(self):
        core, spec, sent = make_core()
        splitter = task_of(spec, "splitter")
        mirror, local = ["x", "y"], ["y", "x"]
        for table in (mirror, local, local):
            batch = ColumnBatch.build(
                DEFAULT_STREAM, "s", [DictColumn([0, 1, 1], table)]
            )
            batch.source_task = splitter.task_id
            batch.event_times = np.zeros(3)
            core.route_columns(splitter, batch)
        core.flush(splitter.task_id, final=False)
        ((edge, messages),) = sent.items()
        assert edge[0] == splitter.task_id
        assert [rows(m) for m in messages] == [
            [("x",), ("y",), ("y",)],
            [("y",), ("x",), ("x",)] * 2,
        ]
        assert [m.columns[0].table for m in messages] == [mirror, local]
        assert messages[0].columns[0].table is mirror
        # A consumer draining both messages runs its kernel twice.
        runs = list(column_runs(messages))
        assert [len(r) for r in runs] == [3, 6]
        assert [r.columns[0].table for r in runs] == [mirror, local]


# ---------------------------------------------------------------------------
# Kernel consumers: one kernel call per joinable run
# ---------------------------------------------------------------------------
class _Numbers(Spout):
    def next_batch(self, max_tuples):
        for i in range(max_tuples):
            yield (i,)


class _TwoSchemas(Operator):
    """Kernel-capable pass-through accepting one- and two-field rows."""

    column_schemas = ("q", "qq")

    def process(self, item):
        yield DEFAULT_STREAM, item.values

    def process_columns(self, batch):
        yield ColumnBatch.build(DEFAULT_STREAM, batch.schema, batch.columns)


def _two_schema_topology():
    builder = TopologyBuilder("two-schemas")
    builder.set_spout("spout", _Numbers())
    builder.add_operator("op", _TwoSchemas()).shuffle_from("spout")
    builder.add_sink("sink", Sink(keep_samples=10**6)).shuffle_from("op")
    return builder.build()


def _columns(schema, first, n, source):
    batch = ColumnBatch.build(
        DEFAULT_STREAM,
        schema,
        [np.arange(first, first + n)] * len(schema),
    )
    batch.source_task = source
    batch.event_times = np.zeros(n)
    return batch


def _tuples(first, n, source):
    return JumboTuple(
        source_task=source,
        target_task=-1,
        tuples=[
            StreamTuple(values=(i,), source_task=source)
            for i in range(first, first + n)
        ],
    )


def test_kernel_runs_once_per_joinable_run_and_never_goes_scalar():
    run, spec = make_run(_two_schema_topology())
    spout, op, sink = (task_of(spec, c) for c in ("spout", "op", "sink"))
    source = spout.task_id
    queue = run.queues[(source, op.task_id)]
    payloads = [
        _tuples(0, 3, source),
        _tuples(3, 2, source),  # joins the scalar run above
        _columns("q", 5, 4, source),
        _columns("q", 9, 2, source),  # joins
        _columns("qq", 11, 3, source),
        _columns("q", 14, 1, source),
        _columns("qq", 15, 2, source),
        _columns("qq", 17, 2, source),  # joins
    ]
    for payload in payloads:
        queue.put(payload)
    operator = run.core.instances[op.task_id]
    kernel_rows, scalar_calls = [], []
    kernel, process = operator.process_columns, operator.process

    def spy_kernel(batch):
        kernel_rows.append((batch.schema, len(batch)))
        return kernel(batch)

    def spy_process(item):
        scalar_calls.append(item)
        return process(item)

    operator.process_columns = spy_kernel
    operator.process = spy_process
    run.done.add(source)
    drive(run._task_loop(run.core.stages[op.task_id], 0, final=True))
    assert kernel_rows == [("q", 5), ("q", 6), ("qq", 3), ("q", 1), ("qq", 4)]
    assert scalar_calls == []
    assert run.core.vec == {"batches": 5, "tuples": 19, "fallbacks": 0}
    # Output stays columnar, in order, one sink message per run.
    messages = run.queues[(op.task_id, sink.task_id)].drain()
    assert all(isinstance(m, ColumnBatch) for m in messages)
    assert [m.schema for m in messages] == ["q", "qq", "q", "qq"]
    assert [values[0] for m in messages for values in rows(m)] == list(range(19))


def test_default_sinks_take_columns_and_overriding_process_opts_out(monkeypatch):
    class _ScalarSink(Sink):
        def process(self, item):
            return super().process(item)

    assert Sink.supports_columns()
    assert not _ScalarSink.supports_columns()
    calls = Counter()
    process, intake = Sink.process, Sink.process_columns

    def spy_process(self, item):
        calls["process"] += 1
        return process(self, item)

    def spy_intake(self, batch):
        calls["process_columns"] += 1
        return intake(self, batch)

    monkeypatch.setattr(Sink, "process", spy_process)
    monkeypatch.setattr(Sink, "process_columns", spy_intake)
    topology, _ = load_application("lr")
    result = LocalEngine(topology, vectorized="auto").run(500)
    assert result.sink_received() > 0
    assert calls["process"] == 0
    assert calls["process_columns"] > 0
