"""One task-execution core, driven by both executor backends.

In BriskStream a producer–consumer pair's relative location changes only
the cost of the transfer between them (Tf); operator execution (Te) is
the same wherever it runs.  :class:`TaskCore` is that split in code: it
executes a set of tasks — spouts, operators and fused chains — and hands
every sealed output batch to the backend through one hook.  The inline
scheduler (:mod:`repro.runtime.backends`) and each process worker
(:mod:`repro.runtime.process_pool`) drive a core for the tasks they own
and keep only what really differs between them: scheduling, queues or
channels, backpressure, EOF, barriers and migration.

The core owns, for its tasks:

* operator instances, :class:`~repro.runtime.results.TaskStats`, routing
  counters, the per-edge :class:`~repro.runtime.dataplane.columns.EdgeBuffer`
  jumbo formers and the spout sources (restored from an
  :class:`~repro.runtime.epochs.EpochCheckpoint` on resume);
* the one capability gate choosing, per task, the columnar kernel
  (``process_columns``), the batch tier (``process_batch``) or per-tuple
  ``process``, with each kernel's negotiated input schemas;
* the ``runtime.vectorized.*`` and ``runtime.fusion.*`` counts and, when a
  live registry is given, the per-call ``engine.<op>.<replica>.process_ns``
  histograms.

Two plain-call hooks connect it to a backend: ``emit(producer, consumer,
sealed)`` receives every sealed edge payload (a
:class:`~repro.dsps.tuples.JumboTuple` or a ``ColumnBatch``) in per-edge
FIFO order, and ``fault(rt, fault)`` acts on an injected fault fired at a
task (raise, crash or stall — whatever that means for the backend).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.dsps.operators import Operator
from repro.dsps.tuples import JumboTuple, StreamTuple
from repro.metrics.registry import MetricsRegistry
from repro.runtime.dataplane.columns import (
    ColumnBatch,
    EdgeBuffer,
    burst,
    column_runs,
    schema_accepts,
)
from repro.runtime.epochs import EpochCheckpoint, fast_forward
from repro.runtime.lowering import RuntimeSpec, TaskRuntime, instantiate_task
from repro.runtime.results import TaskStats

if TYPE_CHECKING:
    from repro.runtime.faults import Fault, FaultInjector
    from repro.runtime.overload import Shedder

    #: ``emit(producer, consumer, sealed)``: dispatch one sealed payload.
    Emit = Callable[[int, int, "JumboTuple | ColumnBatch"], None]
    #: ``fault(rt, fault)``: act on a fault fired at task ``rt``.
    OnFault = Callable[[TaskRuntime, Fault], None]

#: A source's end (spouts yield value tuples, never this object).
_DRY = object()


class TaskCore:
    """Executes ``tasks`` of ``spec``; see the module docstring.

    Every method runs to completion and never blocks: whatever it seals
    goes straight to ``emit``, so a backend that must suspend on a full
    queue collects the payloads and enqueues them after the call.
    """

    def __init__(
        self,
        spec: RuntimeSpec,
        tasks: Sequence[TaskRuntime],
        max_events: int,
        *,
        vectorized: str,
        injector: "FaultInjector | None",
        registry: MetricsRegistry,
        emit: "Emit",
        fault: "OnFault",
        resume: EpochCheckpoint | None = None,
    ) -> None:
        self.max_events = max_events
        self.injector = injector
        self.emit = emit
        self.fault = fault
        #: Spout-side load shedder while the overload ladder sheds (the
        #: backend sets it per phase or slice), else None.
        self.shedder: "Shedder | None" = None
        self.instances = {rt.task_id: instantiate_task(spec, rt) for rt in tasks}
        self.stats = {
            rt.task_id: TaskStats(task_id=rt.task_id, component=rt.component)
            for rt in tasks
        }
        self.buffers = {
            (edge.producer, edge.consumer): EdgeBuffer(
                edge.producer,
                edge.consumer,
                spec.batch_for((edge.producer, edge.consumer)),
            )
            for rt in tasks
            for edge in rt.out_edges
        }
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        # runtime.vectorized.{batches,tuples,fallbacks} and
        # runtime.fusion.{composed_batches,composed_tuples,fallbacks}.
        self.vec = {"batches": 0, "tuples": 0, "fallbacks": 0}
        self.fus = {"composed_batches": 0, "composed_tuples": 0, "fallbacks": 0}
        # The capability gate.  ``kernels`` maps each task that runs its
        # columnar kernel to the kernel's input schemas (None = any);
        # ``capable`` also holds kernel tasks disabled by fault injection
        # (per-tuple fault ticks need per-tuple calls), whose input then
        # counts as a vectorized fallback.  ``batched`` tasks override
        # process_batch; fused stages keep per-tuple calls.
        self.kernels: dict[int, frozenset | None] = {}
        self.capable: set[int] = set()
        self.batched: set[int] = set()
        for task_id, instance in self.instances.items():
            if not isinstance(instance, Operator):
                continue
            if vectorized != "off" and instance.supports_columns():
                self.capable.add(task_id)
                if injector is None:
                    schemas = instance.column_schemas
                    self.kernels[task_id] = (
                        None if schemas is None else frozenset(schemas)
                    )
            if (
                injector is None
                and type(instance).process_batch is not Operator.process_batch
            ):
                self.batched.add(task_id)
        self.histograms = (
            {
                rt.task_id: registry.histogram(
                    f"engine.{rt.component}.{rt.task.replica_start}.process_ns"
                )
                for rt in tasks
            }
            if registry.enabled
            else {}
        )
        self.spout_produced = {rt.task_id: 0 for rt in tasks if rt.is_spout}
        self.exhausted: set[int] = set()  # spouts whose source ran dry
        self.spout_iters: dict[int, Any] = {}
        if resume is not None:
            # Restore this core's operator state, routing counters,
            # cumulative statistics and source positions.
            payload = resume.payload()
            for task_id, instance in self.instances.items():
                state = payload["states"].get(task_id)
                if state is not None:
                    instance.restore_state(state)
                if task_id in payload["stats"]:
                    self.stats[task_id] = payload["stats"][task_id]
            self.counters.update(payload["counters"])
            for task_id in self.spout_produced:
                self.spout_produced[task_id] = resume.spout_produced.get(task_id, 0)
        for task_id in self.spout_produced:
            self._open_spout(task_id)
        self._plan(spec)

    def _open_spout(self, task_id: int) -> None:
        """Start a spout's source at its committed position."""
        iterator = self.instances[task_id].next_batch(self.max_events)
        if fast_forward(iterator, self.spout_produced[task_id]):
            self.exhausted.add(task_id)
        self.spout_iters[task_id] = iterator

    def _plan(self, spec: RuntimeSpec) -> None:
        """Derive ``stages``: every task a backend schedules (spouts,
        operators, fused-chain heads), in spec order, with the stages it
        executes — the whole chain for a head, itself otherwise."""
        by_id = {rt.task_id: rt for rt in spec.tasks}
        chains = {chain[0]: chain for chain in spec.fusion}
        members = spec.fused_member_ids
        self.stages: dict[int, tuple[TaskRuntime, ...]] = {
            rt.task_id: tuple(
                by_id[t] for t in chains.get(rt.task_id, (rt.task_id,))
            )
            for rt in spec.tasks
            if rt.task_id in self.instances and rt.task_id not in members
        }

    def migrate(
        self, spec: RuntimeSpec, moved: Iterable[int], states: Mapping[int, Any]
    ) -> None:
        """Adopt a re-planned ``spec`` at a barrier: re-instantiate the
        ``moved`` tasks from their committed ``states`` (a moved spout
        restarts its source at its committed position)."""
        by_id = {rt.task_id: rt for rt in spec.tasks}
        for task_id in moved:
            instance = instantiate_task(spec, by_id[task_id])
            self.instances[task_id] = instance
            if isinstance(instance, Operator):
                state = states.get(task_id)
                if state is not None:
                    instance.restore_state(state)
            else:
                self._open_spout(task_id)
        self._plan(spec)

    def counts(self) -> dict[str, int]:
        """The vectorized and fusion counts, as ``runtime.<name>`` suffixes."""
        return {
            **{f"vectorized.{k}": v for k, v in self.vec.items()},
            **{f"fusion.{k}": v for k, v in self.fus.items()},
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _tick(self, rt: TaskRuntime) -> None:
        fault = self.injector.tick(rt.task_id)
        if fault is not None:
            self.fault(rt, fault)

    def spout(self, rt: TaskRuntime) -> bool:
        """Emit the spout's next tuple; False once its source is dry."""
        task_id = rt.task_id
        values = next(self.spout_iters[task_id], _DRY)
        if values is _DRY:
            self.exhausted.add(task_id)
            return False
        if self.injector is not None:
            self._tick(rt)
        histogram = self.histograms.get(task_id)
        started = perf_counter() if histogram is not None else 0.0
        produced = self.spout_produced[task_id]
        item = StreamTuple(
            values=values, source_task=task_id, event_time_ns=float(produced)
        )
        self.stats[task_id].record_out(item.stream, item.payload_size_bytes)
        # Shedding is keyed by the spout's cumulative offset, so the
        # decision stream is the same across phases, backends and replays.
        self.route(rt, item, produced if self.shedder is not None else None)
        self.spout_produced[task_id] = produced + 1
        if histogram is not None:
            histogram.observe((perf_counter() - started) * 1e9)
        return True

    def process(self, task_id: int, payloads: Sequence) -> None:
        """Run drained input payloads (tuple lists or ``ColumnBatch``es, in
        arrival order) through a task or the fused chain it heads.

        A kernel task runs its kernel once per run of joinable payloads
        (:func:`~repro.runtime.dataplane.columns.column_runs`) whose
        schema it negotiated; any other run is a counted fallback to the
        scalar tiers, as is all input of a kernel disabled by fault
        injection.
        """
        stages = self.stages[task_id]
        if task_id not in self.kernels:
            if task_id in self.capable:
                self.vec["fallbacks"] += 1
            self._scalar(stages, 0, burst(payloads))
            return
        schemas = self.kernels[task_id]
        # A single payload is a run already.
        for run in payloads if len(payloads) == 1 else column_runs(payloads):
            columnar = isinstance(run, ColumnBatch)
            batch = run if columnar else ColumnBatch.from_tuples(run)
            if batch is not None and schema_accepts(schemas, batch.schema):
                self._columns(stages, 0, batch)
            else:
                self.vec["fallbacks"] += 1
                self._scalar(stages, 0, run.to_tuples() if columnar else run)

    def _timed(self, task_id: int, method: Callable, arg: Any) -> Iterable:
        """One operator call, its output materialized when timed."""
        histogram = self.histograms.get(task_id)
        if histogram is None:
            return method(arg)
        started = perf_counter()
        out = list(method(arg))
        histogram.observe((perf_counter() - started) * 1e9)
        return out

    def _scalar(
        self,
        stages: tuple[TaskRuntime, ...],
        position: int,
        items: Sequence[StreamTuple],
    ) -> None:
        """Run tuples through stage ``position`` and onward.

        A fused chain keeps per-tuple FIFO order, so every stage sees the
        input, fault ticks and emissions of the unfused run.  Mid-chain
        emissions on a stream other than the intra-chain edge's are
        dropped, as the unfused run's router drops them.
        """
        rt = stages[position]
        task_id = rt.task_id
        operator = self.instances[task_id]
        stats = self.stats[task_id]
        last = position + 1 == len(stages)
        if len(stages) == 1 and task_id in self.batched:
            stats.tuples_in += len(items)
            for index, stream, values in self._timed(
                task_id, operator.process_batch, items
            ):
                out = items[index].derive(values, stream=stream, source_task=task_id)
                stats.record_out(stream, out.payload_size_bytes)
                self.route(rt, out)
            return
        inner = None if last else rt.out_edges[0].stream
        histogram = self.histograms.get(task_id)
        for item in items:
            stats.tuples_in += 1
            if self.injector is not None:
                self._tick(rt)
            if histogram is None:
                emitted = operator.process(item)
            else:
                started = perf_counter()
                emitted = list(operator.process(item))
                histogram.observe((perf_counter() - started) * 1e9)
            for stream, values in emitted:
                out = item.derive(values, stream=stream, source_task=task_id)
                stats.record_out(stream, out.payload_size_bytes)
                if last:
                    self.route(rt, out)
                elif stream == inner:
                    self._scalar(stages, position + 1, (out,))

    def _columns(
        self, stages: tuple[TaskRuntime, ...], position: int, batch: ColumnBatch
    ) -> None:
        """Run one columnar batch through stage ``position`` and onward,
        kept columnar while the next stage's kernel negotiates the
        intermediate schema; otherwise it bursts to tuples there."""
        rt = stages[position]
        task_id = rt.task_id
        stats = self.stats[task_id]
        n = len(batch)
        stats.tuples_in += n
        self.vec["batches"] += 1
        self.vec["tuples"] += n
        if position:
            # A composed handoff: the batch reached this stage without
            # materializing as tuples or touching a queue.
            self.fus["composed_batches"] += 1
            self.fus["composed_tuples"] += n
        last = position + 1 == len(stages)
        outputs = self._timed(task_id, self.instances[task_id].process_columns, batch)
        for out in outputs:
            if len(out) == 0:
                continue
            out.stamp_from(batch, task_id)
            stats.record_out_many(out.stream, len(out), out.payload_bytes())
            if last:
                self.route_columns(rt, out)
            elif out.stream == rt.out_edges[0].stream:
                next_id = stages[position + 1].task_id
                if next_id in self.kernels and schema_accepts(
                    self.kernels[next_id], out.schema
                ):
                    self._columns(stages, position + 1, out)
                else:
                    if next_id in self.capable:
                        self.vec["fallbacks"] += 1
                    self.fus["fallbacks"] += 1
                    self._scalar(stages, position + 1, out.to_tuples())

    def flush(self, task_id: int, final: bool) -> tuple[TaskRuntime, ...]:
        """Finish a scheduled task for the phase or slice; its stages.

        ``final`` ends the *stream*: each stage's windowed ``flush()``
        output runs through the later stages before those flush — the
        order EOF propagation gives an unfused run.  Then every stage's
        edge buffers seal whatever they hold.
        """
        stages = self.stages[task_id]
        if final:
            for position, rt in enumerate(stages):
                operator = self.instances[rt.task_id]
                if not isinstance(operator, Operator):
                    continue  # spouts have nothing to flush
                stats = self.stats[rt.task_id]
                last = position + 1 == len(stages)
                for stream, values in operator.flush():
                    out = StreamTuple(
                        values=tuple(values), stream=stream, source_task=rt.task_id
                    )
                    stats.record_out(stream, out.payload_size_bytes)
                    if last:
                        self.route(rt, out)
                    elif stream == rt.out_edges[0].stream:
                        self._scalar(stages, position + 1, (out,))
        for rt in stages:
            for edge in rt.out_edges:
                for sealed in self.buffers[(edge.producer, edge.consumer)].flush():
                    self.emit(edge.producer, edge.consumer, sealed)
        return stages

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(
        self, rt: TaskRuntime, item: StreamTuple, shed_offset: int | None = None
    ) -> None:
        """Route one tuple to its edge buffers (``shed_offset``: the
        spout offset the active shedder keys its decision on)."""
        for route in rt.routes:
            if route.stream != item.stream:
                continue
            key = (rt.task_id, route.counter_key)
            indices = route.grouping.route(
                item, len(route.consumers), self.counters[key]
            )
            # Routing counters advance whether or not the tuple is shed,
            # so a shed run routes survivors exactly like an unshed run.
            self.counters[key] += 1
            for index in indices:
                consumer = route.consumers[index]
                if shed_offset is not None and self.shedder.should_shed(
                    (rt.task_id, consumer),
                    shed_offset,
                    item,
                    getattr(self.instances[rt.task_id], "sheddable", None),
                ):
                    continue
                for sealed in self.buffers[(rt.task_id, consumer)].append(item):
                    self.emit(rt.task_id, consumer, sealed)

    def route_columns(self, rt: TaskRuntime, out: ColumnBatch) -> None:
        """Route one kernel output batch to its edge buffers.

        Each matching route's grouping partitions the batch in one
        vectorized step (``Grouping.partition``, row-for-row equivalent
        to :meth:`route`), and the route's counter advances by
        ``len(out)`` as the scalar loop would.  Every consumer's rows join
        its edge buffer, which seals messages of the edge's batch size.
        """
        for route in rt.routes:
            if route.stream != out.stream:
                continue
            key = (rt.task_id, route.counter_key)
            parts = route.grouping.partition(
                out, len(route.consumers), self.counters[key]
            )
            self.counters[key] += len(out)
            for consumer, rows in zip(route.consumers, parts):
                if len(rows):
                    buffer = self.buffers[(rt.task_id, consumer)]
                    for sealed in buffer.append_columns(out.select(rows)):
                        self.emit(rt.task_id, consumer, sealed)
