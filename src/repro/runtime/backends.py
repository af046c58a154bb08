"""Executor backends: how a lowered :class:`RuntimeSpec` actually runs.

The runtime layer separates *what* runs (the lowering: tasks, queues,
routes) from *how* it runs:

* :class:`InlineBackend` — the deterministic single-process executor.  It
  keeps the seed engine's semantics exactly (same task order, same drain
  order, same routing counters), but is driven through a cooperative
  scheduler so that **bounded** queues exert real blocking-producer
  backpressure: a producer whose sealed batch does not fit suspends until
  the consumer drains, transitively throttling the spout — the same
  mechanism the discrete-event simulator models in virtual time.  With
  unbounded queues (the default without a plan) nothing ever blocks and
  the schedule degenerates to the seed engine's topological walk,
  reproducing its sink outputs bit-for-bit.
* :class:`~repro.runtime.process_pool.ProcessPoolBackend` — true parallel
  execution on multiprocessing workers grouped by plan socket (imported
  lazily to keep this module light).

:func:`make_backend` builds the backend a
:class:`~repro.runtime.config.RunConfig` names; each backend reads its
settings from that config.  Backends receive a spec, an event budget and
a metrics registry, and return the same
:class:`~repro.runtime.results.RunResult` shape.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from time import perf_counter
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.dsps.operators import Operator, Sink
from repro.dsps.queues import CommunicationQueue, QueueStats
from repro.dsps.tuples import JumboTuple
from repro.errors import (
    ExecutionError,
    InjectedFaultError,
    QueueDeadlockError,
    StallError,
    TopologyError,
    WorkerCrashError,
)
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.dataplane.columns import ColumnBatch, burst
from repro.runtime.batching import AdaptiveBatchController
from repro.runtime.config import RunConfig
from repro.runtime.epochs import (
    EpochCheckpoint,
    EpochCommit,
    EpochConfig,
    EpochReport,
    Migration,
)
from repro.runtime.overload import OverloadManager
from repro.runtime.lowering import RuntimeSpec, TaskRuntime, apply_edge_batches
from repro.runtime.results import RunResult
from repro.runtime.taskcore import TaskCore

if TYPE_CHECKING:
    from typing import Callable

    from repro.runtime.faults import Fault, FaultInjector

    #: Barrier observer: sees each committed epoch, may return a live
    #: plan migration to apply before the stream resumes.
    OnEpoch = Callable[[EpochCommit], Migration | None]

class ExecutorBackend(ABC):
    """Strategy interface: execute a lowered spec and report the outcome."""

    #: Short name used by the CLI's ``--backend`` flag and in metrics.
    name: str = "abstract"

    @abstractmethod
    def execute(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry | None = None,
        *,
        injector: "FaultInjector | None" = None,
        epochs: EpochConfig | None = None,
        resume: EpochCheckpoint | None = None,
        on_epoch: "OnEpoch | None" = None,
    ) -> RunResult:
        """Ingest up to ``max_events`` events per spout task and run to
        completion, returning per-task statistics and live sink state.

        ``injector`` optionally arms deterministic fault injection (see
        :mod:`repro.runtime.faults`); backends without fault support must
        reject a non-None injector rather than silently ignore it.

        ``epochs`` enables barrier commits every ``interval`` events per
        spout (see :mod:`repro.runtime.epochs`); ``resume`` restarts
        execution *after* a previously committed checkpoint instead of
        from scratch, and ``on_epoch`` observes every commit, optionally
        returning a :class:`~repro.runtime.epochs.Migration` the backend
        applies at the barrier before resuming the stream.  On failure
        with barriers enabled the raised :class:`ExecutionError` carries
        the last committed checkpoint as ``last_checkpoint``.
        """


def make_backend(config: RunConfig) -> ExecutorBackend:
    """The backend ``config`` names, wrapped in a
    :class:`~repro.runtime.supervisor.Supervisor` when the run asks for
    fault injection or a recovery policy (the supervisor's constructor
    validates the recovery settings)."""
    if config.backend == "process":
        from repro.runtime.process_pool import ProcessPoolBackend

        backend: ExecutorBackend = ProcessPoolBackend(config)
    else:
        backend = InlineBackend(config)
    if config.fault_plan is None and config.recovery_policy is None:
        return backend
    from repro.runtime.supervisor import Supervisor

    return Supervisor(
        backend,
        policy=config.recovery_policy or "fail-fast",
        fault_plan=config.fault_plan,
        max_restarts=config.max_restarts,
        degrade=config.degrade,
    )


def publish_engine_metrics(
    registry: MetricsRegistry,
    spec: RuntimeSpec,
    result: RunResult,
    queue_stats: Mapping[tuple[int, int], QueueStats],
) -> None:
    """Mirror a run's functional counters into the metrics registry.

    Shared by every backend so runs emit one schema regardless of how they
    executed.  Names follow ``component.replica.metric`` under the
    ``engine.`` prefix; per-queue metrics use the producer/consumer
    task-id pair as the replica field (see docs/metrics.md).
    """
    if not registry.enabled:
        return
    registry.counter("engine.run.events_ingested").inc(result.events_ingested)
    registry.counter("engine.run.sink_received").inc(result.sink_received())
    blocked_total = 0
    for rt in spec.tasks:
        stats = result.task_stats[rt.task_id]
        prefix = f"engine.{rt.component}.{rt.task.replica_start}"
        registry.counter(f"{prefix}.tuples_in").inc(stats.tuples_in)
        registry.counter(f"{prefix}.tuples_out").inc(stats.tuples_out)
    for (producer, consumer), stats in queue_stats.items():
        prefix = f"engine.queue.{producer}-{consumer}"
        registry.counter(f"{prefix}.enqueued_batches").inc(stats.enqueued_batches)
        registry.counter(f"{prefix}.enqueued_tuples").inc(stats.enqueued_tuples)
        registry.gauge(f"{prefix}.max_depth_tuples").set(stats.max_depth_tuples)
        registry.gauge(f"{prefix}.jumbo_fill_ratio").set(
            stats.jumbo_fill_ratio(spec.batch_for((producer, consumer)))
        )
        capacity = spec.queue_capacity.get((producer, consumer))
        if capacity is not None:
            registry.gauge(f"{prefix}.capacity_tuples").set(capacity)
        if stats.blocked_batches:
            registry.counter(f"{prefix}.blocked_batches").inc(stats.blocked_batches)
            registry.gauge(f"{prefix}.blocked_ns").set(stats.blocked_ns)
        blocked_total += stats.blocked_batches
    registry.counter("engine.run.backpressure_blocks").inc(blocked_total)
    if spec.fusion:
        registry.gauge("runtime.fusion.chains").set(len(spec.fusion))
        registry.gauge("runtime.fusion.fused_tasks").set(
            sum(len(chain) for chain in spec.fusion)
        )
        registry.gauge("runtime.fusion.edges_eliminated").set(
            sum(len(chain) - 1 for chain in spec.fusion)
        )


class InlineBackend(ExecutorBackend):
    """Deterministic single-process executor with cooperative backpressure."""

    name = "inline"

    def __init__(self, config: RunConfig) -> None:
        self.config = config

    def execute(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry | None = None,
        *,
        injector: "FaultInjector | None" = None,
        epochs: EpochConfig | None = None,
        resume: EpochCheckpoint | None = None,
        on_epoch: "OnEpoch | None" = None,
    ) -> RunResult:
        if max_events < 0:
            raise TopologyError("max_events must be >= 0")
        registry = registry if registry is not None else NULL_REGISTRY
        return _InlineRun(
            spec,
            max_events,
            registry,
            self.config,
            injector,
            epochs=epochs if epochs is not None else self.config.epochs,
            resume=resume,
            on_epoch=on_epoch,
        ).execute()


class _InlineRun:
    """Mutable state of one inline execution (one object per ``run()``).

    Operator execution and routing live in one
    :class:`~repro.runtime.taskcore.TaskCore` over every task; this class
    is the cooperative scheduler around it.  Each task loop is a
    generator that calls the core, then enqueues the sealed payloads the
    core emitted meanwhile (its *outbox*) through :meth:`_enqueue`,
    suspending while a bounded queue is full.  No other task runs inside
    a core call, so every enqueue attempt sees the queue state it would
    have seen had the payload been enqueued the moment it sealed.

    With epoch barriers enabled the run is a sequence of *phases*: each
    phase advances every spout to the next epoch boundary and drains the
    DAG to quiescence (fresh cooperative generators over the persistent
    queues/instances/counters), after which the run commits a checkpoint
    and optionally applies a live migration before the next phase.
    Without barriers there is exactly one final phase — the historical
    single-pass schedule, bit-for-bit.
    """

    def __init__(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry,
        config: RunConfig,
        injector: "FaultInjector | None" = None,
        *,
        epochs: EpochConfig | None = None,
        resume: EpochCheckpoint | None = None,
        on_epoch: "OnEpoch | None" = None,
    ) -> None:
        self.spec = spec
        self.max_events = max_events
        self.registry = registry
        self.injector = injector
        self.epochs = epochs
        self.on_epoch = on_epoch
        # Adaptive batch sizing only ever adjusts at epoch barriers; an
        # epoch-less run keeps its lowered sizes.
        self.controller = (
            AdaptiveBatchController(spec, config.adaptive_batch)
            if config.adaptive_batch is not None
            else None
        )
        # Overload control steps at the same barriers (docs/overload.md).
        self.overload = (
            OverloadManager(spec, config.overload, epochs.interval, registry)
            if config.overload is not None
            else None
        )
        if resume is not None and epochs is None:
            raise ExecutionError(
                "resume from a checkpoint requires epoch barriers "
                "(pass an EpochConfig)"
            )
        self.instrumented = registry.enabled
        # Per-task wall-clock: needed for gauges when instrumented, and
        # as the drift detector's Te signal when a barrier observer runs.
        self.collect_wall = self.instrumented or on_epoch is not None
        self.wall: dict[int, float] = defaultdict(float)
        self.queues: dict[tuple[int, int], CommunicationQueue] = {
            (edge.producer, edge.consumer): CommunicationQueue(
                edge.producer,
                edge.consumer,
                spec.queue_capacity[(edge.producer, edge.consumer)],
            )
            for edge in spec.edges
        }
        # Sealed payloads emitted during the current core call, enqueued
        # by the calling task loop (see _drain_outbox).
        self.outbox: list[tuple[int, int, JumboTuple | ColumnBatch]] = []
        self.core = TaskCore(
            spec,
            spec.tasks,
            max_events,
            vectorized=config.vectorized,
            injector=injector,
            registry=registry,
            emit=self._emit,
            fault=self._fault,
            resume=resume,
        )
        self.buffers = self.core.buffers  # per-edge pending rows, empty at barriers
        self.done: set[int] = set()  # tasks finished in the current phase
        self.events = resume.events_ingested if resume is not None else 0
        self.ticks = 0  # processed batches/events; stall detector input
        self.start_epoch = resume.epoch + 1 if resume is not None else 0
        self.last_checkpoint: EpochCheckpoint | None = resume
        self.epoch_report = (
            EpochReport(
                interval=epochs.interval,
                resumed_from=resume.epoch if resume is not None else None,
            )
            if epochs is not None
            else None
        )

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def execute(self) -> RunResult:
        try:
            return self._execute()
        except ExecutionError as exc:
            # Attach partial progress so failed runs stay observable: the
            # supervisor turns this into a partial run report and into
            # duplicate-delivery accounting for at-least-once replays —
            # plus the last committed checkpoint, which upgrades replay
            # to resume-from-epoch when barriers are enabled.
            if exc.partial_result is None:
                exc.partial_result = self._snapshot(partial=True)
            if getattr(exc, "last_checkpoint", None) is None:
                exc.last_checkpoint = self.last_checkpoint
            raise

    def _execute(self) -> RunResult:
        if self.epochs is None:
            self._run_phase(self.max_events, final=True)
        else:
            interval = self.epochs.interval
            epoch = self.start_epoch
            # Cumulative per-spout admission target.  Without overload
            # control every epoch admits exactly one interval, so the
            # target is (epoch + 1) * interval, bit-identical to the
            # historical arithmetic; the throttle rung shrinks the
            # per-epoch allowance so backlogged queues can drain.
            limit = min(self.max_events, epoch * interval)
            while True:
                allowance = (
                    self.overload.spout_allowance()
                    if self.overload is not None
                    else interval
                )
                limit = min(self.max_events, limit + allowance)
                final = limit >= self.max_events
                self._run_phase(limit, final=final)
                if not final and self.core.exhausted >= set(self.core.spout_produced):
                    # Sources dried up before the event budget: commit
                    # what ran, then close the stream with a flush-only
                    # final phase.
                    self._commit(epoch)
                    self._run_phase(limit, final=True)
                    final = True
                if final:
                    break
                self._commit(epoch)
                epoch += 1

        result = self._snapshot(partial=False)
        if self.instrumented:
            for rt in self.spec.tasks:
                self.registry.gauge(
                    f"engine.{rt.component}.{rt.task.replica_start}.task_wall_ns"
                ).set(self.wall[rt.task_id] * 1e9)
            publish_engine_metrics(
                self.registry,
                self.spec,
                result,
                {key: q.stats for key, q in self.queues.items()},
            )
            for name, value in self.core.counts().items():
                self.registry.counter(f"runtime.{name}").inc(value)
            if self.controller is not None:
                for name, value in self.controller.report().items():
                    self.registry.counter(f"runtime.batch.{name}").inc(value)
                for (producer, consumer), size in sorted(
                    self.spec.edge_batch_size.items()
                ):
                    self.registry.gauge(
                        f"runtime.batch.size.{producer}-{consumer}"
                    ).set(size)
            if self.epoch_report is not None:
                report = self.epoch_report
                self.registry.gauge("runtime.epoch.interval").set(report.interval)
                self.registry.gauge("runtime.epoch.committed").set(report.committed)
                self.registry.gauge("runtime.epoch.barrier_ns").set(report.barrier_ns)
                self.registry.gauge("runtime.epoch.snapshot_bytes").set(
                    report.snapshot_bytes
                )
        return result

    def _run_phase(self, limit: int, final: bool) -> None:
        """Run every task until quiescence at the phase boundary.

        ``limit`` is the *cumulative* per-spout production bound for this
        phase (the next epoch boundary, or the whole event budget for the
        single phase of an epoch-less run).  ``final`` phases additionally
        run each operator's :meth:`~repro.dsps.operators.Operator.flush`.
        """
        self.done = set()
        # Load shedding applies at the sources, before any downstream
        # work is invested; the ladder only moves at barriers, so the
        # shed rung is constant within a phase.
        self.core.shedder = (
            self.overload.shedder
            if self.overload is not None and self.overload.shed_active
            else None
        )
        active: list[tuple[int, Iterator[None]]] = []
        for task_id, stages in self.core.stages.items():
            active.append((task_id, self._task_loop(stages, limit, final)))
        while active:
            before = self.ticks
            survivors: list[tuple[int, Iterator[None]]] = []
            for task_id, loop in active:
                started = perf_counter() if self.collect_wall else 0.0
                alive = next(loop, _FINISHED) is not _FINISHED
                if self.collect_wall:
                    self.wall[task_id] += perf_counter() - started
                if alive:
                    survivors.append((task_id, loop))
            active = survivors
            if active and self.ticks == before:
                blocked = [
                    f"{p}->{c}"
                    for (p, c), q in self.queues.items()
                    if q.is_full
                ]
                stalled = sorted(self.injector.stalled) if self.injector else []
                message = (
                    "inline scheduler stalled: no task can make progress "
                    f"(full queues: {blocked or 'none'}"
                    + (f", stalled tasks: {stalled}" if stalled else "")
                    + ")"
                )
                # Full queues mean a blocked producer ring (deadlock
                # shape); otherwise a task simply stopped consuming.
                error_cls = QueueDeadlockError if blocked else StallError
                raise error_cls(
                    message,
                    failed_sockets=self._sockets_of(stalled),
                )

    # ------------------------------------------------------------------
    # Barrier commits and live migration
    # ------------------------------------------------------------------
    def _sink_received(self) -> int:
        return sum(
            instance.received
            for instance in self.core.instances.values()
            if isinstance(instance, Sink)
        )

    def _commit(self, epoch: int) -> None:
        """Commit the quiescent state as a checkpoint; run the observer."""
        report = self.epoch_report
        assert report is not None
        core = self.core
        started = perf_counter()
        states = {
            task_id: instance.snapshot_state()
            for task_id, instance in core.instances.items()
            if isinstance(instance, Operator)
        }
        checkpoint = EpochCheckpoint.capture(
            epoch,
            events_ingested=self.events,
            spout_produced=core.spout_produced,
            states=states,
            counters=core.counters,
            stats=core.stats,
            sink_received=self._sink_received(),
        )
        report.barrier_ns += (perf_counter() - started) * 1e9
        report.committed += 1
        report.snapshot_bytes = checkpoint.snapshot_bytes
        report.events.append(
            {
                "kind": "commit",
                "epoch": epoch,
                "events_ingested": self.events,
                "snapshot_bytes": checkpoint.snapshot_bytes,
            }
        )
        self.last_checkpoint = checkpoint
        overload_state = None
        if self.overload is not None:
            # Step the degradation ladder before the AIMD step so the
            # batch-shrink rung can force pressure this same barrier.
            self.overload.observe_queue_stats(
                epoch, {key: q.stats for key, q in self.queues.items()}
            )
            overload_state = self.overload.commit_state()
        if self.controller is not None:
            # AIMD step over the epoch window; live output buffers pick
            # the new sizes up immediately, and the spec carries them so
            # a migration (which rebuilds from the spec) preserves them.
            pressure: frozenset = frozenset()
            if self.overload is not None and self.overload.force_batch_pressure:
                pressure = frozenset(self.queues)
            changed = self.controller.observe(
                {key: q.stats for key, q in self.queues.items()}, pressure
            )
            if changed:
                self.spec = apply_edge_batches(self.spec, changed)
                for key, size in changed.items():
                    core.buffers[key].batch_size = size
        if self.on_epoch is not None:
            commit = EpochCommit(
                epoch=epoch,
                spec=self.spec,
                checkpoint=checkpoint,
                task_stats=core.stats,
                task_wall_ns={t: s * 1e9 for t, s in self.wall.items()},
                events_ingested=self.events,
                overload=overload_state,
            )
            migration = self.on_epoch(commit)
            if migration is not None:
                self._apply_migration(epoch, migration, checkpoint)

    def _apply_migration(
        self, epoch: int, migration: Migration, checkpoint: EpochCheckpoint
    ) -> None:
        """Hand the committed state to the re-placed tasks and resume.

        The stream is already paused at the barrier; moved tasks are
        re-instantiated under the new placement and restored *from the
        checkpoint blob* — migration exercises the exact serialize →
        deserialize → restore path a cross-process handoff needs.  The
        new spec's fused chains apply from the next phase on (the
        eliminated edges' queues are empty at the barrier).
        """
        new_spec = migration.spec
        if {rt.task_id for rt in new_spec.tasks} != set(self.core.instances):
            raise ExecutionError(
                "live migration cannot add or remove tasks; "
                "replication changes require a restart"
            )
        started = perf_counter()
        self.spec = new_spec
        self.core.migrate(new_spec, migration.moved, checkpoint.payload()["states"])
        pause_ns = (perf_counter() - started) * 1e9
        report = self.epoch_report
        assert report is not None
        report.migrations += 1
        report.migration_pause_ns += pause_ns
        report.events.append(
            {
                "kind": "migration",
                "epoch": epoch,
                "moved": sorted(migration.moved),
                "pause_ns": round(pause_ns),
                "detail": migration.detail,
            }
        )

    def _snapshot(self, partial: bool) -> RunResult:
        """Current run state as a result (complete or mid-failure)."""
        sinks: dict[str, list[Sink]] = defaultdict(list)
        for rt in self.spec.tasks:
            instance = self.core.instances[rt.task_id]
            if isinstance(instance, Sink):
                sinks[rt.component].append(instance)
        return RunResult(
            topology_name=self.spec.topology.name,
            events_ingested=self.events,
            task_stats=self.core.stats,
            sinks=dict(sinks),
            fault_summary=self.injector.summary() if self.injector else None,
            epochs=self.epoch_report,
            overload=(
                self.overload.finish() if self.overload is not None else None
            ),
            partial=partial,
        )

    def _sockets_of(self, task_ids) -> tuple[int, ...]:
        sockets = {
            rt.socket if rt.socket is not None else 0
            for rt in self.spec.tasks
            if rt.task_id in set(task_ids)
        }
        return tuple(sorted(sockets))

    # ------------------------------------------------------------------
    # Core hooks
    # ------------------------------------------------------------------
    def _emit(
        self, producer: int, consumer: int, sealed: JumboTuple | ColumnBatch
    ) -> None:
        self.outbox.append((producer, consumer, sealed))

    def _fault(self, rt: TaskRuntime, fault: "Fault") -> None:
        """Act on a fault fired at ``rt``: crash and raise end the run
        with the typed error a process worker would produce; a stall
        stops the task (:meth:`_task_loop`).  ``drop`` faults are
        honored at :meth:`_enqueue`."""
        socket = rt.socket if rt.socket is not None else 0
        if fault.kind == "crash":
            # Single-process simulation of a worker loss: the typed error
            # the process backend's watchdog would raise, minus the pid.
            raise WorkerCrashError(
                f"injected crash: {fault.describe()}",
                failed_sockets=(socket,),
            )
        if fault.kind == "raise":
            raise InjectedFaultError(
                f"injected operator failure: {fault.describe()}",
                failed_sockets=(socket,),
            )
        if fault.kind == "stall":
            raise _Stalled

    # ------------------------------------------------------------------
    # Task loops (generators: ``yield`` = cannot progress right now)
    # ------------------------------------------------------------------
    def _task_loop(
        self, stages: tuple[TaskRuntime, ...], limit: int, final: bool
    ) -> Iterator[None]:
        """One scheduled task (spout, operator or fused chain) for one
        phase: its input, then its flush, then done."""
        head = stages[0]
        try:
            if head.is_spout:
                yield from self._spout_input(head, limit)
            else:
                yield from self._operator_input(head)
            self.core.flush(head.task_id, final)
        except _Stalled:
            # An injected stall: enqueue what the task emitted before it,
            # then never progress again; the scheduler's no-progress
            # watchdog raises StallError.
            yield from self._drain_outbox()
            while True:
                yield
        yield from self._drain_outbox()
        self.done.update(rt.task_id for rt in stages)

    def _spout_input(self, rt: TaskRuntime, limit: int) -> Iterator[None]:
        # ``spout_produced`` is cumulative across phases (and across a
        # resume): event times and epoch boundaries count from the run's
        # origin.
        core = self.core
        task_id = rt.task_id
        while core.spout_produced[task_id] < limit and task_id not in core.exhausted:
            if not core.spout(rt):
                break
            self.events += 1
            self.ticks += 1
            if self.outbox:
                yield from self._drain_outbox()

    def _operator_input(self, rt: TaskRuntime) -> Iterator[None]:
        """Drain the head's queues into the core until every producer is
        done and the queues are empty."""
        core = self.core
        producers = {edge.producer for edge in rt.in_edges}
        in_queues = [
            self.queues[(edge.producer, edge.consumer)] for edge in rt.in_edges
        ]
        while True:
            progressed = False
            for queue in in_queues:
                while True:
                    payloads = queue.drain()
                    if not payloads:
                        break
                    progressed = True
                    self.ticks += 1
                    inputs = [
                        p.tuples if isinstance(p, JumboTuple) else p
                        for p in payloads
                    ]
                    if self.injector is None:
                        core.process(rt.task_id, inputs)
                        if self.outbox:
                            yield from self._drain_outbox()
                        continue
                    # With faults armed (scalar tiers only) the core takes
                    # one tuple per call and its output is enqueued before
                    # the next, so a fault fires when downstream tasks have
                    # progressed as far as a per-tuple schedule lets them:
                    # the partial results a crash leaves depend on it.
                    for item in burst(inputs):
                        core.process(rt.task_id, [[item]])
                        if self.outbox:
                            yield from self._drain_outbox()
            if producers <= self.done:
                if all(queue.is_empty for queue in in_queues):
                    return
                continue
            if not progressed:
                yield

    def _drain_outbox(self) -> Iterator[None]:
        pending, self.outbox = self.outbox, []
        for producer, consumer, sealed in pending:
            yield from self._enqueue(producer, consumer, sealed)

    def _enqueue(
        self, producer: int, consumer: int, batch: JumboTuple | ColumnBatch
    ) -> Iterator[None]:
        if self.injector is not None and self.injector.take_drop(
            producer, len(batch)
        ):
            # Injected message loss: the sealed batch vanishes.  The run
            # still completes (EOF is membership-based, not count-based);
            # the supervisor detects the loss from the fault summary.
            self.ticks += 1
            return
        queue = self.queues[(producer, consumer)]
        if not queue.has_space(len(batch)):
            # Blocking-producer backpressure: suspend until the consumer
            # drains enough of the queue for the sealed batch to fit.
            queue.stats.blocked_batches += 1
            blocked_from = perf_counter()
            while not queue.has_space(len(batch)):
                yield
            queue.stats.blocked_ns += (perf_counter() - blocked_from) * 1e9
        queue.put(batch)
        self.ticks += 1


class _Stalled(Exception):
    """Raised by the inline fault hook when an injected stall fires."""


#: Sentinel distinguishing a finished task loop from a yielded suspension.
_FINISHED = object()
