"""Process-pool executor: true parallel execution across worker processes.

The GIL limits the inline backend to one core, so this backend partitions
the lowered task table across ``multiprocessing`` workers — by plan socket
when the spec carries a placement (one worker per socket, mirroring
BriskStream's NUMA partitioning), round-robin otherwise — and ships
sealed jumbo batches between workers as pickled payloads over bounded
``mp.Queue`` inboxes.

Flow control happens at three levels:

* **local edges** (producer and consumer on the same worker) use the
  spec's per-edge tuple capacities as hard bounds: an over-capacity
  append makes the producer process the consumer's backlog in place
  until the batch fits;
* **remote edges** are physically bounded by the consumer worker's inbox
  (``DEFAULT_INBOX_BATCHES`` jumbo batches, see
  :mod:`repro.runtime.dataplane.channels`): a full inbox blocks the
  sending task.  While blocked, a worker keeps draining its *own* inbox
  (admitting over-capacity batches rather than deadlocking; such
  overflow is counted and reported) so that mutually-sending workers
  always make progress;
* **spouts** additionally check every downstream channel before
  generating a chunk and pause while any is full, so ingestion is
  throttled by the slowest consumer — the live analogue of the DES's
  blocking-producer backpressure.

Two processing disciplines are supported.  The default *arrival* mode
processes batches in the order they arrive (pipelined, maximum overlap).
``ordered=True`` processes each task's input edges in strict declaration
order instead — the same order the inline backend drains queues in —
which reproduces inline results for order-sensitive multi-input
topologies at the cost of buffering (capacities are not enforced in this
mode, since strict edge order may require holding later edges' input
arbitrarily long).

Pool lifetime
-------------
One pool serves a whole run.  Epoch barriers (docs/reconfiguration.md)
cut the stream into slices; each slice is one command per worker over
its control queue, and workers keep their operators, sources, fault
injector, statistics and channel between slices.  Only a Supervisor
resume or a placement-changing migration starts a pool from a committed
checkpoint.

Liveness
--------
Every worker stamps a shared heartbeat slot once per scheduling loop, and
the parent writes observed exit codes into a shared status array.  Three
watchdogs turn what used to be silent hangs into typed, bounded errors
(see docs/robustness.md):

* the **parent watchdog** polls worker results, converting a dead worker
  into :class:`~repro.errors.WorkerCrashError` and a stale-but-alive
  worker (or an exhausted overall budget) into
  :class:`~repro.errors.StallError`, always with a partial
  :class:`~repro.runtime.results.RunResult` merged from the workers that
  did finish;
* a **blocked send** (:meth:`_Worker._blocking_put`) raises
  :class:`~repro.errors.WorkerCrashError` as soon as the parent marks the
  destination worker dead, and :class:`~repro.errors.QueueDeadlockError`
  when the send exceeds ``send_timeout_s`` with the peer still alive;
* an **idle worker** whose upstream producers' workers died raises
  :class:`~repro.errors.WorkerCrashError` instead of waiting forever for
  EOF markers that will never arrive.

Fault injection (:mod:`repro.runtime.faults`) threads through the same
paths: each worker arms an injector over its own task partition, so a
``crash`` fault genuinely kills the hosting process (``os._exit``) and
the watchdogs above are what detect it.
"""

from __future__ import annotations

import os
import queue as queue_mod
import random
import time
import traceback
from collections import defaultdict, deque
from dataclasses import fields, replace as dc_replace
from time import monotonic, perf_counter
from typing import TYPE_CHECKING, Any, Mapping

import multiprocessing as mp

from repro.dsps.operators import Operator, Sink
from repro.dsps.queues import QueueStats
from repro.dsps.tuples import JumboTuple, StreamTuple
from repro.errors import (
    ExecutionError,
    InjectedFaultError,
    QueueDeadlockError,
    StallError,
    TopologyError,
    WorkerCrashError,
)
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.backends import ExecutorBackend, publish_engine_metrics
from repro.runtime.config import RunConfig
from repro.runtime.dataplane import (
    ChannelEndpoint,
    ColumnBatch,
    PickleQueueChannel,
    create_dataplane,
)
from repro.runtime.epochs import (
    EpochCheckpoint,
    EpochCommit,
    EpochConfig,
    EpochReport,
)
from repro.runtime.batching import AdaptiveBatchController
from repro.runtime.faults import Fault, FaultInjector, merge_fault_summaries
from repro.runtime.overload import (
    CircuitBreaker,
    EdgeWindow,
    OverloadManager,
    SendRetryPolicy,
    Shedder,
    decorrelated_jitter,
)
from repro.runtime.lowering import RuntimeSpec, TaskRuntime, apply_edge_batches
from repro.runtime.results import RunResult, TaskStats
from repro.runtime.taskcore import TaskCore

if TYPE_CHECKING:
    from repro.runtime.backends import OnEpoch

#: Events a spout generates per scheduling quantum.
_SPOUT_CHUNK = 256

#: Batches an operator processes per scheduling quantum.
_PROCESS_QUANTUM = 8

#: Sleep while no local progress is possible (seconds).
_IDLE_SLEEP_S = 0.0002

#: Parent watchdog poll interval while waiting for worker results (s).
_POLL_INTERVAL_S = 0.05

#: Grace window for late result messages from a worker seen dead (s).
_DEATH_GRACE_S = 0.5

#: Exit code an injected ``crash`` fault dies with (distinguishable from
#: interpreter crashes in the parent's diagnostics).
CRASH_EXIT_CODE = 70

#: Sentinel in the shared status array: worker still running.
_STATUS_RUNNING = -1000

#: Worker-side task-core counts (:meth:`TaskCore.counts`) the parent
#: merge sums into ``runtime.<key>`` registry counters.
_CORE_COUNTERS = (
    "vectorized.batches",
    "vectorized.tuples",
    "vectorized.fallbacks",
    "fusion.composed_batches",
    "fusion.composed_tuples",
    "fusion.fallbacks",
)

#: Worker-side error kinds mapped back to typed exceptions in the parent.
_ERROR_CLASSES = {
    "WorkerCrashError": WorkerCrashError,
    "StallError": StallError,
    "QueueDeadlockError": QueueDeadlockError,
    "InjectedFaultError": InjectedFaultError,
    "ExecutionError": ExecutionError,
}


def _mp_context() -> mp.context.BaseContext:
    """Prefer ``fork`` (fast, inherits the lowered spec) over ``spawn``."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ProcessPoolBackend(ExecutorBackend):
    """Execute a lowered spec on a pool of worker processes.

    Reads ``n_workers``, ``ordered``, ``dataplane``, ``vectorized``,
    ``string_dict``, ``adaptive_batch``, ``overload`` and the three
    timeouts from its :class:`~repro.runtime.config.RunConfig`:

    * ``timeout_s`` bounds each epoch slice (the whole run without
      epochs); exceeding it raises :class:`~repro.errors.StallError`
      (never a silent hang);
    * a worker whose heartbeat is older than ``heartbeat_timeout_s`` is
      stalled (parent side) or dead (peer side, combined with the status
      array).  Workers heartbeat once per scheduling loop, so normal
      operation refreshes it every few milliseconds;
    * ``send_timeout_s`` is the deadline of a blocked remote send's
      retry/backoff/circuit-breaker policy
      (:class:`~repro.runtime.overload.SendRetryPolicy`); exceeding it
      with the peer still alive raises
      :class:`~repro.errors.QueueDeadlockError`.

    Adaptive batching and the overload ladder step once per epoch slice.
    """

    name = "process"

    def __init__(self, config: RunConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def _assign(self, spec: RuntimeSpec) -> tuple[int, dict[int, int]]:
        """Partition task ids over workers, grouping by plan socket."""
        groups = spec.socket_groups()
        sockets = sorted(groups)
        n = self.config.n_workers
        if n is None:
            n = len(sockets) if len(sockets) > 1 else min(4, os.cpu_count() or 1)
        n = max(1, n)
        owner: dict[int, int] = {}
        if len(sockets) >= n:
            # One worker per socket (wrapping when sockets > workers) keeps
            # same-socket tasks colocated, so their edges stay in-process.
            for index, socket in enumerate(sockets):
                for task_id in groups[socket]:
                    owner[task_id] = index % n
        else:
            # Fewer socket groups than workers: spread tasks round-robin so
            # every worker gets a share of the pipeline.
            position = 0
            for socket in sockets:
                for task_id in groups[socket]:
                    owner[task_id] = position % n
                    position += 1
        # A fused chain executes inline in its head's scheduling loop, so
        # every constituent must live in the head's process.  Chains only
        # span one socket (plan_fusion's eligibility rule), so this never
        # fights the socket partitioning above — it only overrides the
        # round-robin spread.
        for chain in spec.fusion:
            head_owner = owner[chain[0]]
            for task_id in chain[1:]:
                owner[task_id] = head_owner
        return n, owner

    def execute(
        self,
        spec: RuntimeSpec,
        max_events: int,
        registry: MetricsRegistry | None = None,
        *,
        injector: "FaultInjector | None" = None,
        epochs: "EpochConfig | None" = None,
        resume: "EpochCheckpoint | None" = None,
        on_epoch: "OnEpoch | None" = None,
    ) -> RunResult:
        """Run ``spec`` on one worker pool that lives for the whole run.

        The stream is cut into slices of ``epochs.interval`` events per
        spout; a run without epochs is one final slice.  For each slice
        the parent sends every worker a small command (event bound,
        finality, shed directive, edge batch sizes).  Workers run it to
        the per-edge EOF drain — windowed ``flush()`` only on the final
        slice — post their barrier payload (operator states, routing
        counters, spout positions and the slice's queue-stat and counter
        windows) and block for the next command.  The parent commits the
        payloads as the epoch checkpoint in between.  Operators, sources,
        fault injectors, statistics and channels (shm rings, codec
        dictionaries) stay live across slices.  The pool restarts from
        the just-committed checkpoint only when a migration changes
        placement — the same path a Supervisor retry takes via
        ``resume``.
        """
        if max_events < 0:
            raise TopologyError("max_events must be >= 0")
        registry = registry if registry is not None else NULL_REGISTRY
        config = self.config
        if epochs is None:
            epochs = config.epochs
        if epochs is None and resume is not None:
            raise ExecutionError(
                "resume from a checkpoint requires epoch barriers "
                "(pass an EpochConfig)"
            )
        interval = epochs.interval if epochs is not None else max_events
        report = (
            EpochReport(
                interval=interval,
                resumed_from=resume.epoch if resume is not None else None,
            )
            if epochs is not None
            else None
        )
        spout_ids = {rt.task_id for rt in spec.tasks if rt.is_spout}
        spout_produced = {task_id: 0 for task_id in spout_ids}
        checkpoint = resume
        epoch = 0
        if resume is not None:
            spout_produced.update(resume.spout_produced)
            epoch = resume.epoch + 1
        fault_summaries: list[dict[str, float]] = []
        exhausted: set[int] = set()
        controller = (
            AdaptiveBatchController(spec, config.adaptive_batch)
            if config.adaptive_batch is not None
            else None
        )
        manager = (
            OverloadManager(spec, config.overload, interval, registry)
            if config.overload is not None
            else None
        )
        # Run-wide totals, folded from the per-slice windows workers post.
        worker_metrics: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        edge_stats: dict[tuple[int, int], QueueStats] = {}
        # The spout budget is a *cumulative admission target*: each epoch
        # extends it by the token-bucket allowance (the full interval
        # while healthy — integer-identical to the historical
        # ``(epoch + 1) * interval`` — a fraction of it while the
        # throttle rung is active).
        limit = min(max_events, epoch * interval)
        pool = _WorkerPool(self, spec, max_events, injector, resume)
        try:
            while True:
                allowance = (
                    manager.spout_allowance() if manager is not None else interval
                )
                limit = min(max_events, limit + allowance)
                final = limit >= max_events or exhausted >= spout_ids
                try:
                    outcomes = pool.run_slice(
                        limit=limit,
                        final=final,
                        shed=manager and manager.shed_context(),
                        batches=dict(spec.edge_batch_size),
                    )
                except ExecutionError as exc:
                    if getattr(exc, "last_checkpoint", None) is None:
                        exc.last_checkpoint = checkpoint
                    raise
                states: dict[int, Any] = {}
                counters: dict[Any, int] = {}
                stats_map: dict[int, TaskStats] = {}
                sink_received = 0
                pressure: set[tuple[int, int]] = set()
                slice_windows: dict[tuple[int, int], QueueStats] = {}
                for _, worker_id, _, stats, sinks, windows, metrics in outcomes:
                    barrier = metrics["epoch"]
                    states.update(barrier.get("states", {}))
                    counters.update(barrier.get("counters", {}))
                    spout_produced.update(barrier["spout_produced"])
                    exhausted.update(barrier["exhausted"])
                    stats_map.update(stats)
                    sink_received += sum(sink.received for sink in sinks.values())
                    if metrics.get("fault_summary"):
                        fault_summaries.append(metrics["fault_summary"])
                    for key, value in metrics.items():
                        if isinstance(value, (int, float)):
                            worker_metrics[worker_id][key] += value
                    slice_windows.update(windows)
                    for key, window in windows.items():
                        _fold_window(edge_stats.setdefault(key, QueueStats()), window)
                    if metrics.get("ring_full_blocks") or metrics.get("send_blocks"):
                        # Pressure beyond blocked_batches: a worker that
                        # stalled on its shm ring or blocked on remote
                        # sends this slice marks all its remote out-edges
                        # as pressured (the transport does not say which
                        # edge).  Shared by the AIMD batch controller and
                        # the overload detector.
                        for rt in spec.tasks:
                            if pool.owner[rt.task_id] != worker_id:
                                continue
                            for edge in rt.out_edges:
                                if pool.owner[edge.consumer] != worker_id:
                                    pressure.add((edge.producer, edge.consumer))
                if manager is not None:
                    # One ladder step per slice.  Workers report per-slice
                    # QueueStats windows, which is exactly what the lag
                    # tracker and detector want.
                    manager.observe_windows(
                        epoch,
                        {
                            key: EdgeWindow(
                                enqueued_batches=st.enqueued_batches,
                                enqueued_tuples=st.enqueued_tuples,
                                dequeued_tuples=st.dequeued_tuples,
                                blocked_batches=st.blocked_batches,
                                peak_depth=st.max_depth_tuples,
                            )
                            for key, st in slice_windows.items()
                        },
                        frozenset(pressure),
                    )
                    for outcome in outcomes:
                        manager.merge_shed_snapshot(outcome[6].get("overload_shed"))
                if controller is not None:
                    # One AIMD step per slice, from the same windows.
                    # While the ladder's batch-shrink rung is active every
                    # edge is treated as pressured so batches shrink toward
                    # their floor (finer batches drain bounded queues sooner).
                    window = {
                        key: (
                            st.enqueued_batches,
                            st.enqueued_tuples,
                            st.blocked_batches,
                        )
                        for key, st in slice_windows.items()
                    }
                    if manager is not None and manager.force_batch_pressure:
                        pressure.update(window)
                    changed = controller.observe_window(window, pressure)
                    if changed and not final:
                        spec = apply_edge_batches(spec, changed)
                if final:
                    pool.close(graceful=True)
                    result = self._merge(spec, outcomes)
                    result.events_ingested = sum(spout_produced.values())
                    result.fault_summary = (
                        merge_fault_summaries(*fault_summaries)
                        if fault_summaries
                        else None
                    )
                    result.epochs = report
                    if manager is not None:
                        result.overload = manager.finish()
                    if registry.enabled:
                        self._publish(
                            registry, spec, result, pool.n_workers,
                            edge_stats, worker_metrics,
                        )
                        if controller is not None:
                            for name, value in controller.report().items():
                                registry.counter(f"runtime.batch.{name}").inc(value)
                            for (p, c), size in spec.edge_batch_size.items():
                                registry.gauge(f"runtime.batch.size.{p}-{c}").set(size)
                    if registry.enabled and report is not None:
                        for name in (
                            "interval", "committed", "barrier_ns", "snapshot_bytes"
                        ):
                            registry.gauge(f"runtime.epoch.{name}").set(
                                getattr(report, name)
                            )
                    return result
                started = perf_counter()
                checkpoint = EpochCheckpoint.capture(
                    epoch,
                    events_ingested=sum(spout_produced.values()),
                    spout_produced=spout_produced,
                    states=states,
                    counters=counters,
                    stats=stats_map,
                    sink_received=sink_received,
                )
                report.barrier_ns += (perf_counter() - started) * 1e9
                report.committed += 1
                report.snapshot_bytes = checkpoint.snapshot_bytes
                report.events.append(
                    {
                        "kind": "commit",
                        "epoch": epoch,
                        "events_ingested": checkpoint.events_ingested,
                        "snapshot_bytes": checkpoint.snapshot_bytes,
                    }
                )
                if on_epoch is not None:
                    commit = EpochCommit(
                        epoch=epoch,
                        spec=spec,
                        checkpoint=checkpoint,
                        task_stats=stats_map,
                        # Per-task wall-clock is an inline-backend signal;
                        # workers only report per-process busy time.
                        task_wall_ns={},
                        events_ingested=checkpoint.events_ingested,
                        overload=(
                            manager.commit_state() if manager is not None else None
                        ),
                    )
                    migration = on_epoch(commit)
                    if migration is not None:
                        # Re-partition tasks over workers by socket: the
                        # new pool restores the just-committed checkpoint.
                        started = perf_counter()
                        spec = migration.spec
                        pool.close(graceful=True)
                        pool = _WorkerPool(self, spec, max_events, injector, checkpoint)
                        pause_ns = (perf_counter() - started) * 1e9
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
                epoch += 1
        finally:
            pool.close()

    @staticmethod
    def _merge(spec: RuntimeSpec | None, outcomes: list[tuple]) -> RunResult:
        """One slice's worker outcomes as a result (tasks, sinks, faults)."""
        events = 0
        task_stats: dict[int, TaskStats] = {}
        sinks_by_task: dict[int, Sink] = {}
        fault_summaries: list[dict[str, float]] = []
        for _, _, worker_events, stats, sinks, _, metrics in outcomes:
            events += worker_events
            task_stats.update(stats)
            sinks_by_task.update(sinks)
            summary = metrics.get("fault_summary")
            if summary:
                fault_summaries.append(summary)
        sinks: dict[str, list[Sink]] = defaultdict(list)
        if spec is not None:
            for rt in spec.tasks:
                if rt.task_id in sinks_by_task:
                    sinks[rt.component].append(sinks_by_task[rt.task_id])
            topology_name = spec.topology.name
        else:
            # Partial merge (failure path): no spec ordering available;
            # group surviving sinks by their task's component label.
            for task_id, sink in sinks_by_task.items():
                component = task_stats[task_id].component
                sinks[component].append(sink)
            topology_name = next(
                (s.component for s in task_stats.values()), "partial"
            )
        return RunResult(
            topology_name=topology_name,
            events_ingested=events,
            task_stats=task_stats,
            sinks=dict(sinks),
            fault_summary=(
                merge_fault_summaries(*fault_summaries)
                if fault_summaries
                else None
            ),
        )

    @staticmethod
    def _publish(
        registry: MetricsRegistry,
        spec: RuntimeSpec,
        result: RunResult,
        n_workers: int,
        edge_stats: Mapping[tuple[int, int], QueueStats],
        worker_metrics: Mapping[int, Mapping[str, float]],
    ) -> None:
        """Publish run-wide counters summed over every slice's windows."""
        publish_engine_metrics(registry, spec, result, edge_stats)
        registry.gauge("runtime.run.workers").set(n_workers)
        totals = defaultdict(float)
        dataplane_counters = (
            "ring_full_blocks",
            "bytes_inline",
            "bytes_oob",
            "codec_fallbacks",
            "dict_columns",
            "dict_pages",
            "dict_bytes",
            "dict_promotions",
            "dict_demotions",
        )
        for worker_id, metrics in sorted(worker_metrics.items()):
            prefix = f"runtime.worker.{worker_id}"
            wall_ns = metrics.get("wall_ns", 0.0)
            registry.gauge(f"{prefix}.busy_fraction").set(
                max(0.0, 1.0 - metrics.get("idle_ns", 0.0) / wall_ns)
                if wall_ns
                else 0.0
            )
            registry.gauge(f"{prefix}.blocked_send_ns").set(
                metrics.get("blocked_send_ns", 0.0)
            )
            for key in (
                "send_blocks",
                "pickled_bytes_out",
                "remote_batches_out",
                "overflow_admissions",
                "spout_throttles",
            ):
                registry.counter(f"{prefix}.{key}").inc(int(metrics.get(key, 0)))
            for key in (
                "pickled_bytes_out",
                *dataplane_counters,
                *_CORE_COUNTERS,
            ):
                totals[key] += metrics.get(key, 0.0)
        registry.counter("runtime.run.pickled_bytes").inc(
            int(totals["pickled_bytes_out"])
        )
        for key in dataplane_counters:
            # dict_* counters publish under a dotted sub-namespace:
            # runtime.dataplane.dict.{columns,pages,bytes,...}.
            name = key.replace("dict_", "dict.")
            registry.counter(f"runtime.dataplane.{name}").inc(int(totals[key]))
        for key in _CORE_COUNTERS:
            registry.counter(f"runtime.{key}").inc(int(totals[key]))
        # Total payload bytes the run moved between workers, whatever
        # the transport: pickled control-queue payloads plus the shm
        # plane's in-ring and out-of-band codec payloads.
        registry.counter("runtime.run.dataplane_bytes").inc(
            int(
                totals["pickled_bytes_out"]
                + totals["bytes_inline"]
                + totals["bytes_oob"]
            )
        )


def _fold_window(total: QueueStats, window: QueueStats) -> None:
    """Add one slice's queue-stat window into the run total (peaks max)."""
    for f in fields(QueueStats):
        value = getattr(window, f.name)
        if f.name == "max_depth_tuples":
            total.max_depth_tuples = max(total.max_depth_tuples, value)
        else:
            setattr(total, f.name, getattr(total, f.name) + value)


class _WorkerPool:
    """The worker processes, data plane and control queues of one run.

    Started once per ``execute()``, optionally from a committed
    checkpoint (Supervisor resume), and again only when a migration
    changes placement.  Each worker runs one slice per command posted
    on its control queue and blocks for the next.
    """

    def __init__(
        self,
        backend: ProcessPoolBackend,
        spec: RuntimeSpec,
        max_events: int,
        injector: "FaultInjector | None",
        resume: "EpochCheckpoint | None",
    ) -> None:
        self.backend = backend
        n, self.owner = backend._assign(spec)
        self.n_workers = n
        # Plan sockets hosted by each worker (for failure attribution).
        sockets: dict[int, set[int]] = defaultdict(set)
        for rt in spec.tasks:
            sockets[self.owner[rt.task_id]].add(rt.socket or 0)
        self.worker_sockets = {w: tuple(sorted(s)) for w, s in sockets.items()}
        self.closed = False
        ctx = _mp_context()
        # The data plane owns the run's transport resources (inboxes, shm
        # ring segments); close() is what guarantees no shared-memory
        # segment survives the run, even when workers crashed or the
        # watchdog fired mid-flight.
        config = backend.config
        self.plane = create_dataplane(
            config.dataplane,
            ctx,
            n,
            edge_schemas=spec.edge_schemas,
            string_dict=config.string_dict,
        )
        self.results: Any = ctx.Queue()
        self.commands: list[Any] = [ctx.Queue() for _ in range(n)]
        # Shared liveness state: heartbeat timestamps (monotonic seconds,
        # stamped by each worker once per loop) and exit-status slots the
        # parent fills in as soon as it observes a death, so blocked peers
        # can distinguish "dead" from "slow".
        self.heartbeats = ctx.Array("d", [monotonic()] * n, lock=False)
        self.status = ctx.Array("i", [_STATUS_RUNNING] * n, lock=False)
        self.workers = [
            ctx.Process(
                target=_worker_main,
                args=(self.commands[worker_id], self.results, os.getpid()),
                kwargs=dict(
                    worker_id=worker_id,
                    spec=spec,
                    owner=self.owner,
                    max_events=max_events,
                    channel=self.plane.endpoint(worker_id),
                    ordered=config.ordered,
                    heartbeats=self.heartbeats,
                    status=self.status,
                    heartbeat_timeout_s=config.heartbeat_timeout_s,
                    send_timeout_s=config.send_timeout_s,
                    schedule=injector.schedule if injector else (),
                    attempt=injector.attempt if injector else 0,
                    vectorized=config.vectorized,
                    resume=resume,
                ),
                daemon=True,
            )
            for worker_id in range(n)
        ]
        try:
            for process in self.workers:
                process.start()
        except BaseException:
            self.close()
            raise

    def run_slice(self, **command: Any) -> list[tuple]:
        """Run one slice on every worker; collect their outcomes.

        The parent watchdog converts a dead worker into
        :class:`WorkerCrashError` and a stale heartbeat or an exhausted
        ``timeout_s`` budget into :class:`StallError`, each carrying a
        partial result merged from the outcomes received so far — this
        method never blocks unboundedly.
        """
        timeout_s = self.backend.config.timeout_s
        deadline = monotonic() + timeout_s
        # The deadline also bounds blocked sends inside the workers, so a
        # stalled send gives up when the slice is out of budget, not just
        # when its own send deadline expires (CLOCK_MONOTONIC is
        # comparable across processes on every platform we fork on).
        command["deadline"] = deadline
        for worker_id, commands in enumerate(self.commands):
            # Workers heartbeat only while running a slice: restamp so the
            # barrier the parent just spent does not read as a stall.
            self.heartbeats[worker_id] = monotonic()
            commands.put(command)
        outcomes: list[tuple] = []
        pending = set(range(self.n_workers))

        def failure(error_cls: type, message: str, failed: list[int]) -> Exception:
            return error_cls(
                message,
                partial_result=_partial(outcomes),
                failed_workers=tuple(failed),
                failed_sockets=tuple(
                    sorted(
                        s for wid in failed for s in self.worker_sockets.get(wid, ())
                    )
                ),
            )

        def drain(timeout: float) -> bool:
            try:
                outcome = self.results.get(timeout=timeout)
            except queue_mod.Empty:
                return False
            if outcome[0] == "error":
                _, worker_id, error_kind, message, trace = outcome
                raise failure(
                    _ERROR_CLASSES.get(error_kind, ExecutionError),
                    f"worker {worker_id} failed: {message}\n{trace}",
                    [worker_id],
                )
            outcomes.append(outcome)
            pending.discard(outcome[1])
            return True

        while pending:
            if drain(_POLL_INTERVAL_S):
                continue
            now = monotonic()
            dead = [wid for wid in sorted(pending) if not self.workers[wid].is_alive()]
            if dead:
                # Publish the deaths so blocked peers stop waiting, then
                # give the result queue a grace window: a worker that
                # exited cleanly may still have its outcome in flight.
                for wid in dead:
                    self.status[wid] = self.workers[wid].exitcode or 0
                grace = monotonic() + _DEATH_GRACE_S
                while monotonic() < grace and pending & set(dead):
                    drain(_POLL_INTERVAL_S)
                lost = sorted(pending & set(dead))
                if lost:
                    codes = {wid: self.workers[wid].exitcode for wid in lost}
                    raise failure(
                        WorkerCrashError,
                        f"worker(s) {lost} died without reporting a result "
                        f"(exit codes {codes})",
                        lost,
                    )
                continue
            heartbeat_timeout_s = self.backend.config.heartbeat_timeout_s
            stale = [
                wid
                for wid in sorted(pending)
                if now - self.heartbeats[wid] > heartbeat_timeout_s
            ]
            if stale:
                ages = {wid: round(now - self.heartbeats[wid], 2) for wid in stale}
                raise failure(
                    StallError,
                    f"worker(s) {stale} stopped heartbeating "
                    f"(last heartbeat {ages} s ago, "
                    f"watchdog {heartbeat_timeout_s}s)",
                    stale,
                )
            if now > deadline:
                raise failure(
                    StallError,
                    f"process backend timed out after {timeout_s}s "
                    f"waiting for worker results (workers {sorted(pending)} "
                    "still running)",
                    sorted(pending),
                )
        return outcomes

    def close(self, graceful: bool = False) -> None:
        """Stop the workers and release the plane (idempotent).

        ``graceful`` lets idle workers exit on a stop command first (a
        finished run or a migration restart); anything still alive —
        every worker on a failure path — is terminated.
        """
        if self.closed:
            return
        self.closed = True
        for commands in self.commands:
            if graceful:
                commands.put(None)
            # End the queue's feeder thread: a later pool forks from here.
            commands.close()
            commands.join_thread()
        for process in self.workers:
            if graceful and process.pid is not None:
                process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
        for process in self.workers:
            if process.pid is not None:
                process.join(timeout=5.0)
        self.plane.close()
        self.results.cancel_join_thread()


def _partial(outcomes: list[tuple]) -> RunResult | None:
    """Merge the outcomes received so far into a partial result."""
    if not outcomes:
        return None
    result = ProcessPoolBackend._merge(None, outcomes)
    result.partial = True
    return result


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(
    commands: Any, results: Any, parent_pid: int, **worker_args: Any
) -> None:
    worker = None
    try:
        worker = _Worker(**worker_args)
        while True:
            command = _next_command(commands, parent_pid)
            if command is None:
                return
            worker.begin_slice(**command)
            results.put(worker.run())
            if command["final"]:
                return
    except BaseException as exc:
        typed = isinstance(exc, ExecutionError)
        results.put(
            (
                "error",
                worker_args["worker_id"],
                type(exc).__name__ if typed else "ExecutionError",
                str(exc) if typed else repr(exc),
                traceback.format_exc(),
            )
        )
    finally:
        # Detach this worker's channel resources (shm mappings must be
        # closed before exit; the parent owns segment lifetime/unlink).
        if worker is not None:
            worker.channel.close()


def _next_command(commands: Any, parent_pid: int) -> dict | None:
    """Block for the parent's next slice command; None means stop."""
    while True:
        try:
            return commands.get(timeout=1.0)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                return None  # orphaned: the parent is gone


def _delta(totals: Mapping[str, float], reported: Mapping[str, float]) -> dict:
    """Counter growth since the last report."""
    return {key: value - reported.get(key, 0.0) for key, value in totals.items()}


class _Worker:
    """One worker process: runs its task partition, one slice per command.

    Operator instances, spout iterators, the fault injector, routing
    counters, per-task statistics and the channel persist across slices;
    :meth:`begin_slice` only resets the per-slice bookkeeping.
    """

    def __init__(
        self,
        worker_id: int,
        spec: RuntimeSpec,
        owner: Mapping[int, int],
        max_events: int,
        channel: Any,
        ordered: bool,
        *,
        heartbeats: Any = None,
        status: Any = None,
        heartbeat_timeout_s: float = 10.0,
        send_timeout_s: float = 30.0,
        schedule: tuple = (),
        attempt: int = 0,
        vectorized: str = "auto",
        resume: EpochCheckpoint | None = None,
    ) -> None:
        self.me = worker_id
        self.spec = spec
        self.owner = dict(owner)
        # Accept either a ChannelEndpoint (normal path, built by the data
        # plane in the parent) or a bare list of inbox queues (white-box
        # tests), which gets the historical pickle channel.
        if isinstance(channel, ChannelEndpoint):
            self.channel = channel
        else:
            self.channel = PickleQueueChannel(worker_id, list(channel))
        self.channel.connect()
        self.ordered = ordered
        self.heartbeats = heartbeats
        self.status = status
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.send_timeout_s = send_timeout_s
        # Blocked-send retry/backoff state (repro.runtime.overload): one
        # circuit breaker per destination, a jitter RNG that only shapes
        # sleep timing (never data), and the run watchdog's deadline so a
        # stalled send cannot outlive ``timeout_s`` by up to the send
        # deadline.
        self.send_policy = SendRetryPolicy(deadline_s=send_timeout_s)
        self.breakers: dict[int, CircuitBreaker] = {}
        self.send_rng = random.Random(0x5EED ^ worker_id)
        self.mine: list[TaskRuntime] = [
            rt for rt in spec.tasks if self.owner[rt.task_id] == worker_id
        ]
        self.injector = (
            FaultInjector(
                tuple(schedule),
                attempt,
                tasks={rt.task_id for rt in self.mine},
                # A pool restarted from a checkpoint seeds the per-task
                # tuple counts so trigger offsets stay run-absolute and
                # faults spent before the checkpoint never re-fire.
                base_counts=resume.tick_counts() if resume else None,
            )
            if schedule
            else None
        )
        # Operator execution and routing for this partition; a pool
        # restarted from a committed checkpoint (Supervisor retry,
        # placement-changing migration) restores it from ``resume``.
        self.core = TaskCore(
            spec,
            self.mine,
            max_events,
            vectorized=vectorized,
            injector=self.injector,
            registry=NULL_REGISTRY,
            emit=self._send,
            fault=self._fault_tick,
            resume=resume,
        )
        # Inbound bookkeeping: depth and backlog per in-edge of a local
        # task.  Arrival mode queues (edge, tuples) per consumer in
        # arrival order; ordered mode queues per edge.
        self.edge_depth: dict[tuple[int, int], int] = {}
        self.edge_backlog: dict[tuple[int, int], deque] = {}
        self.arrival: dict[int, deque] = {}
        for rt in self.mine:
            self.arrival[rt.task_id] = deque()
            for edge in rt.in_edges:
                key = (edge.producer, edge.consumer)
                self.edge_depth[key] = 0
                self.edge_backlog[key] = deque()
        # A received batch refused hard admission, already decoded — kept
        # as (producer, consumer, payload) so a retry never re-decodes
        # (and the shm ring slot it came from is already released).  The
        # payload is a tuple list or, for columnar consumers, possibly a
        # ColumnBatch; both support len() everywhere admission cares.
        self.held: tuple[int, int, Any] | None = None
        # Worker-lifetime counters; each outcome reports their growth
        # since the previous slice (see run()).
        self.metrics: dict[str, Any] = defaultdict(float)
        self.reported: dict[str, float] = {}
        self.reported_faults: dict[str, float] = {}
        self.begin_slice(max_events, True, None, dict(spec.edge_batch_size), None)

    def begin_slice(
        self,
        limit: int,
        final: bool,
        shed: dict | None,
        batches: dict[tuple[int, int], int],
        deadline: float | None,
    ) -> None:
        """Arm the next slice: its bounds and fresh per-slice bookkeeping.

        ``limit`` is the cumulative per-spout production bound; windowed
        ``flush()`` runs only when ``final``.  ``deadline`` is the parent
        watchdog's, so a stalled send cannot outlive ``timeout_s``.
        """
        self.slice_limit = limit
        self.slice_final = final
        self.run_deadline = deadline
        # Shed directive for this slice (overload ladder, parent side):
        # spout-side deterministic shedding keyed by the spout's
        # cumulative tuple offset, so the decision stream is identical
        # across slices, backends and replays.
        self.shedder: Shedder | None = None
        if shed is not None:
            self.shedder = Shedder(shed["mode"], shed["rate"], shed["seed"])
            self.shedder.active = shed["active"]
        self.core.shedder = (
            self.shedder if self.shedder is not None and self.shedder.active else None
        )
        if batches != self.spec.edge_batch_size:
            # The AIMD controller resized edges at the barrier, where
            # every output buffer is empty.
            self.spec = dc_replace(self.spec, edge_batch_size=batches)
            for key, buffer in self.core.buffers.items():
                buffer.batch_size = self.spec.batch_for(key)
        self.eof: set[tuple[int, int]] = set()
        self.completed: set[int] = set()
        self.events = 0
        # Per-spout production at slice start: events this worker reports
        # are the slice delta (the parent accumulates across slices).
        self.spout_start: dict[int, int] = dict(self.core.spout_produced)
        # Per-slice queue-stat windows: the overload and AIMD controllers
        # read them as-is, and the parent folds them into run totals.
        self.edge_stats: dict[tuple[int, int], QueueStats] = {
            key: QueueStats() for key in self.edge_depth
        }

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def _beat(self) -> None:
        if self.heartbeats is not None:
            self.heartbeats[self.me] = monotonic()

    def _peer_dead(self, worker: int) -> bool:
        """True once the parent has recorded ``worker``'s exit."""
        return self.status is not None and self.status[worker] != _STATUS_RUNNING

    def _check_dead_producers(self) -> None:
        """Raise if an idle wait depends on EOFs from a dead worker."""
        if self.status is None:
            return
        for rt in self.mine:
            if rt.task_id in self.completed:
                continue
            for edge in rt.in_edges:
                key = (edge.producer, edge.consumer)
                peer = self.owner[edge.producer]
                if key in self.eof or peer == self.me:
                    continue
                if self._peer_dead(peer):
                    raise WorkerCrashError(
                        f"worker {self.me}: upstream worker {peer} died "
                        f"before finishing edge {edge.producer}->"
                        f"{edge.consumer}"
                    )

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _fault_tick(self, rt: TaskRuntime, fault: Fault) -> None:
        """The core's fault hook: act on a fault fired at ``rt``."""
        if fault.kind == "crash":
            # A real worker loss: die hard, without flushing buffers or
            # posting a result.  The parent watchdog attributes it.
            os._exit(CRASH_EXIT_CODE)
        if fault.kind == "raise":
            raise InjectedFaultError(
                f"injected operator failure: {fault.describe()}"
            )
        if fault.kind == "stall":
            # Stop heartbeating and stop working: the parent watchdog
            # converts this into a StallError within its timeout.
            self.metrics["stalled"] = 1.0
            while True:
                time.sleep(_IDLE_SLEEP_S * 50)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> tuple:
        """Run the armed slice to its per-edge EOF drain; its outcome."""
        started = perf_counter()
        idle_s = 0.0
        idle_since: float | None = None
        while len(self.completed) < len(self.mine):
            self._beat()
            progress = self._receive(limit=64, soft=False)
            progress += self._step_spouts()
            progress += self._step_process(_PROCESS_QUANTUM)
            progress += self._complete_ready()
            if not progress:
                now = monotonic()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since > self.heartbeat_timeout_s:
                    # Long idle: are we waiting on a dead upstream worker?
                    self._check_dead_producers()
                    idle_since = now
                time.sleep(_IDLE_SLEEP_S)
                idle_s += _IDLE_SLEEP_S
            else:
                idle_since = None
        self.metrics["wall_ns"] += max(perf_counter() - started, 1e-9) * 1e9
        self.metrics["idle_ns"] += idle_s * 1e9
        totals = {
            **self.metrics,
            **self.channel.snapshot_metrics(),
            **self.core.counts(),
        }
        if self.breakers:
            totals["send_breaker_opens"] = float(
                sum(b.opens for b in self.breakers.values())
            )
            totals["send_breaker_probes"] = float(
                sum(b.probes for b in self.breakers.values())
            )
        # Slice windows, not running totals: the parent sums them into
        # the run's counters and feeds them to its controllers as-is.
        metrics: dict[str, Any] = _delta(totals, self.reported)
        self.reported = totals
        if self.injector is not None:
            summary = self.injector.summary()
            metrics["fault_summary"] = _delta(summary, self.reported_faults)
            self.reported_faults = summary
        if self.shedder is not None:
            # Per-slice shed accounting; the parent folds every worker's
            # snapshot into the run-level OverloadReport.
            metrics["overload_shed"] = self.shedder.snapshot()
        # Barrier payload: this worker's share of the epoch snapshot.  The
        # parent unions the shares and seals them as the EpochCheckpoint
        # once every worker has reported (a final slice commits nothing).
        core = self.core
        metrics["epoch"] = {
            "spout_produced": dict(core.spout_produced),
            "exhausted": sorted(core.exhausted),
        }
        if not self.slice_final:
            metrics["epoch"]["states"] = {
                task_id: instance.snapshot_state()
                for task_id, instance in core.instances.items()
                if isinstance(instance, Operator)
            }
            metrics["epoch"]["counters"] = dict(core.counters)
        sinks = {
            task_id: instance
            for task_id, instance in core.instances.items()
            if isinstance(instance, Sink)
        }
        self._beat()
        return ("ok", self.me, self.events, core.stats, sinks, self.edge_stats, metrics)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _admit(self, producer: int, consumer: int, payload: Any, soft: bool) -> bool:
        """Admit a received batch into the consumer's backlog.

        ``payload`` is a tuple list or a ColumnBatch (both sized).
        Returns False when hard admission is refused (over capacity); the
        caller must hold the message and retry later.
        """
        key = (producer, consumer)
        capacity = self.spec.queue_capacity[key]
        if capacity is not None and not self.ordered:
            if self.edge_depth[key] + len(payload) > capacity:
                if not soft:
                    return False
                self.metrics["overflow_admissions"] += 1
        self._enqueue_backlog(key, payload)
        return True

    def _enqueue_backlog(self, key: tuple[int, int], payload: Any) -> None:
        stats = self.edge_stats[key]
        stats.enqueued_batches += 1
        stats.enqueued_tuples += len(payload)
        self.edge_depth[key] += len(payload)
        stats.max_depth_tuples = max(stats.max_depth_tuples, self.edge_depth[key])
        if self.ordered:
            self.edge_backlog[key].append(payload)
        else:
            self.arrival[key[1]].append((key, payload))

    def _receive(self, limit: int, soft: bool) -> int:
        """Drain up to ``limit`` inbox messages; returns how many landed.

        ``soft=False`` (main loop) refuses over-capacity batches, holding
        the refused message so the inbox backs up and remote producers
        block — per-edge backpressure.  ``soft=True`` (used while this
        worker is itself blocked on a send) admits everything to keep the
        worker graph deadlock-free.  Never blocks: inbox reads are
        non-blocking polls, so a dead producer cannot hang this path (the
        main loop's dead-producer check bounds the resulting idle wait).
        """
        received = 0
        for _ in range(limit):
            if self.held is not None:
                producer, consumer, payload = self.held
                self.held = None
            else:
                message = self.channel.try_get()
                if message is None:
                    break
                if message[0] == "eof":
                    self.eof.add((message[1], message[2]))
                    received += 1
                    continue
                # Decode before admission: frees the transport resource
                # (shm ring slot) promptly, and a held retry re-admits the
                # already-decoded payload instead of decoding twice.
                # Consumers with a columnar kernel get the payload as a
                # ColumnBatch where the wire format allows.
                if self.channel.peek_consumer(message) in self.core.kernels:
                    producer, consumer, payload = self.channel.unpack_columns(
                        message
                    )
                else:
                    producer, consumer, payload = self.channel.unpack(message)
            if self._admit(producer, consumer, payload, soft):
                received += 1
            else:
                self.held = (producer, consumer, payload)
                break
        return received

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _channel_full(self, producer: int, consumer: int) -> bool:
        if self.owner[consumer] == self.me:
            capacity = self.spec.queue_capacity[(producer, consumer)]
            if capacity is None or self.ordered:
                return False
            return self.edge_depth[(producer, consumer)] >= capacity
        return self.channel.dest_full(self.owner[consumer])

    def _dispatch(self, producer: int, consumer: int, tuples: list[StreamTuple]) -> None:
        if not tuples:
            return
        if self.injector is not None and self.injector.take_drop(
            producer, len(tuples)
        ):
            # Injected message loss: the batch vanishes before delivery.
            return
        if self.owner[consumer] == self.me:
            self._deliver_local(producer, consumer, tuples)
            return
        # pack() seals the batch exactly once — byte counters live there,
        # so an overflow-admission retry inside _blocking_put can never
        # double-count a batch.
        dest = self.owner[consumer]
        message = self.channel.pack(dest, producer, consumer, tuples)
        self._blocking_put(dest, message)

    def _dispatch_columns(
        self, producer: int, consumer: int, batch: "ColumnBatch"
    ) -> None:
        """Columnar twin of :meth:`_dispatch`: ship a ColumnBatch whole."""
        if len(batch) == 0:
            return
        if self.injector is not None and self.injector.take_drop(
            producer, len(batch)
        ):
            # Unreachable in practice (kernels are disabled while the
            # injector is armed) but kept so drop accounting can never
            # silently diverge between the two dispatch paths.
            return
        if self.owner[consumer] == self.me:
            self._deliver_local(producer, consumer, batch)
            return
        dest = self.owner[consumer]
        message = self.channel.pack_columns(dest, producer, consumer, batch)
        self._blocking_put(dest, message)

    def _deliver_local(self, producer: int, consumer: int, tuples: Any) -> None:
        key = (producer, consumer)
        capacity = self.spec.queue_capacity[key]
        if capacity is not None and not self.ordered:
            # Hard local bound: make room by processing the consumer's
            # backlog in place (always possible — head batches only flow
            # downstream, and the graph is acyclic).
            blocked_from = None
            while (
                self.edge_depth[key] + len(tuples) > capacity
                and self._process_one(consumer)
            ):
                if blocked_from is None:
                    blocked_from = perf_counter()
                    self.edge_stats[key].blocked_batches += 1
            if blocked_from is not None:
                self.edge_stats[key].blocked_ns += (
                    perf_counter() - blocked_from
                ) * 1e9
        self._enqueue_backlog(key, tuples)

    def _blocking_put(self, target_worker: int, message: tuple) -> None:
        """Send to a peer inbox, retrying with bounded patience.

        While blocked the worker keeps heartbeating and draining its own
        inbox (softly: never refuse) so a ring of mutually-blocked
        workers cannot deadlock.  Retries back off under decorrelated
        jitter (:func:`repro.runtime.overload.decorrelated_jitter`), and
        after ``open_after_s`` of continuous blocking the per-destination
        circuit opens: the sender stops hammering the channel and probes
        it half-open once per ``probe_interval_s`` until the peer drains.
        The wait is bounded three ways: a peer the parent has marked dead
        raises :class:`~repro.errors.WorkerCrashError` immediately; a
        peer alive but not draining past the policy deadline raises
        :class:`~repro.errors.QueueDeadlockError`; and the run watchdog's
        own deadline is honoured too, so a stalled send can never outlive
        ``timeout_s`` by up to the send deadline.
        """
        policy = self.send_policy
        breaker = self.breakers.get(target_worker)
        if breaker is None:
            breaker = self.breakers[target_worker] = CircuitBreaker(policy)
        if self.channel.try_put(target_worker, message):
            breaker.on_success()
            return
        self.metrics["send_blocks"] += 1
        blocked_from = perf_counter()
        deadline = monotonic() + policy.deadline_s
        if self.run_deadline is not None:
            deadline = min(deadline, self.run_deadline)
        sleep_s = policy.base_sleep_s
        while True:
            self._beat()
            now = monotonic()
            if breaker.allow(now):
                if self.channel.try_put(target_worker, message):
                    breaker.on_success()
                    break
                breaker.on_blocked(now)
            if self._peer_dead(target_worker):
                raise WorkerCrashError(
                    f"worker {self.me}: peer worker {target_worker} died "
                    "with its inbox full; message undeliverable"
                ) from None
            if now > deadline:
                raise QueueDeadlockError(
                    f"worker {self.me}: send to worker {target_worker} "
                    f"blocked past its deadline "
                    f"(send budget {policy.deadline_s}s, "
                    f"circuit {'open' if breaker.open else 'closed'}, "
                    "peer alive but not draining)"
                ) from None
            if not self._receive(limit=16, soft=True):
                sleep_s = decorrelated_jitter(
                    self.send_rng, policy.base_sleep_s, policy.max_sleep_s, sleep_s
                )
                time.sleep(sleep_s)
        self.metrics["blocked_send_ns"] += (perf_counter() - blocked_from) * 1e9

    def _send_eof(self, producer: int, consumer: int) -> None:
        if self.owner[consumer] == self.me:
            self.eof.add((producer, consumer))
        else:
            self._blocking_put(self.owner[consumer], ("eof", producer, consumer))

    def _send(
        self, producer: int, consumer: int, sealed: "JumboTuple | ColumnBatch"
    ) -> None:
        """Dispatch one sealed edge-buffer payload."""
        if isinstance(sealed, JumboTuple):
            self._dispatch(producer, consumer, sealed.tuples)
        else:
            self._dispatch_columns(producer, consumer, sealed)

    def _finish(self, task_id: int) -> None:
        """Flush a scheduled task for the slice (windowed ``flush()`` only
        on the final one), then close its stages' out-edges with EOF."""
        for rt in self.core.flush(task_id, self.slice_final):
            for edge in rt.out_edges:
                self._send_eof(edge.producer, edge.consumer)
            self.completed.add(rt.task_id)

    # ------------------------------------------------------------------
    # Spouts
    # ------------------------------------------------------------------
    def _step_spouts(self) -> int:
        progress = 0
        core = self.core
        for task_id, stages in core.stages.items():
            rt = stages[0]
            if not rt.is_spout or task_id in self.completed:
                continue
            if any(
                self._channel_full(edge.producer, edge.consumer)
                for edge in rt.out_edges
            ):
                # Backpressure reached the source: pause ingestion until
                # downstream drains.
                self.metrics["spout_throttles"] += 1
                continue
            produced = core.spout_produced[task_id]
            for _ in range(max(0, min(_SPOUT_CHUNK, self.slice_limit - produced))):
                if not core.spout(rt):
                    break
                progress += 1
            produced = core.spout_produced[task_id]
            if task_id in core.exhausted or produced >= self.slice_limit:
                # Source dried up, or the slice boundary (epoch barrier)
                # was reached: close this spout's outputs for the slice.
                self.events += produced - self.spout_start.get(task_id, 0)
                self._finish(task_id)
                progress += 1
        return progress

    # ------------------------------------------------------------------
    # Operators and fused chains (executed by the task core)
    # ------------------------------------------------------------------
    def _next_batch(self, rt: TaskRuntime) -> tuple[tuple[int, int], list[StreamTuple]] | None:
        if self.ordered:
            # Strict edge order: only the earliest edge that is still live
            # may be processed; if it has no data yet, wait.
            for edge in rt.in_edges:
                key = (edge.producer, edge.consumer)
                backlog = self.edge_backlog[key]
                if backlog:
                    return key, backlog.popleft()
                if key not in self.eof:
                    return None
            return None
        fifo = self.arrival[rt.task_id]
        if not fifo:
            return None
        return fifo.popleft()

    def _process_one(self, consumer: int) -> bool:
        """Process one backlog batch of task ``consumer``; False when none."""
        entry = self._next_batch(self.core.stages[consumer][0])
        if entry is None:
            return False
        key, payload = entry
        self.edge_depth[key] -= len(payload)
        self.edge_stats[key].dequeued_tuples += len(payload)
        self.core.process(consumer, [payload])
        return True

    def _step_process(self, quantum: int) -> int:
        progress = 0
        for task_id, stages in self.core.stages.items():
            if stages[0].is_spout or task_id in self.completed:
                continue
            for _ in range(quantum):
                if not self._process_one(task_id):
                    break
                progress += 1
        return progress

    def _complete_ready(self) -> int:
        progress = 0
        for task_id, stages in self.core.stages.items():
            if stages[0].is_spout or task_id in self.completed:
                continue
            if any(
                (edge.producer, edge.consumer) not in self.eof
                or self.edge_depth[(edge.producer, edge.consumer)] > 0
                for edge in stages[0].in_edges
            ):
                continue
            self._finish(task_id)
            progress += 1
        return progress
