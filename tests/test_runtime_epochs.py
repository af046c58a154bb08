"""Epoch barriers: checkpoint contract, parity, resume, live migration.

The barrier protocol's core guarantee is that cutting the stream into
epochs is *observationally free*: a run with barriers produces exactly
the results of a run without them, on both backends.  On top of that sit
the two consumers — the supervisor's resume-from-last-epoch recovery
(duplicate deliveries shrink from whole-run replay to one epoch) and
live migration (moving tasks between sockets at a barrier does not
change results).  See docs/reconfiguration.md.
"""

import json
from collections import Counter as Multiset
from dataclasses import replace as dc_replace
from multiprocessing.process import BaseProcess

import pytest

from repro.apps import build_linear_road, load_application
from repro.core import PerformanceModel, RLASOptimizer
from repro.core.scaling import saturation_ingress
from repro.dsps import LocalEngine
from repro.errors import ExecutionError
from repro.hardware import server_a
from repro.metrics.registry import MetricsRegistry
from repro.runtime import (
    EpochConfig,
    FaultPlan,
    FusionConfig,
    Migration,
    check_serializable,
    shm_available,
)
from repro.runtime.batching import AdaptiveBatchController

EVENTS = 300
INTERVAL = 100
#: Fault trigger inside the *second* epoch so resume-from-epoch has a
#: committed checkpoint to start from.
AT = 150


def build_engine(app, **kwargs):
    topology, _ = load_application(app)
    topology.component("sink").template.keep_samples = 10**6
    return LocalEngine(topology, **kwargs)


def sink_multiset(result):
    return Multiset(
        tuple(item.values)
        for sinks in result.sinks.values()
        for sink in sinks
        for item in sink.samples
    )


@pytest.fixture(scope="module")
def baselines():
    return {app: build_engine(app).run(EVENTS) for app in ("wc", "sd", "fd")}


class TestCheckSerializable:
    def test_plain_data_accepted(self):
        check_serializable(
            {
                "counts": {"a": 1, (1, 2): [0.5, True, None]},
                "blob": b"x",
                "nested": [({"k": "v"},)],
            }
        )

    @pytest.mark.parametrize("value", [set(), object(), {"x": {1, 2}}])
    def test_non_plain_data_rejected(self, value):
        with pytest.raises(ExecutionError, match="not codec-serializable"):
            check_serializable(value)

    def test_offending_path_is_named(self):
        with pytest.raises(ExecutionError, match=r"state\['deep'\]\[0\]"):
            check_serializable({"deep": [set()]})

    def test_interval_validated(self):
        with pytest.raises(ExecutionError, match="epoch interval"):
            EpochConfig(interval=0)


class TestEpochParityInline:
    """Barriers are observationally free on the inline backend."""

    @pytest.mark.parametrize("app", ["wc", "sd", "fd"])
    def test_bit_identical_results(self, app, baselines):
        result = build_engine(app, epoch_interval=INTERVAL).run(EVENTS)
        baseline = baselines[app]
        assert result.sink_received() == baseline.sink_received()
        assert sink_multiset(result) == sink_multiset(baseline)
        assert result.epochs is not None
        assert result.epochs.committed >= EVENTS // INTERVAL - 1

    def test_lr_totals_match(self):
        baseline = build_engine("lr").run(EVENTS)
        result = build_engine("lr", epoch_interval=INTERVAL).run(EVENTS)
        assert result.sink_received() == baseline.sink_received()

    def test_report_accounting(self):
        result = build_engine("wc", epoch_interval=INTERVAL).run(EVENTS)
        report = result.epochs
        assert report.interval == INTERVAL
        assert report.committed == len(
            [e for e in report.events if e["kind"] == "commit"]
        )
        assert report.snapshot_bytes > 0
        assert report.barrier_ns > 0
        assert report.migrations == 0
        assert report.resumed_from is None


class TestEpochParityProcess:
    """Barriers between slices of one live worker pool change nothing."""

    def test_process_backend_matches_inline(self, baselines):
        result = build_engine(
            "wc", backend="process", n_workers=2, epoch_interval=INTERVAL
        ).run(EVENTS)
        baseline = baselines["wc"]
        assert result.sink_received() == baseline.sink_received()
        assert sink_multiset(result) == sink_multiset(baseline)
        assert result.epochs.committed >= EVENTS // INTERVAL - 1


def component_counts(result):
    counts = {}
    for stats in result.task_stats.values():
        tuples_in, tuples_out = counts.get(stats.component, (0, 0))
        counts[stats.component] = (
            tuples_in + stats.tuples_in,
            tuples_out + stats.tuples_out,
        )
    return counts


def sink_states(result):
    """Every sink's ``snapshot_state()`` as a multiset per component, its
    samples too: arrival order across input edges is the executor's."""
    states = {}
    for component, sinks in result.sinks.items():
        snapshots = []
        for sink in sinks:
            state = sink.snapshot_state()
            state["samples"] = sorted(map(json.dumps, state["samples"]))
            snapshots.append(json.dumps(state, sort_keys=True))
        states[component] = sorted(snapshots)
    return states


@pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
class TestRlasPlanFanOutParity:
    """An RLAS plan with replicated operators on the process backend:
    the 14-way fields and broadcast edges route kernel output through
    ``Grouping.partition`` and the per-edge columnar jumbo buffers."""

    def test_matches_scalar_inline_run(self):
        topology = build_linear_road(seed=1)
        # Keep every delivered tuple, so a key routed to the wrong
        # replica shows up in the sink state, not only in the counts.
        topology.component("sink").template.keep_samples = 10**6
        profiles = load_application("lr")[1]
        machine = server_a(2)
        rate = saturation_ingress(topology, PerformanceModel(profiles, machine))
        plan = RLASOptimizer(topology, profiles, machine, rate).optimize()
        replication = plan.expanded_plan.graph.replication
        assert max(replication.values()) > 1
        result = LocalEngine.from_plan(
            plan.expanded_plan,
            backend="process",
            n_workers=2,
            dataplane="shm",
            epoch_interval=500,
            fuse=FusionConfig(mode="auto", profiles=profiles, machine=machine),
        ).run(2_000)
        reference = LocalEngine.from_plan(
            plan.expanded_plan, vectorized="off", epoch_interval=500
        ).run(2_000)
        assert result.events_ingested == reference.events_ingested == 2_000
        assert component_counts(result) == component_counts(reference)
        assert sink_states(result) == sink_states(reference)


class TestInlineColumnarBarriers:
    """Kernel output routes as column batches through the inline
    backend's edge buffers, and none is pending at a barrier: every
    phase flushes them, so a checkpoint or a migration never strands
    rows."""

    EVENTS = 2_000
    INTERVAL = 500

    def _run(self, vectorized, on_epoch, messages):
        engine = build_engine(
            "lr",
            vectorized=vectorized,
            adaptive_batch=True,
            epoch_interval=self.INTERVAL,
            queue_budget=2048,
        )
        messages.clear()  # count this run's queue messages only
        return engine.backend.execute(
            engine.spec,
            self.EVENTS,
            engine.registry,
            epochs=engine.epochs,
            on_epoch=on_epoch,
        )

    def test_lr_with_adaptive_batching_and_migration_matches_scalar(
        self, monkeypatch
    ):
        from repro.runtime.backends import _InlineRun

        pending = []  # rows buffered or queued, before and after commits
        commit = _InlineRun._commit

        def checked_commit(run, epoch):
            def rows():
                return sum(b.pending for b in run.buffers.values()) + sum(
                    q.depth_tuples for q in run.queues.values()
                )

            pending.append(rows())
            commit(run, epoch)  # runs the observer, which may migrate
            pending.append(rows())

        monkeypatch.setattr(_InlineRun, "_commit", checked_commit)
        messages = Multiset()
        enqueue = _InlineRun._enqueue

        def counted_enqueue(run, producer, consumer, batch):
            messages[type(batch).__name__] += 1
            return enqueue(run, producer, consumer, batch)

        monkeypatch.setattr(_InlineRun, "_enqueue", counted_enqueue)
        resized = []

        def relocate(commit):
            resized.append(dict(commit.spec.edge_batch_size))
            if commit.epoch != 1:
                return None
            spec = dc_replace(
                commit.spec,
                tasks=tuple(
                    dc_replace(rt, socket=1) for rt in commit.spec.tasks
                ),
            )
            moved = tuple(rt.task_id for rt in commit.spec.tasks)
            return Migration(spec=spec, moved=moved, detail="test shuffle")

        off = self._run("off", relocate, messages)
        assert messages["ColumnBatch"] == 0
        auto = self._run("auto", relocate, messages)
        assert messages["ColumnBatch"] > 0
        assert auto.epochs.migrations == off.epochs.migrations == 1
        assert auto.epochs.committed == off.epochs.committed >= 3
        assert any(resized), "adaptive batching never resized an edge"
        assert pending and not any(pending)
        assert auto.events_ingested == off.events_ingested == self.EVENTS
        assert component_counts(auto) == component_counts(off)
        assert sink_states(auto) == sink_states(off)


class TestBarrierObserver:
    """The executor's ``on_epoch`` callback sees consistent commits."""

    def _run_with_observer(self, observer):
        engine = build_engine("wc")
        return engine.backend.execute(
            engine.spec,
            EVENTS,
            engine.registry,
            epochs=EpochConfig(interval=INTERVAL),
            on_epoch=observer,
        )

    def test_commits_are_cumulative_and_ordered(self):
        commits = []
        self._run_with_observer(lambda c: commits.append(c) and None)
        assert [c.epoch for c in commits] == list(range(len(commits)))
        events = [c.events_ingested for c in commits]
        assert events == sorted(events)
        assert events[0] == INTERVAL
        # Checkpoint payloads deserialize and carry every task's state.
        payload = commits[-1].checkpoint.payload()
        assert set(payload) == {"states", "counters", "stats"}
        counter_states = [
            payload["states"][rt.task_id]
            for rt in commits[-1].spec.tasks
            if rt.component == "counter"
        ]
        assert counter_states and all("counts" in s for s in counter_states)

    def test_migration_at_barrier_preserves_results(self, baselines):
        """Moving every task to another socket mid-run changes nothing."""

        def relocate(commit):
            if commit.epoch != 1:
                return None
            moved = tuple(rt.task_id for rt in commit.spec.tasks)
            spec = dc_replace(
                commit.spec,
                tasks=tuple(
                    dc_replace(rt, socket=1) for rt in commit.spec.tasks
                ),
            )
            return Migration(spec=spec, moved=moved, detail="test shuffle")

        result = self._run_with_observer(relocate)
        assert result.epochs.migrations == 1
        assert result.epochs.migration_pause_ns > 0
        baseline = baselines["wc"]
        assert result.sink_received() == baseline.sink_received()
        assert sink_multiset(result) == sink_multiset(baseline)


class TestResumeFromEpoch:
    """Supervised retry restarts from the last committed checkpoint."""

    def _run(self, epoch_interval=None):
        return build_engine(
            "wc",
            queue_capacity=256,
            fault_plan=FaultPlan(seed=3, kinds=("crash",), at_tuple=AT),
            recovery_policy="retry",
            epoch_interval=epoch_interval,
        ).run(EVENTS)

    def test_resume_shrinks_duplicates(self, baselines):
        replayed = self._run(epoch_interval=None)
        resumed = self._run(epoch_interval=INTERVAL)
        for result in (replayed, resumed):
            assert result.recovery.completed is True
            assert result.recovery.restarts >= 1
        # Exactly-once-per-epoch: only the unfinished epoch is replayed.
        assert (
            resumed.recovery.duplicate_deliveries
            < replayed.recovery.duplicate_deliveries
        )
        assert resumed.recovery.resumed_from_epoch is not None
        assert resumed.epochs.resumed_from == resumed.recovery.resumed_from_epoch
        # And recovery stays exact.
        baseline = baselines["wc"]
        assert resumed.sink_received() == baseline.sink_received()
        assert sink_multiset(resumed) == sink_multiset(baseline)


@pytest.fixture()
def process_starts(monkeypatch):
    """Count ``Process.start`` calls made by the parent."""
    started = []
    start = BaseProcess.start

    def counted(process):
        started.append(process.name)
        return start(process)

    monkeypatch.setattr(BaseProcess, "start", counted)
    return started


def counters_of(registry):
    return registry.snapshot()["counters"]


class TestPersistentProcessPool:
    """One worker pool per run: slices are commands to live workers."""

    def test_pool_starts_once_per_run(self, process_starts):
        result = build_engine(
            "wc", backend="process", n_workers=2, epoch_interval=500
        ).run(2_000)
        assert result.epochs.committed == 3
        assert len(process_starts) == 2

    def test_registry_counters_cover_every_slice(self):
        def run(epoch_interval):
            registry = MetricsRegistry()
            topology, _ = load_application("lr")
            result = LocalEngine(
                topology,
                backend="process",
                n_workers=2,
                dataplane="shm",
                fuse="auto",
                epoch_interval=epoch_interval,
                registry=registry,
            ).run(2_000)
            return result, counters_of(registry)

        plain, plain_counters = run(None)
        sliced, sliced_counters = run(500)
        assert sliced.epochs.committed == 3
        assert plain_counters["runtime.fusion.composed_tuples"] > 0
        for name in (
            "runtime.fusion.composed_tuples",
            "runtime.vectorized.tuples",
            "engine.run.events_ingested",
            "engine.run.sink_received",
        ):
            assert sliced_counters[name] == plain_counters[name], name

    def test_slice_windows_sum_to_run_totals(self, monkeypatch):
        windows = []
        observe = AdaptiveBatchController.observe_window

        def recording(controller, window, pressure):
            windows.append(dict(window))
            return observe(controller, window, pressure)

        monkeypatch.setattr(AdaptiveBatchController, "observe_window", recording)
        registry = MetricsRegistry()
        build_engine(
            "wc",
            backend="process",
            n_workers=2,
            epoch_interval=INTERVAL,
            adaptive_batch=True,
            registry=registry,
        ).run(EVENTS)
        assert len(windows) == EVENTS // INTERVAL
        counters = counters_of(registry)
        for key in windows[0]:
            prefix = f"engine.queue.{key[0]}-{key[1]}"
            batches = sum(window[key][0] for window in windows)
            tuples = sum(window[key][1] for window in windows)
            assert batches == counters[f"{prefix}.enqueued_batches"]
            assert tuples == counters[f"{prefix}.enqueued_tuples"]

    def test_crash_in_late_slice_resumes_from_last_commit(self, baselines):
        # The spout's 350th tuple falls in slice 3: offsets count from
        # the run start although the injector now outlives each slice.
        result = build_engine(
            "wc",
            backend="process",
            n_workers=2,
            epoch_interval=INTERVAL,
            fault_plan=FaultPlan(
                seed=3, kinds=("crash",), target="spout", at_tuple=350
            ),
            recovery_policy="retry",
        ).run(2 * EVENTS)
        assert result.recovery.completed is True
        assert result.recovery.restarts == 1
        assert result.recovery.resumed_from_epoch == 2
        assert result.epochs.resumed_from == 2
        reference = build_engine("wc").run(2 * EVENTS)
        assert result.sink_received() == reference.sink_received()
        assert sink_multiset(result) == sink_multiset(reference)

    def test_migration_restarts_pool_from_checkpoint(
        self, baselines, process_starts
    ):
        def split_sockets(commit):
            if commit.epoch != 1:
                return None
            spec = dc_replace(
                commit.spec,
                tasks=tuple(
                    dc_replace(rt, socket=rt.task_id % 2)
                    for rt in commit.spec.tasks
                ),
            )
            moved = tuple(rt.task_id for rt in spec.tasks if rt.socket)
            return Migration(spec=spec, moved=moved, detail="test split")

        engine = build_engine("wc", backend="process", n_workers=2)
        result = engine.backend.execute(
            engine.spec,
            EVENTS,
            engine.registry,
            epochs=EpochConfig(interval=INTERVAL),
            on_epoch=split_sockets,
        )
        assert result.epochs.migrations == 1
        # The first pool, then the re-partitioned one.
        assert len(process_starts) == 4
        baseline = baselines["wc"]
        assert result.sink_received() == baseline.sink_received()
        assert sink_multiset(result) == sink_multiset(baseline)
