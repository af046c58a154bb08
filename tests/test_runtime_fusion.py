"""Runtime operator-chain fusion + adaptive batch sizing suite.

Fusion's whole contract is *semantic invisibility*: a fused run must be
bit-identical to the unfused run — same per-task tuple counts, same sink
multisets — while skipping the intra-chain queues entirely.  The parity
matrix here drives every example application through both backends, both
kernel modes and both fusion settings against one unfused scalar inline
baseline per app.  Around the matrix: unit tests for the chain planner
(eligibility, socket discipline, the ``on``-mode failure, live refit),
the AIMD batch-size controller, the spec-level batch validation, and
fault recovery with a crash landing *inside* a fused chain.
"""

from collections import Counter as Multiset
from dataclasses import replace as dc_replace

import pytest

from repro.apps import load_application
from repro.dsps import LocalEngine
from repro.errors import ExecutionError, PlanError
from repro.metrics import MetricsRegistry
from repro.runtime import (
    AdaptiveBatchConfig,
    AdaptiveBatchController,
    FaultPlan,
    FusionConfig,
    apply_edge_batches,
    as_fusion_config,
    chain_map,
    lower_graph,
    plan_fusion,
    refit_fusion,
    validate_fuse,
)
from repro.dsps.queues import QueueStats

EVENTS = 300
APPS = ("wc", "sd", "fd", "lr")

#: Expected fused chains per app at replication 1 (task ids, head first):
#: every exclusive operator->operator pair on one socket collapses.
EXPECTED_CHAINS = {
    "wc": ((1, 2, 3),),
    "sd": ((1, 2, 3),),
    "fd": ((1, 2),),
    "lr": ((1, 2), (3, 8)),
}


def build_engine(app, *, fuse=None, backend="inline", vectorized="off", **kwargs):
    topology, _profiles = load_application(app)
    topology.component("sink").template.keep_samples = 10**6
    replication = {name: 1 for name in topology.components}
    if backend == "process":
        kwargs.update(n_workers=2, ordered=app == "lr")
    return LocalEngine(
        topology,
        replication=replication,
        backend=backend,
        vectorized=vectorized,
        fuse=fuse,
        **kwargs,
    )


def sink_multiset(result):
    return Multiset(
        tuple(item.values)
        for sinks in result.sinks.values()
        for sink in sinks
        for item in sink.samples
    )


def task_counts(result):
    return {
        task_id: (stats.tuples_in, stats.tuples_out)
        for task_id, stats in result.task_stats.items()
    }


def assert_identical(reference, candidate):
    assert candidate.events_ingested == reference.events_ingested
    assert task_counts(candidate) == task_counts(reference)
    assert sink_multiset(candidate) == sink_multiset(reference)


@pytest.fixture(scope="module")
def baselines():
    """Unfused scalar inline runs: the semantics every config must hit."""
    return {app: build_engine(app).run(EVENTS) for app in APPS}


def wc_spec(**kwargs):
    topology, _profiles = load_application("wc")
    replication = {name: 1 for name in topology.components}
    from repro.dsps.graph import ExecutionGraph

    graph = ExecutionGraph(topology, replication, group_size=1)
    return lower_graph(topology, graph, **kwargs)


# ---------------------------------------------------------------------------
# Chain planning
# ---------------------------------------------------------------------------
class TestPlanFusion:
    def test_modes_validated(self):
        assert validate_fuse("auto") == "auto"
        with pytest.raises(PlanError, match="unknown fuse mode"):
            validate_fuse("maybe")
        with pytest.raises(PlanError, match="unknown fuse mode"):
            FusionConfig(mode="maybe")
        with pytest.raises(PlanError, match="min_benefit"):
            FusionConfig(min_benefit=-0.1)

    def test_as_fusion_config_coercion(self):
        assert as_fusion_config(None).mode == "off"
        assert as_fusion_config("on").mode == "on"
        config = FusionConfig(mode="auto")
        assert as_fusion_config(config) is config

    def test_off_mode_plans_no_chains(self):
        spec = plan_fusion(wc_spec(), FusionConfig(mode="off"))
        assert spec.fusion == ()
        assert spec.fuse_mode == "off"
        assert spec.fused_member_ids == frozenset()

    @pytest.mark.parametrize("app", APPS)
    def test_expected_chains_at_replication_one(self, app):
        engine = build_engine(app, fuse="auto")
        assert engine.spec.fusion == EXPECTED_CHAINS[app]
        heads = chain_map(engine.spec)
        for chain in engine.spec.fusion:
            assert heads[chain[0]] == chain
            assert all(tid in engine.spec.fused_member_ids for tid in chain[1:])

    def test_spout_and_sink_edges_never_fuse(self):
        spec = plan_fusion(wc_spec(), FusionConfig(mode="on"))
        spout = next(rt.task_id for rt in spec.tasks if rt.is_spout)
        sink = next(rt.task_id for rt in spec.tasks if rt.is_sink)
        for chain in spec.fusion:
            assert spout not in chain
            assert sink not in chain

    def test_replicated_edges_are_ineligible(self):
        # Replication breaks 1:1 exclusivity: parser feeds two splitter
        # replicas, each splitter feeds two counters, so only the single
        # remaining exclusive pair (if any) may fuse.
        topology, _profiles = load_application("wc")
        engine = LocalEngine(
            topology,
            replication={
                "spout": 1,
                "parser": 1,
                "splitter": 2,
                "counter": 2,
                "sink": 1,
            },
            fuse="auto",
        )
        for chain in engine.spec.fusion:
            for tid in chain:
                rt = next(t for t in engine.spec.tasks if t.task_id == tid)
                assert rt.component in ("parser",) or len(chain) == 1
        assert engine.spec.fusion == ()  # parser->splitter fans out too

    def test_cross_socket_skipped_under_auto(self):
        spec = wc_spec()
        tasks = tuple(
            dc_replace(rt, socket=1 if rt.component == "splitter" else 0)
            for rt in spec.tasks
        )
        spec = dc_replace(spec, tasks=tasks)
        fused = plan_fusion(spec, FusionConfig(mode="auto"))
        # parser(1)->splitter(2) and splitter(2)->counter(3) both cross
        # sockets now; nothing is left to fuse.
        assert fused.fusion == ()

    def test_cross_socket_fails_under_on(self):
        spec = wc_spec()
        tasks = tuple(
            dc_replace(rt, socket=1 if rt.component == "splitter" else 0)
            for rt in spec.tasks
        )
        spec = dc_replace(spec, tasks=tasks)
        with pytest.raises(PlanError, match="crosses sockets"):
            plan_fusion(spec, FusionConfig(mode="on"))

    def test_profitability_bar_applies_under_auto(self):
        # An impossible benefit bar rejects every candidate.
        topology, profiles = load_application("wc")
        from repro.hardware import server_a

        engine_spec = plan_fusion(
            wc_spec(),
            FusionConfig(
                mode="auto",
                profiles=profiles,
                machine=server_a(4),
                min_benefit=float("inf"),
            ),
        )
        assert engine_spec.fusion == ()

    def test_refit_dissolves_and_revives_chains(self):
        spec = plan_fusion(wc_spec(), FusionConfig(mode="on"))
        assert spec.fusion == ((1, 2, 3),)
        moved = dc_replace(
            spec,
            tasks=tuple(
                dc_replace(rt, socket=1 if rt.component == "counter" else 0)
                for rt in spec.tasks
            ),
        )
        refit = refit_fusion(moved)
        assert refit.fusion == ((1, 2),)  # counter left the socket
        assert refit.fuse_mode == "on"  # mode survives the refit
        back = refit_fusion(
            dc_replace(
                refit,
                tasks=tuple(dc_replace(rt, socket=0) for rt in refit.tasks),
            )
        )
        assert back.fusion == ((1, 2, 3),)

    def test_refit_is_noop_when_off(self):
        spec = wc_spec()
        assert refit_fusion(spec) is spec


# ---------------------------------------------------------------------------
# Adaptive batch sizing
# ---------------------------------------------------------------------------
class TestAdaptiveBatchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_batch": 0},
            {"max_batch": 4, "min_batch": 8},
            {"increase": 0},
            {"decrease": 0.0},
            {"decrease": 1.0},
            {"fill_target": 0.0},
            {"fill_target": 1.5},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(PlanError):
            AdaptiveBatchConfig(**kwargs)


class TestAdaptiveController:
    def controller(self, **kwargs):
        spec = wc_spec(queue_budget=2048)
        return spec, AdaptiveBatchController(
            spec, AdaptiveBatchConfig(**kwargs)
        )

    def test_decrease_on_blocked_edge(self):
        spec, ctl = self.controller()
        key = next(iter(spec.queue_capacity))
        changed = ctl.observe_window({key: (10, 640, 3)})
        assert changed == {key: 32}  # 64 * 0.5
        assert ctl.decreases == 1

    def test_decrease_on_external_pressure(self):
        spec, ctl = self.controller()
        key = next(iter(spec.queue_capacity))
        changed = ctl.observe_window(
            {key: (10, 640, 0)}, pressure_keys={key}
        )
        assert changed == {key: 32}

    def test_increase_only_when_batches_run_full(self):
        spec, ctl = self.controller()
        key = next(iter(spec.queue_capacity))
        assert ctl.observe_window({key: (10, 320, 0)}) == {}  # fill 0.5
        assert ctl.observe_window({key: (10, 640, 0)}) == {key: 96}
        assert ctl.increases == 1

    def test_idle_edges_are_skipped(self):
        spec, ctl = self.controller()
        key = next(iter(spec.queue_capacity))
        assert ctl.observe_window({key: (0, 0, 0)}) == {}
        assert ctl.adjustments == 0

    def test_clamped_to_bounds_and_capacity(self):
        spec, ctl = self.controller(min_batch=48, max_batch=80)
        key = next(iter(spec.queue_capacity))
        assert ctl.observe_window({key: (10, 640, 1)}) == {key: 48}
        ctl.sizes[key] = 80
        assert ctl.observe_window({key: (10, 800, 0)}) == {}  # at max
        capped = AdaptiveBatchController(
            wc_spec(batch_size=8, queue_capacity=16), AdaptiveBatchConfig()
        )
        key2 = next(iter(capped.capacity))
        capped.sizes[key2] = 8
        assert capped.observe_window({key2: (10, 80, 0)}) == {key2: 16}

    def test_observe_differences_cumulative_stats(self):
        spec, ctl = self.controller()
        key = next(iter(spec.queue_capacity))
        stats = QueueStats()
        stats.enqueued_batches, stats.enqueued_tuples = 10, 640
        assert ctl.observe({key: stats}) == {key: 96}
        # Same cumulative numbers again = an idle window.
        assert ctl.observe({key: stats}) == {}
        assert ctl.report()["adjustments"] == 1


class TestApplyEdgeBatches:
    def test_valid_sizes_apply(self):
        spec = wc_spec(queue_budget=2048)
        key = next(iter(spec.queue_capacity))
        updated = apply_edge_batches(spec, {key: 128})
        assert updated.batch_for(key) == 128
        assert spec.batch_for(key) == 64  # original untouched

    def test_unknown_edge_rejected(self):
        spec = wc_spec(queue_budget=2048)
        with pytest.raises(PlanError, match="unknown edge"):
            apply_edge_batches(spec, {(97, 98): 32})

    def test_nonpositive_size_rejected(self):
        spec = wc_spec(queue_budget=2048)
        key = next(iter(spec.queue_capacity))
        with pytest.raises(PlanError, match=">= 1"):
            apply_edge_batches(spec, {key: 0})

    def test_size_beyond_capacity_rejected(self):
        spec = wc_spec(queue_capacity=100)
        key = next(iter(spec.queue_capacity))
        with pytest.raises(PlanError, match="capacity"):
            apply_edge_batches(spec, {key: 101})


# ---------------------------------------------------------------------------
# Engine surface
# ---------------------------------------------------------------------------
class TestEngineValidation:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ExecutionError, match="batch_size"):
            build_engine("wc", batch_size=0)

    def test_adaptive_requires_epoch_barriers(self):
        with pytest.raises(ExecutionError, match="epoch"):
            build_engine("wc", adaptive_batch=True)

    def test_unknown_fuse_mode_rejected(self):
        with pytest.raises(PlanError, match="unknown fuse mode"):
            build_engine("wc", fuse="sometimes")

    def test_engine_default_is_unfused(self):
        assert build_engine("wc").spec.fusion == ()


# ---------------------------------------------------------------------------
# The parity matrix
# ---------------------------------------------------------------------------
class TestFusionParity:
    """Fused runs are bit-identical to the unfused scalar baseline."""

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize(
        "vectorized",
        ["off", "auto"],
    )
    def test_fused_matches_unfused_baseline(
        self, baselines, app, backend, vectorized
    ):
        engine = build_engine(
            app, fuse="auto", backend=backend, vectorized=vectorized
        )
        assert engine.spec.fusion == EXPECTED_CHAINS[app]
        assert_identical(baselines[app], engine.run(EVENTS))

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_unfused_matches_baseline(self, baselines, app, backend):
        engine = build_engine(app, fuse="off", backend=backend)
        assert engine.spec.fusion == ()
        assert_identical(baselines[app], engine.run(EVENTS))

    def test_fusion_survives_epoch_barriers(self, baselines):
        result = build_engine(
            "wc", fuse="auto", epoch_interval=100, queue_budget=2048
        ).run(EVENTS)
        assert_identical(baselines["wc"], result)
        assert result.epochs.committed >= 2

    def test_adaptive_batching_preserves_results(self, baselines):
        for backend in ("inline", "process"):
            registry = MetricsRegistry()
            result = build_engine(
                "wc",
                fuse="auto",
                backend=backend,
                adaptive_batch=True,
                epoch_interval=100,
                queue_budget=2048,
                registry=registry,
            ).run(EVENTS)
            assert_identical(baselines["wc"], result)
            snapshot = registry.snapshot()
            assert "runtime.batch.adjustments" in snapshot["counters"]
            assert snapshot["gauges"]["runtime.fusion.chains"] == 1.0


# ---------------------------------------------------------------------------
# Faults landing inside a fused chain
# ---------------------------------------------------------------------------
class TestFusionUnderFault:
    """A crash in a chain *member* recovers exactly like an unfused run:
    per-constituent state snapshots make the chain checkpointable."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_chain_member_crash_recovers(self, baselines, backend):
        result = build_engine(
            "wc",
            fuse="auto",
            backend=backend,
            queue_budget=2048,
            fault_plan=FaultPlan(
                seed=3, kinds=("crash",), at_tuple=150, target="splitter"
            ),
            recovery_policy="retry",
            epoch_interval=100,
        ).run(EVENTS)
        assert result.recovery.completed is True
        assert result.recovery.restarts >= 1
        assert result.sink_received() == baselines["wc"].sink_received()
        assert sink_multiset(result) == sink_multiset(baselines["wc"])

    def test_chain_member_raise_fails_fast_by_default(self):
        engine = build_engine(
            "wc",
            fuse="auto",
            queue_budget=2048,
            fault_plan=FaultPlan(
                seed=3, kinds=("raise",), at_tuple=50, target="counter"
            ),
        )
        with pytest.raises(ExecutionError):
            engine.run(EVENTS)
