"""The one run configuration: every rejected setting, both entry points.

``REJECTED`` is the complete table of run settings the engine refuses,
one row per rejected value or combination, with the exception type it
raises.  Each row is checked on both engine entry points
(``LocalEngine(...)`` and ``LocalEngine.from_plan(...)``), which build
one :class:`~repro.runtime.config.RunConfig` and share one build path.
Most rows are ``RunConfig.__post_init__`` checks; the recovery rows are
the :class:`~repro.runtime.supervisor.Supervisor` constructor's, and the
batch-fit rows the lowering's, both reached at engine construction.
"""

import pytest

from repro.apps import load_application
from repro.core.plan import collocated_plan
from repro.dsps import LocalEngine
from repro.dsps.graph import ExecutionGraph
from repro.errors import ExecutionError, PlanError
from repro.runtime import (
    DEFAULT_QUEUE_BUDGET,
    AdaptiveBatchConfig,
    FusionConfig,
    InlineBackend,
    OverloadConfig,
    ProcessPoolBackend,
    RunConfig,
    Supervisor,
    make_backend,
    shm_available,
)

EPOCHS = {"epoch_interval": 100}

#: (row id, settings, exception type, message pattern).
REJECTED = [
    ("backend-threads", {"backend": "threads"}, ExecutionError, "unknown backend 'threads'"),
    ("backend-gpu", {"backend": "gpu"}, ExecutionError, "inline"),
    ("n_workers-0", {"backend": "process", "n_workers": 0}, ExecutionError, "n_workers must be >= 1"),
    ("n_workers-neg", {"backend": "process", "n_workers": -100}, ExecutionError, "n_workers must be >= 1"),
    ("dataplane-rdma", {"backend": "process", "dataplane": "rdma"}, ExecutionError, "unknown dataplane"),
    ("dataplane-zeromq", {"dataplane": "zeromq"}, ExecutionError, "unknown dataplane"),
    ("vectorized-turbo", {"vectorized": "turbo"}, ExecutionError, "unknown vectorized mode"),
    ("vectorized-on", {"vectorized": "on"}, ExecutionError, "unknown vectorized mode"),
    ("string_dict-zstd", {"string_dict": "zstd"}, ExecutionError, "unknown string_dict"),
    ("fuse-maybe", {"fuse": "maybe"}, PlanError, "unknown fuse mode"),
    ("batch_size-0", {"batch_size": 0}, ExecutionError, "batch_size must be >= 1"),
    ("queue_capacity-0", {"queue_capacity": 0}, ExecutionError, "queue_capacity must be positive"),
    ("queue_capacity-neg", {"queue_capacity": -1}, ExecutionError, "queue_capacity must be positive"),
    ("queue_budget-0", {"queue_budget": 0}, ExecutionError, "queue_budget must be positive"),
    ("queue_budget-neg", {"queue_budget": -64}, ExecutionError, "queue_budget must be positive"),
    ("capacity-and-budget", {"queue_capacity": 256, "queue_budget": 1024}, PlanError, "not both"),
    ("capacity-below-batch", {"queue_capacity": 32, "batch_size": 64}, PlanError, "cannot hold one batch"),
    ("budget-below-batch", {"queue_budget": 32, "batch_size": 64}, PlanError, "cannot hold one batch"),
    ("timeout_s-0", {"timeout_s": 0}, ExecutionError, "timeout_s must be positive"),
    ("timeout_s-neg", {"timeout_s": -5.0}, ExecutionError, "timeout_s must be positive"),
    ("heartbeat-0", {"heartbeat_timeout_s": 0}, ExecutionError, "heartbeat_timeout_s must be positive"),
    ("send_timeout-neg", {"send_timeout_s": -1.0}, ExecutionError, "send_timeout_s must be positive"),
    ("epoch_interval-0", {"epoch_interval": 0}, ExecutionError, "epoch interval must be >= 1"),
    ("adaptive-no-epochs", {"adaptive_batch": True}, ExecutionError, "epoch"),
    ("overload-no-epochs", {"overload": True}, ExecutionError, "epoch"),
    ("overload-mapping-no-epochs", {"overload": {"max_lag_ms": 50.0}}, ExecutionError, "epoch"),
    ("overload-bad-knob", {"overload": {"max_lag_ms": 0.0}, **EPOCHS}, PlanError, "max_lag_ms"),
    ("overload-unknown-knob", {"overload": {"lag": 1.0}, **EPOCHS}, TypeError, "lag"),
    ("reconfig-no-epochs", {"reconfig": object()}, ExecutionError, "epoch_interval"),
    ("recovery-policy", {"recovery_policy": "sometimes"}, ExecutionError, "unknown recovery policy"),
    ("max_restarts-neg", {"recovery_policy": "retry", "max_restarts": -1}, ExecutionError, "max_restarts"),
    ("degrade-no-context", {"recovery_policy": "degrade"}, ExecutionError, "DegradeContext"),
    ("removed-send_retry", {"send_retry": None}, TypeError, "send_retry"),
    ("removed-inbox_batches", {"inbox_batches": 0}, TypeError, "inbox_batches"),
    ("removed-ring_bytes", {"ring_bytes": 4096}, TypeError, "ring_bytes"),
]


def _wc():
    topology, _ = load_application("wc")
    return topology


def _plan():
    topology = _wc()
    graph = ExecutionGraph(topology, {name: 1 for name in topology.components})
    return collocated_plan(graph)


ENTRY_POINTS = {
    "engine": lambda **settings: LocalEngine(_wc(), **settings),
    "from_plan": lambda **settings: LocalEngine.from_plan(_plan(), **settings),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "settings, error, match",
    [pytest.param(s, e, m, id=row) for row, s, e, m in REJECTED],
)
def test_rejected(entry, settings, error, match):
    with pytest.raises(error, match=match):
        ENTRY_POINTS[entry](**settings)


class TestQueueBounds:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_capacity_and_budget_raise_the_same_error(self, entry):
        with pytest.raises(
            PlanError, match="pass either queue_capacity or queue_budget, not both"
        ):
            ENTRY_POINTS[entry](queue_capacity=256, queue_budget=1024)

    def test_plan_default_budget_applies_when_neither_is_given(self):
        engine = ENTRY_POINTS["from_plan"]()
        reference = ENTRY_POINTS["from_plan"](queue_budget=DEFAULT_QUEUE_BUDGET)
        assert engine.spec.bounded
        assert engine.spec.queue_capacity == reference.spec.queue_capacity
        assert not ENTRY_POINTS["engine"]().spec.bounded

    def test_capacity_overrides_plan_budget(self):
        engine = ENTRY_POINTS["from_plan"](queue_capacity=256)
        assert set(engine.spec.queue_capacity.values()) == {256}


class TestCoercion:
    def test_defaults(self):
        config = RunConfig()
        assert config.backend == "inline"
        assert config.dataplane == "pickle"
        assert config.vectorized == "auto"
        assert config.string_dict == "auto"
        assert config.fuse == FusionConfig(mode="off")
        assert config.adaptive_batch is None
        assert config.overload is None
        assert config.epochs is None

    def test_shorthands(self):
        config = RunConfig(
            fuse="auto", adaptive_batch=True, overload={"max_lag_ms": 50.0}, **EPOCHS
        )
        assert config.fuse == FusionConfig(mode="auto")
        assert config.adaptive_batch == AdaptiveBatchConfig()
        assert config.overload == OverloadConfig(max_lag_ms=50.0)
        assert config.epochs.interval == 100

    def test_false_disarms(self):
        config = RunConfig(adaptive_batch=False, overload=False)
        assert config.adaptive_batch is None
        assert config.overload is None

    def test_objects_pass_through(self):
        fusion = FusionConfig(mode="on")
        overload = OverloadConfig(shed_mode="random")
        config = RunConfig(fuse=fusion, overload=overload, **EPOCHS)
        assert config.fuse is fusion
        assert config.overload is overload


class TestSettingsReachTheBackend:
    def test_recovery_settings_supervise(self):
        backend = make_backend(RunConfig(recovery_policy="retry", max_restarts=5))
        assert isinstance(backend, Supervisor)
        assert backend.policy == "retry" and backend.max_restarts == 5
        assert isinstance(backend.backend, InlineBackend)

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
    def test_process_settings_reach_the_running_backend(self):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine = LocalEngine(
            _wc(),
            registry=registry,
            backend="process",
            n_workers=2,
            vectorized="off",
            string_dict="off",
            dataplane="shm",
        )
        assert isinstance(engine.backend, ProcessPoolBackend)
        config = engine.backend.config
        assert config.n_workers == 2
        assert config.vectorized == "off"
        assert config.string_dict == "off"
        assert config.dataplane == "shm"
        result = engine.run(100)
        assert result.sink_received() == 1000
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["runtime.run.workers"] == 2
        counters = snapshot["counters"]
        # The shm plane moved the batches; scalar dispatch ran them.
        assert counters["runtime.dataplane.bytes_inline"] > 0
        assert counters.get("runtime.vectorized.batches", 0) == 0
        assert counters.get("runtime.dataplane.dict.promotions", 0) == 0
