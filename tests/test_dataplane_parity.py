"""Data-plane parity suite: pickle vs shm must be semantically invisible.

Every example application is run through the inline backend (the seed
semantics), the process backend on the default pickle plane, and the
process backend on the shared-memory plane.  All three must agree on the
sink multiset, events ingested and per-task tuple counts — the data plane
may only change *how* bytes move, never *which* tuples arrive.
"""

from collections import Counter as Multiset

import pytest

from repro.apps import load_application
from repro.dsps import LocalEngine
from repro.errors import ExecutionError
from repro.metrics import MetricsRegistry
from repro.runtime import RunConfig, make_backend, shm_available

EVENTS = 300

#: Replication configs under which each app's semantics are deterministic
#: across backends (see tests/test_runtime_backends.py for the rationale).
REPLICATION = {
    "wc": {"spout": 1, "parser": 2, "splitter": 2, "counter": 2, "sink": 1},
    "fd": {"spout": 1, "parser": 1, "predictor": 2, "sink": 1},
    "sd": {
        "spout": 1,
        "parser": 1,
        "moving_average": 2,
        "spike_detector": 2,
        "sink": 1,
    },
    "lr": None,  # parallelism hints (all 1); needs the ordered backend
}

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no POSIX shared memory"
)


def run_app(app, *, backend="inline", registry=None, **kwargs):
    topology, _profiles = load_application(app)
    topology.component("sink").template.keep_samples = 10**6
    engine = LocalEngine(
        topology,
        replication=REPLICATION[app],
        backend=backend,
        registry=registry,
        **kwargs,
    )
    return engine.run(EVENTS)


def process_settings(app, dataplane, **kwargs):
    """Engine settings for a 2-worker process run on ``dataplane``."""
    return dict(
        backend="process",
        n_workers=2,
        ordered=app == "lr",
        dataplane=dataplane,
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


def assert_parity(reference, candidate):
    assert candidate.events_ingested == reference.events_ingested
    assert candidate.sink_received() == reference.sink_received()
    assert task_counts(candidate) == task_counts(reference)
    assert sink_multiset(candidate) == sink_multiset(reference)


class TestDataplaneResolution:
    def test_resolve_accepts_both_planes(self):
        for plane in ("pickle", "shm"):
            config = RunConfig(backend="process", dataplane=plane)
            assert make_backend(config).config.dataplane == plane

    def test_resolve_rejects_unknown_plane(self):
        with pytest.raises(ExecutionError, match="unknown dataplane"):
            RunConfig(backend="process", dataplane="rdma")

    def test_backend_rejects_unknown_plane(self):
        with pytest.raises(ExecutionError, match="unknown dataplane"):
            RunConfig(dataplane="zeromq")

    def test_inline_ignores_dataplane(self):
        # The inline backend has no inter-process edges; selecting a data
        # plane must be accepted (and ignored) so CLI flags compose.
        result = run_app("wc", backend="inline", dataplane="shm")
        assert result.sink_received() == EVENTS * 10


class TestPickleShmParity:
    """Same run, byte-identical sink state, on every app."""

    @pytest.mark.parametrize("app", ["wc", "fd", "sd", "lr"])
    @needs_shm
    def test_shm_matches_inline(self, app):
        reference = run_app(app)
        candidate = run_app(app, **process_settings(app, "shm"))
        assert_parity(reference, candidate)

    @pytest.mark.parametrize("app", ["wc", "fd", "sd", "lr"])
    @needs_shm
    def test_shm_matches_pickle(self, app):
        pickled = run_app(app, **process_settings(app, "pickle"))
        shm = run_app(app, **process_settings(app, "shm"))
        assert_parity(pickled, shm)


class TestStringDictParity:
    """Dictionary encoding must be semantically invisible on every plane.

    The matrix runs each app under ``string_dict`` off and auto, on both
    the pickle and shm planes with vectorized kernels on, and compares
    sink multisets, ingest counts and per-task tuple counts against the
    inline reference.  ``auto`` promotes WC's word edge and FD's trace
    edge mid-run, so the matrix exercises the raw->dict transition, the
    pickle plane's ``"D"``->``"s"`` decay, and LR's no-op path (integer
    schemas never consult the dictionary machinery).
    """

    @pytest.fixture(scope="class")
    def references(self):
        return {app: run_app(app) for app in ("wc", "fd", "sd", "lr")}

    @pytest.mark.parametrize("app", ["wc", "fd", "sd", "lr"])
    @pytest.mark.parametrize("mode", ["off", "auto"])
    @needs_shm
    def test_shm_dict_matches_inline(self, app, mode, references):
        candidate = run_app(
            app,
            **process_settings(app, "shm", string_dict=mode),
        )
        assert_parity(references[app], candidate)

    @pytest.mark.parametrize("app", ["wc", "fd", "sd", "lr"])
    @pytest.mark.parametrize("mode", ["off", "auto"])
    def test_pickle_dict_matches_inline(self, app, mode, references):
        candidate = run_app(
            app,
            **process_settings(app, "pickle", string_dict=mode),
        )
        assert_parity(references[app], candidate)

    @needs_shm
    def test_forced_dict_matches_inline(self, references):
        # ``on`` skips the observation window: every string column is
        # promoted on its first batch, including low-cardinality losers.
        candidate = run_app(
            "wc",
            **process_settings("wc", "shm", string_dict="on"),
        )
        assert_parity(references["wc"], candidate)

    def test_backend_rejects_unknown_mode(self):
        with pytest.raises(ExecutionError, match="unknown string_dict"):
            RunConfig(string_dict="zstd")

    def test_resolve_rejects_unknown_mode(self):
        with pytest.raises(ExecutionError, match="unknown string_dict"):
            RunConfig(backend="process", string_dict="zstd")


class TestStringDictRecovery:
    """Producer and consumer dictionaries reset in lockstep on restart.

    Codecs are built inside ``ShmRingChannel.connect()`` in the worker
    process, so a Supervisor retry rebuilds both sides from scratch —
    no stale decode table can survive a crash.  The sink multiset after
    an injected worker crash + replay must be bit-identical to a
    fault-free dict-encoded run.
    """

    @needs_shm
    def test_dict_state_resets_exactly_once_under_crash_retry(self):
        from repro.runtime import FaultPlan

        settings = process_settings("wc", "shm", string_dict="on")
        reference = run_app("wc", **settings)
        faulty = run_app(
            "wc",
            **process_settings("wc", "shm", string_dict="on"),
            fault_plan=FaultPlan(seed=3, kinds=("crash",), at_tuple=20),
            recovery_policy="retry",
        )
        assert faulty.recovery.completed is True
        assert faulty.recovery.restarts >= 1
        assert_parity(reference, faulty)


class TestDataplaneMetrics:
    @needs_shm
    def test_shm_run_reports_inline_bytes(self):
        registry = MetricsRegistry()
        result = run_app(
            "wc", **process_settings("wc", "shm"), registry=registry
        )
        assert result.sink_received() == EVENTS * 10
        counters = registry.snapshot()["counters"]
        assert counters["runtime.dataplane.bytes_inline"] > 0
        assert counters["runtime.run.dataplane_bytes"] > 0
        # The sealed batches of every app edge are scalar-only; the codec
        # must not be falling back to pickle on the WC hot path.
        assert counters.get("runtime.dataplane.codec_fallbacks", 0) == 0

    def test_pickle_run_reports_dataplane_bytes(self):
        registry = MetricsRegistry()
        run_app("wc", **process_settings("wc", "pickle"), registry=registry)
        counters = registry.snapshot()["counters"]
        assert counters["runtime.run.pickled_bytes"] > 0
        assert (
            counters["runtime.run.dataplane_bytes"]
            == counters["runtime.run.pickled_bytes"]
        )

    @needs_shm
    def test_dict_run_publishes_dict_counters(self):
        registry = MetricsRegistry()
        result = run_app(
            "wc",
            **process_settings("wc", "shm", string_dict="on"),
            registry=registry,
        )
        assert result.sink_received() == EVENTS * 10
        counters = registry.snapshot()["counters"]
        assert counters["runtime.dataplane.dict.promotions"] >= 1
        assert counters["runtime.dataplane.dict.columns"] >= 1
        assert counters["runtime.dataplane.dict.pages"] >= 1
        assert counters["runtime.dataplane.dict.bytes"] > 0
        assert counters.get("runtime.dataplane.codec_fallbacks", 0) == 0
        # Dict traffic still counts toward the plane's byte totals.
        assert (
            counters["runtime.dataplane.bytes_inline"]
            + counters["runtime.dataplane.bytes_oob"]
            >= counters["runtime.dataplane.dict.bytes"]
        )

    @needs_shm
    def test_dict_off_publishes_no_dict_counters(self):
        registry = MetricsRegistry()
        run_app(
            "wc",
            **process_settings("wc", "shm", string_dict="off"),
            registry=registry,
        )
        counters = registry.snapshot()["counters"]
        assert counters.get("runtime.dataplane.dict.promotions", 0) == 0
        assert counters.get("runtime.dataplane.dict.bytes", 0) == 0
