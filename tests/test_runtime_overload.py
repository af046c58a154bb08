"""Unit and chaos tests for the overload-control subsystem.

The parity suite (tests/test_overload_parity.py) proves ``--shed off``
is invisible; this file pins the mechanisms themselves — the pure
shed-decision function, detector hysteresis, the ladder's escalation
policy, the token bucket, the send circuit breaker, lag estimation —
and ends with deterministic chaos runs where an overdriven dataflow
walks the full ladder and recovers.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_wordcount, load_application
from repro.dsps import LocalEngine
from repro.errors import ExecutionError, PlanError
from repro.metrics import MetricsRegistry
from repro.runtime import (
    RUNGS,
    CircuitBreaker,
    DegradationLadder,
    LagTracker,
    OverloadConfig,
    OverloadDetector,
    OverloadManager,
    SendRetryPolicy,
    Shedder,
    TokenBucket,
    decorrelated_jitter,
    shed_score,
)
from repro.runtime.overload import EdgeWindow


def fake_spec(edges):
    """Minimal RuntimeSpec stand-in: tasks + edges with producer/consumer."""
    task_ids = sorted({t for e in edges for t in e})
    return SimpleNamespace(
        tasks=[SimpleNamespace(task_id=t) for t in task_ids],
        edges=[SimpleNamespace(producer=p, consumer=c) for p, c in edges],
    )


PRESSURED = EdgeWindow(enqueued_batches=10, blocked_batches=5)
CLEAN = EdgeWindow(enqueued_batches=10, dequeued_tuples=100)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = OverloadConfig()
        assert config.shed_mode == "off"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_lag_ms": 0.0}, "max_lag_ms"),
            ({"max_lag_ms": -5.0}, "max_lag_ms"),
            ({"shed_mode": "priority"}, "shed_mode"),
            ({"shed_rate": 0.0}, "shed_rate"),
            ({"shed_rate": 1.5}, "shed_rate"),
            ({"enter_epochs": 0}, "enter_epochs"),
            ({"exit_epochs": 0}, "enter_epochs"),
            ({"pressure_ratio": 0.0}, "pressure_ratio"),
            ({"throttle_fraction": 1.0}, "throttle_fraction"),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs, match):
        with pytest.raises(PlanError, match=match):
            OverloadConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"base_sleep_s": 0.0},
            {"base_sleep_s": 0.5, "max_sleep_s": 0.1},
            {"open_after_s": 0.0},
            {"probe_interval_s": -1.0},
        ],
    )
    def test_send_policy_rejects_bad_knobs(self, kwargs):
        with pytest.raises(PlanError):
            SendRetryPolicy(**kwargs)

    def test_engine_requires_epochs(self):
        topology, _ = load_application("wc")
        with pytest.raises(ExecutionError, match="epoch"):
            LocalEngine(topology, overload=True)

    def test_backends_require_epochs_at_execute(self):
        """Overload control cannot be armed without barriers, and a
        backend executed directly (bypassing the engine facade) runs the
        barriers its config names."""
        from repro.runtime import InlineBackend, ProcessPoolBackend, RunConfig

        with pytest.raises(ExecutionError, match="epoch"):
            RunConfig(overload=OverloadConfig())
        topology, _ = load_application("wc")
        engine = LocalEngine(topology)  # only borrowing its lowered spec
        armed = dict(overload=OverloadConfig(), epoch_interval=100)
        for backend in (
            InlineBackend(RunConfig(**armed)),
            ProcessPoolBackend(RunConfig(backend="process", n_workers=2, **armed)),
        ):
            result = backend.execute(engine.spec, 200)
            assert result.epochs.interval == 100
            assert result.overload is not None


class TestShedScore:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        edge=st.tuples(
            st.integers(min_value=0, max_value=64),
            st.integers(min_value=0, max_value=64),
        ),
        offset=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=200)
    def test_pure_and_unit_interval(self, seed, edge, offset):
        score = shed_score(seed, edge, offset)
        assert 0.0 <= score < 1.0
        assert score == shed_score(seed, edge, offset)

    def test_distinct_inputs_decorrelate(self):
        base = {shed_score(1, (0, 1), o) for o in range(200)}
        assert len(base) == 200  # no collisions over a small range
        other = [shed_score(2, (0, 1), o) for o in range(200)]
        assert [shed_score(1, (0, 1), o) for o in range(200)] != other

    def test_rate_is_approximately_respected(self):
        n = 5000
        dropped = sum(shed_score(7, (3, 4), o) < 0.3 for o in range(n))
        assert 0.25 < dropped / n < 0.35


class TestShedder:
    def activated(self, mode="random", rate=0.5, seed=1):
        shedder = Shedder(mode, rate, seed)
        shedder.active = True
        return shedder

    def test_inactive_or_off_never_sheds(self):
        off = Shedder("off", 1.0, 1)
        off.active = True
        idle = Shedder("random", 1.0, 1)  # enabled but not activated
        for offset in range(100):
            assert not off.should_shed((0, 1), offset)
            assert not idle.should_shed((0, 1), offset)
        assert off.offered == {} and idle.offered == {}

    @given(
        calls=st.lists(
            st.tuples(
                st.tuples(
                    st.integers(min_value=0, max_value=8),
                    st.integers(min_value=0, max_value=8),
                ),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=100)
    def test_decisions_are_pure_function_of_seed_edge_offset(self, calls):
        """No hidden state, no call-order effects: each decision equals
        the pure score test, however the calls are interleaved."""
        sequential = self.activated(seed=5)
        in_order = [sequential.should_shed(e, o) for e, o in calls]
        shuffled = list(calls)
        random.Random(0).shuffle(shuffled)
        reordered = self.activated(seed=5)
        replayed = {call: reordered.should_shed(*call) for call in shuffled}
        for call, decision in zip(calls, in_order):
            assert decision == replayed[call]
            edge, offset = call
            assert decision == (shed_score(5, edge, offset) < 0.5)

    def test_semantic_mode_protects_unblessed_tuples(self):
        shedder = self.activated(mode="semantic", rate=1.0)
        assert not shedder.should_shed((0, 1), 0, "x", lambda item: False)
        assert not shedder.should_shed((0, 1), 1, "x", None)
        assert shedder.protected == 2
        assert shedder.shed == {}
        # A blessed tuple at rate 1.0 is always shed.
        assert shedder.should_shed((0, 1), 2, "x", lambda item: True)
        assert shedder.shed == {(0, 1): 1}

    def test_snapshot_is_plain_data(self):
        shedder = self.activated(rate=1.0)
        shedder.should_shed((2, 3), 0)
        assert shedder.snapshot() == {
            "offered": {"2-3": 1},
            "shed": {"2-3": 1},
            "protected": 0,
        }


class TestDecorrelatedJitter:
    def test_bounds_and_determinism(self):
        def walk(seed):
            rng, prev, steps = random.Random(seed), 0.1, []
            for _ in range(20):
                prev = decorrelated_jitter(rng, 0.1, 1.0, prev)
                steps.append(prev)
            return steps

        first = walk(3)
        assert first == walk(3)
        assert first != walk(4)
        prev = 0.1
        for step in first:
            assert 0.1 <= step <= 1.0
            assert step <= max(0.1, prev * 3)
            prev = step


class TestLagTracker:
    def test_littles_law_per_edge_and_critical_path(self):
        tracker = LagTracker(fake_spec([(0, 1), (1, 2)]))
        lag = tracker.update(
            {
                (0, 1): EdgeWindow(dequeued_tuples=100, peak_depth=50),
                (1, 2): EdgeWindow(dequeued_tuples=100, peak_depth=10),
            },
            wall_s=1.0,
        )
        assert tracker.edge_lag_ms[(0, 1)] == pytest.approx(500.0)
        assert tracker.edge_lag_ms[(1, 2)] == pytest.approx(100.0)
        assert lag == pytest.approx(600.0)  # residences add along the path

    def test_stalled_edge_is_charged_the_full_window(self):
        tracker = LagTracker(fake_spec([(0, 1)]))
        lag = tracker.update(
            {(0, 1): EdgeWindow(enqueued_tuples=10, peak_depth=10)}, wall_s=0.5
        )
        assert lag == pytest.approx(500.0)

    def test_fan_in_takes_the_slower_branch(self):
        tracker = LagTracker(fake_spec([(0, 2), (1, 2), (2, 3)]))
        lag = tracker.update(
            {
                (0, 2): EdgeWindow(dequeued_tuples=100, peak_depth=10),
                (1, 2): EdgeWindow(dequeued_tuples=100, peak_depth=40),
                (2, 3): EdgeWindow(dequeued_tuples=100, peak_depth=5),
            },
            wall_s=1.0,
        )
        assert lag == pytest.approx(450.0)  # 400 (slow branch) + 50


class TestDetectorHysteresis:
    def test_enter_requires_consecutive_pressure(self):
        detector = OverloadDetector(OverloadConfig(enter_epochs=2))
        assert detector.observe({(0, 1): PRESSURED}, frozenset(), 0.0)
        assert not detector.overloaded  # one window is noise
        detector.observe({(0, 1): CLEAN}, frozenset(), 0.0)
        detector.observe({(0, 1): PRESSURED}, frozenset(), 0.0)
        assert not detector.overloaded  # the streak was broken
        detector.observe({(0, 1): PRESSURED}, frozenset(), 0.0)
        assert detector.overloaded

    def test_exit_requires_consecutive_clean(self):
        detector = OverloadDetector(
            OverloadConfig(enter_epochs=1, exit_epochs=2)
        )
        detector.observe({(0, 1): PRESSURED}, frozenset(), 0.0)
        assert detector.overloaded
        detector.observe({(0, 1): CLEAN}, frozenset(), 0.0)
        assert detector.overloaded  # one clean window is not recovery
        detector.observe({(0, 1): CLEAN}, frozenset(), 0.0)
        assert not detector.overloaded

    def test_reason_channels(self):
        config = OverloadConfig(enter_epochs=1, max_lag_ms=10.0)
        detector = OverloadDetector(config)
        detector.observe({(0, 1): PRESSURED}, frozenset(), 0.0)
        assert detector.last_reasons == ("blocked-put",)
        detector.observe({(0, 1): CLEAN}, {(0, 1)}, 0.0)
        assert detector.last_reasons == ("ring-full",)
        detector.observe({(0, 1): CLEAN}, frozenset(), 50.0)
        assert detector.last_reasons == ("lag-slo",)
        assert detector.slo_violations == 1

    def test_occasional_blocking_is_not_pressure(self):
        detector = OverloadDetector(OverloadConfig(enter_epochs=1))
        # 1 blocked batch out of 100 sealed: below pressure_ratio.
        window = EdgeWindow(enqueued_batches=100, blocked_batches=1)
        assert not detector.observe({(0, 1): window}, frozenset(), 0.0)


class TestDegradationLadder:
    def test_escalates_one_rung_per_epoch_to_the_top(self):
        config = OverloadConfig(enter_epochs=1)
        detector = OverloadDetector(config)
        ladder = DegradationLadder(config)
        detector.overloaded = True
        detector.last_reasons = ("blocked-put",)
        rungs = [ladder.step(epoch, detector) for epoch in range(6)]
        assert rungs == [1, 2, 3, 4, 4, 4]  # clamped at replan
        assert [e["rung"] for e in ladder.timeline] == list(RUNGS[1:])
        assert all(e["kind"] == "escalate" for e in ladder.timeline)

    def test_de_escalates_one_rung_per_clean_epoch(self):
        config = OverloadConfig(enter_epochs=1)
        detector = OverloadDetector(config)
        ladder = DegradationLadder(config)
        detector.overloaded = True
        detector.last_reasons = ("lag-slo",)
        for epoch in range(3):
            ladder.step(epoch, detector)
        detector.overloaded = False
        rungs = [ladder.step(epoch, detector) for epoch in range(3, 8)]
        assert rungs == [2, 1, 0, 0, 0]
        down = [e for e in ladder.timeline if e["kind"] == "de-escalate"]
        assert [e["rung"] for e in down] == ["shed", "batch-shrink", "normal"]
        assert ladder.peak_rung == 3


class TestTokenBucket:
    def test_take_grants_and_accounts_denials(self):
        bucket = TokenBucket(100)
        assert bucket.take(100) == 100
        bucket.refill(50)
        assert bucket.take(100) == 50
        assert bucket.denied == 50

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(100)
        bucket.refill(1000)
        assert bucket.tokens == 100


class TestCircuitBreaker:
    def test_opens_after_sustained_blocking_then_probes(self):
        breaker = CircuitBreaker(
            SendRetryPolicy(open_after_s=0.5, probe_interval_s=0.05)
        )
        assert breaker.allow(0.0)
        breaker.on_blocked(0.0)
        assert not breaker.open  # brief blocking keeps the circuit closed
        breaker.on_blocked(0.3)
        assert not breaker.open
        breaker.on_blocked(0.6)
        assert breaker.open and breaker.opens == 1
        assert not breaker.allow(0.62)  # inside the probe interval
        assert breaker.allow(0.66)  # half-open probe
        assert breaker.probes == 1
        breaker.on_blocked(0.66)  # probe failed: next probe rescheduled
        assert not breaker.allow(0.68)
        breaker.on_success()
        assert not breaker.open
        assert breaker.allow(0.70)

    def test_success_resets_the_blocking_clock(self):
        breaker = CircuitBreaker(SendRetryPolicy(open_after_s=0.5))
        breaker.on_blocked(0.0)
        breaker.on_success()
        breaker.on_blocked(0.4)
        breaker.on_blocked(0.8)  # only 0.4s since the new streak began
        assert not breaker.open


class FakeQueueStats(SimpleNamespace):
    pass


def cumulative(blocked, enqueued=10):
    return FakeQueueStats(
        enqueued_batches=enqueued,
        enqueued_tuples=enqueued * 8,
        dequeued_tuples=enqueued * 8,
        blocked_batches=blocked,
        max_depth_tuples=16,
    )


class TestOverloadManager:
    def manager(self, **kwargs):
        config = OverloadConfig(
            enter_epochs=1, exit_epochs=1, shed_mode="random", **kwargs
        )
        return OverloadManager(fake_spec([(0, 1)]), config, interval=100)

    def test_cumulative_stats_are_differenced_per_epoch(self):
        manager = self.manager()
        manager.observe_queue_stats(0, {(0, 1): cumulative(blocked=5)})
        assert manager.report.pressured_epochs == 1
        # Same cumulative counters again: a zero-delta (clean) window.
        manager.observe_queue_stats(1, {(0, 1): cumulative(blocked=5)})
        assert manager.report.pressured_epochs == 1

    def test_directives_follow_the_rung(self):
        manager = self.manager()
        assert not manager.force_batch_pressure
        assert manager.spout_allowance() == 100
        stats = [cumulative(blocked=5 * (n + 1)) for n in range(4)]
        for epoch, stat in enumerate(stats):
            manager.observe_queue_stats(epoch, {(0, 1): stat})
        assert manager.rung == 4
        assert manager.force_batch_pressure
        assert manager.shed_active and manager.shedder.active
        assert manager.throttling
        state = manager.commit_state()
        assert state["rung"] == "replan" and state["replan_requested"]
        # Throttled refill is half the interval; the bucket was drained
        # by the healthy allowance above.
        assert manager.spout_allowance() == 50

    def test_shed_context_round_trip(self):
        manager = self.manager(shed_rate=0.25, shed_seed=9)
        assert manager.shed_context() == {
            "mode": "random",
            "rate": 0.25,
            "seed": 9,
            "active": False,
        }
        off = OverloadManager(
            fake_spec([(0, 1)]), OverloadConfig(), interval=100
        )
        assert off.shed_context() is None

    def test_worker_snapshots_merge_into_the_report(self):
        manager = self.manager()
        blob = {"offered": {"0-1": 40}, "shed": {"0-1": 10}, "protected": 3}
        manager.merge_shed_snapshot(blob)
        manager.merge_shed_snapshot(blob)
        report = manager.finish()
        assert report.offered == 80
        assert report.shed == 20
        assert report.protected == 6
        assert report.shed_by_edge == {"0-1": 20}
        assert report.accuracy_loss() == pytest.approx(0.25)

    def test_finish_is_idempotent(self):
        manager = self.manager()
        manager.shedder.active = True
        manager.shedder.should_shed((0, 1), 0)
        first = manager.finish()
        counted = first.offered
        assert manager.finish().offered == counted == 1


def overdriven_engine(**overload_kwargs):
    """WC under sustained pressure that subsides mid-run: tight queues
    against the 10x splitter fan-out, then a shift to 2-word sentences.

    Pressure signals (blocked puts) are deterministic on the inline
    backend, so the ladder timeline repeats exactly; only the wall-clock
    lag estimates are noisy, and they are checked against a generous SLO.
    """
    topology = build_wordcount(shift_at=600, shift_words_per_sentence=2)
    return LocalEngine(
        topology,
        replication={
            "spout": 1,
            "parser": 2,
            "splitter": 2,
            "counter": 2,
            "sink": 1,
        },
        queue_capacity=28,
        batch_size=8,
        epoch_interval=100,
        overload=OverloadConfig(
            max_lag_ms=60_000.0,
            shed_mode="random",
            shed_rate=0.5,
            shed_seed=3,
            **overload_kwargs,
        ),
    )


class TestChaosLadder:
    """End-to-end: an overdriven dataflow walks the ladder and recovers."""

    def test_ladder_engages_recovers_and_run_completes(self):
        registry = MetricsRegistry()
        engine = overdriven_engine()
        engine.registry = registry
        result = engine.run(2000)
        assert result.events_ingested == 2000  # completed, not killed
        report = result.overload
        kinds = {event["kind"] for event in report.timeline}
        assert kinds == {"escalate", "de-escalate"}
        assert report.peak_rung == "replan"
        assert report.replans_requested > 0
        assert report.throttled_epochs > 0
        assert 0 < report.shed <= report.offered
        assert report.shed == sum(report.shed_by_edge.values())
        assert report.p99_lag_ms() <= report.max_lag_ms  # within SLO
        gauges = registry.snapshot()["gauges"]
        assert "runtime.overload.lag_ms.e2e" in gauges
        assert "runtime.overload.rung" in gauges

    def test_run_report_payload_validates(self):
        report = overdriven_engine().run(1200).overload.to_dict()
        assert set(report["shedding"]) == {
            "offered",
            "shed",
            "protected",
            "accuracy_loss",
            "by_edge",
        }
        assert set(report["throttle"]) == {"throttled_epochs", "tokens_denied"}
        assert report["epochs"] >= report["pressured_epochs"] >= 0
        assert report["peak_rung"] in RUNGS
        assert report["final_rung"] in RUNGS
        for event in report["timeline"]:
            assert set(event) == {"epoch", "kind", "rung", "reason"}
            assert event["rung"] in RUNGS

    def test_ladder_timeline_is_deterministic(self):
        first = overdriven_engine().run(1200).overload
        again = overdriven_engine().run(1200).overload
        assert first.timeline == again.timeline
        assert first.shed_by_edge == again.shed_by_edge

    def test_process_backend_survives_overdrive_with_a_stall(self):
        """Overdriven process run with an injected worker stall: the
        retrying sends ride out the stall and the ladder engages."""
        from repro.runtime import FaultPlan

        topology, _ = load_application("wc")
        engine = LocalEngine(
            topology,
            replication={
                "spout": 1,
                "parser": 2,
                "splitter": 2,
                "counter": 2,
                "sink": 1,
            },
            backend="process",
            n_workers=2,
            overload=OverloadConfig(
                max_lag_ms=60_000.0, shed_mode="random", shed_rate=0.5
            ),
            queue_capacity=32,
            batch_size=16,
            epoch_interval=200,
            fault_plan=FaultPlan.from_cli("seed=7,kinds=stall,n=1,at=150"),
            recovery_policy="retry",
        )
        result = engine.run(800)
        assert result.events_ingested == 800
        report = result.overload
        assert report is not None and report.epochs > 0
        assert report.pressured_epochs > 0
        assert any(e["kind"] == "escalate" for e in report.timeline)
