"""Chaos suite: fault injection + supervised recovery across backends.

The matrix runs every example application with injected crashes and
stalls under each recovery policy and asserts the contract from
docs/robustness.md:

* ``fail-fast`` raises a *typed* :class:`ExecutionError` subclass that
  carries a partial-progress result — no scenario hangs;
* ``retry`` completes with final aggregates identical to a fault-free
  run (at-least-once: duplicates are measured, nothing is lost);
* ``degrade`` completes on a re-placed plan over the surviving sockets.

Fault schedules are seeded, so every scenario here is reproducible
bit-for-bit; the determinism test pins that property end-to-end through
the CLI.
"""

import json
import os
import subprocess
import sys
from collections import Counter as Multiset
from pathlib import Path

import pytest

from repro.apps import load_application
from repro.dsps import LocalEngine
from repro.errors import (
    ExecutionError,
    InjectedFaultError,
    StallError,
    WorkerCrashError,
)
from repro.hardware import server_a
from repro.runtime import DegradeContext, FaultInjector, FaultPlan

EVENTS = 300
#: REPRO_CHAOS_QUICK=1 (CI's chaos-smoke job) trims the app matrix to WC;
#: the full local run covers all four applications.
APPS = (
    ("wc",)
    if os.environ.get("REPRO_CHAOS_QUICK")
    else ("wc", "fd", "sd", "lr")
)

#: Low, explicit trigger offset so every scheduled fault actually fires
#: within the quick-mode tuple volume.
AT = 20


def build_engine(app, **kwargs):
    topology, profiles = load_application(app)
    topology.component("sink").template.keep_samples = 10**6
    if kwargs.pop("with_degrade", False):
        kwargs["degrade"] = DegradeContext(
            profiles=profiles, machine=server_a(4)
        )
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
    return {app: build_engine(app).run(EVENTS) for app in APPS}


class TestFaultPlanParsing:
    def test_round_trip(self):
        plan = FaultPlan.from_cli("seed=7, kinds=crash|stall, n=2, at=100")
        assert plan.seed == 7
        assert plan.kinds == ("crash", "stall")
        assert plan.n_faults == 2
        assert plan.at_tuple == 100

    def test_target_and_attempt(self):
        plan = FaultPlan.from_cli("kind=raise,target=parser,attempt=1")
        assert plan.kinds == ("raise",)
        assert plan.target == "parser"
        assert plan.attempt == 1

    @pytest.mark.parametrize(
        "text",
        [
            "bogus",  # no key=value
            "seed=abc",  # non-integer
            "frobnicate=1",  # unknown key
            "kind=meteor",  # unknown fault kind
            "n=0",  # needs at least one fault
            "at=0",  # trigger offsets are 1-based
        ],
    )
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ExecutionError):
            FaultPlan.from_cli(text)


class TestScheduling:
    def test_same_seed_same_schedule(self):
        spec = build_engine("wc").spec
        a = FaultPlan(seed=11, kinds=("crash", "drop"), n_faults=3).schedule(spec)
        b = FaultPlan(seed=11, kinds=("crash", "drop"), n_faults=3).schedule(spec)
        assert a == b

    def test_different_seed_diverges(self):
        spec = build_engine("wc").spec
        schedules = {
            FaultPlan(seed=s, n_faults=2).schedule(spec) for s in range(8)
        }
        assert len(schedules) > 1

    def test_target_restricts_components(self):
        spec = build_engine("wc").spec
        for fault in FaultPlan(
            seed=1, kinds=("raise",), n_faults=4, target="counter"
        ).schedule(spec):
            assert fault.component == "counter"

    def test_unsatisfiable_target_is_an_error(self):
        spec = build_engine("wc").spec
        with pytest.raises(ExecutionError, match="no eligible task"):
            FaultPlan(seed=1, target="no-such-operator").schedule(spec)

    def test_stall_never_targets_spouts(self):
        spec = build_engine("wc").spec
        for seed in range(10):
            (fault,) = FaultPlan(seed=seed, kinds=("stall",)).schedule(spec)
            assert not spec.runtime_of(fault.task_id).is_spout


class TestInjector:
    def test_fires_at_offset_once(self):
        spec = build_engine("wc").spec
        (fault,) = FaultPlan(seed=1, kinds=("raise",), at_tuple=5).schedule(spec)
        injector = FaultInjector((fault,), attempt=0)
        fired = [injector.tick(fault.task_id) for _ in range(10)]
        assert fired[:4] == [None] * 4
        assert fired[4] is fault
        assert fired[5:] == [None] * 5
        assert injector.summary()["faults_fired"] == 1.0

    def test_attempt_scoping(self):
        spec = build_engine("wc").spec
        (fault,) = FaultPlan(seed=1, kinds=("raise",), at_tuple=1, attempt=0).schedule(
            spec
        )
        replay = FaultInjector((fault,), attempt=1)
        assert all(replay.tick(fault.task_id) is None for _ in range(5))

    def test_drop_accounting(self):
        spec = build_engine("wc").spec
        (fault,) = FaultPlan(seed=1, kinds=("drop",), at_tuple=1).schedule(spec)
        injector = FaultInjector((fault,), attempt=0)
        injector.tick(fault.task_id)
        assert injector.take_drop(fault.task_id, 64) is True
        assert injector.take_drop(fault.task_id, 64) is False
        summary = injector.summary()
        assert summary["dropped_batches"] == 1.0
        assert summary["dropped_tuples"] == 64.0


class TestChaosMatrixInline:
    """4 apps x {crash, stall} x {fail-fast, retry, degrade}, quick mode."""

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("kind", ["crash", "stall"])
    def test_fail_fast_raises_typed_error_with_partial(self, app, kind):
        engine = build_engine(
            app,
            fault_plan=FaultPlan(seed=3, kinds=(kind,), at_tuple=AT),
            recovery_policy="fail-fast",
        )
        expected = WorkerCrashError if kind == "crash" else StallError
        with pytest.raises(expected) as excinfo:
            engine.run(EVENTS)
        exc = excinfo.value
        assert exc.recovery is not None
        assert exc.recovery.completed is False
        assert exc.recovery.attempts == 1
        assert [e.kind for e in exc.recovery.events] == [
            "fault-detected",
            "failed",
        ]
        assert exc.partial_result is not None
        assert exc.partial_result.partial is True

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("kind", ["crash", "stall"])
    def test_retry_replays_to_exact_aggregates(self, app, kind, baselines):
        engine = build_engine(
            app,
            fault_plan=FaultPlan(seed=3, kinds=(kind,), at_tuple=AT),
            recovery_policy="retry",
        )
        result = engine.run(EVENTS)
        recovery = result.recovery
        assert recovery.completed is True
        assert recovery.restarts == 1
        assert result.fault_summary["faults_fired"] >= 1.0
        # At-least-once: nothing lost, the replay's aggregates are exact.
        baseline = baselines[app]
        assert result.sink_received() == baseline.sink_received()
        assert sink_multiset(result) == sink_multiset(baseline)

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("kind", ["crash", "stall"])
    def test_degrade_replans_and_completes(self, app, kind, baselines):
        engine = build_engine(
            app,
            fault_plan=FaultPlan(seed=3, kinds=(kind,), at_tuple=AT),
            recovery_policy="degrade",
            with_degrade=True,
        )
        result = engine.run(EVENTS)
        recovery = result.recovery
        assert recovery.completed is True
        assert recovery.replans == 1
        assert recovery.degraded_sockets  # at least one socket dropped
        assert "replan" in [e.kind for e in recovery.events]
        baseline = baselines[app]
        assert result.sink_received() == baseline.sink_received()
        assert sink_multiset(result) == sink_multiset(baseline)

    @pytest.mark.parametrize("app", APPS)
    def test_raise_retry(self, app, baselines):
        engine = build_engine(
            app,
            fault_plan=FaultPlan(seed=5, kinds=("raise",), at_tuple=AT),
            recovery_policy="retry",
        )
        result = engine.run(EVENTS)
        assert result.recovery.completed
        assert result.sink_received() == baselines[app].sink_received()

    @pytest.mark.parametrize("app", APPS)
    def test_drop_detected_and_replayed(self, app, baselines):
        engine = build_engine(
            app,
            fault_plan=FaultPlan(seed=9, kinds=("drop",), at_tuple=AT),
            recovery_policy="retry",
        )
        result = engine.run(EVENTS)
        assert result.fault_summary["dropped_tuples"] >= 1.0
        # Message loss was detected and the run replayed to exactness.
        assert result.sink_received() == baselines[app].sink_received()
        assert sink_multiset(result) == sink_multiset(baselines[app])

    def test_raise_fail_fast_is_typed(self):
        engine = build_engine(
            "wc",
            fault_plan=FaultPlan(seed=5, kinds=("raise",), at_tuple=AT),
            recovery_policy="fail-fast",
        )
        with pytest.raises(InjectedFaultError):
            engine.run(EVENTS)

    def test_drop_fail_fast_reports_loss(self):
        engine = build_engine(
            "wc",
            fault_plan=FaultPlan(seed=9, kinds=("drop",), at_tuple=AT),
            recovery_policy="fail-fast",
        )
        with pytest.raises(ExecutionError, match="message loss"):
            engine.run(EVENTS)

    def test_duplicate_deliveries_are_measured(self, baselines):
        # Crash the sink-adjacent aggregator late enough that earlier
        # attempts delivered tuples to sinks: those deliveries repeat on
        # replay and must show up in the counter.
        engine = build_engine(
            "wc",
            fault_plan=FaultPlan(
                seed=1, kinds=("crash",), target="sink", at_tuple=50
            ),
            recovery_policy="retry",
        )
        result = engine.run(EVENTS)
        assert result.recovery.completed
        # The sink crashed on its 50th input, so 49 tuples had already
        # been delivered and are delivered again by the replay.
        assert result.recovery.duplicate_deliveries == 49
        assert result.sink_received() == baselines["wc"].sink_received()


class TestProcessBackendChaos:
    """The process backend's watchdogs under real process death."""

    def test_killed_worker_raises_within_timeout(self, baselines):
        # The crash fault os._exit()s a live worker mid-run: the parent
        # watchdog must convert the death into a typed error (previously
        # this scenario hung on a blocking results.get / queue put).
        engine = build_engine(
            "wc",
            backend="process",
            n_workers=2,
            timeout_s=60.0,
            heartbeat_timeout_s=5.0,
            fault_plan=FaultPlan(seed=3, kinds=("crash",), at_tuple=AT),
            recovery_policy="fail-fast",
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            engine.run(EVENTS)
        assert excinfo.value.failed_workers
        assert excinfo.value.recovery is not None

    def test_killed_worker_recovers_under_retry(self, baselines):
        engine = build_engine(
            "wc",
            backend="process",
            n_workers=2,
            timeout_s=60.0,
            heartbeat_timeout_s=5.0,
            fault_plan=FaultPlan(seed=3, kinds=("crash",), at_tuple=AT),
            recovery_policy="retry",
        )
        result = engine.run(EVENTS)
        assert result.recovery.completed
        assert result.recovery.restarts >= 1
        assert result.sink_received() == baselines["wc"].sink_received()
        assert sink_multiset(result) == sink_multiset(baselines["wc"])

    def test_killed_worker_under_shm_leaks_no_segments(self, baselines):
        # A worker killed mid-run never reaches its channel.close(); the
        # parent owns the ring segments and must still unlink every one,
        # attempt after attempt, or /dev/shm fills up across retries.
        from repro.runtime import shm_available
        from repro.runtime.dataplane import SHM_NAME_PREFIX

        if not shm_available():
            pytest.skip("no POSIX shared memory")
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm to observe")
        before = {p.name for p in shm_dir.glob(f"{SHM_NAME_PREFIX}*")}
        engine = build_engine(
            "wc",
            backend="process",
            n_workers=2,
            timeout_s=60.0,
            heartbeat_timeout_s=5.0,
            dataplane="shm",
            fault_plan=FaultPlan(seed=3, kinds=("crash",), at_tuple=AT),
            recovery_policy="retry",
        )
        result = engine.run(EVENTS)
        assert result.recovery.completed
        assert result.sink_received() == baselines["wc"].sink_received()
        leaked = {
            p.name for p in shm_dir.glob(f"{SHM_NAME_PREFIX}*")
        } - before
        assert not leaked, f"leaked shm segments: {sorted(leaked)}"

    def test_stalled_worker_trips_heartbeat_watchdog(self):
        engine = build_engine(
            "wc",
            backend="process",
            n_workers=2,
            timeout_s=60.0,
            heartbeat_timeout_s=1.0,
            fault_plan=FaultPlan(seed=5, kinds=("stall",), at_tuple=AT),
            recovery_policy="fail-fast",
        )
        with pytest.raises(StallError, match="heartbeat"):
            engine.run(EVENTS)


class TestDeterminism:
    """Same seed => identical fault schedule and identical aggregates."""

    def _run(self, tmp_path: Path, tag: str) -> tuple[dict, str]:
        report = tmp_path / f"chaos-{tag}.json"
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "run",
                "wc",
                "--events",
                "200",
                "--inject-faults",
                "seed=5,kinds=crash|drop,n=2,at=15",
                "--recovery-policy",
                "retry",
                "--emit-metrics",
                str(report),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        sink_line = next(
            line for line in proc.stdout.splitlines() if "sink received" in line
        )
        return json.loads(report.read_text()), sink_line

    def test_two_runs_match(self, tmp_path):
        report_a, sink_a = self._run(tmp_path, "a")
        report_b, sink_b = self._run(tmp_path, "b")
        assert sink_a == sink_b
        rec_a = report_a["data"]["recovery"]
        rec_b = report_b["data"]["recovery"]
        assert rec_a["fault_schedule"] == rec_b["fault_schedule"]
        assert rec_a["fault_schedule"]  # schedule actually recorded
        assert rec_a["attempts"] == rec_b["attempts"]
        assert rec_a["duplicate_deliveries"] == rec_b["duplicate_deliveries"]
        assert (
            report_a["data"]["fault_summary"] == report_b["data"]["fault_summary"]
        )
