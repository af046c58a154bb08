"""Overload-control parity suite: ``--shed off`` must be invisible.

Arming the overload subsystem without shedding may observe, track lag
and publish gauges — but it must never change *which* tuples flow.
Every example application is run with and without overload control (shed
mode ``off``) on both backends; sink multisets, events ingested and
per-task tuple counts must agree exactly.  This is the acceptance bar
that lets overload control default-on safely in operator tooling: the
observation plane is free.

A second class proves the converse for ``--shed random``: with shedding
*active* the decisions themselves are a pure function of
``(seed, edge, offset)``, so two identical runs shed identically.
"""

from collections import Counter as Multiset

import pytest

from repro.apps import load_application
from repro.dsps import LocalEngine
from repro.runtime import OverloadConfig

EVENTS = 300
INTERVAL = 100

#: Replication configs under which each app's semantics are deterministic
#: across backends (same table as tests/test_dataplane_parity.py).
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

APPS = ["wc", "fd", "sd", "lr"]


def run_app(app, *, backend="inline", overload=None, events=EVENTS, **kwargs):
    topology, _profiles = load_application(app)
    topology.component("sink").template.keep_samples = 10**6
    engine = LocalEngine(
        topology,
        replication=REPLICATION[app],
        backend=backend,
        epoch_interval=INTERVAL,
        overload=overload,
        **kwargs,
    )
    return engine.run(events)


def process_settings(app):
    """Engine settings for a 2-worker process run of ``app``."""
    return dict(backend="process", n_workers=2, ordered=app == "lr")


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


#: Overload armed but shedding disabled: the observation-only config.
#: A lag SLO is set so the detector genuinely runs every epoch.
OBSERVE = OverloadConfig(max_lag_ms=10_000.0, shed_mode="off")


class TestShedOffIsInvisible:
    """Armed-but-off overload control never changes results."""

    @pytest.mark.parametrize("app", APPS)
    def test_inline_bit_identical(self, app):
        reference = run_app(app)
        candidate = run_app(app, overload=OBSERVE)
        assert_parity(reference, candidate)
        # The observation plane did run: the run report is attached.
        assert candidate.overload is not None
        assert candidate.overload.shed == 0
        assert reference.overload is None

    @pytest.mark.parametrize("app", APPS)
    def test_process_bit_identical(self, app):
        reference = run_app(app, **process_settings(app))
        candidate = run_app(app, overload=OBSERVE, **process_settings(app))
        assert_parity(reference, candidate)
        assert candidate.overload is not None
        assert candidate.overload.shed == 0

    @pytest.mark.parametrize("app", APPS)
    def test_observed_process_matches_inline(self, app):
        inline = run_app(app, overload=OBSERVE)
        process = run_app(app, overload=OBSERVE, **process_settings(app))
        assert_parity(inline, process)


class TestActiveSheddingIsDeterministic:
    """With shedding engaged, identical runs shed identical tuples."""

    #: Tight queues force sustained blocked-put pressure, walking the
    #: ladder up to the shed rung; enough epochs must elapse for the
    #: ladder to climb past batch-shrink (one rung per pressured epoch).
    PRESSURE = dict(queue_capacity=24, batch_size=8, events=800)
    SHED = OverloadConfig(shed_mode="random", shed_rate=0.5, shed_seed=9)

    def test_inline_shed_runs_repeat_exactly(self):
        first = run_app("wc", overload=self.SHED, **self.PRESSURE)
        again = run_app("wc", overload=self.SHED, **self.PRESSURE)
        assert first.overload.shed > 0  # the ladder actually engaged
        assert first.overload.shed_by_edge == again.overload.shed_by_edge
        assert_parity(first, again)

    def test_different_seeds_shed_different_tuples(self):
        base = run_app("wc", overload=self.SHED, **self.PRESSURE)
        other = run_app(
            "wc",
            overload=OverloadConfig(
                shed_mode="random", shed_rate=0.5, shed_seed=10
            ),
            **self.PRESSURE,
        )
        assert base.overload.shed > 0 and other.overload.shed > 0
        assert sink_multiset(base) != sink_multiset(other)
