"""Elasticity cost: epoch-barrier overhead and live-migration pause.

Two measurements, recorded together in ``BENCH_reconfig.json``
(docs/reconfiguration.md):

* **barrier overhead** — the same inline WC run with and without
  ``epoch_interval``, interleaved best-of-N.  Barriers must be
  observationally free (identical task counters) and cheap: the wall
  ratio is asserted against a ceiling (default 1.05, overridable via
  ``REPRO_EPOCH_OVERHEAD_CEIL``) when >= 2 cores are visible — a
  single-core host still reports the numbers but skips the floor, since
  scheduler preemption noise there routinely exceeds the bound being
  measured.
* **process barrier overhead** — the same measurement on the process
  backend (2 workers, shm plane), where a barrier is a command to the
  run's live worker pool.  Ceiling 1.5 (``REPRO_PROCESS_EPOCH_OVERHEAD_CEIL``),
  same >= 2 cores gate.
* **migration pause** — the drift scenario from the reconfiguration
  tests (WC's mid-stream sentence-length shift at an operating point
  with an uneven socket spread): the run must apply at least one live
  migration, stay bit-identical to the unadapted run of the same plan,
  and the report records how long the stream was actually paused.
"""

from __future__ import annotations

import os
from time import perf_counter

import pytest

from repro.apps.wordcount import build_wordcount
from repro.core import RLASOptimizer
from repro.dsps.engine import LocalEngine
from repro.hardware import server_a
from repro.metrics import format_table
from repro.runtime import ReconfigController

from support import QUICK, bundle, write_result

EVENTS = 3_000 if QUICK else 12_000
INTERVAL = 500
ROUNDS = 3 if QUICK else 5
OVERHEAD_CEIL = float(os.environ.get("REPRO_EPOCH_OVERHEAD_CEIL", "1.05"))
PROCESS_OVERHEAD_CEIL = float(
    os.environ.get("REPRO_PROCESS_EPOCH_OVERHEAD_CEIL", "1.5")
)
PROCESS = {"backend": "process", "n_workers": 2, "dataplane": "shm"}
MAX_ATTEMPTS = 4
#: Operating point at which RLAS spreads WC unevenly over 4 sockets —
#: the placement-sensitive regime where drift migration pays off.
RATE = 3_000_000
SHIFT_AT, SHIFT_WORDS = 800, 25


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_run(topology, epoch_interval, **engine_kwargs):
    engine = LocalEngine(topology, epoch_interval=epoch_interval, **engine_kwargs)
    started = perf_counter()
    result = engine.run(EVENTS)
    return perf_counter() - started, result


def _overhead_experiment(topology, **engine_kwargs):
    _timed_run(topology, None, **engine_kwargs)  # warm import/alloc paths
    plain_times, barrier_times = [], []
    plain = barrier = None
    for _ in range(ROUNDS):
        elapsed, plain = _timed_run(topology, None, **engine_kwargs)
        plain_times.append(elapsed)
        elapsed, barrier = _timed_run(topology, INTERVAL, **engine_kwargs)
        barrier_times.append(elapsed)
    return {
        "plain_s": min(plain_times),
        "barrier_s": min(barrier_times),
        "plain": plain,
        "barrier": barrier,
    }


def _stats_view(result):
    return {
        task_id: (stats.tuples_in, stats.tuples_out)
        for task_id, stats in result.task_stats.items()
    }


def _settled_experiment(topology, ceiling, **engine_kwargs):
    """Best-of-N overhead sample, remeasured while above ``ceiling``."""
    sample = _overhead_experiment(topology, **engine_kwargs)
    for _ in range(MAX_ATTEMPTS - 1):
        if sample["barrier_s"] / sample["plain_s"] <= ceiling:
            break
        sample = _overhead_experiment(topology, **engine_kwargs)  # noisy round
    return sample


def test_epoch_barrier_overhead_and_migration_pause(benchmark):
    topology, profiles = bundle("wc")
    sample = benchmark.pedantic(
        lambda: _settled_experiment(topology, OVERHEAD_CEIL),
        rounds=1,
        iterations=1,
    )
    ratio = sample["barrier_s"] / sample["plain_s"]
    epoch_report = sample["barrier"].epochs
    process = _settled_experiment(topology, PROCESS_OVERHEAD_CEIL, **PROCESS)
    process_ratio = process["barrier_s"] / process["plain_s"]

    # Live-migration scenario: drifted workload on an uneven spread.
    shifted = build_wordcount(
        seed=7, shift_at=SHIFT_AT, shift_words_per_sentence=SHIFT_WORDS
    )
    plan = RLASOptimizer(shifted, profiles, server_a(4), RATE).optimize()
    controller = ReconfigController(plan, profiles, RATE)
    adapted = LocalEngine.from_plan(
        plan.expanded_plan, epoch_interval=INTERVAL, reconfig=controller
    ).run(3_000)
    baseline = LocalEngine.from_plan(
        plan.expanded_plan, epoch_interval=INTERVAL
    ).run(3_000)

    rows = [
        ["plain run", round(sample["plain_s"] * 1e3, 1), 1.0],
        [
            f"epoch barriers (interval {INTERVAL})",
            round(sample["barrier_s"] * 1e3, 1),
            round(ratio, 3),
        ],
        [
            "process plain run (2 workers, shm)",
            round(process["plain_s"] * 1e3, 1),
            1.0,
        ],
        [
            f"process epoch barriers (interval {INTERVAL})",
            round(process["barrier_s"] * 1e3, 1),
            round(process_ratio, 3),
        ],
        [
            f"adapt run ({controller.report.migrations} migrations)",
            round(adapted.epochs.migration_pause_ns / 1e6, 2),
            "pause ms",
        ],
    ]
    write_result(
        "BENCH_reconfig",
        format_table(
            ["configuration", "ms", "vs plain"],
            rows,
            title=f"Elasticity cost — WC, {EVENTS} events",
        ),
        data={
            "events": EVENTS,
            "interval": INTERVAL,
            "barrier_overhead": ratio,
            "overhead_ceiling": OVERHEAD_CEIL,
            "process_barrier_overhead": process_ratio,
            "process_overhead_ceiling": PROCESS_OVERHEAD_CEIL,
            "process_plain_s": process["plain_s"],
            "process_barrier_s": process["barrier_s"],
            "epochs_committed": epoch_report.committed,
            "barrier_ns": epoch_report.barrier_ns,
            "snapshot_bytes": epoch_report.snapshot_bytes,
            "migrations": controller.report.migrations,
            "replans": controller.report.replans,
            "rejected": controller.report.rejected,
            "migration_pause_ns": adapted.epochs.migration_pause_ns,
            "reconfig_timeline": controller.report.events,
        },
        server="A",
        sockets=4,
    )

    # Barriers are observationally free.
    assert _stats_view(sample["barrier"]) == _stats_view(sample["plain"])
    assert epoch_report.committed >= EVENTS // INTERVAL - 1
    assert process["barrier"].sink_received() == process["plain"].sink_received()
    assert process["barrier"].epochs.committed >= EVENTS // INTERVAL - 1

    # The drift scenario migrates live without changing a single result.
    assert controller.report.migrations >= 1
    assert adapted.epochs.migrations == controller.report.migrations
    assert adapted.sink_received() == baseline.sink_received()
    assert _stats_view(adapted) == _stats_view(baseline)

    if _cores() < 2:
        pytest.skip(
            f"barrier-overhead floor needs >= 2 cores, have {_cores()} "
            f"(measured {ratio:.3f}x inline, {process_ratio:.3f}x process, "
            "reported in BENCH_reconfig.json)"
        )
    assert ratio <= OVERHEAD_CEIL, (
        f"epoch barriers cost {ratio:.3f}x, ceiling {OVERHEAD_CEIL}x"
    )
    assert process_ratio <= PROCESS_OVERHEAD_CEIL, (
        f"process epoch barriers cost {process_ratio:.3f}x, "
        f"ceiling {PROCESS_OVERHEAD_CEIL}x"
    )
