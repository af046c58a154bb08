"""Vectorized columnar execution bake-off: kernels on vs off.

Same lowering, same process-pool backend, same shm data plane, same
worker count — the only variable is whether sealed batches stay columnar
through the operators (``--vectorized on``: numpy kernels via
``Operator.process_columns``) or burst back to per-tuple ``process()``
calls (``--vectorized off``).  Batches ride the columnar path
end-to-end: decoded as zero-copy views off the ring, processed by the
unique-counts kernel, partitioned by each route's grouping and re-packed
per edge without ever materialising tuples (docs/vectorized.md).

Three measurements, recorded together in ``BENCH_vectorized.json``:

* **end-to-end** — WC with every component at replication 1 on both
  modes: wall time, tuples/second and the ``runtime.vectorized.*``
  counters each run reported.  The ``on`` run must vectorize (batches >
  0, fallbacks == 0) and the ``off`` run must not (all counters zero).
* **fan-out** (``data["fanout"]``) — the same comparison with
  replication 1/2/2/2/1, so the parser, splitter and counter routes are
  multi-consumer shuffle and fields edges partitioned in one vectorized
  step per batch and coalesced per edge.  Same counter assertions and
  the same floor.
* **inline** (``data["inline"]``) — LR on the single-threaded inline
  backend with ``--fuse auto``, kernels on vs off: kernel output routes
  as column batches through the inline queues, so this is the only case
  where routing, not transport, is what the kernels save.  Best of three
  timed runs per mode, plus a parity pair with every sink tuple kept
  (sink multisets and per-task counters must match).  The floor applies
  on any core count: both modes run on one thread.
* **parity** — the full matrix of 4 apps x {inline, process+pickle,
  process+shm} x {off, on}: every cell pair must ingest the same events
  and deliver bit-identical sink multisets and per-task counters.  The
  kernels are only allowed to be faster, never different.

The speedup floor (default 1.2x, overridable via
``REPRO_VECTORIZED_FLOOR`` — CI pins 1.0, i.e. "kernels must never be
slower") is only meaningful where operator work can actually overlap, so
it is asserted when >= 2 cores are visible; a single-core host still
reports the numbers but skips the floor.
"""

from __future__ import annotations

import os
from collections import Counter as Multiset
from time import perf_counter

import pytest

from repro.apps.fraud_detection import build_fraud_detection
from repro.apps.linear_road import build_linear_road
from repro.apps.spike_detection import build_spike_detection
from repro.apps.wordcount import build_wordcount
from repro.dsps.engine import LocalEngine
from repro.metrics import MetricsRegistry, format_table
from repro.runtime import FusionConfig, shm_available

from support import QUICK, write_result

EVENTS = 4_000 if QUICK else 16_000
PARITY_EVENTS = 200
WORKERS = 2
QUEUE_BUDGET = 4096
SPEEDUP_FLOOR = float(os.environ.get("REPRO_VECTORIZED_FLOOR", "1.2"))

BUILDERS = {
    "wc": build_wordcount,
    "fd": build_fraud_detection,
    "sd": build_spike_detection,
    "lr": build_linear_road,
}

#: Parity replication: >1 where the app tolerates it so shuffle *and*
#: fields groupings are exercised; LR's accident/toll tables are
#: single-instance stateful, so it runs at replication 1 throughout.
PARITY_REPLICATION = {
    "wc": {"spout": 1, "parser": 2, "splitter": 2, "counter": 2, "sink": 1},
    "fd": {"spout": 1, "parser": 2, "predictor": 2, "sink": 1},
    "sd": {
        "spout": 1,
        "parser": 1,
        "moving_average": 2,
        "spike_detector": 2,
        "sink": 1,
    },
    "lr": None,
}


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _topology(app: str, keep_samples: int):
    topology = BUILDERS[app]()
    topology.component("sink").template.keep_samples = keep_samples
    return topology


def _vectorized_counters(registry: MetricsRegistry) -> dict[str, int]:
    return {
        key.rsplit(".", 1)[-1]: value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("runtime.vectorized.")
    }


#: The fan-out case: multi-consumer shuffle and fields routes.
FANOUT_REPLICATION = {
    "spout": 1,
    "parser": 2,
    "splitter": 2,
    "counter": 2,
    "sink": 1,
}


def _timed_wc(
    vectorized: str,
    registry: MetricsRegistry | None = None,
    replication: dict | None = None,
):
    engine = LocalEngine(
        _topology("wc", keep_samples=0),
        replication=replication,
        registry=registry,
        backend="process",
        n_workers=WORKERS,
        dataplane="shm",
        vectorized=vectorized,
        queue_budget=QUEUE_BUDGET,
    )
    started = perf_counter()
    result = engine.run(EVENTS)
    return perf_counter() - started, result


def _sink_multiset(result):
    return Multiset(
        (component, item.stream, item.values)
        for component, sinks in result.sinks.items()
        for sink in sinks
        for item in sink.samples
    )


def _task_counters(result):
    return {
        task_id: (
            stats.tuples_in,
            stats.tuples_out,
            dict(stats.out_by_stream),
            dict(stats.bytes_out_by_stream),
        )
        for task_id, stats in result.task_stats.items()
    }


def _parity_run(app: str, backend_name: str, vectorized: str):
    replication = PARITY_REPLICATION[app]
    settings = {}
    if backend_name != "inline":
        settings = dict(
            backend="process",
            n_workers=WORKERS,
            dataplane=backend_name.removeprefix("process-"),
        )
    engine = LocalEngine(
        _topology(app, keep_samples=10**6),
        replication=replication,
        vectorized=vectorized,
        queue_budget=QUEUE_BUDGET,
        **settings,
    )
    return engine.run(PARITY_EVENTS)


def _parity_matrix() -> dict:
    backends = ["inline", "process-pickle"]
    if shm_available():
        backends.append("process-shm")
    matrix: dict[str, dict[str, bool]] = {}
    for app in BUILDERS:
        row: dict[str, bool] = {}
        for backend_name in backends:
            off = _parity_run(app, backend_name, "off")
            on = _parity_run(app, backend_name, "auto")
            identical = (
                off.events_ingested == on.events_ingested
                and off.sink_received() == on.sink_received()
                and _sink_multiset(off) == _sink_multiset(on)
                and _task_counters(off) == _task_counters(on)
            )
            row[backend_name] = identical
            assert identical, (
                f"vectorized output diverged: {app} on {backend_name}"
            )
        matrix[app] = row
    return matrix


def _inline_lr(vectorized: str, keep_samples: int):
    engine = LocalEngine(
        _topology("lr", keep_samples=keep_samples),
        vectorized=vectorized,
        fuse=FusionConfig(mode="auto"),
    )
    started = perf_counter()
    result = engine.run(EVENTS)
    return perf_counter() - started, result


def _compare_inline() -> dict:
    """LR inline, scalar vs kernels: the artefact's ``inline`` entry."""
    timed = {}
    for vectorized in ("off", "auto"):
        _inline_lr(vectorized, keep_samples=0)  # warm-up
        runs = [_inline_lr(vectorized, keep_samples=0) for _ in range(3)]
        timed[vectorized] = min(runs, key=lambda run: run[0])
    _, off = _inline_lr("off", keep_samples=10**6)
    _, on = _inline_lr("auto", keep_samples=10**6)
    parity = {
        "sink_multisets": _sink_multiset(off) == _sink_multiset(on),
        "task_counters": _task_counters(off) == _task_counters(on),
    }
    assert all(parity.values()), parity
    off_s, on_s = timed["off"][0], timed["auto"][0]
    tuples_delivered = timed["off"][1].sink_received()
    assert timed["auto"][1].sink_received() == tuples_delivered
    return {
        "app": "lr",
        "fuse": "auto",
        "scalar": {"wall_s": off_s, "tuples_per_s": tuples_delivered / off_s},
        "vectorized": {"wall_s": on_s, "tuples_per_s": tuples_delivered / on_s},
        "speedup": off_s / on_s if on_s > 0 else 0.0,
        "parity": parity,
    }


def _compare_modes(replication: dict | None) -> dict:
    """WC scalar vs kernels at one replication: the artefact's
    ``scalar``/``vectorized``/``speedup`` entries."""
    # Warm import/fork/allocation paths once per mode.
    _timed_wc("off", replication=replication)
    _timed_wc("auto", replication=replication)

    off_registry = MetricsRegistry()
    off_s, off_result = _timed_wc("off", off_registry, replication)
    on_registry = MetricsRegistry()
    on_s, on_result = _timed_wc("auto", on_registry, replication)

    # Kernels may only change speed, never results.
    assert on_result.events_ingested == off_result.events_ingested
    assert on_result.sink_received() == off_result.sink_received()

    off_counters = _vectorized_counters(off_registry)
    on_counters = _vectorized_counters(on_registry)
    assert all(v == 0 for v in off_counters.values())
    # WC's schemas are fully columnar and every grouping partitions
    # columnar: the kernels must not be falling back anywhere on the
    # forced-on run, fan-out or not.
    assert on_counters["batches"] > 0
    assert on_counters["tuples"] > 0
    assert on_counters["fallbacks"] == 0

    tuples_delivered = off_result.sink_received()
    return {
        "scalar": {
            "wall_s": off_s,
            "tuples_per_s": tuples_delivered / off_s,
            "vectorized": off_counters,
        },
        "vectorized": {
            "wall_s": on_s,
            "tuples_per_s": tuples_delivered / on_s,
            "vectorized": on_counters,
        },
        "speedup": off_s / on_s if on_s > 0 else 0.0,
    }


def test_vectorized_throughput():
    if not shm_available():
        pytest.skip("no POSIX shared memory on this host")
    cores = _cores()

    parity = _parity_matrix()

    single = _compare_modes(replication=None)
    fanout = _compare_modes(replication=FANOUT_REPLICATION)
    inline = _compare_inline()

    rows = [
        row
        for label, case in (("1/1/1/1/1", single), ("1/2/2/2/1", fanout))
        for row in (
            [
                label,
                "off (scalar)",
                f"{case['scalar']['wall_s']:.3f}",
                f"{case['scalar']['tuples_per_s']:,.0f}",
                "0",
                "1.00",
            ],
            [
                label,
                "on (kernels)",
                f"{case['vectorized']['wall_s']:.3f}",
                f"{case['vectorized']['tuples_per_s']:,.0f}",
                f"{case['vectorized']['vectorized']['batches']:,}",
                f"{case['speedup']:.2f}",
            ],
        )
    ]
    rows += [
        [
            "LR inline",
            mode,
            f"{inline[key]['wall_s']:.3f}",
            f"{inline[key]['tuples_per_s']:,.0f}",
            "-",
            f"{speedup:.2f}",
        ]
        for mode, key, speedup in (
            ("off (scalar)", "scalar", 1.0),
            ("on (kernels)", "vectorized", inline["speedup"]),
        )
    ]
    text = format_table(
        [
            "replication",
            "vectorized",
            "wall s",
            "tuples/s",
            "kernel batches",
            "speedup",
        ],
        rows,
        title=(
            f"Vectorized execution — WC, shm plane, {WORKERS} workers, "
            f"{EVENTS} events, {cores} core(s) visible; parity matrix "
            f"{sum(len(r) for r in parity.values())} cells identical"
        ),
    )
    write_result(
        "BENCH_vectorized",
        text,
        data={
            "app": "wc",
            "events": EVENTS,
            "workers": WORKERS,
            "cores": cores,
            "dataplane": "shm",
            **single,
            "fanout": {"replication": FANOUT_REPLICATION, **fanout},
            "inline": inline,
            "parity": {
                "events": PARITY_EVENTS,
                "matrix": parity,
            },
        },
    )

    floored = [("LR inline", inline)]
    if cores >= 2:
        floored += [("replication 1", single), ("fan-out", fanout)]
    for label, case in floored:
        assert case["speedup"] >= SPEEDUP_FLOOR, (
            f"{label} vectorized speedup {case['speedup']:.2f}x below "
            f"{SPEEDUP_FLOOR}x on {cores} cores"
        )
