"""Backend scaling: process-pool throughput vs the inline executor.

The runtime layer's point is that one lowering can be executed two ways:
deterministically in-process (inline) or in parallel across worker
processes.  This benchmark runs a replicated Word Count (>= 4 replicas on
the heavy stages) through both backends under the same bounded lowering
and reports events/second.

The >= 1.5x speedup assertion only makes sense when the machine actually
has cores to scale onto, so it is gated on the visible CPU count; on a
single-core host the numbers are still reported, and the backpressure
invariants are asserted unconditionally:

* every bounded queue's observed max depth stays within its capacity;
* the bounded inline run reports blocking (the spout was actually
  throttled, i.e. backpressure was exercised, not just configured).
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.dsps.engine import LocalEngine
from repro.metrics import MetricsRegistry, format_table

from support import QUICK, bundle, write_result

EVENTS = 2_000 if QUICK else 8_000
REPLICATION = {"spout": 1, "parser": 2, "splitter": 4, "counter": 4, "sink": 1}
QUEUE_BUDGET = 2048
SPEEDUP_FLOOR = 1.5


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed(topology, registry=None, **settings):
    engine = LocalEngine(
        topology,
        replication=REPLICATION,
        registry=registry,
        queue_budget=QUEUE_BUDGET,
        **settings,
    )
    started = perf_counter()
    result = engine.run(EVENTS)
    return perf_counter() - started, result


def _depth_within_capacity(snapshot) -> tuple[int, int]:
    """(queues checked, violations) across all capacity-carrying queues."""
    checked = violations = 0
    for name, depth in snapshot["gauges"].items():
        if not name.endswith(".max_depth_tuples"):
            continue
        capacity = snapshot["gauges"].get(
            name.replace(".max_depth_tuples", ".capacity_tuples")
        )
        if capacity is None:
            continue
        checked += 1
        if depth > capacity:
            violations += 1
    return checked, violations


def test_backend_scaling():
    topology, _ = bundle("wc")
    cores = _cores()
    workers = min(4, max(2, cores))

    # Warm import/allocation paths once per backend.
    _timed(topology)
    _timed(topology, backend="process", n_workers=workers)

    inline_registry = MetricsRegistry()
    inline_s, inline_result = _timed(topology, inline_registry)
    process_registry = MetricsRegistry()
    process_s, process_result = _timed(
        topology, process_registry, backend="process", n_workers=workers
    )

    # Functional agreement between the two executions of the same lowering.
    assert process_result.events_ingested == inline_result.events_ingested
    assert process_result.sink_received() == inline_result.sink_received()

    # Backpressure invariants: bounded queues honoured their capacities and
    # the inline run actually blocked producers at least once.
    inline_snapshot = inline_registry.snapshot()
    process_snapshot = process_registry.snapshot()
    for label, snapshot in (("inline", inline_snapshot), ("process", process_snapshot)):
        checked, violations = _depth_within_capacity(snapshot)
        assert checked > 0, f"{label}: no bounded queues reported depth"
        assert violations == 0, f"{label}: queues exceeded their capacity"
    assert inline_snapshot["counters"]["engine.run.backpressure_blocks"] > 0

    speedup = inline_s / process_s if process_s > 0 else 0.0
    rows = [
        ["inline", 1, f"{inline_s:.3f}", f"{EVENTS / inline_s:,.0f}", "1.00"],
        [
            "process",
            workers,
            f"{process_s:.3f}",
            f"{EVENTS / process_s:,.0f}",
            f"{speedup:.2f}",
        ],
    ]
    text = format_table(
        ["backend", "workers", "wall s", "events/s", "speedup"],
        rows,
        title=(
            f"Backend scaling — WC x{REPLICATION['counter']} replicas, "
            f"{EVENTS} events, {cores} core(s) visible"
        ),
    )
    write_result(
        "backend_scaling",
        text,
        data={
            "events": EVENTS,
            "cores": cores,
            "workers": workers,
            "inline_s": inline_s,
            "process_s": process_s,
            "speedup": speedup,
            "pickled_bytes": process_snapshot["counters"].get(
                "runtime.run.pickled_bytes", 0
            ),
        },
    )

    if cores >= 2:
        assert speedup >= SPEEDUP_FLOOR, (
            f"process backend speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x "
            f"on {cores} cores"
        )
