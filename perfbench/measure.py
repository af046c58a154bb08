"""Measurement of one workload: end-to-end metrics and the traced run.

``measure`` times set-up and ``run()`` with tracing off.  Set-ups are
repeated before every timed run, so ``setup_s`` samples spread over the
whole measured window; the first set-up and the first run warm caches
and are not timed.  ``trace`` makes the separate traced run: untraced
runs first, then the same job with the tracer's wrappers installed, and
the per-layer metrics are averaged over the traced runs.  Every run is
checked against the workload's reference.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracer_module
from workloads import mismatches, signature

BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = {
    "events_per_s": "1/s",
    "setup_s": "s",
    "cpu_s_per_kevent": "s",
    "peak_rss_mb": "MB",
}

#: Components of the two apps the workloads run (spouts excluded).
COMPONENTS = (
    "parser", "splitter", "counter", "sink", "dispatcher", "avg_speed",
    "las_avg_speed", "accident_detect", "count_vehicles", "accident_notify",
    "toll_notify", "daily_expenditure", "account_balance",
)

PER_LAYER = {
    "core.rlas.optimize_s": "s",
    "core.rlas.plan_events_per_s": "1/s",
    "core.bnb.optimize_calls": "count",
    "core.bnb.optimize_s": "s",
    "core.scaling.iterations": "count",
    "runtime.lowering.lower_s": "s",
    "runtime.fusion.chains": "count",
    "runtime.process_pool.workers_started": "count",
    "runtime.process_pool.min_run_s": "s",
    "runtime.dataplane.pack_calls": "count",
    "runtime.dataplane.pack_s": "s",
    "runtime.dataplane.unpack_s": "s",
    "runtime.dataplane.wire_bytes": "B",
    "runtime.dataplane.wire_bytes_per_event": "B",
    "runtime.dataplane.put_refused_share": "ratio",
    "runtime.dataplane.get_empty_share": "ratio",
    "apps.execute_s": "s",
    "apps.spout.generate_s": "s",
    **{f"apps.{name}.execute_s": "s" for name in COMPONENTS},
    **{f"apps.{name}.columnar_share": "ratio" for name in COMPONENTS},
    "runtime.epochs.barriers": "count",
    "runtime.epochs.barrier_s": "s",
    "runtime.epochs.snapshot_bytes": "B",
    "runtime.epochs.snapshot_s": "s",
    "runtime.backends.others_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Set-up time to spend before each timed run (at least one set-up).
SETUP_S_PER_RUN = 0.05
MAX_SETUPS_PER_RUN = 50
#: 1-event runs whose median is ``runtime.process_pool.min_run_s``.
MIN_RUNS = 3
#: Traced set-ups averaged into the set-up layer metrics.
TRACED_SETUPS = 3


class Checker:
    """Counts runs and compares each with the reference signature."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run(self, engine, events: int):
        """Run ``engine`` once; a run that raises is failed and gives None."""
        self.attempted += 1
        try:
            return engine.run(events)
        except Exception:  # count the failure and keep measuring
            self.failed += 1
            print(f"run raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def check(self, result) -> bool:
        """Compare a finished run with the reference (None = it raised)."""
        if result is None:
            return False
        problems = mismatches(self.expected, signature(result))
        if problems:
            self.failed += 1
            print("reference check failed:", *problems[:10], sep="\n  ", file=sys.stderr)
        return not problems


def _cpu_seconds() -> float:
    """User+system CPU of this process and every reaped worker."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """High-water RSS of this process or its largest reaped worker."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _prepare(workload, seed: int, deployment) -> Checker:
    """Reference run plus the untimed warm-up run of ``deployment``."""
    reference = workload.reference(seed, deployment).run(workload.events)
    checker = Checker(signature(reference))
    checker.check(checker.run(deployment.engine, workload.events))
    return checker


def measure(workload, seed: int, seconds: float):
    """End-to-end metrics with tracing off: ``(checker, metrics, runs)``."""
    started = perf_counter()
    deployment = workload.setup(seed, workload.events)
    first = perf_counter() - started
    reps = max(1, min(MAX_SETUPS_PER_RUN, round(SETUP_S_PER_RUN / first)))
    checker = _prepare(workload, seed, deployment)
    setups, rates, cpu = [], [], []
    deadline = perf_counter() + seconds
    while True:
        for _ in range(reps):
            started = perf_counter()
            deployment = workload.setup(seed, workload.events)
            setups.append(perf_counter() - started)
        cpu_before = _cpu_seconds()
        started = perf_counter()
        result = checker.run(deployment.engine, workload.events)
        wall = perf_counter() - started
        cpu_s = _cpu_seconds() - cpu_before
        if checker.check(result):
            rates.append(result.events_ingested / wall)
            cpu.append(cpu_s * 1000.0 / result.events_ingested)
        if perf_counter() >= deadline:
            break
    if not rates:
        return checker, {}, 0
    metrics = {
        "events_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "cpu_s_per_kevent": statistics.median(cpu),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return checker, metrics, len(rates)


def _run_layers(parent: dict, workers: list[dict], result, wall: float) -> dict:
    """Per-layer metrics of one traced run."""
    totals: dict[str, float] = dict(parent)
    for record in workers:
        for key, value in record["totals"].items():
            totals[key] = totals.get(key, 0.0) + value

    def total(key: str) -> float:
        return totals.get(key, 0.0)

    def share(part: str, whole: str) -> float:
        return total(part) / total(whole) if total(whole) else 0.0

    layers = {
        key: total(key)
        for key in (
            "runtime.process_pool.workers_started",
            "runtime.dataplane.pack_calls",
            "runtime.dataplane.pack_s",
            "runtime.dataplane.unpack_s",
            "runtime.dataplane.wire_bytes",
            "apps.spout.generate_s",
            "runtime.epochs.snapshot_s",
        )
    }
    layers["runtime.dataplane.wire_bytes_per_event"] = (
        total("runtime.dataplane.wire_bytes") / result.events_ingested
    )
    layers["runtime.dataplane.put_refused_share"] = share(
        "runtime.dataplane.put_refused", "runtime.dataplane.put_calls"
    )
    layers["runtime.dataplane.get_empty_share"] = share(
        "runtime.dataplane.get_empty", "runtime.dataplane.get_calls"
    )
    layers["apps.execute_s"] = sum(
        value for key, value in totals.items()
        if key.startswith("apps.") and key.endswith(".execute_s")
    )
    for name in COMPONENTS:
        layers[f"apps.{name}.execute_s"] = total(f"apps.{name}.execute_s")
        layers[f"apps.{name}.columnar_share"] = share(
            f"apps.{name}.columnar_tuples", f"apps.{name}.tuples"
        )
    report = result.epochs
    commits = [e for e in report.events if e["kind"] == "commit"] if report else []
    layers["runtime.epochs.barriers"] = report.committed if report else 0
    layers["runtime.epochs.barrier_s"] = report.barrier_ns / 1e9 if report else 0.0
    layers["runtime.epochs.snapshot_bytes"] = sum(e["snapshot_bytes"] for e in commits)
    # "Others" (paper Fig 8): wall time no layer span accounts for,
    # summed over the processes that executed the job.
    if workers:
        others = sum(
            record["wall_s"] - tracer_module.self_time(record["totals"])
            for record in workers
        )
    else:
        others = wall - tracer_module.self_time(parent)
    layers["runtime.backends.others_s"] = others
    return layers


def trace(workload, seed: int, seconds: float):
    """Per-layer metrics from a separate traced run: ``(checker, metrics,
    traced runs)``."""
    deployment = workload.setup(seed, workload.events)
    checker = _prepare(workload, seed, deployment)
    engine, events = deployment.engine, workload.events
    min_run_s = 0.0
    if engine.backend.name == "process":
        walls = []
        for _ in range(MIN_RUNS):
            started = perf_counter()
            engine.run(1)
            walls.append(perf_counter() - started)
        min_run_s = statistics.median(walls)
    plain: list[float] = []
    deadline = perf_counter() + seconds / 2
    while True:
        started = perf_counter()
        result = checker.run(engine, events)
        wall = perf_counter() - started
        if checker.check(result):
            plain.append(wall)
        if perf_counter() >= deadline:
            break
    work_dir = Path(tempfile.mkdtemp(prefix=".trace-", dir=BENCH_DIR))
    tracer = tracer_module.Tracer(work_dir)
    runs: list[dict] = []
    traced: list[float] = []
    try:
        tracer.install(engine.topology)
        for _ in range(TRACED_SETUPS):
            deployment = workload.setup(seed, events)
        setup_totals = {
            key: value / TRACED_SETUPS for key, value in tracer.take().items()
        }
        engine = deployment.engine
        deadline = perf_counter() + seconds / 2
        while True:
            tracer.take()  # drop what checking the previous run recorded
            started = perf_counter()
            result = checker.run(engine, events)
            wall = perf_counter() - started
            parent, workers = tracer.take(), tracer.collect_workers()
            if checker.check(result):
                traced.append(wall)
                runs.append(_run_layers(parent, workers, result, wall))
            if perf_counter() >= deadline:
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    if not runs or not plain:
        return checker, {}, 0
    metrics = {key: statistics.fmean(run[key] for run in runs) for key in runs[0]}
    for key in (
        "core.rlas.optimize_s",
        "core.bnb.optimize_calls",
        "core.bnb.optimize_s",
        "runtime.lowering.lower_s",
    ):
        metrics[key] = setup_totals.get(key, 0.0)
    plan = deployment.plan
    metrics["core.rlas.plan_events_per_s"] = plan.throughput if plan else 0.0
    metrics["core.scaling.iterations"] = len(plan.iterations) if plan else 0
    metrics["runtime.fusion.chains"] = len(engine.spec.fusion)
    metrics["runtime.process_pool.min_run_s"] = min_run_s
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return checker, metrics, len(runs)
