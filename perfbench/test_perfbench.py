"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import workloads
from repro.dsps.operators import Operator, Sink
from repro.metrics import MetricsRegistry
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
EVENTS = 2_000


def small(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], events=EVENTS)


@pytest.fixture
def tracer(tmp_path):
    tracer = Tracer(tmp_path)
    yield tracer
    tracer.uninstall()


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_wrapper_bytes_equal_registry_bytes_on_wc_shm(tracer):
    deployment = small("wc-shm").setup(1, EVENTS)
    registry = MetricsRegistry()
    deployment.engine.registry = registry
    tracer.install(deployment.engine.topology)
    deployment.engine.run(EVENTS)
    records = tracer.collect_workers()
    assert len(records) == 2
    wire = sum(r["totals"].get("runtime.dataplane.wire_bytes", 0) for r in records)
    assert wire > 0
    assert wire == registry.counter("runtime.run.dataplane_bytes").snapshot()


def test_wrappers_keep_capability_identities_and_restore_originals(tracer):
    from repro.apps import Counter, Splitter, WordCountSink

    before = {
        (cls, name): vars(cls).get(name)
        for cls in (Operator, Sink, Splitter, Counter)
        for name in ("process", "process_batch", "process_columns")
    }
    tracer.install(workloads.WORKLOADS["wc-shm"].setup(1, EVENTS).engine.topology)
    assert vars(Splitter)["process"] is not before[(Splitter, "process")]
    assert Splitter.supports_columns() and not Operator.supports_columns()
    assert WordCountSink.process is Sink.process
    assert Splitter.process_batch is not Operator.process_batch
    tracer.uninstall()
    after = {key: vars(key[0]).get(key[1]) for key in before}
    assert after == before


def test_reference_check_fails_on_a_wrong_reference():
    workload = small("lr-inline")
    deployment = workload.setup(3, EVENTS)
    expected = workloads.signature(workload.reference(3, deployment).run(EVENTS))
    checker = measure.Checker(expected)
    assert checker.check(checker.run(deployment.engine, EVENTS))
    wrong = json.loads(json.dumps(expected))
    wrong["counts"]["sink"][0] += 1
    checker = measure.Checker(wrong)
    assert not checker.check(checker.run(deployment.engine, EVENTS))
    assert (checker.attempted, checker.failed) == (1, 1)


def test_epoch_reference_uses_the_same_interval():
    workload = small("lr-rlas-epochs")
    deployment = workload.setup(2, EVENTS)
    assert deployment.engine.epochs.interval == EVENTS // 10
    reference = workload.reference(2, deployment)
    assert reference.epochs == deployment.engine.epochs


@pytest.mark.parametrize("name", ["wc-shm", "lr-inline"])
def test_bypassed_layers_read_zero(name):
    checker, metrics, runs = measure.trace(small(name), 1, 0.5)
    assert checker.failed == 0 and runs >= 1
    assert set(metrics) == set(measure.PER_LAYER)
    zero = [key for key in metrics if key.startswith(("core.", "runtime.epochs."))]
    if name == "lr-inline":
        zero += [
            key for key in metrics
            if key.startswith(("runtime.dataplane.", "runtime.process_pool."))
        ]
    assert {key: metrics[key] for key in zero} == {key: 0 for key in zero}
    assert metrics["apps.execute_s"] > 0
    assert metrics["runtime.backends.others_s"] > 0
    if name == "wc-shm":
        assert metrics["runtime.process_pool.workers_started"] == 2
        assert metrics["runtime.dataplane.wire_bytes"] > 0


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".trace-*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wc-shm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
