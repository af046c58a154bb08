"""The benchmark's workloads: how each job is set up, run and checked.

Every workload is a bounded job — a fixed number of events per spout,
run to completion with back-pressure — built only through the public
API (``build_*``, ``RLASOptimizer``, ``LocalEngine``).  The reference
for each one is a scalar inline run (``vectorized="off"``) with the same
seed, plan and epoch interval; see NOTES.md for why each was chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.apps import build_linear_road, build_wordcount, load_application
from repro.core import OptimizedPlan, PerformanceModel, RLASOptimizer
from repro.core.scaling import saturation_ingress
from repro.dsps.engine import LocalEngine
from repro.hardware import server_a
from repro.runtime import FusionConfig

#: Socket count of the machine model ``repro run`` hands to fusion.
RUN_SOCKETS = 4
#: Sockets of the modelled Server A that RLAS plans LR for.
PLAN_SOCKETS = 2
#: Replication of the Word Count job on two workers.
WC_REPLICATION = {"spout": 1, "parser": 2, "splitter": 2, "counter": 2, "sink": 1}
#: Epoch barriers cut per run of the epoch workload.
BARRIERS_PER_RUN = 10


@dataclass
class Deployment:
    """One set-up job: the engine to run and, on RLAS workloads, the
    optimizer's result (the reference reuses its plan)."""

    engine: LocalEngine
    plan: OptimizedPlan | None = None


@dataclass(frozen=True)
class Workload:
    """A bounded job: ``setup(seed, events)`` builds it, ``reference(seed,
    deployment)`` builds the scalar inline engine it is checked against."""

    name: str
    app: str
    events: int
    setup: Callable[[int, int], Deployment]
    reference: Callable[[int, Deployment], LocalEngine]


def _fusion(app: str, sockets: int) -> FusionConfig:
    """``--fuse auto`` as the CLI builds it: app profiles plus machine."""
    return FusionConfig(
        mode="auto", profiles=load_application(app)[1], machine=server_a(sockets)
    )


def _wc_setup(seed: int, events: int) -> Deployment:
    engine = LocalEngine(
        build_wordcount(seed=seed),
        replication=WC_REPLICATION,
        backend="process",
        n_workers=2,
        dataplane="shm",
        vectorized="auto",
        string_dict="auto",
        queue_budget=4096,
        fuse=_fusion("wc", RUN_SOCKETS),
    )
    return Deployment(engine)


def _wc_reference(seed: int, deployment: Deployment) -> LocalEngine:
    return LocalEngine(
        build_wordcount(seed=seed), replication=WC_REPLICATION, vectorized="off"
    )


def _lr_inline_setup(seed: int, events: int) -> Deployment:
    engine = LocalEngine(
        build_linear_road(seed=seed), fuse=_fusion("lr", RUN_SOCKETS)
    )
    return Deployment(engine)


def _lr_inline_reference(seed: int, deployment: Deployment) -> LocalEngine:
    return LocalEngine(build_linear_road(seed=seed), vectorized="off")


def _lr_rlas_setup(seed: int, events: int) -> Deployment:
    topology = build_linear_road(seed=seed)
    profiles = load_application("lr")[1]
    machine = server_a(PLAN_SOCKETS)
    rate = saturation_ingress(topology, PerformanceModel(profiles, machine))
    plan = RLASOptimizer(topology, profiles, machine, rate).optimize()
    engine = LocalEngine.from_plan(
        plan.expanded_plan,
        backend="process",
        n_workers=2,
        dataplane="shm",
        epoch_interval=events // BARRIERS_PER_RUN,
        fuse=_fusion("lr", PLAN_SOCKETS),
    )
    return Deployment(engine, plan)


def _lr_rlas_reference(seed: int, deployment: Deployment) -> LocalEngine:
    # LR's output depends on where barriers fall, so the reference cuts
    # epochs at the same interval.
    return LocalEngine.from_plan(
        deployment.plan.expanded_plan,
        vectorized="off",
        epoch_interval=deployment.engine.epochs.interval,
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="wc-shm",
            app="wc",
            events=20_000,
            setup=_wc_setup,
            reference=_wc_reference,
        ),
        Workload(
            name="lr-inline",
            app="lr",
            events=20_000,
            setup=_lr_inline_setup,
            reference=_lr_inline_reference,
        ),
        Workload(
            name="lr-rlas-epochs",
            app="lr",
            events=20_000,
            setup=_lr_rlas_setup,
            reference=_lr_rlas_reference,
        ),
    )
}


def signature(result) -> dict:
    """What a run must reproduce: per-component tuple counts and every
    sink's state.  Sink replicas are compared as a sorted multiset, so
    the check does not depend on how task ids map to workers."""
    counts = {}
    for stats in result.task_stats.values():
        tuples_in, tuples_out = counts.get(stats.component, (0, 0))
        counts[stats.component] = (
            tuples_in + stats.tuples_in,
            tuples_out + stats.tuples_out,
        )
    sinks = {
        component: sorted(
            json.dumps(sink.snapshot_state(), sort_keys=True) for sink in sinks
        )
        for component, sinks in result.sinks.items()
    }
    return {
        "events": result.events_ingested,
        "counts": {name: list(pair) for name, pair in sorted(counts.items())},
        "sinks": sinks,
    }


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences between two signatures (empty = equal)."""
    problems = []
    if expected["events"] != actual["events"]:
        problems.append(f"events: {actual['events']} != {expected['events']}")
    for key in ("counts", "sinks"):
        for name in sorted(set(expected[key]) | set(actual[key])):
            want, got = expected[key].get(name), actual[key].get(name)
            if want != got:
                problems.append(f"{key}.{name}: {got} != {want}")
    return problems
