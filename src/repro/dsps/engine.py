"""Functional local engine: a facade over the unified runtime layer.

Historically this module *was* the executor: it expanded the replicated
dataflow into tasks, queues and routing tables and walked them inline.
That expansion now lives in :mod:`repro.runtime.lowering` (shared with the
discrete-event simulator) and the execution strategies live behind
:class:`repro.runtime.backends.ExecutorBackend`:

* ``backend="inline"`` (default) — deterministic single-process execution
  with the seed engine's exact semantics; with bounded queues it adds
  blocking-producer backpressure.
* ``backend="process"`` — parallel execution on multiprocessing workers
  grouped by plan socket (see :mod:`repro.runtime.process_pool`).

The engine keeps serving its three original purposes — validating
application logic, measuring selectivities/tuple sizes for model
instantiation, and feeding the profiler — while delegating *how* tuples
move to the chosen backend.  :class:`TaskStats` and :class:`RunResult`
are re-exported from :mod:`repro.runtime.results` for compatibility.
"""

from __future__ import annotations

from typing import Mapping

from repro.dsps.graph import ExecutionGraph
from repro.dsps.topology import Topology
from repro.metrics.registry import NULL_REGISTRY, MetricsRegistry
from repro.runtime.backends import make_backend
from repro.runtime.config import RunConfig
from repro.runtime.epochs import EpochConfig
from repro.runtime.fusion import plan_fusion
from repro.runtime.lowering import RuntimeSpec, lower_graph, lower_plan
from repro.runtime.reconfigure import ReconfigController
from repro.runtime.results import RunResult, TaskStats

__all__ = ["LocalEngine", "RunResult", "TaskStats"]


class LocalEngine:
    """Functional executor for a topology, pluggable in how it runs.

    Every keyword setting (``backend``, ``batch_size``, ``queue_budget``,
    ``epoch_interval``, ``fuse``, ...) is a field of
    :class:`~repro.runtime.config.RunConfig`, which validates them all;
    see the "Run configuration" section of docs/runtime.md.

    Parameters
    ----------
    topology:
        The validated application DAG.
    replication:
        Replicas per component; defaults to each component's
        parallelism hint.
    registry:
        Metrics sink for run instrumentation (tuple counts, queue
        depths, per-operator wall-clock).  Defaults to the shared
        :data:`~repro.metrics.registry.NULL_REGISTRY`, in which case
        the hot path stays the uninstrumented loop.
    reconfig:
        Optional :class:`~repro.runtime.reconfigure.ReconfigController`
        consulted at every barrier commit (needs ``epoch_interval``).
    """

    def __init__(
        self,
        topology: Topology,
        replication: Mapping[str, int] | None = None,
        *,
        registry: MetricsRegistry | None = None,
        reconfig: ReconfigController | None = None,
        **settings,
    ) -> None:
        config = RunConfig(reconfig=reconfig, **settings)
        if replication is None:
            replication = {
                name: spec.parallelism_hint
                for name, spec in topology.components.items()
            }
        graph = ExecutionGraph(topology, replication, group_size=1)
        spec = lower_graph(
            topology,
            graph,
            batch_size=config.batch_size,
            queue_capacity=config.queue_capacity,
            queue_budget=config.queue_budget,
        )
        self._build(spec, config, registry)

    @classmethod
    def from_plan(
        cls,
        plan,
        *,
        registry: MetricsRegistry | None = None,
        reconfig: ReconfigController | None = None,
        **settings,
    ) -> "LocalEngine":
        """Build an engine from a complete :class:`~repro.core.plan.ExecutionPlan`.

        Takes the same settings as the constructor.  Plan-driven engines
        run *bounded* by default: without ``queue_capacity`` or
        ``queue_budget``, capacities derive from the plan's default
        queue budget, and tasks carry their socket placement (which the
        process backend uses to group workers).  This is the entry point
        live reconfiguration uses: the spec's task ids line up with the
        optimized plan's expanded graph, so a
        :class:`~repro.runtime.reconfigure.ReconfigController` built from
        the same plan can map replanned placements onto running tasks.
        """
        config = RunConfig(reconfig=reconfig, **settings)
        budget = (
            {} if config.queue_budget is None else {"queue_budget": config.queue_budget}
        )
        spec = lower_plan(
            plan,
            batch_size=config.batch_size,
            queue_capacity=config.queue_capacity,
            **budget,
        )
        engine = cls.__new__(cls)
        engine._build(spec, config, registry)
        return engine

    def _build(
        self, spec: RuntimeSpec, config: RunConfig, registry: MetricsRegistry | None
    ) -> None:
        self.config = config
        self.topology = spec.topology
        self.graph = spec.graph
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.spec = plan_fusion(spec, config.fuse)
        self.backend = make_backend(config)

    @property
    def epochs(self) -> EpochConfig | None:
        """The epoch-barrier policy, or ``None`` for a barrier-free run."""
        return self.config.epochs

    def run(self, max_events: int) -> RunResult:
        """Ingest up to ``max_events`` external events per spout replica and
        process the DAG to completion.

        Returns per-task statistics plus the live sink instances, whose
        application-level state (counters, detected spikes...) callers can
        inspect directly.
        """
        kwargs: dict = {}
        reconfig = self.config.reconfig
        if self.epochs is not None:
            kwargs["epochs"] = self.epochs
            if reconfig is not None:
                kwargs["on_epoch"] = reconfig.on_epoch
        result = self.backend.execute(
            self.spec, max_events, self.registry, **kwargs
        )
        if reconfig is not None:
            result.reconfig = reconfig.report
        return result

    def describe(self) -> str:
        """Human-readable summary of the lowered runtime configuration."""
        return self.spec.describe()
