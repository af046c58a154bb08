"""Unified runtime layer: lowering + pluggable executor backends.

This package owns the single translation from ``(Topology, ExecutionPlan)``
to runnable state (:mod:`repro.runtime.lowering`), the one validated run
configuration (:mod:`repro.runtime.config`), the result types every
executor produces (:mod:`repro.runtime.results`), and the executor
backends themselves (:mod:`repro.runtime.backends`,
:mod:`repro.runtime.process_pool`).  The functional engine facade
(:class:`repro.dsps.engine.LocalEngine`) and the discrete-event simulator
both build on the same lowering, so live runs and simulated runs share
queue topology, routing and iteration orders by construction.

The fault-tolerance layer (:mod:`repro.runtime.faults`,
:mod:`repro.runtime.supervisor`) adds deterministic fault injection and
supervised recovery (``fail-fast``/``retry``/``degrade``) on top of any
backend; see docs/robustness.md.

The elasticity layer (:mod:`repro.runtime.epochs`,
:mod:`repro.runtime.reconfigure`) adds epoch barriers — periodic
consistent state checkpoints every backend can commit and resume from —
and a live reconfiguration controller that re-plans the placement at a
barrier when the observed workload drifts; see docs/reconfiguration.md.

The fusion layer (:mod:`repro.runtime.fusion`,
:mod:`repro.runtime.batching`) derives fused operator chains from the
deployed placement (intra-chain edges execute inline, skipping queues and
codecs) and sizes each surviving edge's jumbo batches with a per-edge
AIMD controller stepped at epoch barriers; see docs/fusion.md.

The overload-control layer (:mod:`repro.runtime.overload`) adds lag
SLOs, a hysteretic degradation ladder (batch shrink, deterministic load
shedding, spout throttling, degrade replans) and retrying channel sends
with circuit breaking, also stepped at epoch barriers; see
docs/overload.md.
"""

from repro.runtime.backends import (
    ExecutorBackend,
    InlineBackend,
    make_backend,
    publish_engine_metrics,
)
from repro.runtime.config import BACKEND_NAMES, RunConfig
from repro.runtime.epochs import (
    EpochCheckpoint,
    EpochCommit,
    EpochConfig,
    EpochReport,
    Migration,
    check_serializable,
)
from repro.runtime.dataplane import (
    DATAPLANE_NAMES,
    STRING_DICT_MODES,
    VECTORIZED_MODES,
    BatchCodec,
    ChannelEndpoint,
    ColumnBatch,
    DictColumn,
    PickleQueueChannel,
    ShmRingChannel,
    shm_available,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    merge_fault_summaries,
)
from repro.runtime.batching import AdaptiveBatchConfig, AdaptiveBatchController
from repro.runtime.fusion import (
    FUSE_MODES,
    FusionConfig,
    as_fusion_config,
    chain_map,
    plan_fusion,
    refit_fusion,
    validate_fuse,
)
from repro.runtime.overload import (
    RUNGS,
    SHED_MODES,
    CircuitBreaker,
    DegradationLadder,
    LagTracker,
    OverloadConfig,
    OverloadDetector,
    OverloadManager,
    OverloadReport,
    SendRetryPolicy,
    Shedder,
    TokenBucket,
    decorrelated_jitter,
    shed_score,
)
from repro.runtime.lowering import (
    DEFAULT_QUEUE_BUDGET,
    RouteSpec,
    RuntimeSpec,
    TaskRuntime,
    apply_edge_batches,
    instantiate_task,
    instantiate_tasks,
    lower_graph,
    lower_plan,
)
from repro.runtime.process_pool import ProcessPoolBackend
from repro.runtime.reconfigure import ReconfigController, ReconfigReport
from repro.runtime.results import (
    RecoveryEvent,
    RecoveryReport,
    RunResult,
    TaskStats,
)
from repro.runtime.supervisor import (
    RECOVERY_POLICIES,
    DegradeContext,
    Supervisor,
)

__all__ = [
    "AdaptiveBatchConfig",
    "AdaptiveBatchController",
    "BACKEND_NAMES",
    "BatchCodec",
    "ChannelEndpoint",
    "ColumnBatch",
    "DATAPLANE_NAMES",
    "STRING_DICT_MODES",
    "VECTORIZED_MODES",
    "DictColumn",
    "DEFAULT_QUEUE_BUDGET",
    "DegradeContext",
    "EpochCheckpoint",
    "EpochCommit",
    "EpochConfig",
    "EpochReport",
    "ExecutorBackend",
    "Migration",
    "ReconfigController",
    "ReconfigReport",
    "check_serializable",
    "PickleQueueChannel",
    "ShmRingChannel",
    "shm_available",
    "FAULT_KINDS",
    "FUSE_MODES",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FusionConfig",
    "CircuitBreaker",
    "DegradationLadder",
    "LagTracker",
    "OverloadConfig",
    "OverloadDetector",
    "OverloadManager",
    "OverloadReport",
    "RUNGS",
    "SHED_MODES",
    "SendRetryPolicy",
    "Shedder",
    "TokenBucket",
    "decorrelated_jitter",
    "shed_score",
    "InlineBackend",
    "ProcessPoolBackend",
    "RECOVERY_POLICIES",
    "RecoveryEvent",
    "RecoveryReport",
    "RouteSpec",
    "RunResult",
    "RunConfig",
    "RuntimeSpec",
    "Supervisor",
    "TaskRuntime",
    "TaskStats",
    "apply_edge_batches",
    "as_fusion_config",
    "chain_map",
    "instantiate_task",
    "instantiate_tasks",
    "lower_graph",
    "lower_plan",
    "make_backend",
    "merge_fault_summaries",
    "plan_fusion",
    "publish_engine_metrics",
    "refit_fusion",
    "validate_fuse",
]
