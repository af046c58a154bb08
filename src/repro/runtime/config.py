"""One validated run configuration: every setting a run takes, checked once.

An optimizer fixes the execution plan (replication, placement, batch and
queue sizing); the runtime then executes exactly that.  :class:`RunConfig`
is the hand-off: the engine facade builds one from its keyword settings,
:func:`repro.runtime.backends.make_backend` turns it into the backend it
names, and both backends read their settings from it.  Its
``__post_init__`` is the only place a setting is validated, coerced or
checked against another one.  The recovery settings (``recovery_policy``,
``max_restarts``, ``degrade``) are the exception: the
:class:`~repro.runtime.supervisor.Supervisor` constructor checks them,
and ``make_backend`` calls it when the engine is built.  See the "Run
configuration" section of docs/runtime.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import ExecutionError, PlanError
from repro.runtime.batching import AdaptiveBatchConfig
from repro.runtime.dataplane import (
    DATAPLANE_NAMES,
    STRING_DICT_MODES,
    VECTORIZED_MODES,
)
from repro.runtime.epochs import EpochConfig
from repro.runtime.fusion import FusionConfig, as_fusion_config
from repro.runtime.overload import OverloadConfig

if TYPE_CHECKING:
    from repro.runtime.faults import FaultPlan
    from repro.runtime.reconfigure import ReconfigController
    from repro.runtime.supervisor import DegradeContext

#: Backend names a :class:`RunConfig` accepts.
BACKEND_NAMES = ("inline", "process")


def _choice(value: str, allowed: tuple[str, ...], label: str) -> None:
    if value not in allowed:
        raise ExecutionError(f"unknown {label} {value!r}; expected one of {allowed}")


def _positive(name: str, value: float | None) -> None:
    if value is not None and value <= 0:
        raise ExecutionError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Every setting of one engine run.

    ``fuse``, ``adaptive_batch`` and ``overload`` accept shorthands and
    hold the normalized value after construction: ``fuse`` a
    :class:`~repro.runtime.fusion.FusionConfig` (``None`` is mode
    ``off``, a string is a mode name), ``adaptive_batch`` an
    :class:`~repro.runtime.batching.AdaptiveBatchConfig` or ``None``
    (``True`` selects the defaults), ``overload`` an
    :class:`~repro.runtime.overload.OverloadConfig` or ``None`` (``True``
    selects the defaults, a mapping is its keyword arguments).
    ``epochs`` is derived from ``epoch_interval``.
    """

    #: ``"inline"`` (deterministic, one process) or ``"process"``.
    backend: str = "inline"
    #: Process workers; ``None`` picks one per plan socket or
    #: ``min(4, cpu_count)``.
    n_workers: int | None = None
    #: Process backend: drain each task's input edges in declaration
    #: order (reproduces inline results for order-sensitive joins).
    ordered: bool = False
    #: Process backend transport: ``"pickle"`` or ``"shm"``.
    dataplane: str = "pickle"
    #: Columnar kernel dispatch: ``"auto"`` or ``"off"``.
    vectorized: str = "auto"
    #: Shm string-dictionary encoding: ``"auto"``, ``"on"`` or ``"off"``.
    string_dict: str = "auto"
    #: Jumbo-tuple batch size on every edge.
    batch_size: int = 64
    #: Uniform per-edge tuple bound (exclusive with ``queue_budget``).
    queue_capacity: int | None = None
    #: Per-consumer buffered-tuple budget split over its input edges.
    queue_budget: int | None = None
    #: Events per spout replica between epoch barriers.
    epoch_interval: int | None = None
    fuse: FusionConfig | str | None = None
    adaptive_batch: AdaptiveBatchConfig | bool | None = None
    overload: OverloadConfig | Mapping[str, object] | bool | None = None
    #: Live re-planning at barriers; needs ``epoch_interval``.
    reconfig: "ReconfigController | None" = None
    #: Deterministic chaos; implies a supervised run.
    fault_plan: "FaultPlan | None" = None
    #: ``fail-fast``/``retry``/``degrade``; implies a supervised run.
    recovery_policy: str | None = None
    max_restarts: int = 3
    degrade: "DegradeContext | None" = None
    #: Process backend: bound on each epoch slice (the whole run
    #: without epochs).
    timeout_s: float = 300.0
    #: Process backend: a heartbeat older than this is a stall.
    heartbeat_timeout_s: float = 10.0
    #: Process backend: bound on one blocked remote send.
    send_timeout_s: float = 30.0
    epochs: EpochConfig | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _choice(self.backend, BACKEND_NAMES, "backend")
        if self.n_workers is not None and self.n_workers < 1:
            raise ExecutionError(f"n_workers must be >= 1, got {self.n_workers}")
        _choice(self.dataplane, DATAPLANE_NAMES, "dataplane")
        _choice(self.vectorized, VECTORIZED_MODES, "vectorized mode")
        _choice(self.string_dict, STRING_DICT_MODES, "string_dict")
        if self.batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {self.batch_size}")
        _positive("queue_capacity", self.queue_capacity)
        _positive("queue_budget", self.queue_budget)
        if self.queue_capacity is not None and self.queue_budget is not None:
            raise PlanError("pass either queue_capacity or queue_budget, not both")
        _positive("timeout_s", self.timeout_s)
        _positive("heartbeat_timeout_s", self.heartbeat_timeout_s)
        _positive("send_timeout_s", self.send_timeout_s)
        epochs = (
            None if self.epoch_interval is None else EpochConfig(self.epoch_interval)
        )
        adaptive = self.adaptive_batch or None
        if adaptive is True:
            adaptive = AdaptiveBatchConfig()
        overload = self.overload
        if overload is True:
            overload = OverloadConfig()
        elif overload is False:
            overload = None
        elif overload is not None and not isinstance(overload, OverloadConfig):
            overload = OverloadConfig(**dict(overload))
        # Adaptive batching, the overload ladder and live reconfiguration
        # act only at epoch barriers; without them they would silently do
        # nothing.
        for armed, name, what in (
            (adaptive, "adaptive_batch", "adaptive batch sizing adjusts at"),
            (overload, "overload", "overload control steps at"),
            (self.reconfig, "reconfig", "live reconfiguration requires"),
        ):
            if armed is not None and epochs is None:
                raise ExecutionError(
                    f"{what} epoch barriers: "
                    f"pass epoch_interval together with {name}"
                )
        set_field = object.__setattr__
        set_field(self, "fuse", as_fusion_config(self.fuse))
        set_field(self, "adaptive_batch", adaptive)
        set_field(self, "overload", overload)
        set_field(self, "epochs", epochs)
