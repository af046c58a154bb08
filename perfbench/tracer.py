"""Per-layer tracing from outside the program.

The tracer wraps calls into each layer's public functions and methods
with timed spans and counters, then puts every original back.  It keeps
the traced run on the untraced run's code paths:

* a method is wrapped only on the class whose own ``__dict__`` defines
  it and replaced in place, so the runtime's capability checks
  (``supports_columns``, ``type(op).process is Sink.process``,
  ``process_batch is not Operator.process_batch``) see the same
  identities as before;
* no ``MetricsRegistry`` is involved, so the inline backend keeps its
  batch and columnar fast paths;
* a module-level function is replaced in every module namespace that
  bound it by ``from ... import``.

A span's *self time* is its duration minus the time of the spans nested
inside it.  Process workers are forked after the wrappers are installed,
so they inherit them; an after-fork hook clears the inherited totals and
registers a ``multiprocessing.util.Finalize`` that writes the worker's
totals to a file before the worker exits.
"""

from __future__ import annotations

import json
import multiprocessing.process
import multiprocessing.util
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.core import PlacementOptimizer, RLASOptimizer
from repro.dsps.operators import Spout
from repro.runtime import lowering
from repro.runtime.dataplane.channels import (
    ChannelEndpoint,
    PickleQueueChannel,
    ShmRingChannel,
)
from repro.runtime.fusion import plan_fusion

#: Operator methods whose self time is operator execution (Te).
EXECUTE_METHODS = ("process", "process_batch", "process_columns")
#: Operator methods whose self time is state snapshotting.
STATE_METHODS = ("snapshot_state", "restore_state")
#: Keys whose self time counts as a layer's work (everything else that
#: happens in a run's wall time is the paper's "Others").
SELF_PREFIXES = ("apps.", "runtime.dataplane.pack_s", "runtime.dataplane.unpack_s",
                 "runtime.epochs.snapshot_s")
#: Seconds a traced parent lets a worker finish its exit (and so write
#: its trace file) before the runtime's terminate() proceeds.
EXIT_GRACE_S = 5.0


def _definer(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose own ``__dict__`` defines ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


def _wire_bytes(message: tuple) -> int:
    """Payload length of a packed data-plane message."""
    if message[0] == "shm":  # ("shm", sender, producer, consumer, start, length)
        return message[5]
    return len(message[3])  # ("batch", producer, consumer, payload)


def _materialize(fn: Callable, *args: Any) -> list:
    """Call ``fn`` and drain its result: a generator's work happens when
    it is iterated, so the span must cover the iteration."""
    return list(fn(*args))


class _TimedIterator:
    """Times every ``next()`` of a spout's source iterator."""

    __slots__ = ("_inner", "_span", "_key")

    def __init__(self, inner, span, key: str) -> None:
        self._inner = inner
        self._span = span
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._key, next, self._inner)


class Tracer:
    """Installs the wrappers and accumulates one process's totals."""

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._components: dict[type, str] = {}
        self._worker_started = 0.0
        self._installed = False

    # -- spans ---------------------------------------------------------
    def span(self, key: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)``, adding its self time to ``totals[key]``."""
        stack = self._stack
        stack.append(0.0)
        started = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - started
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            self.totals[key] += elapsed - nested

    def take(self) -> dict[str, float]:
        """Return this process's totals and start from zero."""
        totals = dict(self.totals)
        self.totals.clear()
        return totals

    # -- installation ----------------------------------------------------
    def install(self, topology) -> None:
        """Wrap every layer's entry points for one topology's job."""
        for name, component in topology.components.items():
            self._components.setdefault(type(component.template), name)
        for cls, name in list(self._components.items()):
            if issubclass(cls, Spout):
                self._wrap_spout(cls)
                continue
            for method in EXECUTE_METHODS:
                self._wrap_execute(_definer(cls, method), method)
            for method in STATE_METHODS:
                self._wrap_timed(_definer(cls, method), method, "runtime.epochs.snapshot_s")
        for cls in (ShmRingChannel, PickleQueueChannel):
            for method in ("pack", "pack_columns"):
                if method in vars(cls):
                    self._wrap_pack(cls, method)
            for method in ("unpack", "unpack_columns"):
                if method in vars(cls):
                    self._wrap_timed(cls, method, "runtime.dataplane.unpack_s")
        self._wrap_channel_queue()
        self._wrap_inclusive(RLASOptimizer, "optimize", "core.rlas.optimize_s")
        self._wrap_inclusive(PlacementOptimizer, "optimize", "core.bnb.optimize_s")
        for function in (lowering.lower_graph, lowering.lower_plan, plan_fusion):
            self._wrap_function(function, "runtime.lowering.lower_s")
        self._wrap_process()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        self._installed = True

    def uninstall(self) -> None:
        """Put every original back (newest first)."""
        self._installed = False
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _replace(self, owner: Any, name: str, replacement: Any) -> None:
        if any(o is owner and n == name for o, n, _ in self._undo):
            return  # a definer shared by several components: wrap once
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _component(self, instance: Any) -> str:
        cls = type(instance)
        return self._components.get(cls, cls.__name__)

    def _wrap_execute(self, owner: type, method: str) -> None:
        original = vars(owner)[method]
        span, totals, component = self.span, self.totals, self._component

        def wrapper(instance, batch):
            name = component(instance)
            size = 1 if method == "process" else len(batch)
            totals[f"apps.{name}.tuples"] += size
            if method == "process_columns":
                totals[f"apps.{name}.columnar_tuples"] += size
            return span(f"apps.{name}.execute_s", _materialize, original,
                        instance, batch)

        self._replace(owner, method, wrapper)

    def _wrap_spout(self, cls: type) -> None:
        owner = _definer(cls, "next_batch")
        original = vars(owner)["next_batch"]
        span = self.span

        def next_batch(instance, max_tuples):
            return _TimedIterator(
                original(instance, max_tuples), span, "apps.spout.generate_s"
            )

        self._replace(owner, "next_batch", next_batch)

    def _wrap_timed(self, owner: Any, method: str, key: str) -> None:
        original = vars(owner)[method]
        span = self.span

        def wrapper(*args):
            return span(key, original, *args)

        self._replace(owner, method, wrapper)

    def _wrap_inclusive(self, owner: type, method: str, key: str) -> None:
        """Whole-call time and a call count (set-up layers, not nested
        in any run-time span)."""
        original = vars(owner)[method]
        totals = self.totals
        calls = key.removesuffix("_s") + "_calls"

        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                totals[key] += perf_counter() - started
                totals[calls] += 1

        self._replace(owner, method, wrapper)

    def _wrap_pack(self, owner: type, method: str) -> None:
        original = vars(owner)[method]
        span, totals = self.span, self.totals

        def wrapper(*args):
            message = span("runtime.dataplane.pack_s", original, *args)
            totals["runtime.dataplane.pack_calls"] += 1
            totals["runtime.dataplane.wire_bytes"] += _wire_bytes(message)
            return message

        self._replace(owner, method, wrapper)

    def _wrap_channel_queue(self) -> None:
        try_put = vars(ChannelEndpoint)["try_put"]
        try_get = vars(ChannelEndpoint)["try_get"]
        totals = self.totals

        def put(endpoint, dest, message):
            accepted = try_put(endpoint, dest, message)
            totals["runtime.dataplane.put_calls"] += 1
            if not accepted:
                totals["runtime.dataplane.put_refused"] += 1
            return accepted

        def get(endpoint):
            message = try_get(endpoint)
            totals["runtime.dataplane.get_calls"] += 1
            if message is None:
                totals["runtime.dataplane.get_empty"] += 1
            return message

        self._replace(ChannelEndpoint, "try_put", put)
        self._replace(ChannelEndpoint, "try_get", get)

    def _wrap_function(self, original: Callable, key: str) -> None:
        span = self.span

        def wrapper(*args, **kwargs):
            return span(key, lambda: original(*args, **kwargs))

        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not namespace.get("__name__", "").startswith("repro"):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._replace(module, name, wrapper)

    def _wrap_process(self) -> None:
        base = multiprocessing.process.BaseProcess
        start, terminate = vars(base)["start"], vars(base)["terminate"]
        totals = self.totals

        def counted_start(process):
            totals["runtime.process_pool.workers_started"] += 1
            return start(process)

        def graceful_terminate(process):
            # A worker that already reported may still be writing its
            # trace file on the way out; let it finish first.
            process.join(EXIT_GRACE_S)
            if process.exitcode is None:
                terminate(process)

        self._replace(base, "start", counted_start)
        self._replace(base, "terminate", graceful_terminate)

    # -- forked workers --------------------------------------------------
    def _after_fork(self) -> None:
        if not self._installed:
            return
        self.totals.clear()
        self._stack.clear()
        self._worker_started = perf_counter()
        multiprocessing.util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        record = {
            "wall_s": perf_counter() - self._worker_started,
            "totals": dict(self.totals),
        }
        path = self.work_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(record))

    def collect_workers(self) -> list[dict]:
        """Read and remove the records of every worker that exited."""
        records = []
        for path in sorted(self.work_dir.glob("worker-*.json")):
            records.append(json.loads(path.read_text()))
            path.unlink()
        return records


def self_time(totals: dict[str, float]) -> float:
    """Summed self time of the layers that are not "Others"."""
    return sum(
        value
        for key, value in totals.items()
        if key.startswith(SELF_PREFIXES) and key.endswith("_s")
    )
