"""Repository benchmark: run one workload, check it, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wc-shm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run (see
measure.py and tracer.py).  Every run is checked against a scalar inline
reference run with the same seed, plan and epoch interval.

Each metric is printed by name with its unit, then one JSON line per
workload (``correct``, ``attempted``, ``failed``, ``metrics``).  The
exit code is 1 when any run fails its check, and 2 when the program's
source is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SOURCE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_DIR))
    import measure
    from repro.apps import load_application
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all")
    units = measure.PER_LAYER if args.trace else measure.END_TO_END
    status = 0
    for name in names:
        workload = WORKLOADS[name]
        load_application(workload.app)  # calibration profiles, cached
        run = measure.trace if args.trace else measure.measure
        checker, metrics, runs = run(workload, args.seed, args.seconds)
        print(f"# {name}: seed {args.seed}, {runs} measured runs of {workload.events} events")
        metrics = {key: metrics[key] for key in units if key in metrics}
        for key, value in metrics.items():
            print(f"{key:<42} {value:>14.6g} {units[key]}")
        print(f"{'error_rate':<42} {checker.failed / checker.attempted:>14.6g} ratio")
        print(json.dumps({
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()},
        }))
        if checker.failed:
            status = 1
    _stop_resource_tracker()
    return status


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the shm data plane
    started, so no process of the benchmark outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
