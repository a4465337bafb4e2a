"""One benchmark process: import rtails, run one workload grid, report.

``run.py`` starts this script in a fresh interpreter for every grid, so each
grid starts with cold rtails caches.  The worker prints ``ready`` once
``rtails`` and its CLI module are imported (the parent times set-up up to that
line), then runs the grid in the order the seed gives and prints one JSON
object with the verdict lines, per-task seconds, peak RSS and, when traced,
the tracer's layer breakdown.

    python3 bench/worker.py --workload rt-n5 --seed 1 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
import traceback

from rtails import cli  # `rtails verify` pays for it; set-up covers it
from tracer import Tracer

# The grids `rtails verify` runs, built by the CLI itself; bench/expected/<name>.txt
# holds the verdict lines that command printed for the same grids at the seed commit.
WORKLOADS = {
    "vanishing-n6": cli._grid("vanishing", 6, 0),  # rtails verify vanishing --max-n 6
    "collide0-n6": cli._grid("collide0", 6, 0),  # rtails verify collide0 --max-n 6
    # rtails verify frec --max-n 5; rtails verify collide-rt --max-sum 5
    "rt-n5": cli._grid("frec", 5, 0) + cli._grid("collide-rt", 0, 5),
}


def ordered(tasks: list, seed: int) -> list:
    """The grid in the order the seed gives; the set of tasks is unchanged."""
    tasks = list(tasks)
    random.Random(seed).shuffle(tasks)
    return tasks


def run_grid(tasks: list, trace: bool = False) -> dict:
    """Run ``tasks`` through ``rtails verify``'s own task runner, timing each verdict.

    A task that raises becomes an ERROR line.
    """
    lines, task_s = [], []
    with Tracer() if trace else contextlib.nullcontext() as tracer:
        t_start = time.perf_counter()
        for task in tasks:
            t0 = time.perf_counter()
            try:
                line = cli.run_task(task).line()
            except Exception as exc:  # a verdict that raised counts as failed
                traceback.print_exc(file=sys.stderr)
                line = f"ERROR {task[0]}{task[1]}: {exc!r}"
            task_s.append(time.perf_counter() - t0)
            lines.append(line)
        wall_s = time.perf_counter() - t_start
    result = {
        "lines": lines,
        "task_s": task_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(),
            "functions": tracer.functions(),
        }
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true", help="exit right after reporting ready")
    args = p.parse_args(argv)
    tasks = ordered(WORKLOADS[args.workload], args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(run_grid(tasks, trace=args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
