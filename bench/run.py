"""rtails benchmark: run one verification workload and report its metrics.

    python3 bench/run.py --workload vanishing-n6 --seed 1 --seconds 10 --trace 0

Every grid runs in a fresh interpreter (``bench/worker.py``) with cold rtails
caches and no parallelism.  Grids repeat, each in a new process, until
``--seconds`` of measuring would be exceeded (always at least one).  Every
verdict line is checked against ``bench/expected/<workload>.txt``, the lines
``rtails verify`` printed for the same grid at the seed commit.

``--trace 0`` reports the end-to-end metrics of untraced grids.  ``--trace 1``
pairs every untraced grid with a traced one and reports the per-layer metrics
(see ``bench/tracer.py``).  A readable table and the run's record (commit,
Python version, nproc, seed, workload) go to stderr and to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload in turn, one JSON line each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from tracer import UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("vanishing-n6", "collide0-n6", "rt-n5")
# the whole run must end within 180 s; a grid that would overrun is killed
DEADLINE_S = 170.0
# set-up is short and jittery: time it in this many extra processes, take the median
SETUP_SAMPLES = 30
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class RunFailed(RuntimeError):
    """The benchmark could not produce a result."""


def _child(workload: str, seed: int, deadline: float, *, trace=False, setup_only=False) -> dict:
    """Start one worker; time it up to its ``ready`` line; return its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise RunFailed("out of time before starting a grid")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode} ({' '.join(cmd[1:])})")
    result = {} if setup_only else json.loads(rest.splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def _failed(lines: list, expected: list) -> int:
    """Verdicts that are missing, extra, failing or raised, against the expected lines."""
    got, want = Counter(lines), Counter(expected)
    return max(sum((got - want).values()), sum((want - got).values()))


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rtails").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; the record holds the result, raw samples and metadata."""
    deadline = time.perf_counter() + DEADLINE_S
    expected = (BENCH / "expected" / f"{workload}.txt").read_text().splitlines()
    # the first start writes bytecode caches, so every timed start reads them
    _child(workload, seed, deadline, setup_only=True)
    setups = [] if trace else [_child(workload, seed, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps = []
    t_measure = time.perf_counter()
    while True:
        rep = {"plain": _child(workload, seed, deadline)}
        if trace:
            rep["traced"] = _child(workload, seed, deadline, trace=True)
        reps.append(rep)
        elapsed = time.perf_counter() - t_measure
        per_rep = elapsed / len(reps)
        if elapsed + per_rep > seconds or time.perf_counter() + 1.5 * per_rep > deadline:
            break

    grids = [g for rep in reps for g in rep.values()]
    attempted = sum(len(g["lines"]) for g in grids)
    failed = sum(_failed(g["lines"], expected) for g in grids)
    plain = [rep["plain"] for rep in reps]
    samples = {
        "setup_s": setups + [p["setup_s"] for p in plain],
        "wall_s": [p["wall_s"] for p in plain],
        "task_max_s": [max(p["task_s"]) for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    if trace:
        traced = [rep["traced"] for rep in reps]
        samples["traced_wall_s"] = [t["wall_s"] for t in traced]
        values = {name: statistics.median(t["trace"]["metrics"][name] for t in traced) for name in traced[0]["trace"]["metrics"]}
        values["trace.overhead_ratio"] = statistics.median(
            t / p for t, p in zip(samples["traced_wall_s"], samples["wall_s"])
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
        unbounded = {}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        # printed and recorded, but too order-dependent to bound (see README)
        unbounded = {"task_max_s": {"value": statistics.median(samples["task_max_s"]), "unit": "s"}}
    unbounded["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "grids": len(reps),
    }
    record = {"meta": meta, "result": result, "unbounded": unbounded, "samples": samples}
    if trace:
        record["functions"] = traced[0]["trace"]["functions"]
    return record


def _report(record: dict) -> None:
    meta, result = record["meta"], record["result"]
    print(" ".join(f"{k}={v}" for k, v in meta.items()), file=sys.stderr)
    for name, m in {**result["metrics"], **record["unbounded"]}.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for row in record.get("functions", [])[:15]:
        print(f"    {row['function']:34s} self {row['self_s']:9.4f} s  calls {row['calls']}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rtails verification benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "rtails" / "__init__.py").is_file():
        print(f"error: no rtails sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except RunFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
        _report(record)
        print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
