"""Tests of the benchmark itself: tracer bindings, verdicts, self-time sums, counts.

Small grids keep these fast; the counters are checked in fresh interpreters
because rtails' caches would otherwise carry over between runs.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import rtails
from rtails import H0, cli, cycles, rtclasses, strata0, trees

import run
import worker
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SMALL = cli._grid("vanishing", 4, 0) + cli._grid("collide0", 4, 0) + cli._grid("frec", 3, 0) + cli._grid("collide-rt", 0, 3)
# time outside every wrapped call (the task loop itself) stays below this share
REMAINDER_SHARE = 0.05


def _fresh_traced_metrics(seed: int) -> dict:
    code = (
        "import json, sys, worker\n"
        f"tasks = worker.ordered({SMALL!r}, {seed})\n"
        "print(json.dumps(worker.run_grid(tasks, trace=True)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(SRC)]), PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_tracer_patches_every_binding():
    originals = (strata0.zero_witness, strata0.pair_term, trees.build_tree, cycles.z_cycle)
    with Tracer():
        assert cycles.zero_witness is strata0.zero_witness
        assert strata0.zero_witness is not originals[0]
        assert rtclasses.pair_term is strata0.pair_term is not originals[1]
        assert rtails.build_tree is cycles.build_tree is rtclasses.build_tree is trees.build_tree is not originals[2]
        assert rtails.z_cycle is cycles.z_cycle is not originals[3]
    assert (strata0.zero_witness, strata0.pair_term, trees.build_tree, cycles.z_cycle) == originals
    assert cycles.zero_witness is originals[0] and rtclasses.pair_term is originals[1]
    assert rtails.build_tree is cycles.build_tree is originals[2]


def test_every_layer_function_exists():
    modules = {"strata0": strata0, "trees": trees, "cycles": cycles, "rtclasses": rtclasses}
    modules["weights"] = sys.modules["rtails.weights"]
    for spec in LAYERS.values():
        for short, names in spec.items():
            for name in names:
                assert callable(getattr(modules[short], name)), f"{short}.{name}"


def test_strata_paired_matches_a_hand_count():
    # on M_{0,5} (legs h0, 1..4) a degree-1 class is paired with the 10 boundary
    # divisors D_{A|B}; psi_1 . D_{A|B} = 1 exactly when leg 1 lies on a side
    # with three markings
    point, _ = trees.build_tree([[H0, 1, 2, 3, 4]], [])
    psi1 = strata0.push_tree(point).mul_psi(1)

    def divisor(side, rest):
        return strata0.push_tree(trees.build_tree([side, rest], [(0, 1)])[0])

    family = strata0.strata_family(cycles.ambient0(4), 1)
    assert family[:2] == (
        trees.build_tree([[H0, 1], [2, 3, 4]], [(0, 1)])[0],  # pairs to 0
        trees.build_tree([[H0, 1, 2], [3, 4]], [(0, 1)])[0],  # pairs to 1: the witness
    )
    # Keel: psi_1 is the sum of the D_S with 1 in S and 2, 3 not in S
    zero = psi1 - divisor([1, 4], [H0, 2, 3]) - divisor([1, H0], [2, 3, 4]) - divisor([1, 4, H0], [2, 3])
    with Tracer() as tracer:
        assert strata0.zero_witness(psi1) == family[1]
        assert tracer.counts["strata0.strata_paired"] == 2
        assert cycles.zero_witness(zero) is None
        assert tracer.counts["strata0.strata_paired"] == 2 + 10
        assert strata0.zero_witness(psi1 - psi1) is None  # no terms: nothing paired
        assert tracer.counts["strata0.strata_paired"] == 12


def test_tracing_keeps_verdicts():
    plain = worker.run_grid(SMALL)["lines"]
    traced = worker.run_grid(SMALL, trace=True)["lines"]
    assert traced == plain
    assert all(line.startswith("pass ") for line in plain)


def test_self_times_sum_to_traced_wall():
    metrics = _fresh_traced_metrics(seed=1)["trace"]["metrics"]
    layers = sum(metrics[name] for name in LAYERS)
    wall = metrics["trace.wall_s"]
    assert abs(layers + metrics["trace.unattributed_s"] - wall) < 1e-6
    assert 0 <= metrics["trace.unattributed_s"] <= REMAINDER_SHARE * wall


def test_counts_repeat_across_runs_and_seeds():
    names = ("strata0.strata_paired", "cycles.z_calls", "strata0.pair_term_calls", "strata0.integrate_term_calls")
    runs = [_fresh_traced_metrics(seed) for seed in (1, 1, 2)]
    counts = [tuple(r["trace"]["metrics"][n] for n in names) for r in runs]
    assert counts[0] == counts[1] == counts[2]
    assert all(counts[0])
    assert runs[0]["lines"] != runs[2]["lines"]  # seeds 1 and 2 order the grid differently
    assert sorted(runs[0]["lines"]) == sorted(runs[2]["lines"])


def test_failed_counts_mismatched_verdicts():
    expected = ["pass a(1,)", "pass b(2,)"]
    assert run._failed(list(reversed(expected)), expected) == 0
    assert run._failed(["pass a(1,)", "FAIL b(2,)  witness=x"], expected) == 1
    assert run._failed(["pass a(1,)", "ERROR b(2,): boom"], expected) == 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rt-n5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
