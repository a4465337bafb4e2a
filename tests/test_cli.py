"""CLI surface: schemas, determinism, exit codes, worked values."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rtails import cli, cycles, rtclasses, trees, weights
from rtails.cli import BRUTE_MAX_WEIGHTINGS, main, run_task
from rtails.serialize import (
    class0_from_json,
    class0_to_json,
    rtclass_from_json,
    rtclass_to_json,
    tree_from_json,
    tree_to_json,
)
from rtails.strata0 import push_tree
from rtails.trees import H0, InvalidArgument, build_tree
from rtails.cycles import z_cycle
from rtails.rtclasses import f_class


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHAIN_42 = {
    "vertices": [
        {"genus": "g", "legs": []},
        {"genus": 0, "legs": [4]},
        {"genus": 0, "legs": [1, 2, 3]},
    ],
    "edges": [[1, 0], [2, 1]],
    "exp_half": {"1+": 1},
    "exp_leg": {},
}

# a one-edge rooted tree {h0, 1} -> {2, 3, 4}, read by `coeff --i`
ROOTED = {
    "vertices": [{"genus": 0, "legs": ["h0", 1]}, {"genus": 0, "legs": [2, 3, 4]}],
    "edges": [[1, 0]],
    "exp_half": {"0+": 1},
    "exp_leg": {},
}

# the genus root carrying leg 4 -> {1, 2, 3}, ψ on the head
ROOT_LEG = {
    "vertices": [{"genus": "g", "legs": [4]}, {"genus": 0, "legs": [1, 2, 3]}],
    "edges": [[1, 0]],
    "exp_half": {"0+": 1},
    "exp_leg": {},
}

# the coda {1, 3} for I = {1} below the root {h0, 2}, read by `coeff --i 1 --coda 1`
CODA = {
    "vertices": [{"genus": 0, "legs": ["h0", 2]}, {"genus": 0, "legs": [1, 3]}],
    "edges": [[1, 0]],
    "exp_half": {},
    "exp_leg": {},
}


def _one_vertex(legs):
    """A rational-tails graph with one genus vertex carrying ``legs``."""
    return {"vertices": [{"genus": "g", "legs": legs}], "edges": [], "exp_half": {}, "exp_leg": {}}


def test_tree_json_roundtrip():
    for blob_tree in [
        build_tree([[1, 2, H0], [3, 4]], [(0, 1)], half_exp={(0, 1): 2}),
        build_tree([[], [1], [2, 3]], [(0, 1), (1, 2)], rt_root=0, half_exp={(1, 0): 1}),
    ]:
        tree, dec = blob_tree
        back_tree, back_dec = tree_from_json(tree_to_json(tree, dec))
        assert (back_tree, back_dec) == (tree, dec)


def test_class_json_roundtrip():
    x = z_cycle(4, 2, 1)
    assert class0_from_json(class0_to_json(x)) == x
    y = f_class(3)
    assert rtclass_from_json(rtclass_to_json(y)) == y


def test_coeff_42(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_42))
    code, out, err = run_cli(capsys, "coeff", "--graph", str(path))
    assert code == 0
    assert out.splitlines() == ["42", "weightings: 9"]
    code, out, _ = run_cli(capsys, "coeff", "--graph", str(path), "--brute")
    assert out.splitlines()[0] == "42"


def test_zcycle_latex_mentions_coefficients(capsys):
    code, out, _ = run_cli(capsys, "zcycle", "--n", "4", "--i", "3", "--j", "2", "--format", "latex")
    assert code == 0
    for c in ("75", "21", "18", "9", "3"):
        assert c in out


def test_verify_vanishing_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "vanishing", "--max-n", "4")
    assert code == 0
    assert out.count("pass") == len(out.strip().splitlines())
    assert "time" in err


def test_verify_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "closed-forms", "--max-n", "4")
    _, out2, _ = run_cli(capsys, "verify", "closed-forms", "--max-n", "4")
    assert out1 == out2


def test_verify_output_does_not_depend_on_the_process():
    # a tree's or decoration's hash is its instance's identity, which differs
    # from process to process, as the string hashes do under another seed:
    # no printed line or order may follow either
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "from rtails.cli import main; main(['verify', 'vanishing', '--max-n', '5'])"
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True)
        outs.append(out.stdout)
    assert outs[0] == outs[1] and outs[0].count("\n") == 20


def test_fclass_json_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "fclass", "--n", "3", "--format", "json")
    _, out2, _ = run_cli(capsys, "fclass", "--n", "3", "--format", "json")
    assert out1 == out2
    blob = json.loads(out1)
    assert len(blob["terms"]) == 14  # 8 shapes over labelings


def test_pair_cli(tmp_path, capsys):
    x = z_cycle(3, 2, 1)
    klass = tmp_path / "class.json"
    klass.write_text(json.dumps(class0_to_json(x)))
    tree, _ = build_tree([[1, 2, 3, H0]], [])
    stratum = tmp_path / "stratum.json"
    stratum.write_text(json.dumps(tree_to_json(tree)))
    code, out, _ = run_cli(capsys, "pair", "--klass", str(klass), "--stratum", str(stratum))
    assert code == 0
    assert out.strip() == "0"


def test_pair_refuses_a_rational_tails_stratum(tmp_path, capsys):
    # the fundamental class of the 4-pointed space against a genus vertex with
    # h0 and 1 and a rational one with 2 and 3, or a genus vertex without legs
    klass = tmp_path / "class.json"
    klass.write_text(json.dumps(class0_to_json(push_tree(build_tree([[H0, 1, 2, 3]], [])[0]))))
    for vertices in (
        [{"genus": "g", "legs": ["h0", 1]}, {"genus": 0, "legs": [2, 3]}],
        [{"genus": "g", "legs": []}, {"genus": 0, "legs": ["h0", 1, 2, 3]}],
    ):
        stratum = tmp_path / "stratum.json"
        stratum.write_text(json.dumps({"vertices": vertices, "edges": [[1, 0]], "exp_half": {}, "exp_leg": {}}))
        code, out, err = run_cli(capsys, "pair", "--klass", str(klass), "--stratum", str(stratum))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


def test_pair_refuses_more_legs_than_the_largest_measured_before_any_pairing(tmp_path, capsys, monkeypatch):
    def started(*args):
        raise AssertionError("the pairing started")

    monkeypatch.setattr(cli.strata0, "pair", started)

    def one_vertex(n):
        return build_tree([[H0, *range(1, n + 1)]], [])[0]

    def run_pair(class_n, stratum_n):
        klass, stratum = tmp_path / "class.json", tmp_path / "stratum.json"
        klass.write_text(json.dumps(class0_to_json(push_tree(one_vertex(class_n)))))
        stratum.write_text(json.dumps(tree_to_json(one_vertex(stratum_n))))
        return run_cli(capsys, "pair", "--klass", str(klass), "--stratum", str(stratum))

    # 9 legs (h0 and 1..8) are one more than the n = MAX_N ambient
    assert cli.MAX_N + 1 == 8
    for class_n, stratum_n in ((8, 8), (7, 8), (8, 7)):
        code, out, err = run_pair(class_n, stratum_n)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "leg count 9 is above 8" in err
    # at the bound the pairing starts, and meets the stand-in
    code, out, err = run_pair(7, 7)
    assert code == 3 and "the pairing started" in err


def test_usage_errors(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "zcycle", "--n", "4")
    assert code == 2
    code, _, _ = run_cli(capsys, "fclass")
    assert code == 2
    code, _, _ = run_cli(capsys, "relations", "--g", "2", "--n", "2")
    assert code == 2
    # fclass carries the genus as the symbol g and has no --g
    code, out, _ = run_cli(capsys, "fclass", "--g", "2", "--n", "2")
    assert (code, out) == (2, "")
    # the truncated cycle reads no multiplicity
    code, out, err = run_cli(capsys, "zcycle", "--n", "4", "--i", "2", "--j", "1", "--truncated", "--m", "2")
    assert (code, out) == (2, "")
    assert "--m" in err
    for option, value in (("--jobs", "0"), ("--jobs", "-2"), ("--time-budget", "-1"), ("--time-budget", "0")):
        code, out, err = run_cli(capsys, "verify", "closed-forms", "--max-n", "3", option, value)
        assert (code, out) == (2, "")
        assert option in err
    # `verify` refuses a size that its suite does not read, `relations` a
    # genus below 1, and Zᵗ checks i
    for argv, named in (
        (("verify", "logan", "--max-n", "5"), "--max-n"),
        (("verify", "vanishing", "--max-sum", "3"), "--max-sum"),
        (("verify", "collide-rt", "--max-n", "4"), "--max-n"),
        (("verify", "expansions", "--max-n", "5"), "--max-n"),
        (("relations", "--g", "0", "--n", "2"), "g must be an integer >= 1, not 0"),
        (("relations", "--g", "-5", "--n", "1"), "g must be an integer >= 1, not -5"),
        (("zcycle", "--n", "3", "--i", "0", "--j", "5", "--truncated"), "i must be an integer >= 1, not 0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert named in err
    # fclass reads --n only without --multiplicities, which fix the legs
    code, out, err = run_cli(capsys, "fclass", "--n", "9", "--multiplicities", "1,1")
    assert (code, out) == (2, "")
    assert "--n" in err
    # `coeff` refuses an option that the graph's coefficient would not read,
    # naming the parameter it would set, a repeated coda member (flattened,
    # 1,1 would read as the coda {1}), and a leg weight below 1 or on a leg
    # the graph lacks; leg 4 of ROOT_LEG sits on the genus root, below no edge
    path = tmp_path / "graph.json"
    for blob, argv, named in (
        (CHAIN_42, ("--m", "3"), "m is not read"),
        (CHAIN_42, ("--i", "1"), "i is not read"),
        (CHAIN_42, ("--coda", "1"), "I is not read"),
        (ROOTED, ("--i", "2", "--multiplicities", "2,1,1,1"), "mults is not read"),
        (CODA, ("--i", "1", "--coda", "1", "--multiplicities", "2,1,1"), "mults is not read"),
        (CODA, ("--i", "1", "--coda", "1", "--m", "2"), "m is not read"),
        (CODA, ("--coda", "1"), "needs i"),
        (CODA, ("--i", "1", "--coda", "1,1"), "I repeats a member: [1, 1]"),
        (ROOT_LEG, ("--multiplicities", "1,1,1,0"), "the weight of leg 4 must be an integer >= 1, not 0"),
        (ROOT_LEG, ("--multiplicities", "1,1,1,-3"), "the weight of leg 4 must be an integer >= 1, not -3"),
        (ROOT_LEG, ("--multiplicities", "1,1,1,1,7,9"), "not 7 on 5"),
        # a leg label is an integer or a string: true and 1.0 once read as leg 1
        (_one_vertex([True, 2, 3]), ("--multiplicities", "2,1,1"), "a leg label must be an integer or a string, not True"),
        (_one_vertex([1.0, 2, 3]), ("--multiplicities", "2,1,1"), "a leg label must be an integer or a string, not 1.0"),
    ):
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "coeff", "--graph", str(path), *argv)
        assert (code, out) == (2, "")
        assert named in err
    path.write_text(json.dumps(ROOT_LEG))
    assert run_cli(capsys, "coeff", "--graph", str(path), "--multiplicities", "1,1,1") == (0, "7\nweightings: 3\n", "")
    # i < 1 is a usage error in the coda context too, not the value 0
    path.write_text(json.dumps(CODA))
    for argv in (("--i", "0"), ("--i", "0", "--coda", "1")):
        code, out, err = run_cli(capsys, "coeff", "--graph", str(path), *argv)
        assert (code, out) == (2, "")
        assert "i must be an integer >= 1, not 0" in err


def test_zcycle_help_puts_the_multiplicity_on_leg_1(capsys):
    code, out, _ = run_cli(capsys, "zcycle", "--help")
    assert code == 0
    assert "multiplicity of leg 1 (default 1)" in " ".join(out.split())


def test_relations_emit(capsys):
    code, out, _ = run_cli(capsys, "relations", "--g", "2", "--n", "3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["k"] == "1"
    assert blob["terms"]


def test_trees_count(capsys):
    code, out, _ = run_cli(capsys, "trees", "--n", "4", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "26"
    code, out, _ = run_cli(capsys, "trees", "--n", "3", "--rt", "--format", "json")
    blob = json.loads(out)
    assert blob["count"] == 8


def test_verify_parallel_matches_serial(capsys):
    _, out1, _ = run_cli(capsys, "verify", "collide0", "--max-n", "4")
    _, out2, _ = run_cli(capsys, "verify", "collide0", "--max-n", "4", "--jobs", "2")
    assert out1 == out2


def test_verify_collide_rt_under_jobs_matches_serial(capsys):
    # the workers send back reports only, and each builds its own trees and hashes
    serial = run_cli(capsys, "verify", "collide-rt", "--max-sum", "4", "--jobs", "1")[:2]
    assert serial[0] == 0 and serial[1].count("pass colliding_rt") == 14
    assert run_cli(capsys, "verify", "collide-rt", "--max-sum", "4", "--jobs", "2")[:2] == serial


def test_verify_jobs_start_no_more_workers_than_tasks_and_no_more_than_max_jobs(capsys, monkeypatch):
    # a stand-in pool records its size and runs the tasks in this process
    import concurrent.futures

    built = []

    class RecordingPool:
        def __init__(self, max_workers):
            assert max_workers <= cli.MAX_JOBS, "a pool was built for a refused --jobs"
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = run_cli(capsys, "verify", "collide0", "--max-n", "3")[:2]
    # collide0 --max-n 3 has two tasks: a pool of two, not of MAX_JOBS
    assert run_cli(capsys, "verify", "collide0", "--max-n", "3", "--jobs", str(cli.MAX_JOBS))[:2] == serial
    assert built == [2]
    # frec --max-n 2 has one task: no pool
    assert run_cli(capsys, "verify", "frec", "--max-n", "2", "--jobs", "4")[:2] == (0, "pass frec(2,)\n")
    assert built == [2]

    def started(task):
        raise AssertionError("a task started")

    monkeypatch.setattr(cli, "run_task", started)
    code, out, err = run_cli(capsys, "verify", "collide0", "--max-n", "3", "--jobs", str(cli.MAX_JOBS + 1))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"--jobs {cli.MAX_JOBS + 1} is above {cli.MAX_JOBS}" in err
    assert built == [2]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="pool workers must inherit the patched verifier"
)
def test_fail_fast_truncates_the_same_under_jobs(capsys, monkeypatch):
    # collide0 --max-n 4 runs (3,1), (3,2), (4,1), (4,2), (4,3); force (4,1) to fail
    real = cycles.verify_collide0

    def failing_at_4_1(n, m):
        rep = real(n, m)
        return dataclasses.replace(rep, passed=False, witness="forced") if (n, m) == (4, 1) else rep

    monkeypatch.setattr(cycles, "verify_collide0", failing_at_4_1)
    runs = [
        run_cli(capsys, "verify", "collide0", "--max-n", "4", "--fail-fast", "--jobs", jobs)
        for jobs in ("1", "2")
    ]
    assert [code for code, _, _ in runs] == [1, 1]
    assert runs[0][1] == runs[1][1]
    assert runs[0][1].splitlines() == [
        "pass collide0(3, 1)",
        "pass collide0(3, 2)",
        "FAIL collide0(4, 1)  witness='forced'",
    ]


def test_coeff_counts_by_dp_and_guards_brute(tmp_path, capsys):
    # genus root -> chain of rational vertices with legs 1..8 -> leg pair {9, 10};
    # every head carries psi, so the weighting set is far too large to list
    blob = {
        "vertices": [{"genus": "g", "legs": []}] + [{"genus": 0, "legs": [k]} for k in range(1, 9)]
        + [{"genus": 0, "legs": [9, 10]}],
        "edges": [[k + 1, k] for k in range(9)],
        "exp_half": {f"{k}+": 1 for k in range(9)},
        "exp_leg": {},
    }
    path = tmp_path / "chain10.json"
    path.write_text(json.dumps(blob))
    tree, dec = tree_from_json(blob)
    report = weights.coefficient(tree, dec)
    assert report.weighting_count > BRUTE_MAX_WEIGHTINGS
    code, out, _ = run_cli(capsys, "coeff", "--graph", str(path))
    assert code == 0
    assert out.splitlines() == [str(report.coefficient), f"weightings: {report.weighting_count}"]
    code, out, err = run_cli(capsys, "coeff", "--graph", str(path), "--brute")
    assert code == 2
    assert out == "" and "--brute" in err


def test_malformed_graph_input_is_a_usage_error(tmp_path, capsys):
    for bad in ({"exp_half": {"1+": -1}}, {"exp_half": {"1+": 1.5}}, {"exp_leg": {"4": "1"}}, {"vertices": None}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CHAIN_42, **bad}))
        code, out, err = run_cli(capsys, "coeff", "--graph", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
    path.write_text(json.dumps({k: v for k, v in CHAIN_42.items() if k != "vertices"}))  # a missing key
    assert run_cli(capsys, "coeff", "--graph", str(path))[0] == 2
    assert run_cli(capsys, "fclass", "--k", "x", "--n", "2")[0] == 2
    assert run_cli(capsys, "coeff", "--graph", str(path), "--multiplicities", "1,a")[0] == 2


def test_a_float_or_bool_json_coefficient_is_refused(tmp_path, capsys):
    # "coeff": 0.1 once read as 3602879701896397/36028797018963968 and true as 1
    x, y = z_cycle(3, 2, 1), f_class(2)
    tree, _ = build_tree([[1, 2, 3, H0]], [])
    stratum = tmp_path / "stratum.json"
    stratum.write_text(json.dumps(tree_to_json(tree)))
    for bad in (0.1, 1.0, True, None):
        blob, rt_blob = class0_to_json(x), rtclass_to_json(y)
        blob["terms"][0]["coeff"] = rt_blob["terms"][0]["coeff"] = bad
        with pytest.raises(InvalidArgument, match="coefficient"):
            class0_from_json(blob)
        with pytest.raises(InvalidArgument, match="coefficient"):
            rtclass_from_json(rt_blob)
        klass = tmp_path / "class.json"
        klass.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "pair", "--klass", str(klass), "--stratum", str(stratum))
        assert (code, out) == (2, "") and err.startswith("error: ") and "Traceback" not in err
    # "p/q" strings and JSON integers are read exactly, an integer as an int
    blob = class0_to_json(x)
    key = next(iter(x.items()))[0]
    for good, value in (("-3/4", Fraction(-3, 4)), (7, 7), ("7", 7)):
        blob["terms"][0]["coeff"] = good
        assert class0_from_json(blob).terms[key] == value
    blob["terms"][0]["coeff"] = 7
    assert type(class0_from_json(blob).terms[key]) is int


def test_an_unknown_json_genus_or_factored_slot_is_refused():
    # a genus "0" or 7 once became the genus vertex, and a slot "bogus:1,2"
    # once loaded as the tail {1, 2}
    for genus in ("0", 7, 1, True, None):
        blob = {**CHAIN_42, "vertices": [{**CHAIN_42["vertices"][0], "genus": genus}, *CHAIN_42["vertices"][1:]]}
        with pytest.raises(InvalidArgument, match="genus"):
            tree_from_json(blob)
    assert tree_from_json(CHAIN_42)[0].rt and not tree_from_json(ROOTED)[0].rt
    y = f_class(3)
    blob = rtclass_to_json(y)
    factored = [term for term in blob["terms"] if term.get("factored")]
    assert factored and all(key.split(":")[0] in ("leg", "tail") for term in factored for key in term["factored"])
    assert rtclass_from_json(blob) == y
    term = factored[0]
    key = next(iter(term["factored"]))
    term["factored"] = {"bogus:" + key.split(":", 1)[1]: term["factored"][key]}
    with pytest.raises(InvalidArgument, match="neither a leg nor a tail"):
        rtclass_from_json(blob)


def test_internal_error_exits_3_with_a_traceback(capsys, monkeypatch):
    def broken(n, m):
        raise ArithmeticError("bookkeeping broke")

    monkeypatch.setattr(cycles, "verify_collide0", broken)
    code, out, err = run_cli(capsys, "verify", "collide0", "--max-n", "3")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "ArithmeticError: bookkeeping broke" in err


def test_run_task_times_each_verdict_and_a_failure_exits_1(capsys, monkeypatch):
    rep = run_task(("decrec", (4, 2)))
    assert rep.passed and rep.seconds > 0
    assert cycles.verify_decrec(4, 2).seconds == 0.0  # only the task runner reads the clock
    # one extra term in Z(4, 2, 0) breaks decrec(4, 2) alone
    extra = push_tree(*build_tree([[H0, 1, 2, 3, 4]], [], leg_exp={H0: 1}))
    real = cycles.z_cycle
    monkeypatch.setattr(cycles, "z_cycle", lambda *a: real(*a) + extra if a == (4, 2, 0) else real(*a))
    failing = cycles.verify_decrec(4, 2)
    assert not failing.passed
    code, out, err = run_cli(capsys, "verify", "decrec", "--max-n", "4")
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("pass ")] == [failing.line()]
    assert f"witness: decrec(4, 2): {failing.witness!r}" in err


def test_time_budget_fails_the_run_but_keeps_stdout(capsys):
    _, plain, _ = run_cli(capsys, "verify", "closed-forms", "--max-n", "3")
    code, out, err = run_cli(capsys, "verify", "closed-forms", "--max-n", "3", "--time-budget", "1e-9")
    assert code == 1
    assert "time budget exceeded" in err
    assert out == plain


def test_empty_or_oversized_verify_grid_is_a_usage_error(capsys, monkeypatch):
    for argv, named in (
        (["vanishing", "--max-n", "2"], ["vanishing", "--max-n 2"]),
        (["collide-rt", "--max-sum", "1"], ["collide-rt", "--max-sum 1"]),
        (["vanishing", "--max-n", "8"], ["--max-n 8", "7"]),
        (["collide-rt", "--max-sum", "7"], ["--max-sum 7", "6"]),
        # frec builds F(n), which MAX_SUM bounds as it bounds fclass --n
        (["frec", "--max-n", "7"], ["--max-n 7 is above 6, the largest size measured"]),
    ):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and all(word in err for word in named)
    # at the bound the work starts
    def started(task):
        raise AssertionError("the work started")

    monkeypatch.setattr(cli, "run_task", started)
    code, _, err = run_cli(capsys, "verify", "frec", "--max-n", "6")
    assert code == 3 and "the work started" in err


def test_verify_refuses_every_size_its_suite_does_not_read(capsys, monkeypatch):
    def started(task):
        raise AssertionError("the work started")

    monkeypatch.setattr(cli, "run_task", started)
    refused = set()
    for suite in cli.SUITES:
        for option in ("--max-n", "--max-sum"):
            code, out, err = run_cli(capsys, "verify", suite, option, "3")
            if code == 2:
                assert out == "" and f"error: {option} is not read by the {suite} suite" in err
                refused.add((suite, option))
            else:
                assert code == 3 and "the work started" in err
    assert refused == {(suite, "--max-sum") for suite in cli.SUITES if suite != "collide-rt"} | {
        (suite, "--max-n") for suite in ("collide-rt", "logan", "heavy", "expansions")
    }
    # an empty grid names only the sizes its suite reads
    for argv, unread in ((("vanishing", "--max-n", "2"), "--max-sum"), (("collide-rt", "--max-sum", "1"), "--max-n")):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "") and "has no tasks" in err and unread not in err


def test_oversized_subcommands_are_usage_errors_before_any_work(capsys, monkeypatch):
    def started(*args):
        raise AssertionError("the work started")

    for module, name in (
        (trees, "enumerate_trees0"),
        (trees, "enumerate_rt_graphs"),
        (cycles, "z_cycle"),
        (cycles, "z_truncated"),
        (rtclasses, "f_class"),
        (rtclasses, "f_class_m"),
        (rtclasses, "emit_relation"),
    ):
        monkeypatch.setattr(module, name, started)
    for argv, named in (
        (["trees", "--n", "8"], ["--n 8", "7"]),
        (["trees", "--n", "8", "--rt"], ["--n 8", "7"]),
        (["zcycle", "--n", "8", "--i", "4", "--j", "1"], ["--n 8", "7"]),
        (["zcycle", "--n", "8", "--i", "4", "--j", "1", "--truncated"], ["--n 8", "7"]),
        (["fclass", "--n", "7"], ["--n 7", "6"]),
        (["fclass", "--multiplicities", "3,2,2"], ["--multiplicities sum 7", "6"]),
        (["relations", "--g", "2", "--n", "7"], ["--n 7", "6"]),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and all(word in err for word in named)
    # at the bounds the work starts, and meets the stand-in
    for argv in (
        ["trees", "--n", "7"],
        ["zcycle", "--n", "7", "--i", "4", "--j", "1"],
        ["fclass", "--n", "6"],
        ["fclass", "--multiplicities", "2,2,2"],
        ["relations", "--g", "2", "--n", "6"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and "the work started" in err


def test_coeff_refuses_exponents_on_slots_the_graph_lacks(tmp_path, capsys):
    # a leg exponent on a label the graph lacks, in the plain and the rooted
    # context, and a half-edge key whose edge is out of range
    path = tmp_path / "graph.json"
    for blob, argv in (
        ({**CHAIN_42, "exp_leg": {"99": 1}}, ()),
        ({**ROOTED, "exp_leg": {"99": 1}}, ("--i", "1")),
        ({**CHAIN_42, "exp_half": {"-1+": 1}}, ()),
        ({**ROOTED, "exp_half": {"1-": 1}}, ("--i", "1")),
    ):
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "coeff", "--graph", str(path), *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: no ") and "Traceback" not in err


def test_coda_on_a_rational_tails_graph_is_a_usage_error(tmp_path, capsys):
    # one genus vertex with legs 1, 2, 3 has no h0, so it is no coda
    path = tmp_path / "genus.json"
    path.write_text(json.dumps({"vertices": [{"genus": "g", "legs": [1, 2, 3]}], "edges": [], "exp_half": {}, "exp_leg": {}}))
    code, out, err = run_cli(capsys, "coeff", "--graph", str(path), "--i", "2", "--coda", "1,2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
