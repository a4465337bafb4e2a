"""Deterministic command-line front end.

Exit codes: 0 success / all checks pass, 1 a verification failed (witness on
stderr) or ran over its time budget, 2 usage error (bad arguments, an option
the command would not read, such as zcycle --m under --truncated, fclass --n
with --multiplicities, a coeff option that the graph's coefficient does not
read or a verify --max-n or --max-sum that the suite does not read, coeff leg
weights below 1 or on no leg, unreadable or malformed input, a verify grid
with no tasks, relations --g below 1, a verify --jobs above MAX_JOBS, a size
above the largest measured: an --n or --max-n above MAX_N, a pair class or
stratum with more than MAX_N + 1 legs, or an fclass or relations --n, a
verify frec --max-n, an fclass --multiplicities sum or a --max-sum above
MAX_SUM), 3 internal error
(traceback on stderr).  All numeric output is exact ("p/q"); verification
timings go to stderr so stdout is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import itertools
import json
import sys
import time
import traceback

from . import cycles, rtclasses, serialize, strata0, trees, weights
from .trees import InvalidArgument


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _int_list(raw: str) -> tuple:
    """argparse type: comma-separated integers."""
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, not {raw!r}") from None


def _k_value(raw: str):
    """argparse type of ``fclass --k``: ``sym``, ``k`` or an integer."""
    if raw in ("sym", "k"):
        return raw
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected sym, k or an integer, not {raw!r}") from None


def _positive(kind):
    """argparse type: a positive ``kind`` (int or float)."""

    def parse(raw: str):
        value = kind(raw)  # argparse reports a ValueError as "invalid <name> value"
        if not value > 0:
            raise argparse.ArgumentTypeError(f"expected a positive {kind.__name__}, not {raw!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


# the largest sizes measured, one process each on 2 cores with Python 3.11:
# the n = 7 vanishing grid, `trees --n 7 --rt` (10 s, 158 MiB), collide-rt at
# Σm = 6 (about 25 s and 116 MiB) and `fclass --n 6` (6 s, 101 MiB)
MAX_N = 7
MAX_SUM = 6

# a suite whose sizes MAX_SUM bounds: frec builds F(n) on n legs, as
# `fclass --n` does, and `verify frec --max-n 7` peaked at 2 376 MiB
SUITE_BOUND = {"frec": MAX_SUM}

# the most `verify --jobs` workers; a pool starts them all, each with cold caches
MAX_JOBS = 8


def _at_most(option: str, value: int, bound: int) -> None:
    """Refuse a size above the largest measured; every subcommand checks before it starts work."""
    if value > bound:
        raise InvalidArgument(f"{option} {value} is above {bound}, the largest size measured")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_trees(args) -> int:
    _at_most("--n", args.n, MAX_N)
    if args.rt:
        family = trees.enumerate_rt_graphs(args.n)
    else:
        family = trees.enumerate_trees0(args.n)
    if args.format == "json":
        _emit(serialize.dumps({"count": len(family), "trees": [serialize.tree_to_json(t) for t in family]}))
    else:
        _emit(str(len(family)))
        for t in family:
            _emit(serialize.tree_to_latex(t))
    return 0


# `coeff --brute` lists every weighting in memory; refuse above this many
BRUTE_MAX_WEIGHTINGS = 100_000


def cmd_coeff(args) -> int:
    tree, dec = serialize.tree_from_json(_read_json(args.graph))
    mults = None if args.multiplicities is None else dict(enumerate(args.multiplicities, 1))
    params = {"i": args.i, "m": args.m, "I": args.coda, "mults": mults}
    report = weights.coefficient(tree, dec, **params)
    if args.brute:
        if report.weighting_count > BRUTE_MAX_WEIGHTINGS:
            raise InvalidArgument(f"--brute would list {report.weighting_count} weightings (limit {BRUTE_MAX_WEIGHTINGS})")
        report = weights.coefficient(tree, dec, method="brute", **params)
    _emit(str(report.coefficient))
    _emit(f"weightings: {report.weighting_count}")
    return 0


def cmd_zcycle(args) -> int:
    _at_most("--n", args.n, MAX_N)
    if args.truncated:
        if args.m is not None:
            raise InvalidArgument("--m is not read by the truncated cycle")
        x = cycles.z_truncated(args.n, args.i, args.j)
    else:
        x = cycles.z_cycle(args.n, args.i, args.j, 1 if args.m is None else args.m)
    if args.format == "json":
        _emit(serialize.dumps(serialize.class0_to_json(x)))
    else:
        _emit(serialize.class_to_latex(x))
    return 0


def cmd_fclass(args) -> int:
    if args.multiplicities:
        if args.n is not None:
            raise InvalidArgument("--n is not read with --multiplicities, which sets the legs")
        _at_most("--multiplicities sum", sum(args.multiplicities), MAX_SUM)
        x = rtclasses.f_class_m(args.multiplicities)
    elif args.n is not None:
        _at_most("--n", args.n, MAX_SUM)
        x = rtclasses.f_class(args.n)
    else:
        raise InvalidArgument("fclass needs --n or --multiplicities")
    ksym = "k" if args.k in ("sym", "k") else str(args.k)
    if args.format == "json":
        _emit(serialize.dumps(serialize.rtclass_to_json(x, k=ksym)))
    else:
        _emit(serialize.class_to_latex(x, k=ksym))
    return 0


def cmd_pair(args) -> int:
    x = serialize.class0_from_json(_read_json(args.klass))
    stratum, dec = serialize.tree_from_json(_read_json(args.stratum))
    # the n = MAX_N suites pair on MAX_N + 1 legs
    _at_most("the leg count", max(len(x.ambient), len(stratum.all_legs())), MAX_N + 1)
    if dec.degree():
        raise InvalidArgument("the test stratum must be undecorated")
    _emit(str(strata0.pair(x, stratum)))
    return 0


def cmd_relations(args) -> int:
    _at_most("--n", args.n, MAX_SUM)
    x = rtclasses.emit_relation(args.g, args.n)
    if args.format == "json":
        blob = serialize.rtclass_to_json(x, k="1")
        blob["relation"] = f"F^1_(g={args.g},n={args.n}) = 0 over rational tails"
        _emit(serialize.dumps(blob))
    else:
        _emit("0 = " + serialize.class_to_latex(x, k="1"))
    return 0


# ---------------------------------------------------------------------------
# verification suites (parallelizable grids)


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


# suite -> its tasks, in the order they run and print; each builder's
# parameters are the sizes the suite reads (`max_n`, `max_sum`, or none)
SUITES = {
    "vanishing": lambda max_n: [
        (name, (n, i, j))
        for n in range(3, max_n + 1)
        for i in range(1, n)
        for j in range(1, i)
        for name in ("vanishing_z", "vanishing_zt")
    ],
    "recursion": lambda max_n: [
        (name, (n, i, j))
        for n in range(3, max_n + 1)
        for i in range(1, n)
        for j in range(i - n + 1, i)
        for name in ("recursion_all", "dect")
    ],
    "decrec": lambda max_n: [("decrec", (n, i)) for n in range(3, max_n + 1) for i in range(1, n)],
    "collide0": lambda max_n: [("collide0", (n, m)) for n in range(3, max_n + 1) for m in range(1, n)],
    "closed-forms": lambda max_n: [("closed_forms", (n,)) for n in range(3, max_n + 1)],
    "ei": lambda max_n: [
        ("ei_pushforward", (n, I, i))
        for n in range(3, max_n + 1)
        for r in range(1, n - 1)
        for I in itertools.combinations(range(1, n), r)
        for i in range(1, n)
    ],
    "frec": lambda max_n: [("frec", (n,)) for n in range(2, max_n + 1)],
    "collide-rt": lambda max_sum: [
        ("colliding_rt", (mults,)) for total in range(2, max_sum + 1) for mults in _compositions(total)
    ],
    "logan": lambda: [("logan", (g,)) for g in (2, 3)],
    "heavy": lambda: [("heavy", (a,)) for a in range(1, 7)] + [("heavy_pushforwards", ())],
    "expansions": lambda: [("expansions", ())] + [("overdegree_drop", (n,)) for n in range(1, 5)],
}

# task name -> verifier; each looks its function up at call time, so a
# rebinding of the module attribute (a tracer, a test double) takes effect
TASKS = {
    "vanishing_z": lambda n, i, j: cycles.verify_vanishing_cycle(n, i, j),
    "vanishing_zt": lambda n, i, j: cycles.verify_vanishing_cycle(n, i, j, truncated=True),
    "recursion_all": lambda *p: cycles.verify_recursion_all(*p),
    "dect": lambda *p: cycles.verify_dect(*p),
    "decrec": lambda *p: cycles.verify_decrec(*p),
    "collide0": lambda *p: cycles.verify_collide0(*p),
    "closed_forms": lambda *p: cycles.verify_closed_forms(*p),
    "ei_pushforward": lambda *p: cycles.verify_ei_pushforward(*p),
    "frec": lambda n: rtclasses.verify_frec(n),
    "colliding_rt": lambda mults: rtclasses.verify_colliding_rt(mults),
    "overdegree_drop": lambda n: rtclasses.verify_overdegree_drop(n),
    "logan": lambda g: rtclasses.verify_logan(g),
    "heavy": lambda a: rtclasses.verify_heavy(a),
    "heavy_pushforwards": lambda: rtclasses.verify_heavy_pushforwards(),
    "expansions": lambda: rtclasses.verify_expansions(),
}


# a size that a suite reads and that the command line leaves unset
DEFAULT_SIZE = 4


def _grid(suite: str, max_n: int, max_sum: int) -> list:
    """The tasks of ``suite``; a size that it does not read is passed over."""
    if suite not in SUITES:
        raise InvalidArgument(f"unknown suite {suite!r}")
    sizes = {"max_n": max_n, "max_sum": max_sum}
    return SUITES[suite](**{name: sizes[name] for name in inspect.signature(SUITES[suite]).parameters})


def run_task(task) -> cycles.VerificationReport:
    """Run one task; its report's ``seconds`` is the time the verifier took."""
    name, params = task
    if name not in TASKS:
        raise InvalidArgument(f"unknown task {name!r}")
    t0 = time.perf_counter()
    report = TASKS[name](*params)
    # each verifier returns a report of its own, so it is timed in place, not copied
    object.__setattr__(report, "seconds", time.perf_counter() - t0)
    return report


def cmd_verify(args) -> int:
    t_start = time.perf_counter()
    if args.jobs > MAX_JOBS:
        raise InvalidArgument(f"--jobs {args.jobs} is above {MAX_JOBS}")
    read = inspect.signature(SUITES[args.suite]).parameters
    sizes, shown = {}, []
    for name, option, bound in (("max_n", "--max-n", MAX_N), ("max_sum", "--max-sum", MAX_SUM)):
        value = getattr(args, name)
        if name in read:
            sizes[name] = DEFAULT_SIZE if value is None else value
            _at_most(option, sizes[name], SUITE_BOUND.get(args.suite, bound))
            shown.append(f"{option} {sizes[name]}")
        elif value is not None:
            raise InvalidArgument(f"{option} is not read by the {args.suite} suite")
    tasks = _grid(args.suite, sizes.get("max_n"), sizes.get("max_sum"))
    if not tasks:
        raise InvalidArgument(f"suite {args.suite} has no tasks at {' '.join(shown)}")
    reports = []
    workers = min(args.jobs, len(tasks))  # a pool starts all of its workers at once
    if workers > 1:
        # imported here: multiprocessing would add its import time to every run
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        for rep in (pool.map if pool else map)(run_task, tasks):
            reports.append(rep)
            if args.fail_fast and not rep.passed:
                if pool:
                    pool.shutdown(cancel_futures=True)
                break
    failed = [r for r in reports if not r.passed]
    for rep in reports:
        _emit(rep.line())
        print(f"  time: {rep.seconds:.3f}s", file=sys.stderr)
    if failed:
        for rep in failed:
            print(f"witness: {rep.identity}{rep.params}: {rep.witness!r}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t_start
    if args.time_budget is not None and elapsed > args.time_budget:
        print(f"time budget exceeded: {elapsed:.3f}s > {args.time_budget:g}s", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rtails", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("trees", help="enumerate stable trees")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--rt", action="store_true", help="rational-tails graphs instead of rooted rational trees")
    q.add_argument("--format", choices=("json", "text"), default="text")
    q.set_defaults(fn=cmd_trees)

    q = sub.add_parser("coeff", help="weighting coefficient of a decorated graph")
    q.add_argument("--graph", required=True, help="JSON file or - for stdin")
    q.add_argument("--i", type=int)
    q.add_argument("--m", type=int, help="multiplicity of leg 1 of a rooted tree, without --coda (default 1)")
    q.add_argument("--coda", type=_int_list, help="comma-separated I for the coda coefficient of a rooted tree")
    q.add_argument("--multiplicities", type=_int_list, help="weights of legs 1, 2, ... of a rational-tails graph")
    q.add_argument("--brute", action="store_true", help="use the brute-force oracle")
    q.set_defaults(fn=cmd_coeff)

    q = sub.add_parser("zcycle", help="a graded piece of the rooted D-polynomial")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--m", type=int, help="multiplicity of leg 1 (default 1); not read under --truncated")
    q.add_argument("--truncated", action="store_true")
    q.add_argument("--format", choices=("json", "latex"), default="latex")
    q.set_defaults(fn=cmd_zcycle)

    q = sub.add_parser("fclass", help="the rational-tails graph-formula class")
    q.add_argument("--k", type=_k_value, default="sym")
    q.add_argument("--n", type=int)
    q.add_argument("--multiplicities", type=_int_list)
    q.add_argument("--format", choices=("json", "latex"), default="latex")
    q.set_defaults(fn=cmd_fclass)

    q = sub.add_parser("pair", help="pair a class against an undecorated stratum")
    q.add_argument("--klass", "--class", dest="klass", required=True)
    q.add_argument("--stratum", required=True)
    q.set_defaults(fn=cmd_pair)

    q = sub.add_parser("verify", help="run a verification suite")
    q.add_argument("suite", choices=tuple(SUITES))
    q.add_argument("--max-n", type=int, help=f"largest n (default {DEFAULT_SIZE}); a suite that reads no n refuses it")
    q.add_argument("--max-sum", type=int, help=f"bound on Σm (default {DEFAULT_SIZE}); only collide-rt reads it")
    q.add_argument("--fail-fast", action="store_true")
    q.add_argument("--jobs", type=_positive(int), default=1, help=f"worker processes, at most {MAX_JOBS}")
    q.add_argument(
        "--time-budget",
        type=_positive(float),
        help="fail (exit 1) when the suite exceeds this many seconds; results still print",
    )
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("relations", help="emit a vanishing-regime class as a relation")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--format", choices=("json", "latex"), default="latex")
    q.set_defaults(fn=cmd_relations)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InvalidArgument, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
