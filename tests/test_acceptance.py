"""Acceptance criteria: each test prints one pass/fail line with its timing.

All arithmetic is exact; every equality below is checked with zero tolerance.
The stated wall-clock budgets are asserted as hard bounds.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction


from rtails import cli
from rtails.trees import (
    H0,
    build_tree,
    enumerate_decorations,
    enumerate_stable_trees,
    enumerate_trees0,
    enumerate_rt_graphs,
    make_decoration,
)
from rtails.weights import coeff_c, coeff_c_im
from rtails.strata0 import (
    Class0,
    collide,
    collide_via_product,
    is_zero,
    pullback_forget,
    push_tree,
    pushforward_forget,
    zero,
)
from rtails.cycles import closed_form_z_top, z_cycle
from rtails.rtclasses import (
    KPoly,
    PushedClass,
    RtClass,
    _fact_tuple,
    _leg_slot,
    _tail_slot,
    f_class,
    f_class_m,
    f_heavy_expanded,
    heavy_point_expansion,
    pushforward_phi,
    pushforward_point,
)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        took = time.perf_counter() - self.t0
        status = "pass" if exc_type is None else "FAIL"
        print(f"[acceptance] {status} {self.name} ({took:.2f}s, budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert took < self.seconds, f"{self.name} exceeded its {self.seconds}s budget ({took:.1f}s)"
        return False


def _run_grid(suite: str, max_n=None, max_sum=None) -> None:
    """Every task of ``rtails verify <suite>`` at these sizes passes (`cli._grid`, `cli.run_task`)."""
    for task in cli._grid(suite, max_n, max_sum):
        rep = cli.run_task(task)
        assert rep.passed, rep.line()


def test_criterion_01_coefficient_anchors():
    with _Budget("1 coefficient anchors 7/6/42", 1):
        g1, d1 = build_tree([[], [1, 2, 3]], [(0, 1)], rt_root=0, half_exp={(0, 1): 1})
        assert coeff_c(g1, d1) == 7
        g2, d2 = build_tree([[], [1, 2, 3]], [(0, 1)], rt_root=0, half_exp={(0, 1): 1, (0, 0): 1})
        assert coeff_c(g2, d2) == 6
        g3, d3 = build_tree([[], [4], [1, 2, 3]], [(0, 1), (1, 2)], rt_root=0, half_exp={(1, 1): 1})
        assert coeff_c(g3, d3) == 42


def _one_edge_terms(n, sizes_to_coeff, head_psi=0, h0_psi=0):
    out = zero(frozenset(range(1, n + 1)) | {H0})
    for r, coeff in sizes_to_coeff.items():
        for M in itertools.combinations(range(1, n + 1), r):
            rest = [H0] + [l for l in range(1, n + 1) if l not in M]
            half = {(0, 1): head_psi} if head_psi else {}
            leg = {H0: h0_psi} if h0_psi else {}
            t, d = build_tree([rest, list(M)], [(0, 1)], half_exp=half, leg_exp=leg)
            out._add(t, d, Fraction(coeff))
    return out


def test_criterion_02_worked_z_cycles():
    with _Budget("2 worked Z-cycles of the degree displays", 10):
        amb3 = frozenset([1, 2, 3, H0])
        amb4 = frozenset([1, 2, 3, 4, H0])

        z321 = _one_edge_terms(3, {2: 2})
        top, dtop = build_tree([[1, 2, 3, H0]], [], leg_exp={H0: 1})
        z321._add(top, dtop, Fraction(-6))
        assert z_cycle(3, 2, 1) == z321 and is_zero(z_cycle(3, 2, 1))

        z431 = _one_edge_terms(4, {2: 3, 3: 9})
        top, dtop = build_tree([[1, 2, 3, 4, H0]], [], leg_exp={H0: 1})
        z431._add(top, dtop, Fraction(-18))
        assert z_cycle(4, 3, 1) == z431 and is_zero(z_cycle(4, 3, 1))

        def deep(coeffs):
            c_psi2, c_head, c_h0, c_chain, c_fork = coeffs
            out = _one_edge_terms(4, {3: c_head}, head_psi=1) + _one_edge_terms(4, {2: c_h0}, h0_psi=1)
            top, dtop = build_tree([[1, 2, 3, 4, H0]], [], leg_exp={H0: 2})
            out._add(top, dtop, Fraction(c_psi2))
            for a in range(1, 5):
                for b in [x for x in range(1, 5) if x != a]:
                    M = [x for x in range(1, 5) if x not in (a, b)]
                    t, d = build_tree([[H0, a], [b], M], [(0, 1), (1, 2)])
                    out._add(t, d, Fraction(c_chain))
            for M in itertools.combinations(range(1, 5), 2):
                Mc = [x for x in range(1, 5) if x not in M]
                t, d = build_tree([[H0], list(M), Mc], [(0, 1), (0, 2)])
                out._add(t, d, Fraction(c_fork, 2))
            return out

        assert z_cycle(4, 2, 1) == deep((-14, 14, 6, -6, -2)) and is_zero(z_cycle(4, 2, 1))
        assert z_cycle(4, 3, 2) == deep((-75, 21, 18, -9, -3)) and is_zero(z_cycle(4, 3, 2))


def test_criterion_03a_vanishing_to_n5():
    with _Budget("3a vanishing theorem n=3..5", 120):
        _run_grid("vanishing", max_n=5)


def test_criterion_03b_vanishing_n6():
    with _Budget("3b vanishing theorem n=6", 1800):
        for n in (6,):
            for i in range(1, n):
                for j in range(1, i):
                    assert is_zero(z_cycle(n, i, j)), (n, i, j)
                    from rtails.cycles import z_truncated

                    assert is_zero(z_truncated(n, i, j)), ("t", n, i, j)


def test_criterion_04_closed_form():
    with _Budget("4 closed form of the top-index divisor cycle", 120):
        for n in (3, 4, 5, 6):
            assert z_cycle(n, n - 1, 1) == closed_form_z_top(n)
            assert is_zero(z_cycle(n, n - 1, 1))
            # the divisor identity behind the vanishing, certified by pairing
            amb = frozenset(range(1, n + 1)) | {H0}
            top, dtop = build_tree([sorted(amb, key=str)], [], leg_exp={H0: 1})
            ident = Class0(amb, {(top, dtop): Fraction(n * (n - 1), 2)})
            for r in range(2, n):
                for M in itertools.combinations(range(1, n + 1), r):
                    t, d = build_tree([sorted(amb - set(M), key=str), sorted(M)], [(0, 1)])
                    ident._add(t, d, -Fraction(r * (r - 1), 2))
            assert is_zero(ident)


def test_criterion_05_recursions():
    with _Budget("5 recursion, dect, decrec, collide0, ei suites n<=5", 600):
        for suite in ("recursion", "decrec", "collide0", "ei"):
            _run_grid(suite, max_n=5)


def test_criterion_06_f_class_expansions():
    with _Budget("6 graph-formula expansions n=1,2,3", 5):
        x1 = f_class(1)
        t, d = build_tree([[1]], [], rt_root=0)
        assert x1 == RtClass({1}, {(t, d, _fact_tuple({_leg_slot(1): 1})): Fraction(1)})

        x2 = f_class(2)
        expected2 = RtClass({1, 2})
        t, d = build_tree([[1, 2]], [], rt_root=0)
        expected2._add(t, d, {_leg_slot(1): 1, _leg_slot(2): 1}, 1)
        tc, dc = build_tree([[], [1, 2]], [(0, 1)], rt_root=0)
        expected2._add(tc, dc, {_tail_slot({1, 2}): 1}, -1)
        assert x2 == expected2

        x3 = f_class(3)
        shape_coeffs = {}
        for (graph, dec, fact), coeff in x3.terms.items():
            shape = (
                graph.num_edges(),
                tuple(sorted(len(ls) for ls in graph.legs)),
                tuple(sorted(e for (_, s), e in dec.half if s == 1)),
                tuple(sorted(e for (_, s), e in dec.half if s == 0)),
            )
            shape_coeffs.setdefault(shape, set()).add(coeff)
        observed = sorted((c for cs in shape_coeffs.values() for c in cs))
        assert observed == sorted([1, -1, -3, -7, -2, -6, 3, 2])
        assert len(x3.terms) == 14  # the 8 displayed terms over labelings


def test_criterion_07_heavy_point():
    with _Budget("7 heavy-point formulas", 10):
        for a in range(1, 7):
            # termwise e_b-expansion in the factored basis
            x = f_class_m((a,))
            expected = RtClass({1})
            eb = [1] + [0] * (a - 1)
            for v in range(1, a):
                for b in range(len(eb) - 1, 0, -1):
                    eb[b] += v * eb[b - 1]
            t, _ = build_tree([[1]], [], rt_root=0)
            for b in range(a):
                d = make_decoration(leg_exp={1: b})
                expected._add(t, d, {_leg_slot(1): a - b}, eb[b])
            assert x == expected
            # the factored product identity after ω = ψ
            assert f_heavy_expanded(a) == heavy_point_expansion(a)
            # Corollary: the κ-expansion of the pushforward
            out = pushforward_point(x, g=None)
            exp_push = PushedClass()
            poly = {0: KPoly.const(1)}
            for off in range(a):
                nxt: dict = {}
                for deg, c in poly.items():
                    nxt[deg + 1] = nxt.get(deg + 1, KPoly()) + c * KPoly({1: 1, 0: off})
                    nxt[deg] = nxt.get(deg, KPoly()) + c
                poly = nxt
            for b in range(1, a + 1):
                exp_push._add(("kappa", b - 1, "eta", a - b), poly[b] * KPoly.const((-1) ** (a - b)))
            assert out == exp_push
        # eq for a=2 with κ0 = 2g-2 left symbolic, and the double-zero check
        out2 = pushforward_point(f_class_m((2,)), g=None)
        assert out2.terms[("kappa", 1, "eta", 0)] == KPoly({2: 1, 1: 1})
        assert out2.terms[("kappa", 0, "eta", 1)] == KPoly({1: -2, 0: -1})
        t, d = build_tree([[1]], [], rt_root=0)
        assert pushforward_phi(f_class_m((2,)), k=2, g=2) == PushedClass(
            {(t, d, (), ()): KPoly.const(1)}
        )


def test_criterion_08_logan_divisor():
    with _Budget("8 Logan divisor pushforward g=2,3", 60):
        for g in (2, 3):
            out = pushforward_phi(f_class(g), k=1, g=g)
            expected = PushedClass()
            t, d = build_tree([list(range(1, g + 1))], [], rt_root=0)
            for i in range(1, g + 1):
                expected._add((t, d, ((_leg_slot(i), 1),), ()), KPoly.const(1))
            expected._add((t, d, (), (1,)), KPoly.const(-1))
            for r in range(2, g + 1):
                for M in itertools.combinations(range(1, g + 1), r):
                    root = [l for l in range(1, g + 1) if l not in M]
                    tc, dc = build_tree([root, list(M)], [(0, 1)], rt_root=0)
                    expected._add((tc, dc, (), ()), KPoly.const(-r * (r - 1) // 2))
            assert out == expected


def test_criterion_09_f_recursion():
    with _Budget("9 F-recursion n=2,3,4", 600):
        _run_grid("frec", max_n=4)


def test_criterion_10_colliding_rt():
    with _Budget("10 colliding on rational tails, all Σm <= 5", 600):
        _run_grid("collide-rt", max_sum=5)


def test_criterion_11_property_suites():
    with _Budget("11 property suites", 300):
        # DP vs brute, exhaustive through n=5 and deg ψ <= 3
        for n in (3, 4, 5):
            for t in enumerate_trees0(n):
                for dec in enumerate_decorations(t, 3, leg_bounds={1: 3}):
                    for i in range(1, n):
                        for m in (1, 2, 3):
                            assert coeff_c_im(t, dec, i, m) == coeff_c_im(t, dec, i, m, method="brute")

        # dilaton-equation pushforward identity up to 6 legs
        rng = random.Random(17)
        for n in (4, 5, 6):
            labels = tuple(range(1, n + 1))
            pool = enumerate_stable_trees(labels)
            for _ in range(3):
                t = rng.choice(pool)
                decs = enumerate_decorations(t, 2, leg_bounds={l: 3 for l in labels})
                d = rng.choice(decs)
                x = push_tree(t, d)
                lifted = pullback_forget(x, n + 1).mul_psi(n + 1)
                assert is_zero(pushforward_forget(lifted, n + 1) - x.scale(n - 2))

        # collide: direct rule vs product route; exhaustive on 5 legs,
        # sampled on 6
        for t in enumerate_stable_trees((1, 2, 3, 4, 5)):
            for d in enumerate_decorations(t, 2, leg_bounds={l: 3 for l in range(1, 6)}):
                x = push_tree(t, d)
                for i, j in ((1, 2), (2, 4), (3, 5)):
                    assert collide(x, i, j) == collide_via_product(x, i, j)
        rng = random.Random(23)
        labels = list(range(1, 7))
        pool = enumerate_stable_trees(tuple(labels))
        for _ in range(6):
            t = rng.choice(pool)
            decs = enumerate_decorations(t, 2, leg_bounds={l: 3 for l in labels})
            d = rng.choice(decs)
            x = push_tree(t, d)
            i, j = rng.sample(labels, 2)
            assert collide(x, i, j) == collide_via_product(x, i, j)

        # canonical-form stability under relabeling
        rng = random.Random(31)
        for t in enumerate_trees0(5)[::11] + enumerate_rt_graphs(4)[::7]:
            nv = t.num_vertices()
            perm = list(range(nv))
            rng.shuffle(perm)
            legs = [None] * nv
            for v in range(nv):
                ls = list(t.legs[v])
                rng.shuffle(ls)
                legs[perm[v]] = ls
            edges = [(perm[a], perm[b]) for a, b in t.edges]
            rng.shuffle(edges)
            rebuilt, _ = build_tree(legs, edges, rt_root=perm[0] if t.rt else None)
            assert rebuilt == t
