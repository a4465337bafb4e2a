"""Rational-tails classes: displays, colliding, recursion, pushforwards."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from rtails import rtclasses
from rtails.strata0 import pair_term, push_tree, strata_family
from rtails.trees import H0, InvalidArgument, build_tree
from rtails.rtclasses import (
    KPoly,
    PushedClass,
    RtClass,
    collide_rt,
    e_class,
    emit_relation,
    f_class,
    f_class_m,
    f_heavy_expanded,
    heavy_point_expansion,
    multiply_divisor,
    over_degree_terms,
    pullback_forget_rt,
    pushforward_phi,
    pushforward_point,
    rt_term_degree,
    verify_colliding_rt,
    verify_frec,
    verify_overdegree_drop,
    _fact_tuple,
    _leg_slot,
    _tail_slot,
)


def _root_only(n, fact, legexp=None):
    t, d = build_tree([list(range(1, n + 1))], [], rt_root=0, leg_exp=legexp or {})
    return t, d, _fact_tuple(fact)


def _coda_graph(n, coda_legs, half=None, legexp=None):
    root = [l for l in range(1, n + 1) if l not in coda_legs]
    t, d = build_tree([root, sorted(coda_legs)], [(0, 1)], rt_root=0, half_exp=half or {}, leg_exp=legexp or {})
    return t, d


def test_f_class_n1():
    x = f_class("k", "g", 1)
    t, d, f = _root_only(1, {_leg_slot(1): 1})
    assert x == RtClass({1}, {(t, d, f): Fraction(1)})


def test_f_class_n2():
    x = f_class("k", "g", 2)
    expected = RtClass({1, 2})
    t, d, f = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1})
    expected._add(t, d, f, 1)
    tc, dc = _coda_graph(2, {1, 2})
    expected._add(tc, dc, {_tail_slot({1, 2}): 1}, -1)
    assert x == expected


def test_f_class_n3_display():
    """The eight-term expansion with coefficients 1,-1,-3,-7,-2,-6,+3,+2."""
    x = f_class("k", "g", 3)
    expected = RtClass({1, 2, 3})
    # smooth term
    t, d, f = _root_only(3, {_leg_slot(l): 1 for l in (1, 2, 3)})
    expected._add(t, d, f, 1)
    # two-leg codas, over labelings
    for pair in itertools.combinations((1, 2, 3), 2):
        other = ({1, 2, 3} - set(pair)).pop()
        tc, dc = _coda_graph(3, set(pair))
        expected._add(tc, dc, {_tail_slot(pair): 1, _leg_slot(other): 1}, -1)
    # three-leg coda, the four decorations
    tc, dc = _coda_graph(3, {1, 2, 3})
    expected._add(tc, dc, {_tail_slot((1, 2, 3)): 2}, -3)
    tc, dc = _coda_graph(3, {1, 2, 3}, half={(0, 1): 1})
    expected._add(tc, dc, {_tail_slot((1, 2, 3)): 1}, -7)
    tc, dc = _coda_graph(3, {1, 2, 3}, half={(0, 0): 1})
    expected._add(tc, dc, {_tail_slot((1, 2, 3)): 1}, -2)
    tc, dc = _coda_graph(3, {1, 2, 3}, half={(0, 0): 1, (0, 1): 1})
    expected._add(tc, dc, {_tail_slot((1, 2, 3)): 0}, -6)
    # chains root - v(c) - w(a,b), over labelings
    for c in (1, 2, 3):
        rest = sorted({1, 2, 3} - {c})
        t, d = build_tree([[], [c], rest], [(0, 1), (1, 2)], rt_root=0)
        expected._add(t, d, {_tail_slot((1, 2, 3)): 1}, 3)
        t, d = build_tree([[], [c], rest], [(0, 1), (1, 2)], rt_root=0, half_exp={(0, 0): 1})
        expected._add(t, d, {_tail_slot((1, 2, 3)): 0}, 2)
    assert x == expected


def test_f_class_degree_invariant():
    for n in (1, 2, 3, 4):
        x = f_class("k", "g", n)
        assert all(rt_term_degree(*key) == n for key in x.terms)
    x = f_class_m("k", "g", (2, 3))
    assert all(rt_term_degree(*key) == 5 for key in x.terms)


def test_e_class_matches_f2_coda_term():
    # the n=2 coda term of the display is exactly E_{{1}}
    e = e_class("k", "g", 2, {1})
    tc, dc = _coda_graph(2, {1, 2})
    assert e == RtClass({1, 2}, {(tc, dc, _fact_tuple({_tail_slot({1, 2}): 1})): Fraction(1)})
    # consistency: F_2 = (kω1-η)(kω2-η) - E_{{1}} termwise
    expected = RtClass({1, 2})
    t, d, f = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1})
    expected._add(t, d, f, 1)
    assert f_class("k", "g", 2) == expected - e


def test_e_class_full_coda():
    # γ_* of the one-heavy-leg class: (kω-η)^2 + ψ_{t0}(kω-η) on the coda
    e = e_class("k", "g", 3, {1, 2})
    for (graph, dec, fact), coeff in e.terms.items():
        assert set(graph.legs[1]) == {1, 2, 3}
    tc, dc = _coda_graph(3, {1, 2, 3})
    assert e.terms.get((tc, dc, _fact_tuple({_tail_slot((1, 2, 3)): 2}))) == Fraction(1)
    tc2, dc2 = _coda_graph(3, {1, 2, 3}, half={(0, 0): 1})
    assert e.terms.get((tc2, dc2, _fact_tuple({_tail_slot((1, 2, 3)): 1}))) == Fraction(1)
    assert len(e.terms) == 2


def test_multiply_divisor_and_pullback():
    x = f_class("k", "g", 1)
    y = pullback_forget_rt(x, 2)
    # placements at the root and at no rational vertex (none exist), no corrections
    assert len(y.terms) == 1
    z = multiply_divisor(y, 2)
    t, d, f = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1})
    assert z == RtClass({1, 2}, {(t, d, f): Fraction(1)})


def test_pullback_counts_placements_on_coda_term():
    tc, dc = _coda_graph(2, {1, 2})
    x = RtClass({1, 2}, {(tc, dc, _fact_tuple({_tail_slot({1, 2}): 1})): Fraction(1)})
    y = pullback_forget_rt(x, 3)
    # undecorated term: a placement per vertex, no ψ corrections
    assert len(y.terms) == 2
    assert all(c == 1 for c in y.terms.values())


def test_collide_rt_cases():
    # trivalent rational vertex: contract with ψ-shift and sign
    tc, dc = _coda_graph(3, {1, 2})
    x = RtClass({1, 2, 3}, {(tc, dc, _fact_tuple({_tail_slot({1, 2}): 1, _leg_slot(3): 1})): Fraction(1)})
    y = collide_rt(x, 1, 2)
    t, d = build_tree([[1, 3]], [], rt_root=0, leg_exp={1: 1})
    assert y == RtClass({1, 3}, {(t, d, _fact_tuple({_leg_slot(1): 1, _leg_slot(3): 1})): Fraction(-1)})
    # root legs merge and their factored exponents add
    t2, d2, f2 = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1})
    y2 = collide_rt(RtClass({1, 2}, {(t2, d2, f2): Fraction(1)}), 1, 2)
    t1, d1 = build_tree([[1]], [], rt_root=0)
    assert y2 == RtClass({1}, {(t1, d1, _fact_tuple({_leg_slot(1): 2})): Fraction(1)})
    # ψ on a colliding root leg kills the term
    t3, d3, f3 = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1}, legexp={1: 1})
    assert collide_rt(RtClass({1, 2}, {(t3, d3, f3): Fraction(1)}), 1, 2).terms == {}


def test_colliding_rt_small():
    for mults in [(2,), (2, 1), (1, 2), (1, 1, 1), (3,), (2, 2)]:
        rep = verify_colliding_rt("k", "g", mults)
        assert rep.passed, rep.line()
        assert rep.witness == "termwise"


def test_frec_small():
    assert verify_frec("k", "g", 2).passed
    assert verify_frec("k", "g", 3).passed


def test_frec_n5_with_formal_drops():
    # at n = 5 both sides involve graph-formula classes whose negative-exponent
    # profiles were verified to vanish and dropped; the recursion still closes
    assert verify_frec("k", "g", 5).passed


def test_overdegree_drop_small():
    for n in (1, 2, 3):
        assert not over_degree_terms(n).terms
    assert verify_overdegree_drop(4).passed


def test_heavy_point_identities():
    for a in range(1, 7):
        assert f_heavy_expanded(a) == heavy_point_expansion(a)
    # the factored-form coefficients are the elementary symmetric values
    x = f_class_m("k", "g", (3,))
    t, d, f = _root_only(1, {_leg_slot(1): 3})
    assert x.terms[(t, d, f)] == 1
    t, d, f = _root_only(1, {_leg_slot(1): 2}, legexp={1: 1})
    assert x.terms[(t, d, f)] == 3  # e_1(1,2)
    t, d, f = _root_only(1, {_leg_slot(1): 1}, legexp={1: 2})
    assert x.terms[(t, d, f)] == 2  # e_2(1,2)


def test_pushforward_point_formulas():
    # a = 2: k(k+1) κ1 - (2k+1)(2g-2) η  (κ0 evaluated with numeric g)
    out = pushforward_point(f_class_m("k", "g", (2,)), g=None)
    expected = PushedClass()
    expected._add(("kappa", 1, "eta", 0), KPoly({2: 1, 1: 1}))
    expected._add(("kappa", 0, "eta", 1), KPoly({1: -2, 0: -1}))
    assert out == expected
    # the general e_b-formula for a <= 5
    for a in range(1, 6):
        out = pushforward_point(f_class_m("k", "g", (a,)), g=None)
        expected = PushedClass()
        # Σ_b (-1)^{a-b} e_b(k..k+a-1) κ_{b-1} η^{a-b}
        poly = {0: KPoly.const(1)}
        for off in range(a):
            newp: dict = {}
            for deg, c in poly.items():
                for dd, mult in ((1, KPoly({1: 1, 0: off})), (0, KPoly.const(1))):
                    key = deg + dd
                    newp[key] = newp.get(key, KPoly()) + (c * mult if dd else c)
            poly = newp
        # poly[b] = e_{...}: ∏(x + (k+off)) coefficients; e_b = coeff of x^{a-b}
        for b in range(1, a + 1):
            e_b = poly[b]
            coeff = e_b * KPoly.const((-1) ** (a - b))
            expected._add(("kappa", b - 1, "eta", a - b), coeff)
        assert out == expected


def test_pushforward_point_kappa0_numeric():
    out = pushforward_point(f_class_m("k", "g", (1,)), g=3)
    expected = PushedClass()
    expected._add(("eta", 0), KPoly({1: 4}))  # k κ0 = k(2g-2)
    expected._add(("kappa... never", ), KPoly()) if False else None
    assert out.terms[("eta", 0)] == KPoly({1: 4})
    assert ("eta", 1) not in out.terms  # -η picks up no ψ and dies


def test_pushforward_phi_heavy_double_zero():
    # φ_* F^2_{2,(2)} = φ_*(η^2) = 1 with rank (2k-1)(g-1) = 3
    out = pushforward_phi(f_class_m("k", "g", (2,)), k=2, g=2, rank_override=3)
    t, d = build_tree([[1]], [], rt_root=0)
    assert out == PushedClass({(t, d, (), ()): KPoly.const(1)})
    with pytest.raises(InvalidArgument):
        pushforward_phi(f_class_m("k", "g", (2,)), k=2, g=2)


def _logan_expected(g):
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
    return expected


def test_pushforward_phi_logan():
    for g in (2, 3):
        out = pushforward_phi(f_class(1, g, g), k=1, g=g)
        assert out == _logan_expected(g)


def test_emit_relation_regimes():
    x = emit_relation(2, 3)
    assert x.terms
    with pytest.raises(InvalidArgument):
        emit_relation(2, 2)


def _all_codim_is_zero(profile, bucket):
    """The tensor zero test pairing every tuple of strata of every codimension."""
    bucket = {k: c for k, c in bucket.items() if c}
    ambients = [frozenset(legs) | {H0} for legs, _, _ in profile[1]]
    families = [[S for c in range(len(amb) - 2) for S in strata_family(amb, c)] for amb in ambients]
    for strata in itertools.product(*families):
        total = Fraction(0)
        for contents, coeff in bucket.items():
            prod = coeff
            for (tree, dec), S, amb in zip(contents, strata, ambients):
                prod *= pair_term(tree, dec, S, amb)
            total += prod
        if total:
            return False
    return True


def _two_tail_buckets():
    """A vanishing bucket over two tails {1,2,3} and {4,5,6}, and perturbations of it.

    On each tail's M_{0,4} ψ_1 (resp. ψ_4) is the class of a boundary point, so
    ψ - D vanishes in degree 1 and ψ⊗ψ - D⊗D in bidegree (1, 1).
    """
    def tail(legs, psi=False, split=False):
        if split:
            return build_tree([[H0, legs[0]], list(legs[1:])], [(0, 1)])
        return build_tree([[H0, *legs]], [], leg_exp={legs[0]: 1} if psi else {})

    a, b = (1, 2, 3), (4, 5, 6)
    point = tail(a), tail(b)
    psi = tail(a, psi=True), tail(b, psi=True)
    div = tail(a, split=True), tail(b, split=True)
    vanishing = {
        (psi[0], point[1]): Fraction(1),
        (div[0], point[1]): Fraction(-1),
        (point[0], psi[1]): Fraction(2),
        (point[0], div[1]): Fraction(-2),
        (psi[0], psi[1]): Fraction(1, 3),
        (div[0], div[1]): Fraction(-1, 3),
    }
    profile = ((), ((a, 0, 0), (b, 0, 0)))
    perturbed = [
        {**vanishing, (point[0], point[1]): Fraction(5)},
        {**vanishing, (div[0], div[1]): Fraction(-1, 2)},
        {**vanishing, (div[0], point[1]): Fraction(-3, 7)},
    ]
    return profile, vanishing, perturbed


def test_tensor_zero_test_matches_the_all_codimension_oracle(monkeypatch):
    seen = []
    real = rtclasses._tensor_is_zero

    def recording(profile, bucket):
        seen.append((profile, dict(bucket)))
        return real(profile, bucket)

    monkeypatch.setattr(rtclasses, "_tensor_is_zero", recording)
    for n in (2, 3, 4):
        assert verify_frec("k", "g", n).passed
    monkeypatch.undo()
    assert seen
    nonvanishing = 0
    for profile, bucket in seen:
        assert real(profile, bucket) == _all_codim_is_zero(profile, bucket) is True
        # one more copy of a term's tail content: vanishing or not, both tests agree
        contents, coeff = next((k, c) for k, c in bucket.items() if c)
        bumped = {**bucket, contents: coeff + 1}
        verdict = real(profile, bumped)
        assert verdict == _all_codim_is_zero(profile, bumped)
        nonvanishing += not verdict
    assert nonvanishing
    profile, vanishing, perturbed = _two_tail_buckets()
    assert real(profile, vanishing) and _all_codim_is_zero(profile, vanishing)
    for bucket in perturbed:
        assert not real(profile, bucket) and not _all_codim_is_zero(profile, bucket)


def test_rt_sums_copy_checked_terms(monkeypatch):
    x, y = f_class("k", "g", 3), e_class("k", "g", 3, {1})
    calls = []
    real = rtclasses._rt_term_is_zero

    def counting(graph, dec):
        calls.append(graph)
        return real(graph, dec)

    monkeypatch.setattr(rtclasses, "_rt_term_is_zero", counting)
    total = x + y
    assert (total - y) == x and x.scale(2) - x == x
    assert calls == []


def test_formal_sums_of_another_space_or_type_are_refused():
    with pytest.raises(InvalidArgument):
        f_class("k", "g", 2) + f_class("k", "g", 3)
    with pytest.raises(InvalidArgument):
        f_class("k", "g", 2) - e_class("k", "g", 3, {1})
    point = push_tree(build_tree([[H0, 1, 2]], [])[0])
    with pytest.raises(InvalidArgument):
        point + push_tree(build_tree([[H0, 1, 2, 3]], [])[0])
    with pytest.raises(InvalidArgument):
        point + RtClass(point.ambient)
    with pytest.raises(InvalidArgument):
        KPoly.const(1) + PushedClass()
    with pytest.raises(InvalidArgument):
        PushedClass() - KPoly.const(1)


def test_kpoly_and_pushed_class_cancellation_drops_keys():
    p = KPoly({2: 1, 1: 3, 0: Fraction(1, 2)})
    q = p + KPoly({1: -3})
    assert q.terms == {2: 1, 0: Fraction(1, 2)}
    assert (p - p).terms == {} and not (p - p)
    assert (p * KPoly({1: 1, 0: -1})).terms == {3: 1, 2: 2, 1: Fraction(-5, 2), 0: Fraction(-1, 2)}
    assert repr(-q) == "-k^2 - 1/2"
    x = PushedClass({("eta", 0): p, ("eta", 1): 2})
    x._add(("eta", 0), KPoly({2: -1, 1: -3, 0: Fraction(-1, 2)}))
    assert x.terms == {("eta", 1): KPoly.const(2)}
    x._add(("eta", 1), -2)
    assert x.terms == {} and x == PushedClass()
    assert (heavy_point_expansion(3) - f_heavy_expanded(3)).terms == {}


def test_cached_f_classes_equal_fresh_ones(monkeypatch):
    monkeypatch.setattr(rtclasses, "_f_cache", {})
    assert verify_frec("k", "g", 3).passed
    assert verify_colliding_rt("k", "g", (2, 1)).passed
    cached = dict(rtclasses._f_cache)
    assert set(cached) >= {(1, 1), (1, 1, 1), (2, 1)}
    assert all(f_class_m("k", "g", mults) is x for mults, x in cached.items())
    for x in cached.values():
        key = next(iter(x.terms))
        with pytest.raises(TypeError):  # cached classes are frozen
            x._add(*key, 1)
        (x + x)._add(*key, 1)  # a sum is a fresh class
    for mults, x in cached.items():
        monkeypatch.setattr(rtclasses, "_f_cache", {})
        assert f_class_m("k", "g", mults) == x


# ---------------------------------------------------------------------------
# failure paths: one extra term in an input class makes a verifier fail, and
# its witness is that term's root profile


def _add_smooth_term(monkeypatch, name, args, n):
    """Make ``rtclasses.<name>(*args)`` return its class plus (kω_1 - η)^2 on the
    smooth graph with legs 1..n; returns that term's root profile."""
    t, d, f = _root_only(n, {_leg_slot(1): 2})
    extra = RtClass(range(1, n + 1), {(t, d, f): 1})
    real = getattr(rtclasses, name)
    monkeypatch.setattr(rtclasses, name, lambda *a: real(*a) + extra if a == args else real(*a))
    return rtclasses.root_profile(t, d, f)[0]


def test_frec_failure_names_the_root_profile(monkeypatch):
    profile = _add_smooth_term(monkeypatch, "f_class", ("k", "g", 2), 2)
    rep = verify_frec("k", "g", 2)
    assert (rep.passed, rep.witness) == (False, profile)


def test_colliding_rt_failure_names_the_root_profile(monkeypatch):
    # the collided class no longer equals the heavy one termwise, so the
    # per-profile test runs and finds the extra term
    profile = _add_smooth_term(monkeypatch, "f_class_m", ("k", "g", (2,)), 1)
    rep = verify_colliding_rt("k", "g", (2,))
    assert (rep.passed, rep.witness) == (False, profile)


def test_overdegree_drop_failure_names_the_root_profile(monkeypatch):
    profile = _add_smooth_term(monkeypatch, "over_degree_terms", (2,), 2)
    rep = verify_overdegree_drop(2)
    assert (rep.passed, rep.witness) == (False, profile)
