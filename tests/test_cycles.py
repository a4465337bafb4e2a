"""Worked cycles and the recursion/vanishing verifiers on small grids."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from rtails import cycles
from rtails.trees import H0, InvalidArgument, build_tree
from rtails.strata0 import Class0, is_zero, push_tree, strata_family, zero, zero_witness
from rtails.cycles import (
    ambient0,
    closed_form_z_top,
    dec_polynomial,
    e_cycle,
    verify_closed_forms,
    verify_collide0,
    verify_decrec,
    verify_dect,
    verify_ei_pushforward,
    verify_recursion_a,
    verify_recursion_all,
    verify_vanishing,
    z_cycle,
    z_truncated,
)


def _amb(n):
    return frozenset(range(1, n + 1)) | {H0}


def _expected(n, entries):
    """entries: (root_legs, coda_legs_or_None, half, leg, coeff) summed over labelings."""
    out = zero(_amb(n))
    for root_legs, codas, half, leg, coeff in entries:
        if codas is None:
            t, d = build_tree([root_legs], [], half_exp=half, leg_exp=leg)
        else:
            verts = [root_legs] + [list(c) for c in codas]
            edges = [(0, k + 1) for k in range(len(codas))]
            t, d = build_tree(verts, edges, half_exp=half, leg_exp=leg)
        out._add(t, d, Fraction(coeff))
    return out


def test_z321_display():
    # +2 on each one-edge graph, -6 psi_h0; the sum vanishes
    n = 3
    expected = zero(_amb(n))
    for M in itertools.combinations(range(1, 4), 2):
        rest = [H0] + [l for l in range(1, 4) if l not in M]
        t, d = build_tree([rest, list(M)], [(0, 1)])
        expected._add(t, d, Fraction(2))
    top, dtop = build_tree([[1, 2, 3, H0]], [], leg_exp={H0: 1})
    expected._add(top, dtop, Fraction(-6))
    z = z_cycle(3, 2, 1)
    assert z == expected
    assert is_zero(z)


def test_z431_display():
    n = 4
    expected = zero(_amb(n))
    for M in itertools.combinations(range(1, 5), 2):
        rest = [H0] + [l for l in range(1, 5) if l not in M]
        t, d = build_tree([rest, list(M)], [(0, 1)])
        expected._add(t, d, Fraction(3))
    for M in itertools.combinations(range(1, 5), 3):
        rest = [H0] + [l for l in range(1, 5) if l not in M]
        t, d = build_tree([rest, list(M)], [(0, 1)])
        expected._add(t, d, Fraction(9))
    top, dtop = build_tree([[1, 2, 3, 4, H0]], [], leg_exp={H0: 1})
    expected._add(top, dtop, Fraction(-18))
    z = z_cycle(4, 3, 1)
    assert z == expected
    assert is_zero(z)


def _z4_two_deep(coeffs):
    """Shared graph shapes of the degree-2 displays on five labels."""
    c_psi2, c_head, c_h0, c_chain, c_fork = coeffs
    expected = zero(_amb(4))
    top, dtop = build_tree([[1, 2, 3, 4, H0]], [], leg_exp={H0: 2})
    expected._add(top, dtop, Fraction(c_psi2))
    for M in itertools.combinations(range(1, 5), 3):
        rest = [H0] + [l for l in range(1, 5) if l not in M]
        t, d = build_tree([rest, list(M)], [(0, 1)], half_exp={(0, 1): 1})
        expected._add(t, d, Fraction(c_head))
    for M in itertools.combinations(range(1, 5), 2):
        rest = [H0] + [l for l in range(1, 5) if l not in M]
        t, d = build_tree([rest, list(M)], [(0, 1)], leg_exp={H0: 1})
        expected._add(t, d, Fraction(c_h0))
    # chains root(h0, a) - mid(b) - ext(c, d)
    for a in range(1, 5):
        for b in [x for x in range(1, 5) if x != a]:
            M = [x for x in range(1, 5) if x not in (a, b)]
            t, d = build_tree([[H0, a], [b], M], [(0, 1), (1, 2)])
            expected._add(t, d, Fraction(c_chain))
    # forks: root(h0) with two leg-pair codas
    for M in itertools.combinations(range(1, 5), 2):
        Mc = [x for x in range(1, 5) if x not in M]
        t, d = build_tree([[H0], list(M), Mc], [(0, 1), (0, 2)])
        expected._add(t, d, Fraction(c_fork, 2))  # each split counted twice
    return expected


def test_z421_display():
    z = z_cycle(4, 2, 1)
    assert z == _z4_two_deep((-14, 14, 6, -6, -2))
    assert is_zero(z)


def test_z432_display():
    z = z_cycle(4, 3, 2)
    assert z == _z4_two_deep((-75, 21, 18, -9, -3))
    assert is_zero(z)


def test_z_trivial_vanishing_for_large_j():
    assert z_cycle(4, 2, 2).terms == {}
    assert z_cycle(4, 2, 3).terms == {}


def test_dec_polynomial_shape():
    dp = dec_polynomial(3, 2, 1)
    assert dp.coefficient(1) == z_cycle(3, 2, 1)
    # i >= n-1+m: all coefficients vanish
    dp0 = dec_polynomial(3, 3, 1)
    assert all(c.terms == {} for _, c in dp0.coefficients)


def test_e_cycle_base_cases():
    # n=3, |I|=1, i=1, degree 0: a single coda stratum with d=1, sign -1
    e = e_cycle(3, {1}, 1, 0)
    t, d = build_tree([[2, H0], [1, 3]], [(0, 1)])
    assert e == Class0(_amb(3), {(t, d): Fraction(-1)})
    # |I| = n-1 at i = n-1: the one-vertex coda
    e2 = e_cycle(3, {1, 2}, 2, 0)
    top, dtop = build_tree([[1, 2, 3, H0]], [])
    assert e2 == Class0(_amb(3), {(top, dtop): Fraction(1)})
    # ranges outside eq-dit vanish
    assert e_cycle(4, {1, 2}, 3, 1).terms == {}
    with pytest.raises(InvalidArgument):
        e_cycle(3, set(), 1, 0)


def test_recursion_a_small():
    assert verify_recursion_a(3, 1, -1).passed
    assert verify_recursion_a(3, 1, 0).passed
    assert verify_recursion_a(4, 2, 0).passed
    with pytest.raises(InvalidArgument):
        verify_recursion_a(3, 2, 0)


def test_recursion_all_small():
    assert verify_recursion_all(4, 3, 0).passed
    assert verify_recursion_all(4, 3, 1).passed
    assert verify_recursion_all(5, 4, 0).passed


def test_dect_small():
    assert verify_dect(4, 2, 1).passed
    for j in range(-1, 3):
        assert verify_dect(4, 3, j).passed
    assert verify_dect(5, 2, 1).passed


def test_decrec_small():
    assert verify_decrec(3, 1).passed
    assert verify_decrec(4, 1).passed
    assert verify_decrec(4, 2).passed


def test_vanishing_small():
    for rep in verify_vanishing(4):
        assert rep.passed, rep.line()


def test_collide0_small():
    assert verify_collide0(4, 1).passed
    assert verify_collide0(4, 2).passed
    assert verify_collide0(4, 3).passed


def test_ei_pushforward_small():
    assert verify_ei_pushforward(4, {1}, 1).passed
    assert verify_ei_pushforward(4, {1, 2}, 1).passed
    assert verify_ei_pushforward(4, {3}, 2).passed


def test_closed_forms_small():
    assert verify_closed_forms(3).passed
    assert verify_closed_forms(4).passed
    # the closed form really is the displayed divisor combination
    assert z_cycle(3, 2, 1) == closed_form_z_top(3)


def test_cycle_degree_grading():
    from rtails.strata0 import term_degree

    for (n, i, j, m) in [(3, 2, 1, 1), (4, 2, 1, 1), (4, 2, 0, 2), (5, 3, 1, 1), (4, 1, 0, 3)]:
        z = z_cycle(n, i, j, m)
        want = n + m - 2 + j - i
        assert all(term_degree(t, d) == want for t, d in z.terms), (n, i, j, m)


def test_truncation_support():
    # Z - Z^t is supported on trees whose root is exactly {h0, leg n, one tail}
    from rtails.trees import child_edges_of

    for n in (3, 4, 5):
        for i in range(1, n):
            for j in range(i - n + 1, i):
                diff = z_cycle(n, i, j) - z_truncated(n, i, j)
                for tree, _ in diff.terms:
                    assert set(tree.legs[0]) == {H0, n}
                    assert len(child_edges_of(tree, 0)) == 1


def test_cached_z_cycles_equal_fresh_ones(monkeypatch):
    monkeypatch.setattr(cycles, "_z_cache", {})
    assert verify_recursion_a(4, 2, 1).passed
    assert verify_decrec(4, 2).passed
    assert verify_collide0(4, 2).passed
    assert all(rep.passed for rep in verify_vanishing(4))
    cached = dict(cycles._z_cache)
    assert any(key[-1] for key in cached) and any(not key[-1] for key in cached)
    for (n, i, j, m, truncated), x in cached.items():
        assert (z_truncated(n, i, j) if truncated else z_cycle(n, i, j, m)) is x
        assert cycles._assemble_z(n, i, j, m, truncated) == x


# ---------------------------------------------------------------------------
# failure paths: one extra term in an input class makes a verifier fail, and
# its witness names the index where the term entered and the stratum that
# detects it


def _psi_h0(n, d):
    """ψ_{h0}^d on the smooth stratum of {1..n, h0}: a nonzero class for d <= n - 2."""
    return push_tree(*build_tree([[H0, *range(1, n + 1)]], [], leg_exp={H0: d}))


def _add_to(monkeypatch, name, args, extra):
    """Make ``cycles.<name>(*args)`` return its class plus ``extra``."""
    real = getattr(cycles, name)
    monkeypatch.setattr(cycles, name, lambda *a: real(*a) + extra if a == args else real(*a))


def test_decrec_failure_names_j_and_stratum(monkeypatch):
    extra = _psi_h0(4, 1)  # Z(4, 2, 0) has degree 1; j = -1 still passes
    _add_to(monkeypatch, "z_cycle", (4, 2, 0), extra)
    rep = verify_decrec(4, 2)
    assert (rep.passed, rep.witness) == (False, (0, zero_witness(extra)))
    assert rep.line() == f"FAIL decrec(4, 2)  witness={rep.witness!r}"


def test_collide0_failure_names_i_j_and_stratum(monkeypatch):
    extra = _psi_h0(3, 1)  # Z^2(3, 1, -1) has degree 1; (i, j) = (1, -2) still passes
    _add_to(monkeypatch, "z_cycle", (3, 1, -1, 2), extra)
    rep = verify_collide0(4, 2)
    assert (rep.passed, rep.witness) == (False, (1, -1, zero_witness(extra)))


def test_ei_pushforward_failure_names_j_and_stratum(monkeypatch):
    extra = _psi_h0(4, 1)  # E_{1}(2, 0) has degree 1; j = -1 still passes
    _add_to(monkeypatch, "e_cycle", (4, frozenset({1}), 2, 0), extra)
    rep = verify_ei_pushforward(4, {1}, 2)
    assert (rep.passed, rep.witness) == (False, (0, zero_witness(extra)))


def test_closed_forms_fails_at_each_of_its_three_checks(monkeypatch):
    with monkeypatch.context() as m:
        _add_to(m, "z_cycle", (4, 3, 1), _psi_h0(4, 1))
        rep = verify_closed_forms(4)
        assert (rep.passed, rep.witness) == (False, "termwise closed form")
    with monkeypatch.context() as m:
        stratum = strata_family(ambient0(4), 1)[0]
        m.setattr(cycles, "zero_witness", lambda x: stratum)
        rep = verify_closed_forms(4)
        assert (rep.passed, rep.witness) == (False, stratum)
    extra = _psi_h0(4, 2)  # the j-recursion at j = 2 compares degree-2 classes
    _add_to(monkeypatch, "z_cycle", (4, 3, 2), extra)
    rep = verify_closed_forms(4)
    assert (rep.passed, rep.witness) == (False, (2, zero_witness(extra)))


# ---------------------------------------------------------------------------
# the grouped assembly: Z and Z^t are sums of blocks shared per (n, m, degree)


def _box(n_max):
    """Every (n, i, j, m, truncated) with n + m - 1 <= n_max, 1 <= i <= n + m - 2
    and a degree inside the ambient dimension; Z^t only at m = 1.  This holds
    every class the vanishing, recursion, decrec, collide0, ei and
    closed-forms grids reach at --max-n n_max."""
    for n in range(2, n_max + 1):
        for m in range(1, n_max + 2 - n):
            for i in range(1, n + m - 1):
                for degree in range(n - 1):
                    j = degree - (n + m - 2) + i
                    yield n, i, j, m, False
                    if m == 1:
                        yield n, i, j, m, True


def test_grouped_z_equals_the_termwise_oracle(monkeypatch):
    # the oracle enumerates the same decorations for every i of a degree;
    # they are listed once here, so the test pays for its coefficients only
    listed = {}
    real = cycles.decorations_of_degree

    def listed_once(tree, degree, leg_bounds=None):
        key = (tree, degree, tuple(sorted((leg_bounds or {}).items())))
        if key not in listed:
            listed[key] = real(tree, degree, leg_bounds)
        return listed[key]

    monkeypatch.setattr(cycles, "decorations_of_degree", listed_once)
    for n, i, j, m, truncated in _box(6):
        x = z_truncated(n, i, j) if truncated else z_cycle(n, i, j, m)
        assert x == cycles._assemble_z(n, i, j, m, truncated), (n, i, j, m, truncated)


def test_cached_classes_are_frozen():
    z = z_cycle(4, 2, 1)
    t, d = next(iter(z.terms))
    with pytest.raises(TypeError):
        z._add(t, d, Fraction(1))
    with pytest.raises(TypeError):
        z._put((t, d), Fraction(1))
    with pytest.raises(TypeError):
        z_truncated(4, 2, 1)._add(t, d, Fraction(1))
    for block in cycles._z_blocks(4, 1, 1).values():
        with pytest.raises(TypeError):
            block._add(t, d, Fraction(1))
    assert z_cycle(4, 2, 1) == cycles._assemble_z(4, 2, 1, 1, False)
    # sums, multiples and ψ-products are fresh, mutable classes
    for fresh in (z + z, z - z, z.scale(2), z.mul_psi(H0)):
        fresh._add(t, d, Fraction(1))
    assert z_cycle(4, 2, 1) == cycles._assemble_z(4, 2, 1, 1, False)


def test_vanishing_enumerates_each_decoration_set_once(monkeypatch):
    monkeypatch.setattr(cycles, "_z_cache", {})
    monkeypatch.setattr(cycles, "_block_cache", {})
    calls = []
    real = cycles.decorations_of_degree

    def recording(tree, degree, leg_bounds=None):
        calls.append((tree, degree, tuple(sorted((leg_bounds or {}).items()))))
        return real(tree, degree, leg_bounds)

    monkeypatch.setattr(cycles, "decorations_of_degree", recording)
    assert all(rep.passed for rep in verify_vanishing(5))
    assert calls and len(calls) == len(set(calls))
