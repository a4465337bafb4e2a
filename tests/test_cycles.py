"""Worked cycles and the recursion/vanishing verifiers on small grids."""

from __future__ import annotations

import functools
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rtails import cli, cycles, rtclasses, strata0, trees
from rtails.trees import (
    H0,
    NODE,
    InvalidArgument,
    build_tree,
    child_edges_of,
    coda_mapping,
    decorations_of_degree,
    enumerate_trees0,
    graft,
    path_edges,
    vertex_of_leg,
)
from rtails.strata0 import Class0, dim_of, is_zero, push_tree, strata_family, term_is_zero, zero, zero_witness
from rtails.weights import coeff_c_im, coeff_c_im_truncated, rooted_factor, rooted_split
from rtails.cycles import (
    ambient0,
    closed_form_z_top,
    collide_first_legs,
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
    verify_vanishing_cycle,
    z_cycle,
    z_truncated,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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
    # i < 1 is refused up front, also where the degree leaves nothing to build
    for i, j in ((0, 0), (0, -1)):
        with pytest.raises(InvalidArgument):
            e_cycle(3, {1}, i, j)


def test_coda_entries_refuse_a_repeated_member():
    for refused in (lambda: e_cycle(4, (1, 1), 2, 1), lambda: verify_ei_pushforward(4, (1, 1), 2)):
        with pytest.raises(InvalidArgument, match="I repeats a member"):
            refused()
    assert e_cycle(4, (1,), 2, 1) == e_cycle(4, [1], 2, 1) == e_cycle(4, {1}, 2, 1)
    assert verify_ei_pushforward(4, (1,), 2).line() == "pass ei_pushforward(4, (1,), 2)"


def _coda_path_for(tree, n, I):
    """The per-I coda predicate: the root-to-coda path edges when ``tree`` is
    a coda for I, else None (the vertex of leg n is external with the legs
    I ∪ {n}, or it is the only vertex and I = {1..n-1})."""
    v_n = vertex_of_leg(tree, n)
    if child_edges_of(tree, v_n):
        return None
    path = path_edges(tree, v_n)
    if path:
        return path if set(tree.legs[v_n]) == I | {n} else None
    return path if I == set(range(1, n)) else None


@pytest.mark.parametrize("n", range(2, 7))
def test_one_grouped_coda_scan_equals_the_per_i_scans(n):
    codas = cycles._codas(n)
    subsets = [frozenset(c) for r in range(1, n) for c in itertools.combinations(range(1, n), r)]
    assert set(codas) <= set(subsets)
    for I in subsets:
        per_i = tuple((tree, path) for tree in enumerate_trees0(n) if (path := _coda_path_for(tree, n, I)) is not None)
        assert codas.get(I, ()) == per_i


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
    # the route reads the degree-1 blocks of Z^2(3, ·, ·); doubling one adds
    # it once more, and the blocks stay disjoint
    key = (0, 3, None)
    blocks = dict(cycles._z_blocks(3, 2, 1))
    extra = blocks[key]
    blocks[key] = extra.scale(2).freeze()
    monkeypatch.setattr(cycles, "_block_cache", {(3, 2, 1): blocks})
    # Z^2(3, 1, -1) has degree 1, and the block's factor there is nonzero;
    # (i, j) = (1, -2) still passes
    assert rooted_factor(key, 1) != 0 and zero_witness(extra) is not None
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


def _assemble_z(n, i, j, m, truncated, decorations=decorations_of_degree):
    """Z or Z^t term by term, one coefficient per (tree, decoration): the
    oracle of the grouped route."""
    amb = ambient0(n)
    degree = n + m - 2 + j - i
    out = zero(amb)
    if degree < 0 or degree > dim_of(amb):
        return out
    coeff = coeff_c_im_truncated if truncated else coeff_c_im
    for tree in enumerate_trees0(n):
        psi_budget = degree - tree.num_edges()
        if psi_budget < 0:
            continue
        sign = (-1) ** (1 + tree.num_edges())
        for dec in decorations(tree, psi_budget, {1: m}):
            c = coeff(tree, dec, i, m)
            if c:
                out._add(tree, dec, Fraction(sign * c))
    return out


def _grouped_mismatches(n_max):
    """The (n, i, j, m, truncated) of `_box` whose grouped Z or Z^t differs
    from the termwise oracle, lazily."""
    # the oracle enumerates the same decorations for every i of a degree;
    # they are listed once here, so the check pays for its coefficients only
    listed = {}

    def listed_once(tree, degree, leg_bounds):
        key = (tree, degree, tuple(sorted(leg_bounds.items())))
        if key not in listed:
            listed[key] = decorations_of_degree(tree, degree, leg_bounds)
        return listed[key]

    for n, i, j, m, truncated in _box(n_max):
        x = z_truncated(n, i, j) if truncated else z_cycle(n, i, j, m)
        if x != _assemble_z(n, i, j, m, truncated, listed_once):
            yield n, i, j, m, truncated


def test_grouped_z_equals_the_termwise_oracle():
    assert next(_grouped_mismatches(6), None) is None


def test_a_shape_key_blind_to_leg_n_fails_the_oracle(monkeypatch):
    # Z^t caps the edge below a root that carries exactly {h0, n}: a key that
    # masks n as well lets the trees with {h0, n} and {h0, k} at the root
    # share their coefficients
    real = cycles._shape
    monkeypatch.setattr(cycles, "_shape", lambda tree, n: real(tree, n + 1))
    monkeypatch.setattr(cycles, "_block_cache", {})
    # the trees' shapes are listed once per n: a fresh listing reads the blind key
    monkeypatch.setattr(cycles, "_shaped_trees", functools.lru_cache(maxsize=None)(cycles._shaped_trees.__wrapped__))
    n, i, j, m, truncated = next(_grouped_mismatches(6))
    assert truncated and m == 1


def test_trees_of_one_shape_share_decorations_coefficient_halves_and_zero_verdicts():
    # the blocks list and check each decorated shape once, for every tree of the shape
    shapes = {}
    for n in range(2, 7):
        shapes[n] = firsts = {}
        amb = ambient0(n)
        for tree in enumerate_trees0(n):
            first = firsts.setdefault(cycles._shape(tree, n), tree)
            for m in range(1, 8 - n):
                for budget in range(n - 1 - tree.num_edges()):
                    decs = decorations_of_degree(tree, budget, {1: m})
                    assert decs == decorations_of_degree(first, budget, {1: m}), (tree, first, budget, m)
                    for dec in decs:
                        assert rooted_split(tree, dec, m) == rooted_split(first, dec, m), (tree, first, dec, m)
                        assert term_is_zero(tree, dec, amb) == term_is_zero(first, dec, amb), (tree, first, dec)
    assert (len(shapes[6]), len(enumerate_trees0(6))) == (287, 2752)


def test_blocks_check_each_decorated_shape_once(monkeypatch):
    # whether a term vanishes is asked of the first tree of its shape, once per
    # listed decoration, not once per labelled term
    calls = []

    def counting(tree, dec, ambient):
        calls.append((tree, dec))
        return term_is_zero(tree, dec, ambient)

    for module in (cycles, strata0):
        monkeypatch.setattr(module, "term_is_zero", counting, raising=False)
    checked = terms = 0
    for n in range(2, 7):
        firsts = {}
        for tree in enumerate_trees0(n):
            firsts.setdefault(cycles._shape(tree, n), tree)
        for m in range(1, 8 - n):
            for degree in range(n - 1):
                monkeypatch.setattr(cycles, "_block_cache", {})
                calls.clear()
                blocks = cycles._z_blocks(n, m, degree)
                assert len(calls) == len(set(calls)), (n, m, degree)
                assert all(firsts[cycles._shape(tree, n)] is tree for tree, _ in calls), (n, m, degree)
                checked += len(calls)
                terms += sum(len(block.terms) for block in blocks.values())
    assert 5 * checked < terms


def test_cached_classes_are_frozen():
    # the blocks and the collided blocks are cached, so they are frozen
    cached = [*cycles._z_blocks(4, 1, 1).values(), *cycles._collided_blocks(4, 1, 2).values()]
    assert len(cached) > 2
    t, d = next(iter(z_cycle(4, 2, 1).terms))
    for block in cached:
        with pytest.raises(TypeError):
            block._add(t, d, Fraction(1))
        with pytest.raises(TypeError):
            block._put((t, d), Fraction(1))
    # sums, multiples and ψ-products of a frozen block are fresh, mutable classes
    block = cached[0]
    for fresh in (block + block, block - block, block.scale(2), block.mul_psi(H0)):
        fresh._add(t, d, Fraction(1))
    # Z and Zᵗ are summed from them on each call: fresh, mutable classes, so
    # changing one leaves the blocks and the next call as they were
    for build, truncated in ((z_cycle, False), (z_truncated, True)):
        z = build(4, 2, 1)
        assert z is not build(4, 2, 1)
        z._add(t, d, Fraction(1))
        z._put((t, d), Fraction(1))
        z.terms.clear()
        assert build(4, 2, 1) == _assemble_z(4, 2, 1, 1, truncated)


def test_z_and_zt_check_their_arguments_before_the_cache(monkeypatch):
    # Zᵗ once built and cached an empty class for i < 1; a refused call
    # builds no block either
    monkeypatch.setattr(cycles, "_block_cache", {})
    for build, args in (
        (z_truncated, (3, 0, 5)),
        (z_truncated, (3, -2, -9)),
        (z_truncated, (1, 1, 0)),
        (z_cycle, (3, 0, 5)),
        (z_cycle, (3, 2, 1, 0)),
    ):
        with pytest.raises(InvalidArgument):
            build(*args)
    assert cycles._block_cache == {}
    z_truncated(3, 2, 1)
    assert list(cycles._block_cache) == [(3, 1, 1)]


def test_z_family_refuses_a_size_or_index_that_is_no_int_before_any_cache(monkeypatch):
    # a float i or m once returned an empty class, a float j or a float in
    # e_cycle or collide0 raised TypeError, and a bool i was read as 1
    monkeypatch.setattr(cycles, "_block_cache", {})
    monkeypatch.setattr(cycles, "_collided_cache", {})
    codas = cycles._codas.cache_info()
    for refused in (
        lambda: z_cycle(3, 1.5, 1),
        lambda: z_cycle(3, 1, 1, 1.5),
        lambda: z_cycle(5, 2, 0.5),
        lambda: z_cycle(3, True, 0),
        lambda: z_cycle(3.0, 2, 1),
        lambda: z_truncated(3, 2, Fraction(1)),
        lambda: e_cycle(4, {1}, 1.5, 0),
        lambda: e_cycle(4, {1}, 2, False),
        lambda: e_cycle(4.0, {1}, 2, 0),
        lambda: verify_collide0(4, 1.5),
        lambda: verify_collide0(4.0, 2),
        lambda: verify_collide0(4, True),
    ):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            refused()
    assert cycles._block_cache == {} and cycles._collided_cache == {}
    assert cycles._codas.cache_info() == codas


def test_every_z_family_coefficient_is_an_int():
    # every coefficient counts weightings, and d^i divides exactly, so no
    # coefficient of Z, Zᵗ, E or F is a Fraction; a division makes one
    def ints(x):
        return x.terms and all(type(c) is int for c in x.terms.values())

    for n in range(2, 6):
        for m in range(1, 7 - n):
            for degree in range(n + m - 1):
                assert all(ints(block) for block in cycles._z_blocks(n, m, degree).values()), (n, m, degree)
        for i in range(1, n + 1):
            for j in range(i - n + 1, i + 1):
                for z in (z_cycle(n, i, j), z_truncated(n, i, j)):
                    assert not z.terms or ints(z), (n, i, j)
                for I in cycles._nonempty_subsets(n - 1):
                    e = e_cycle(n, I, i, j)
                    assert not e.terms or ints(e), (n, I, i, j)
    for k in range(1, 6):
        for mults in itertools.product(range(1, 7 - k), repeat=k):
            assert sum(mults) > 5 or ints(rtclasses.f_class_m(mults)), mults
    z = z_cycle(4, 3, 1)
    assert all(type(c) is Fraction for c in z.scale(Fraction(1, 2)).terms.values())
    with pytest.raises(InvalidArgument):
        z.scale(0.5)


def test_vanishing_enumerates_each_decoration_set_once(monkeypatch):
    monkeypatch.setattr(cycles, "_block_cache", {})
    calls = []
    real = cycles.decorations_of_degree

    def recording(tree, degree, leg_bounds=None):
        calls.append((tree, degree, tuple(sorted((leg_bounds or {}).items()))))
        return real(tree, degree, leg_bounds)

    monkeypatch.setattr(cycles, "decorations_of_degree", recording)
    assert all(rep.passed for rep in verify_vanishing(5))
    assert calls and len(calls) == len(set(calls))


def test_blocks_of_a_degree_are_disjoint():
    # `_z_blocks` lists each decorated tree once, under the one key its
    # coefficient's i-reading half depends on
    for n in range(2, 7):
        for m in range(1, 8 - n):
            for degree in range(n - 1):
                seen = set()
                for block in cycles._z_blocks(n, m, degree).values():
                    assert seen.isdisjoint(block.terms), (n, m, degree)
                    seen.update(block.terms)


# ---------------------------------------------------------------------------
# collide0 in one pass per block: the per-class route is the oracle


def _per_class_diffs(n, m):
    """The diffs of `verify_collide0` class by class: collide each Z(n, i, j)
    and subtract Z^m(n-m+1, i, j)."""
    return [
        ((i, j), collide_first_legs(z_cycle(n, i, j), m - 1) - z_cycle(n - m + 1, i, j, m))
        for i in range(1, n)
        for j in range(i - n + 1, i)
    ]


def _block_pass_diffs(monkeypatch, n, m):
    """Every (label, diff) pair that `verify_collide0(n, m)` hands to its zero
    test, with no early stop, and the number of `plus` calls it makes."""
    seen, sums = [], []
    real = strata0.FormalSum.plus
    with monkeypatch.context() as patch:
        patch.setattr(cycles, "_report_first", lambda identity, params, labelled: seen.extend(labelled))
        patch.setattr(strata0.FormalSum, "plus", lambda self, pairs: sums.append(1) or real(self, pairs))
        verify_collide0(n, m)
    return seen, len(sums)


def _assert_routes_agree(monkeypatch, n, m) -> tuple:
    """The two routes give the same diff at every (i, j) and the same report:
    either the block route builds every diff and hands them to the zero test,
    or it passes on its tables with no `plus`, and every per-class diff is 0.
    Returns the report line and whether the diffs were built."""
    oracle = _per_class_diffs(n, m)
    seen, sums = _block_pass_diffs(monkeypatch, n, m)
    if seen:
        assert seen == oracle, (n, m)
    else:
        assert sums == 0 and all(not diff.terms for _, diff in oracle), (n, m)
    line = verify_collide0(n, m).line()
    assert line == cycles._report_first("collide0", (n, m), oracle).line(), (n, m)
    return line, bool(seen)


def test_collide0_block_pass_equals_the_per_class_route(monkeypatch):
    # on this grid the tables agree key by key, so no task builds a diff
    for n in range(3, 6):
        for m in range(1, n):
            line, built = _assert_routes_agree(monkeypatch, n, m)
            assert line.startswith("pass ") and not built, (n, m)


def test_collide0_with_m_1_is_decided_by_identity(monkeypatch):
    # no leg is collided, so both sides are the one table of Z(n) blocks:
    # no chain step is cached and no class is summed
    monkeypatch.setattr(cycles, "_collided_cache", {})
    for n in range(2, 7):
        assert _block_pass_diffs(monkeypatch, n, 1) == ([], 0), n
        assert verify_collide0(n, 1).passed, n
    assert cycles._collided_cache == {}


@pytest.mark.parametrize("n, m, degree, fails", [(4, 1, 2, False), (4, 1, 1, True), (3, 2, 1, True), (3, 3, 1, True)])
def test_collide0_routes_agree_with_a_block_doubled(monkeypatch, n, m, degree, fails):
    # a Z(4) block feeds the left side of every collide0(4, ·) and both sides
    # of collide0(4, 1), where it cancels; in the top degree it collides to 0,
    # so doubling it fails nothing.  A Z^m(3) block feeds collide0(m + 2, m).
    # The diffs are compared at every (i, j), so a factor read at the wrong i
    # shows even where the first failure does not move
    tasks = [(n, mt) for mt in range(1, n)] if m == 1 else [(n + m - 1, m)]
    real = cycles._z_blocks(n, m, degree)
    failed = 0
    for key in sorted(real, key=repr):
        with monkeypatch.context() as patch:
            patch.setattr(cycles, "_block_cache", {(n, m, degree): {**real, key: real[key].scale(2).freeze()}})
            patch.setattr(cycles, "_collided_cache", {})
            for task in tasks:
                failed += _assert_routes_agree(monkeypatch, *task)[0].startswith("FAIL")
    assert bool(failed) == fails


def _doubled(block: Class0) -> Class0:
    """``block`` with every coefficient doubled: a thawed copy, frozen again."""
    return Class0(block.ambient, {key: 2 * coeff for key, coeff in block.terms.items()}).freeze()


def test_collide0_falls_back_to_the_per_class_route_when_a_block_changes(monkeypatch):
    # every task of the n <= 6 grid, with one block doubled, or dropped (its
    # key then missing), in the Z(n) table (the collided side) or in the
    # Z^m(n-m+1) table (the target side): the first block, in degree then key
    # order, that changes its side's table
    cases = fallbacks = 0
    for _, (n, m) in cli._grid("collide0", 6, 0):
        amb = ambient0(n - m + 1)
        sides = [(n, 1, lambda degree: cycles._collided_blocks(n, degree, m - 1))]
        sides.append((n - m + 1, m, lambda degree: cycles._z_blocks(n - m + 1, m, degree)))
        for source, weight, table in sides[: 1 if m == 1 else 2]:
            degree, key = next(
                (degree, key)
                for degree in range(min(n - 1, dim_of(amb) + 1))
                for key in sorted(cycles._z_blocks(source, weight, degree), key=repr)
                if table(degree).get(key, zero(amb)).terms
            )
            real = cycles._z_blocks(source, weight, degree)
            doubled = {**real, key: _doubled(real[key])}
            dropped = {k: block for k, block in real.items() if k != key}
            for blocks in (doubled, dropped):
                with monkeypatch.context() as patch:
                    patch.setattr(cycles, "_block_cache", {**cycles._block_cache, (source, weight, degree): blocks})
                    patch.setattr(cycles, "_collided_cache", {})
                    oracle = _per_class_diffs(n, m)
                    seen, _ = _block_pass_diffs(monkeypatch, n, m)
                    if m == 1:
                        # one table feeds both sides, so changing it changes no diff
                        assert seen == [] and all(not diff.terms for _, diff in oracle), (n, m)
                    else:
                        assert seen == oracle, (n, m, source)
                        fallbacks += 1
                    line = verify_collide0(n, m).line()
                    assert line == cycles._report_first("collide0", (n, m), oracle).line(), (n, m, source)
                    cases += 1
    assert (cases, fallbacks) == (48, 40)


# ---------------------------------------------------------------------------
# the one-pass moves: their two-pass routes are the oracles


def _collide_then_renumber(x, leg):
    """`fold` in two passes: collide ``leg + 1`` into ``leg``, then relabel
    the legs above it down by one."""
    y = strata0.collide(x, leg, leg + 1)
    return strata0.relabel_class(y, {l: l - 1 for l in y.ambient if isinstance(l, int) and l > leg + 1})


def test_fold_equals_collide_then_relabel_on_every_z_block():
    nonzero = 0
    for n in range(3, 6):
        for degree in range(n - 1):
            for block in cycles._z_blocks(n, 1, degree).values():
                for leg in range(1, n):
                    folded = strata0.fold(block, leg)
                    assert folded == _collide_then_renumber(block, leg), (n, degree, leg)
                    assert folded.ambient == ambient0(n - 1)
                    nonzero += bool(folded.terms)
    assert nonzero > 40


def _relabel_then_graft(x, I, n):
    """`glue_push_gamma` in two passes: relabel by `coda_mapping`, then graft the coda."""
    relabelled = strata0.relabel_class(x, coda_mapping(n, I))
    return strata0._moved(relabelled, ambient0(n), lambda tree, dec: [(1, *graft(tree, dec, NODE, set(I) | {n}))])


def test_glue_push_gamma_equals_relabel_then_graft_on_every_ei_input():
    nonzero = 0
    for _, (n, I, i) in cli._grid("ei", 5, 0):
        for j in range(i - n + 1, i):
            x = z_cycle(n - len(I), i, j, len(I))
            glued = strata0.glue_push_gamma(x, I, n)
            assert glued == _relabel_then_graft(x, I, n), (n, I, i, j)
            nonzero += bool(glued.terms)
    assert nonzero > 50


def test_a_chain_step_and_a_coda_gluing_build_one_class(monkeypatch):
    block = next(b for b in cycles._z_blocks(5, 1, 2).values() if b.terms)
    x = z_cycle(3, 1, 0, 2)
    built = []
    real = Class0.__init__

    def counting(self, *args):
        built.append(len(args[0]))
        real(self, *args)

    monkeypatch.setattr(Class0, "__init__", counting)
    collide_first_legs(block, 2)
    assert built == [5, 4]  # one class per step, on 5 then 4 legs
    strata0.glue_push_gamma(x, {1}, 4)
    assert built == [5, 4, 5]


def _count_calls(name, tasks):
    """Calls to ``cycles.<name>`` made running ``tasks`` in order in a new
    interpreter, the sorted verdict lines and the sorted (n, m, degree) of the
    Z blocks built."""
    code = (
        "import json\n"
        "from rtails import cli, cycles\n"
        f"real, calls = cycles.{name}, [0]\n"
        "def counting(*args):\n"
        "    calls[0] += 1\n"
        "    return real(*args)\n"
        f"cycles.{name} = counting\n"
        f"lines = sorted(cli.run_task(task).line() for task in {tasks!r})\n"
        "print(json.dumps([calls[0], lines, sorted(cycles._block_cache)]))\n"
    )
    return _run_fresh(code)


def _run_fresh(code):
    """What ``code`` prints as JSON, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout)


def test_collide0_collides_each_block_once_per_step():
    # every chain step of every block is one `fold`, whichever m of the
    # grid asks first: no prefix is collided twice
    tasks = cli._grid("collide0", 5, 0)
    expected = sum(len(cycles._z_blocks(n, 1, degree)) * (n - 2) for n in range(3, 6) for degree in range(n - 1))
    forward, backward = _count_calls("fold", tasks), _count_calls("fold", tasks[::-1])
    assert forward == backward
    assert forward[0] == expected
    assert all(line.startswith("pass ") for line in forward[1])


@pytest.mark.parametrize("suite", ["vanishing", "collide0"])
def test_blocks_split_each_decorated_shape_once(suite):
    # `rooted_split` runs once per decoration of the first tree of each
    # shape, whichever task of the grid asks first, not once per labelled tree
    tasks = cli._grid(suite, 5, 0)
    forward, backward = _count_calls("rooted_split", tasks), _count_calls("rooted_split", tasks[::-1])
    assert forward == backward
    calls, lines, built = forward
    assert all(line.startswith("pass ") for line in lines)
    shapes = per_tree = 0
    for n, m, degree in built:
        firsts = {}
        for tree in enumerate_trees0(n):
            if tree.num_edges() <= degree:
                decorated = len(decorations_of_degree(tree, degree - tree.num_edges(), {1: m}))
                shapes += decorated * (firsts.setdefault(cycles._shape(tree, n), tree) is tree)
                per_tree += decorated
    assert calls == shapes < per_tree


def test_the_vanishing_grid_keeps_only_its_blocks():
    # Z and Zᵗ are summed from the blocks on each call, so once the grid is
    # done the only classes left on its ambient are the cached blocks
    code = (
        "import gc, json\n"
        "from rtails import cli, cycles\n"
        "from rtails.strata0 import Class0\n"
        "lines = [cli.run_task(task).line() for task in cli._grid('vanishing', 5, 0)]\n"
        "gc.collect()\n"
        "amb = cycles.ambient0(5)\n"
        "live = {id(x) for x in gc.get_objects() if isinstance(x, Class0) and x.ambient == amb}\n"
        "blocks = {id(b) for key, bs in cycles._block_cache.items() if key[0] == 5 for b in bs.values()}\n"
        "print(json.dumps([len(live), len(blocks), live == blocks, lines]))\n"
    )
    live, blocks, same, lines = _run_fresh(code)
    assert all(line.startswith("pass ") for line in lines) and len(lines) == 20
    assert blocks and (live, same) == (blocks, True)


# ---------------------------------------------------------------------------
# the orbit route of the vanishing checks: certified symmetric blocks


def test_z_symmetry_certifies_every_block():
    # a broken certificate would keep every verdict and quietly lose the speed
    for n in range(2, 7):
        for degree in range(n - 1):
            assert cycles._z_symmetry(n, 1, degree) == frozenset(range(1, n)), (n, degree)
    assert cycles._z_symmetry(5, 2, 2) == frozenset({2, 3, 4})


def test_relabelling_the_z_blocks_grows_no_cache_per_tree():
    # a rename is one table per (leg set, mapping): relabelling every term of
    # the n <= 5 blocks under a swap and a cycle stores nothing per tree
    caches = {name: f for name, f in vars(trees).items() if hasattr(f, "cache_info")}
    for f in caches.values():
        f.cache_clear()
    blocks = [(n, block) for n in range(3, 6) for degree in range(n - 1) for block in cycles._z_blocks(n, 1, degree).values()]
    every = {tree for _, block in blocks for tree, _ in block.terms}
    for tree in every:
        trees.splits(tree)  # each tree's split masks, which every pairing reads too

    def sizes():
        return {**{name: f.cache_info().currsize for name, f in caches.items()}, "_laminar_trees": len(trees._laminar_trees)}

    before = sizes()
    for n, block in blocks:
        swap, cycle = {1: 2, 2: 1}, {l: l % (n - 1) + 1 for l in range(1, n)}
        assert strata0.relabel_class(block, swap) == block == strata0.relabel_class(block, cycle)
    grown = {name: size - before[name] for name, size in sizes().items() if size - before[name] >= len(every)}
    assert len(every) > 100 and grown == {}


def test_the_orbit_route_gives_the_full_route_witness():
    nonzero = 0
    for n, i, j, m, truncated in _box(5):
        if m == 1:
            x = z_truncated(n, i, j) if truncated else z_cycle(n, i, j)
            w = zero_witness(x)
            assert zero_witness(x, cycles._z_symmetry(n, 1, n - 1 + j - i)) == w, (n, i, j, truncated)
            nonzero += w is not None
    assert nonzero >= 20


def test_an_uncertified_block_falls_back_to_the_full_route(monkeypatch):
    # ψ_1 + ψ_2 - 2ψ_3 + ψ_4 - 2ψ_h0 is not invariant under legs 1..3, and
    # pairs to 0 with the first stratum of every orbit, though not with all
    def psi(leg):
        return push_tree(*build_tree([[H0, 1, 2, 3, 4]], [], leg_exp={leg: 1}))

    lopsided = psi(1) + psi(2) - psi(3).scale(2) + psi(4) - psi(H0).scale(2)
    assert zero_witness(lopsided, {1, 2, 3}) is None and zero_witness(lopsided) is not None
    # Z(4, 3, 1), a sum of terms that vanishes as a class, scales the blocks
    # without and with ψ_h0 by 3 and 18, so these two changes add 3 * lopsided
    real = z_cycle(4, 3, 1)
    blocks = dict(cycles._z_blocks(4, 1, 1))
    assert [rooted_factor(key, 3) for key in ((0, 3, None), (1, 3, None))] == [3, 18]
    blocks[(0, 3, None)] = (blocks[(0, 3, None)] + psi(1) + psi(2) - psi(3).scale(2) + psi(4)).freeze()
    blocks[(1, 3, None)] = (blocks[(1, 3, None)] - psi(H0).scale(Fraction(1, 3))).freeze()
    monkeypatch.setattr(cycles, "_block_cache", {(4, 1, 1): blocks})
    cycles._z_symmetry.cache_clear()
    try:
        assert z_cycle(4, 3, 1) - real == lopsided.scale(3)
        assert cycles._z_symmetry(4, 1, 1) == frozenset()
        rep = verify_vanishing_cycle(4, 3, 1)
        assert (rep.passed, rep.witness) == (False, zero_witness(lopsided))
    finally:
        cycles._z_symmetry.cache_clear()
