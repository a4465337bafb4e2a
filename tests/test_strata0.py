"""Genus-0 strata algebra: integration, products, pairing, forgetful maps."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from rtails import cycles, strata0, trees
from rtails.cycles import ambient0, z_cycle, z_truncated
from rtails.weights import rooted_factor
from rtails.trees import (
    H0,
    InvalidArgument,
    build_tree,
    enumerate_decorations,
    enumerate_stable_trees,
    enumerate_trees0,
    make_decoration,
    relabel,
    renaming,
    splits,
    vertex_of_leg,
)
from rtails.strata0 import (
    Class0,
    _laminar,
    _orbit_firsts,
    _refine,
    collide,
    collide_via_product,
    from_terms,
    glue_push_gamma,
    glue_push_sigma0,
    integrate,
    integrate_term,
    is_invariant,
    is_zero,
    pair,
    pair_term,
    product_with_stratum,
    pullback_forget,
    push_tree,
    pushforward_forget,
    strata_family,
    zero_witness,
)


# ---------------------------------------------------------------------------
# oracle: genus-0 ψ-intersection numbers by the string-equation recursion.
# <tau_0 prod tau_{a_j}> = sum_j <tau_{a_j - 1} prod_{k != j} tau_{a_k}>,
# with <tau_0 tau_0 tau_0> = 1; dimension forces a zero exponent to exist.


def string_oracle(exps) -> Fraction:
    exps = list(exps)
    n = len(exps)
    if sum(exps) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1)
    z = exps.index(0)
    rest = exps[:z] + exps[z + 1:]
    total = Fraction(0)
    for j, a in enumerate(rest):
        if a > 0:
            total += string_oracle(rest[:j] + [a - 1] + rest[j + 1:])
    return total


def one_vertex(labels, legexp=None):
    t, _ = build_tree([list(labels)], [])
    return push_tree(t, make_decoration(leg_exp=legexp or {}))


def test_integrate_psi_monomials_against_oracle():
    # frozen anchors: psi_1 on 4 points -> 1; psi_1 psi_2 on 5 points -> 2
    assert integrate(one_vertex([1, 2, 3, 4], {1: 1})) == 1
    assert integrate(one_vertex([1, 2, 3, 4, 5], {1: 1, 2: 1})) == 2
    assert string_oracle([1, 0, 0, 0]) == 1
    assert string_oracle([1, 1, 0, 0, 0]) == 2
    # grid check against the oracle
    for n in (4, 5, 6):
        labels = list(range(1, n + 1))
        for exps in itertools.product(range(n - 2), repeat=n):
            if sum(exps) != n - 3:
                continue
            got = integrate(one_vertex(labels, dict(zip(labels, exps))))
            assert got == string_oracle(list(exps))


def test_integrate_degree_mismatch_is_zero():
    assert integrate(one_vertex([1, 2, 3, 4])) == 0


def test_products_on_five_points():
    labels = [1, 2, 3, 4, 5]
    dM, _ = build_tree([[3, 4, 5], [1, 2]], [(0, 1)])
    dM2, _ = build_tree([[1, 2, 5], [3, 4]], [(0, 1)])
    dOverlap, _ = build_tree([[1, 4, 5], [2, 3]], [(0, 1)])
    # self-intersection picks up the excess -psi' - psi''
    assert integrate(product_with_stratum(push_tree(dM), dM)) == -1
    # transverse intersection
    assert integrate(product_with_stratum(push_tree(dM), dM2)) == 1
    # overlapping 2-sets are incompatible splits
    assert integrate(product_with_stratum(push_tree(dM), dOverlap)) == 0
    assert pair(push_tree(dM), dM) == -1


def test_pair_symmetry():
    labels = tuple(range(1, 7))
    rng = random.Random(3)
    divisors = strata_family(frozenset(labels), 1)
    codim2 = strata_family(frozenset(labels), 2)
    for S in rng.sample(divisors, 6):
        for T in rng.sample(codim2, 6):
            assert pair(push_tree(S), T) == pair(push_tree(T), S)


def test_pair_degree_mismatch_raises():
    labels = [1, 2, 3, 4, 5]
    dM, _ = build_tree([[3, 4, 5], [1, 2]], [(0, 1)])
    point = strata_family(frozenset(labels), 2)[0]
    with pytest.raises(InvalidArgument):
        pair(push_tree(dM), point)
    # the zero test refuses inhomogeneous input
    mixed = push_tree(dM) + one_vertex(labels, {1: 2})
    for refused in (lambda: is_zero(mixed), lambda: zero_witness(mixed, {3, 4})):
        with pytest.raises(InvalidArgument, match="zero test needs a homogeneous class"):
            refused()


def test_is_zero_divisor_identities():
    # psi_{h0} = sum of divisors separating h0 from two fixed legs; and the
    # weighted identity C(n,2) psi_{h0} = sum C(m,2) delta_m
    for n in (3, 4, 5):
        ambient = frozenset(range(1, n + 1)) | {H0}
        psi = one_vertex(sorted(ambient, key=str), {H0: 1})
        acc = psi
        for r in range(2, n):
            for M in itertools.combinations(range(1, n + 1), r):
                if 1 in M and 2 in M:
                    t, _ = build_tree(
                        [sorted(ambient - set(M), key=str), sorted(M)], [(0, 1)]
                    )
                    acc = acc - push_tree(t)
        assert is_zero(acc)
        assert not is_zero(psi)

        weighted = psi.scale(Fraction(n * (n - 1), 2))
        for r in range(2, n):
            coeff = Fraction(r * (r - 1), 2)
            for M in itertools.combinations(range(1, n + 1), r):
                t, _ = build_tree([sorted(ambient - set(M), key=str), sorted(M)], [(0, 1)])
                weighted = weighted - push_tree(t).scale(coeff)
        assert is_zero(weighted)


def test_pullback_of_psi():
    x = one_vertex([1, 2, 3, 4], {1: 1})
    y = pullback_forget(x, 5)
    t_psi, _ = build_tree([[1, 2, 3, 4, 5]], [])
    t_div, _ = build_tree([[2, 3, 4], [1, 5]], [(0, 1)])
    expected = Class0(
        frozenset([1, 2, 3, 4, 5]),
        {
            (t_psi, make_decoration(leg_exp={1: 1})): Fraction(1),
            (t_div, make_decoration()): Fraction(-1),
        },
    )
    assert y == expected


def test_pullback_of_divisor_counts_placements():
    t, _ = build_tree([[1, 2], [3, 4]], [(0, 1)])
    y = pullback_forget(push_tree(t), 5)
    assert len(y.terms) == 2
    assert all(c == 1 for c in y.terms.values())


def test_pullback_projection_formula():
    # integrate(pullback(x) . fiber-psi-power) = integrate(x) via dilaton
    x = one_vertex([1, 2, 3, 4], {1: 1})
    y = pullback_forget(x, 5).mul_psi(5, 2)
    assert integrate(y) == integrate(x) * string_oracle([1, 0, 0, 0, 2]) / 1


def test_pushforward_examples():
    # psi_leg on the 4-pointed space pushes to the fundamental class
    x = one_vertex([1, 2, 3, 4], {4: 1})
    y = pushforward_forget(x, 4)
    t3, _ = build_tree([[1, 2, 3]], [])
    assert y == push_tree(t3)
    # an undecorated divisor separating {leg, x} pushes to the fundamental class
    t, _ = build_tree([[1, 2], [3, 4]], [(0, 1)])
    assert pushforward_forget(push_tree(t), 4) == push_tree(t3)
    # a term with no decoration and no contracted vertex dies
    assert pushforward_forget(one_vertex([1, 2, 3, 4]), 4).terms == {}


def test_psi_divisors_are_the_divisors_that_the_filter_kept():
    # the list built from split masks against the old filter of every
    # codimension-1 stratum: M holds the leg and neither a nor b
    cases = 0
    for n in range(4, 8):
        for ambient in (frozenset(range(1, n + 1)), frozenset(range(1, n)) | {H0}):
            for leg in ambient:
                a, b = trees.sort_labels(ambient - {leg})[:2]
                kept = [
                    S for S in strata_family(ambient, 1) if any(leg in M and not {a, b} & set(M) for M in S.legs)
                ]
                listed = strata0._psi_divisors(ambient, leg)
                assert len(listed) == len(set(listed)) and set(listed) == set(kept), (ambient, leg)
                cases += 1
    assert cases == 2 * (4 + 5 + 6 + 7)


def test_dilaton_equation():
    rng = random.Random(11)
    for n in (4, 5, 6):
        labels = list(range(1, n + 1))
        trees = enumerate_stable_trees(tuple(labels))
        for _ in range(4):
            t = rng.choice(trees)
            decs = enumerate_decorations(t, 2, leg_bounds={l: 3 for l in labels})
            d = rng.choice(decs)
            x = push_tree(t, d)
            lifted = pullback_forget(x, n + 1).mul_psi(n + 1)
            # the identity holds as classes, not termwise
            assert is_zero(pushforward_forget(lifted, n + 1) - x.scale(n - 2))


def test_string_equation_pushforward():
    # pushing forward the bare pullback gives zero; with one extra psi on an
    # original leg it lowers that exponent (string equation)
    x = one_vertex([1, 2, 3, 4], {1: 1})
    lifted = pullback_forget(x, 5)
    assert pushforward_forget(lifted, 5).terms == {}


def test_collide_direct_equals_product_route():
    rng = random.Random(23)
    for n in (4, 5, 6):
        labels = list(range(1, n + 1))
        trees = enumerate_stable_trees(tuple(labels))
        for _ in range(5):
            t = rng.choice(trees)
            decs = enumerate_decorations(t, 2, leg_bounds={l: 3 for l in labels})
            d = rng.choice(decs)
            x = push_tree(t, d)
            i, j = rng.sample(labels, 2)
            assert collide(x, i, j) == collide_via_product(x, i, j)


def test_collide_cases():
    # trivalent vertex: contract and bump psi on the kept leg with a sign
    t, _ = build_tree([[3, 4, 5], [1, 2]], [(0, 1)])
    y = collide(push_tree(t), 1, 2)
    t_img, _ = build_tree([[1, 3, 4, 5]], [])
    assert y == Class0(frozenset([1, 3, 4, 5]), {(t_img, make_decoration(leg_exp={1: 1})): Fraction(-1)})
    # big vertex: merge, coefficient kept
    x = one_vertex([1, 2, 3, 4, 5])
    y2 = collide(x, 1, 2)
    assert y2 == one_vertex([1, 3, 4, 5])
    # psi on a colliding leg at a big vertex kills the term
    assert collide(one_vertex([1, 2, 3, 4, 5], {1: 1}), 1, 2).terms == {}
    # legs apart give zero
    t2, _ = build_tree([[1, 3, 5], [2, 4]], [(0, 1)])
    assert collide(push_tree(t2), 1, 2).terms == {}
    with pytest.raises(InvalidArgument):
        collide(x, 1, 1)


def test_glue_push_gamma():
    # fundamental class of the small space glues to the coda stratum
    x = one_vertex([1, 2, 3, H0])
    y = glue_push_gamma(x, I={2}, n=4)
    expected, _ = build_tree([[1, 3, H0], [2, 4]], [(0, 1)])
    assert y == push_tree(expected)
    # a psi-decorated attachment leg transports onto the node branch
    x2 = one_vertex([1, 2, 3, H0], {1: 1})
    y2 = glue_push_gamma(x2, I={2}, n=4)
    assert len(y2.terms) == 1
    (tree, dec), coeff = next(iter(y2.terms.items()))
    assert coeff == 1 and dec.degree() == 1 and not dec.leg
    assert tree == expected


def test_glue_push_gamma_refuses_a_repeated_coda_member():
    x = one_vertex([1, 2, 3, H0])
    with pytest.raises(InvalidArgument, match="I repeats a member"):
        glue_push_gamma(x, (2, 2), 4)
    # any iterable names I
    assert glue_push_gamma(x, (2,), 4) == glue_push_gamma(x, [2], 4) == glue_push_gamma(x, {2}, 4)


def test_a_negative_psi_exponent_is_an_invalid_argument():
    tree, _ = build_tree([[1, 2, 3, H0]], [])
    with pytest.raises(InvalidArgument, match="a psi exponent must be an integer >= 0, not -1"):
        push_tree(tree).mul_psi(1, -1)
    with pytest.raises(InvalidArgument, match="a psi exponent must be an integer >= 0, not -1"):
        make_decoration(leg_exp={1: -1})
    # a negative power is refused even where it would only lower an exponent
    with pytest.raises(InvalidArgument, match="a psi exponent must be an integer >= 0, not -1"):
        push_tree(tree).mul_psi(1, 1).mul_psi(1, -1)


def test_a_psi_exponent_must_be_an_integer():
    # two half-powers once stored ψ_1^1.0, on which `integrate` raised TypeError
    tree, _ = build_tree([[1, 2, 3, H0]], [])
    with pytest.raises(InvalidArgument, match="a psi exponent must be an integer >= 0, not"):
        push_tree(tree).mul_psi(1, 0.5)
    for exponent in (0.5, 1.0, True, Fraction(1)):
        with pytest.raises(InvalidArgument, match="a psi exponent must be an integer >= 0, not"):
            make_decoration(leg_exp={1: exponent})
        with pytest.raises(InvalidArgument, match="a psi exponent must be an integer >= 0, not"):
            make_decoration(half_exp={(0, 0): exponent})
        with pytest.raises(InvalidArgument, match="a psi exponent must be an integer >= 0, not"):
            build_tree([[1, 2, 3, H0]], [], leg_exp={H0: exponent})
    assert integrate(push_tree(tree).mul_psi(1, 1)) == 1


def test_mul_psi_refuses_a_bad_power_or_leg_with_terms_or_without():
    # a bool power once became ψ_1, ψ_1·ψ_1^-1 the point class, and the
    # empty class took any leg and any power
    tree, _ = build_tree([[1, 2, 3, H0]], [])
    psi1 = push_tree(tree, make_decoration(leg_exp={1: 1}))
    for x in (push_tree(tree), psi1, Class0(tree.all_legs())):
        for power in (True, False, 0.5, -1):
            with pytest.raises(InvalidArgument, match=rf"a psi exponent must be an integer >= 0, not {power!r}$"):
                x.mul_psi(1, power)
        for leg in (99, -1, 4):
            with pytest.raises(InvalidArgument, match="no leg"):
                x.mul_psi(leg)
        for leg in (0.5, True):  # no label: refused by the label guard
            with pytest.raises(InvalidArgument, match=rf"^a leg must be an integer or a string, not {leg!r}$"):
                x.mul_psi(leg)
    assert psi1.mul_psi(1, 0) == psi1 and push_tree(tree).mul_psi(1) == psi1


def test_glue_push_sigma0():
    x = one_vertex([1, 2, H0], {H0: 0})
    y = glue_push_sigma0(x, 3)
    expected, _ = build_tree([[1, 2], [3, H0]], [(0, 1)])
    assert y == push_tree(expected)


def _rank(rows):
    rows = [list(r) for r in rows]
    rank, col = 0, 0
    while rank < len(rows) and col < len(rows[0]):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_divisor_pairing_matrix_rank():
    # the zero test is complete because strata span and the pairing is
    # perfect; on divisors this means the mutual pairing matrix has rank
    # equal to the known Picard rank 2^{n-1} - C(n,2) - 1
    for n, expected in ((5, 5), (6, 16)):
        divisors = strata_family(frozenset(range(1, n + 1)), 1)
        others = strata_family(frozenset(range(1, n + 1)), n - 4)
        matrix = [[pair(push_tree(d), s) for s in others] for d in divisors]
        assert _rank(matrix) == expected


def _decorated_terms(labels):
    """Every nonzero decorated stratum (tree, dec) on the given legs."""
    dim = len(labels) - 3
    return [
        (t, d)
        for t in enumerate_stable_trees(labels)
        for d in enumerate_decorations(t, dim - t.num_edges())
        if push_tree(t, d).terms
    ]


@pytest.mark.parametrize("labels", [(1, 2, 3, 4, H0), (1, 2, 3, 4, 5, H0)])
def test_pair_term_equals_the_product_route(labels):
    # pair_term pairs one term; the product route builds the excess product
    # as a class and integrates it
    ambient = frozenset(labels)
    dim = len(labels) - 3
    terms = _decorated_terms(labels)
    for t, d in random.Random(5).sample(terms, min(len(terms), 120)):
        for S in strata_family(ambient, dim - t.num_edges() - d.degree()):
            assert pair_term(t, d, S, ambient) == integrate(product_with_stratum(push_tree(t, d), S))


@pytest.mark.parametrize("labels", [(1, 2, 3, 4, H0), (1, 2, 3, 4, 5, H0)])
def test_zero_witness_is_the_first_nonzero_pairing(labels):
    ambient = frozenset(labels)
    dim = len(labels) - 3
    rng = random.Random(11)
    terms = _decorated_terms(labels)
    for deg in range(dim + 1):
        pool = [(t, d) for t, d in terms if t.num_edges() + d.degree() == deg]
        family = strata_family(ambient, dim - deg)
        for _ in range(4):
            x = from_terms(ambient, [(t, d, rng.randint(-3, 3)) for t, d in rng.sample(pool, min(len(pool), 3))])
            assert zero_witness(x) == next((S for S in family if pair(x, S)), None)
            assert zero_witness(x - x) is None


def _z_terms(n):
    """The distinct terms of every Z(n,i,j) and Zᵗ(n,i,j) of the vanishing grid."""
    terms = {key for i in range(1, n) for j in range(1, i) for f in (z_cycle, z_truncated) for key in f(n, i, j).terms}
    return sorted(terms, key=lambda key: strata0.term_sort_key(*key))


def test_pairing_kernel_equals_the_product_route():
    # every term of every Z/Zᵗ with n <= 5, then a fixed sample of the n = 6
    # terms, against every stratum of complementary codimension
    cases = [(n, t, d) for n in range(3, 6) for t, d in _z_terms(n)]
    cases += [(6, t, d) for t, d in random.Random(19).sample(_z_terms(6), 60)]
    pairs = nonzero = 0
    for n, t, d in cases:
        ambient = ambient0(n)
        for S in strata_family(ambient, n - 2 - t.num_edges() - d.degree()):
            value = pair_term(t, d, S, ambient)
            assert value == integrate(product_with_stratum(push_tree(t, d), S))
            pairs += 1
            nonzero += value != 0
    assert 0 < nonzero < pairs


def test_pair_term_with_two_shared_edges():
    # on 7 legs two codim-2 strata can share both edges: the excess factor
    # (-ψ' - ψ'')^2 expands into four decorations
    labels = (1, 2, 3, 4, 5, 6, H0)
    ambient = frozenset(labels)
    family = strata_family(ambient, 2)
    for t in random.Random(7).sample(family, 6):
        for S in family:
            assert pair_term(t, make_decoration(), S, ambient) == integrate(product_with_stratum(push_tree(t), S))


# ---------------------------------------------------------------------------
# the integer pairing kernel against the formulas it replaced


def _integrate_term_by_fractions(tree, dec, ambient):
    """integrate_term as a product of Fraction multinomials."""
    if tree.num_edges() + dec.degree() != len(ambient) - 3:
        return Fraction(0)
    load = [[] for _ in range(tree.num_vertices())]
    for (eid, side), e in dec.half:
        load[tree.edges[eid][side]].append(e)
    for l, e in dec.leg:
        load[vertex_of_leg(tree, l)].append(e)
    total = Fraction(1)
    for v, exps in enumerate(load):
        k = len(tree.legs[v]) + sum(v in edge for edge in tree.edges)
        if sum(exps) != k - 3:
            return Fraction(0)
        total *= Fraction(math.factorial(k - 3), math.prod(math.factorial(e) for e in exps))
    return total


def _pairwise_laminar(t_masks, s_masks):
    union = set(t_masks) | set(s_masks)
    return all((p & q) in (0, p, q) for p, q in itertools.combinations(union, 2))


def test_laminar_agrees_with_the_pairwise_test_on_the_union():
    # every pair of strata on 6 legs, then every codim-1 x codim-3 pair on 7
    six = frozenset((1, 2, 3, 4, 5, H0))
    seven = six | {6}
    family = [S for c in range(4) for S in strata_family(six, c)]
    cases = [(six, T, S) for T in family for S in family]
    cases += [(seven, T, S) for T in strata_family(seven, 1) for S in strata_family(seven, 3)]
    laminar_pairs = 0
    for ambient, T, S in cases:
        pairwise = _pairwise_laminar(splits(T), splits(S))
        assert _laminar(T, S) == pairwise
        if ambient is six:
            assert (_refine(T, S, ambient) is None) == (not pairwise)
        laminar_pairs += pairwise
    assert 0 < laminar_pairs < len(cases)


def test_zero_witness_pairs_the_same_strata(monkeypatch):
    # the refinements a zero test makes.  On a class that records no summands,
    # in codim >= 1: each tree of the class with each stratum laminar with it,
    # once, in family order; on a passing class for every stratum, on a
    # failing class up to the first stratum with a nonzero pairing, where it
    # stops.  In codim 0 the one stratum is the whole space: none.  Z and Z^t
    # of one degree sum the same frozen blocks, so once one of them is tested
    # the other refines nothing.
    seen = []
    refine = strata0._refine

    def recording(tree, stratum, ambient):
        seen.append((tree, stratum))
        return refine(tree, stratum, ambient)

    def laminar_pairs(x, family):
        trees = dict.fromkeys(t for t, _ in x.terms)
        return [(t, S) for S in family for t in trees if _pairwise_laminar(splits(t), splits(S))]

    monkeypatch.setattr(strata0, "_refine", recording)
    for j, i in itertools.combinations(range(1, 5), 2):
        sums = (z_cycle(5, i, j), z_truncated(5, i, j))
        for z in sums:
            x = from_terms(z.ambient, [(t, d, c) for (t, d), c in z.terms.items()])
            (t, d), _ = x.items()[0]
            codim = 3 - t.num_edges() - d.degree()
            family = strata_family(x.ambient, codim)
            failing = x + push_tree(t, d)
            witness = next(S for S in family if pair(failing, S))
            for y, stop in ((x, len(family)), (failing, family.index(witness) + 1)):
                seen.clear()
                assert zero_witness(y) == (None if y is x else witness)
                assert seen == (laminar_pairs(y, family[:stop]) if codim else [])
        assert zero_witness(sums[0]) is None
        seen.clear()
        assert zero_witness(sums[1]) is None
        assert seen == []


def _vanishing_sums(n_max: int):
    """``(x, legs)`` for each Z(n, i, j) and Z^t(n, i, j) that `rtails verify
    vanishing --max-n n_max` tests, as its recorded sum of the frozen blocks,
    with the legs it certifies; then the same sum with one block perturbed
    (a thawed copy with one coefficient moved, frozen again)."""
    for n in range(3, n_max + 1):
        for i, j in ((i, j) for i in range(1, n) for j in range(1, i)):
            degree = cycles._z_degree(n, i, j)
            blocks = cycles._z_blocks(n, 1, degree)
            for truncated in (False, True):
                x = z_truncated(n, i, j) if truncated else z_cycle(n, i, j)
                legs = cycles._z_symmetry(n, 1, degree) if degree < n - 2 else frozenset()
                yield x, legs
                moved = list(blocks)[(i + j) % len(blocks)]
                thawed = Class0(x.ambient, blocks[moved].terms)
                thawed._put(min(thawed.terms, key=lambda key: trees.term_sort_key(*key)), 1)
                perturbed = {**blocks, moved: thawed.freeze()}
                yield strata0.zero(x.ambient).plus((rooted_factor(key, i, truncated), perturbed[key]) for key in blocks), legs


def test_a_recorded_sum_and_its_copy_give_the_same_witness():
    # pairing is linear and the strata are walked in one order, so pairing
    # the recorded blocks finds the stratum that pairing the terms finds
    cases = list(_vanishing_sums(6))
    assert len(cases) == 80
    failing = 0
    for x, legs in cases:
        assert x._summands
        copy = from_terms(x.ambient, [(t, d, c) for (t, d), c in x.terms.items()])
        assert copy == x and getattr(copy, "_summands", None) is None
        for walked in (legs, frozenset()):
            witness = zero_witness(x, walked)
            assert witness == zero_witness(copy, walked)
        failing += witness is not None
    assert failing == 40


def test_a_codim_0_pairing_is_the_integral():
    # the whole space is the one stratum: each term is integrated as it is
    for n in range(3, 7):
        ambient = ambient0(n)
        (whole,) = strata_family(ambient, 0)
        for block in cycles._z_blocks(n, 1, n - 2).values():
            for part in (block, block.scale(Fraction(2, 3))):
                assert strata0._pair_part(strata0._pairing_kernel(part), whole, ambient, 0) == integrate(part)


def test_a_put_drops_the_record(monkeypatch):
    x = z_cycle(5, 3, 1)
    assert zero_witness(x) is None  # its blocks are paired now
    assert [y for _, y in x._summands] == list(cycles._z_blocks(5, 1, 2).values())
    x._put(min(x.terms, key=lambda key: trees.term_sort_key(*key)), 1)
    assert x._summands is None
    seen = []
    refine = strata0._refine
    monkeypatch.setattr(strata0, "_refine", lambda *args: seen.append(args) or refine(*args))
    witness = zero_witness(x)
    assert seen and {tree for tree, _, _ in seen} <= {tree for tree, _ in x.terms}  # its own terms, refined anew
    assert witness is not None and witness == zero_witness(from_terms(x.ambient, [(t, d, c) for (t, d), c in x.terms.items()]))


def test_a_sum_records_only_frozen_summands_into_an_empty_class():
    blocks = list(cycles._z_blocks(5, 1, 2).values())
    empty = strata0.zero(blocks[0].ambient)
    assert empty.plus([(1, blocks[0]), (Fraction(1, 2), blocks[1])])._summands == [(1, blocks[0]), (Fraction(1, 2), blocks[1])]
    assert (empty + blocks[0])._summands == [(1, blocks[0])] and blocks[0].scale(3)._summands == [(3, blocks[0])]
    thawed = Class0(blocks[1].ambient, blocks[1].terms)
    assert empty.plus([(1, blocks[0]), (1, thawed), (1, blocks[2])])._summands is None
    assert (thawed + blocks[0])._summands is None  # self has terms
    assert getattr(thawed, "_summands", None) is None


def test_integrate_term_is_the_fraction_formula():
    for j, i in itertools.combinations(range(1, 5), 2):
        x = z_cycle(5, i, j)
        products = [
            product_with_stratum(push_tree(t, d), S)
            for t, d in x.terms
            for S in strata_family(x.ambient, 3 - t.num_edges() - d.degree())
        ]
        decorated = list(x.terms) + [key for y in products for key in y.terms]
        nonzero = 0
        for t, d in decorated:
            value = integrate_term(t, d, x.ambient)
            assert type(value) is int
            assert value == _integrate_term_by_fractions(t, d, x.ambient)
            nonzero += value != 0
        assert nonzero


def test_memoised_pairings_equal_fresh_ones(monkeypatch):
    labels = (1, 2, 3, 4, 5, H0)
    ambient = frozenset(labels)
    dim = len(labels) - 3
    cases = [
        (t, d, S)
        for t, d in random.Random(13).sample(_decorated_terms(labels), 60)
        for S in strata_family(ambient, dim - t.num_edges() - d.degree())
    ]
    calls = []

    def counting(*args):
        calls.append(args)
        return integrate_term(*args)

    monkeypatch.setattr(strata0, "integrate_term", counting)
    _refine.cache_clear()
    fresh = [pair_term(t, d, S, ambient) for t, d, S in cases]
    assert calls
    calls.clear()
    memoised = [pair_term(t, d, S, ambient) for t, d, S in cases]
    assert not calls  # every value came from a refinement's memo
    monkeypatch.undo()
    for (t, d, S), a, b in zip(cases, fresh, memoised):
        assert a == b == integrate(product_with_stratum(push_tree(t, d), S))


def test_zero_witness_with_fractional_coefficients():
    labels = (1, 2, 3, 4, 5, H0)
    ambient = frozenset(labels)
    rng = random.Random(17)
    coeffs = (Fraction(1, 3), Fraction(2, 7), Fraction(-5, 21), Fraction(7, 4))
    terms = _decorated_terms(labels)
    for deg in range(1, 4):
        pool = [(t, d) for t, d in terms if t.num_edges() + d.degree() == deg]
        family = strata_family(ambient, 3 - deg)
        for _ in range(4):
            x = from_terms(ambient, [(t, d, rng.choice(coeffs)) for t, d in rng.sample(pool, 4)])
            assert zero_witness(x) == next((S for S in family if pair(x, S) != 0), None)
    # a relation with such coefficients is still zero: 2/7 (psi_h0 - the divisors it equals)
    psi = one_vertex(labels, {H0: 1})
    relation = psi
    for r in range(2, 5):
        for M in itertools.combinations(range(1, 6), r):
            if 1 in M and 2 in M:
                t, _ = build_tree([sorted(ambient - set(M), key=str), sorted(M)], [(0, 1)])
                relation = relation - push_tree(t)
    assert zero_witness(relation.scale(Fraction(2, 7))) is None
    assert zero_witness(relation.scale(Fraction(2, 7)) + psi.scale(Fraction(1, 3))) is not None


@pytest.mark.parametrize("legs, betti", [(4, (1, 1)), (5, (1, 5, 1)), (6, (1, 16, 16, 1))])
def test_pairing_ranks_are_keels_betti_numbers(legs, betti):
    # Keel (Trans. AMS 1992): the Betti numbers of the moduli space of stable
    # legs-pointed rational curves; the pairing between strata of codim c and
    # dim - c is perfect on the classes they span, so its rank is betti[c]
    ambient = frozenset(range(1, legs + 1))
    dim = legs - 3
    for c in range(dim + 1):
        rows = [[pair(push_tree(S), T) for T in strata_family(ambient, dim - c)] for S in strata_family(ambient, c)]
        assert _rank(rows) == betti[c]


def test_class_arithmetic_keeps_terms_and_checks_new_ones():
    x, y = z_cycle(4, 2, 1), z_cycle(4, 3, 1)
    assert (x + y) - y == x
    assert (x - x).terms == {} and x.scale(0).terms == {}
    assert x.scale(Fraction(2, 3)).terms == {k: c * Fraction(2, 3) for k, c in x.terms.items()}
    total = x + y
    total.terms.clear()  # a sum owns its terms
    assert x.terms and y.terms
    (t, d), _ = next(iter(x.terms.items()))
    with pytest.raises(InvalidArgument):
        Class0(frozenset((1, 2, 3, H0)), {(t, d): Fraction(1)})
    with pytest.raises(InvalidArgument):
        x + z_cycle(3, 2, 1)


def test_strata_families_come_from_one_enumeration():
    ambient = frozenset((1, 2, 3, 4, 5, H0))
    full = enumerate_stable_trees((1, 2, 3, 4, 5, H0))
    assert enumerate_stable_trees((H0, 1, 2, 3, 4, 5)) is full
    assert enumerate_trees0(5) is full
    by_codim = [strata_family(ambient, c) for c in range(4)]
    for c, family in enumerate(by_codim):
        assert family == tuple(t for t in full if t.num_edges() == c)
        assert list(family) == sorted(family, key=lambda t: t.sort_key())
    assert sum(map(len, by_codim)) == len(full)


def test_the_dual_tree_of_a_strata_split_family_is_that_stratum():
    # `splits` numbers the bits over the labels after the base, as the
    # enumerator's split-keyed tree cache does
    for labels in ((H0, 1, 2, 3, 4), (H0, 1, 2, 3, 4, 5)):
        for S in enumerate_stable_trees(labels):
            assert trees._tree_from_laminar(labels[1:], splits(S), rt=False, base=labels[:1]) == S


def test_genus0_classes_refuse_rational_tails_graphs():
    # a genus vertex with h0 and 1, and a rational one with 2 and 3
    rt, dec = build_tree([[H0, 1], [2, 3]], [(0, 1)], rt_root=0)
    ambient = frozenset((H0, 1, 2, 3))
    point = push_tree(build_tree([[H0, 1, 2, 3]], [])[0])
    for refused in (
        lambda: Class0(ambient, {(rt, dec): 1}),
        lambda: push_tree(rt, dec),
        lambda: pair(point, rt),
        lambda: product_with_stratum(point, rt),
    ):
        with pytest.raises(InvalidArgument):
            refused()


def test_inexact_coefficients_are_refused():
    z = z_cycle(4, 3, 1)
    (t, d), _ = next(iter(z.terms.items()))
    for refused in (
        lambda: z.scale(0.1),
        lambda: from_terms(z.ambient, [(t, d, 0.1)]),
        lambda: Class0(z.ambient, {(t, d): 0.5}),
    ):
        with pytest.raises(InvalidArgument):
            refused()
    # exact rationals of every kind stay welcome: an int is stored as it is,
    # any other rational as a Fraction
    assert z.scale(Fraction(1, 10)).terms == {key: Fraction(c, 10) for key, c in z.terms.items()}
    assert from_terms(z.ambient, [(t, d, 2)]) == Class0(z.ambient, {(t, d): Fraction(2)})
    assert type(Class0(z.ambient, {(t, d): 2}).terms[(t, d)]) is int
    assert type(Class0(z.ambient, {(t, d): Fraction(1, 2)}).terms[(t, d)]) is Fraction



def test_relabel_class_refuses_a_merging_mapping():
    # the empty class once moved to {h0, 2, 3}; a class with terms was refused
    for x in (Class0(ambient0(3)), z_cycle(3, 2, 1)):
        with pytest.raises(InvalidArgument, match="duplicate leg labels"):
            strata0.relabel_class(x, {1: 2})
    assert strata0.relabel_class(Class0(ambient0(3)), {1: 4}).ambient == frozenset({H0, 2, 3, 4})

# ---------------------------------------------------------------------------
# the orbit route: one stratum per orbit of the legs a class is invariant under


def _brute_orbit_firsts(ambient, codim, legs):
    """The first stratum of each orbit, with each orbit built by relabelling
    under every permutation of ``legs``."""
    order = sorted(legs)
    seen, firsts = set(), []
    for S in strata_family(ambient, codim):
        if S not in seen:
            firsts.append(S)
            for images in itertools.permutations(order):
                seen.add(relabel(S, make_decoration(), renaming(ambient, False, dict(zip(order, images))))[0])
    return tuple(firsts)


@pytest.mark.parametrize("n", [4, 5])
def test_orbit_firsts_equal_the_brute_force_orbits(n):
    ambient = ambient0(n)
    for legs in (frozenset(range(1, n)), frozenset(range(2, n))):
        for codim in range(n - 1):
            assert _orbit_firsts(ambient, codim, legs) == _brute_orbit_firsts(ambient, codim, legs), (legs, codim)


def test_orbit_counts_on_seven_legs():
    ambient = ambient0(6)
    assert [len(_orbit_firsts(ambient, c, frozenset(range(1, 6)))) for c in range(1, 5)] == [8, 26, 38, 20]
    assert [len(_orbit_firsts(ambient, c, frozenset(range(1, 7)))) for c in range(1, 5)] == [4, 10, 12, 6]


def test_the_orbit_route_refuses_legs_that_cannot_move():
    x = z_cycle(4, 2, 1)
    for legs in ({H0, 1, 2}, {1, 2, 9}):
        for refused in (lambda: zero_witness(x, legs), lambda: zero_witness(x - x, legs)):
            with pytest.raises(InvalidArgument):
                refused()


def test_is_invariant_checks_the_whole_symmetric_group():
    psi1 = one_vertex((H0, 1, 2, 3, 4), {1: 1})
    assert is_invariant(psi1, {2, 3, 4})
    assert not is_invariant(psi1, {1, 2, 3, 4})
    assert is_invariant(psi1, {1}) and is_invariant(psi1, ())
    # legs off the ambient: a renaming of them alone fixes x, and one that
    # moves an ambient leg off it changes the space, terms or none
    assert is_invariant(psi1, {8, 9}) and not is_invariant(psi1, {4, 9}) and not is_invariant(psi1 - psi1, {4, 9})
    # ψ_2 + ψ_3 is fixed by the swap of 2 and 3, the one transposition checked
    # on {2, 3, 4}; the cycle of 2, 3, 4 moves it
    lopsided = one_vertex((H0, 1, 2, 3, 4), {2: 1}) + one_vertex((H0, 1, 2, 3, 4), {3: 1})
    assert not is_invariant(lopsided, {2, 3, 4})
    assert is_invariant(lopsided, {2, 3})
    # ψ_2 + 2ψ_3: the swap sends each term to a term of the class, whose
    # coefficient differs
    uneven = one_vertex((H0, 1, 2, 3, 4), {2: 1}) + one_vertex((H0, 1, 2, 3, 4), {3: 1}).scale(2)
    assert not is_invariant(uneven, {2, 3}) and not is_invariant(uneven, {2, 3, 4})
    assert is_invariant(uneven.scale(0), {2, 3})
