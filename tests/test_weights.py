"""Weighting enumeration and coefficient systems."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from rtails.trees import (
    H0,
    InvalidArgument,
    build_tree,
    enumerate_decorations,
    enumerate_rt_graphs,
    enumerate_trees0,
    make_decoration,
)
from rtails.weights import (
    coeff_c,
    coeff_c_im,
    coeff_c_im_truncated,
    coeff_d,
    coeff_dp,
    enumerate_weightings,
    rooted_factor,
    rooted_split,
    weight_product,
)


def _single_edge_graph(head_exp=0, tail_exp=0):
    # genus root joined to a rational vertex with three legs
    return build_tree(
        [[], [1, 2, 3]],
        [(0, 1)],
        rt_root=0,
        half_exp={(0, 1): head_exp, (0, 0): tail_exp},
    )


def test_intro_weighting_sets():
    g, dec = _single_edge_graph(head_exp=1)
    ws = enumerate_weightings(g, dec)
    eid = 0
    chains = sorted((w[((eid, 1), 0)], w[((eid, 1), 1)]) for w in ws)
    assert chains == [(1, 1), (2, 1), (2, 2)]
    assert sum(weight_product(w) for w in ws) == 7


def test_intro_coefficients():
    g1, d1 = _single_edge_graph(head_exp=1)
    assert coeff_c(g1, d1) == 7
    assert coeff_c(g1, d1, method="brute") == 7

    g2, d2 = _single_edge_graph(head_exp=1, tail_exp=1)
    ws = enumerate_weightings(g2, d2)
    assert len(ws) == 2
    assert sorted(weight_product(w) for w in ws) == [2, 4]
    assert coeff_c(g2, d2) == 6

    # chain: root - v(one leg) - w(three legs), psi on the inner head
    g3, d3 = build_tree(
        [[], [4], [1, 2, 3]],
        [(0, 1), (1, 2)],
        rt_root=0,
        half_exp={(1, 1): 1},
    )
    assert coeff_c(g3, d3) == 42
    assert coeff_c(g3, d3, method="brute") == 42
    # the chain factorization: 6 x 7 over the two independent edges
    rep = coeff_dp(g3, d3)
    assert rep.coefficient == 42 and rep.method == "dp"


def test_rooted_examples():
    t, _ = build_tree([[1, 2, 3, H0]], [])
    psi_h0 = make_decoration(leg_exp={H0: 1})
    # i exceeding the h0 capacity gives the empty set
    assert enumerate_weightings(t, psi_h0, context="i-rooted", i=3, m=1) == ()
    assert coeff_c_im(t, psi_h0, i=3, m=1) == 0
    # the psi_h0 coefficient of Z(3,2,1)
    assert coeff_c_im(t, psi_h0, i=2, m=1) == 6
    assert coeff_c_im(t, psi_h0, i=2, m=1, method="brute") == 6

    one_edge, _ = build_tree([[3, H0], [1, 2]], [(0, 1)])
    assert coeff_c_im(one_edge, make_decoration(), i=2, m=1) == 2

    # d1 >= m annihilates
    assert coeff_c_im(t, make_decoration(leg_exp={1: 1}), i=1, m=1) == 0
    with pytest.raises(InvalidArgument):
        coeff_c_im(t, make_decoration(), i=0, m=1)


def test_coda_examples():
    # one-vertex coda, I = {1..n-1}: d^{n-1} = 1
    for n in (3, 4, 5):
        t, _ = build_tree([list(range(1, n + 1)) + [H0]], [])
        I = frozenset(range(1, n))
        assert coeff_d(t, make_decoration(), i=n - 1, I=I) == 1
        # i = n-1 with a smaller I is not a coda for the one-vertex tree
        assert coeff_d(t, make_decoration(), i=1, I=I) == 0

    # n = 3, |I| = 1: the two base-case codas have d^1 = 1
    for I in ({1}, {2}):
        other = ({1, 2} - I).pop()
        t, _ = build_tree([[other, H0], [list(I)[0], 3]], [(0, 1)])
        assert coeff_d(t, make_decoration(), i=1, I=I) == 1
        assert coeff_d(t, make_decoration(), i=1, I=I, method="brute") == 1

    # coda-membership violation
    t_bad, dec_bad = build_tree([[2, H0], [1, 3]], [(0, 1)], half_exp={(0, 1): 1})
    with pytest.raises(InvalidArgument):
        coeff_d(t_bad, dec_bad, i=1, I={1})


def test_coda_weightings_pin_head_value():
    t, _ = build_tree([[3, H0], [1, 2, 4]], [(0, 1)])
    ws = enumerate_weightings(t, make_decoration(), context="i-coda", i=1, I={1, 2})
    assert ws
    assert all(w[((0, 1), 0)] == 2 for w in ws)


def test_dp_equals_brute_on_enumerated_families():
    for n in (3, 4):
        for t in enumerate_trees0(n):
            for dec in enumerate_decorations(t, 2):
                for i in range(1, n):
                    assert coeff_c_im(t, dec, i, 1) == coeff_c_im(t, dec, i, 1, method="brute")
                assert coeff_c_im(t, dec, 1, 2) == coeff_c_im(t, dec, 1, 2, method="brute")
    for g in enumerate_rt_graphs(3):
        for dec in enumerate_decorations(g, 2):
            assert coeff_c(g, dec) == coeff_c(g, dec, method="brute")


def test_dp_equals_brute_weighted_legs():
    for g in enumerate_rt_graphs(3):
        for dec in enumerate_decorations(g, 2, leg_bounds={1: 2, 2: 3, 3: 1}):
            mults = {1: 2, 2: 3}
            assert coeff_c(g, dec, mults) == coeff_c(g, dec, mults, method="brute")


def test_zero_weights_would_not_change_coefficients():
    # extending the codomain to include 0 only adds zero-product weightings:
    # recompute small coefficients by a direct scan allowing zeros.
    g, dec = _single_edge_graph(head_exp=1)
    cap = 3
    total = 0
    for w0, w1 in itertools.product(range(0, cap), repeat=2):
        if w0 >= w1 and w0 <= cap - 1:
            total += w0 * w1
    assert total == coeff_c(g, dec)


def test_monotonicity_in_capacity():
    # adding a leg beyond a head grows the weighting set
    for legs in ([3], [3, 4]):
        g, dec = build_tree([[], legs, [1, 2]], [(0, 1), (1, 2)], rt_root=0, half_exp={(1, 1): 1})
        g_big, dec_big = build_tree(
            [[], legs, [1, 2, 9]], [(0, 1), (1, 2)], rt_root=0, half_exp={(1, 1): 1}
        )
        assert coeff_c(g_big, dec_big) >= coeff_c(g, dec)


def test_coeff_dp_reports():
    g, dec = _single_edge_graph(head_exp=1)
    rep = coeff_dp(g, dec)
    assert rep.coefficient == Fraction(7)
    assert rep.weighting_count == 3


def test_dp_count_equals_listed_weightings():
    # `rtails coeff` prints the DP count; the brute enumerator lists the set
    def agree(tree, dec, **context):
        count = coeff_dp(tree, dec, **context).weighting_count
        assert count == len(enumerate_weightings(tree, dec, **context))
        return count

    codas = 0
    for n in (3, 4):
        for t in enumerate_trees0(n):
            for dec in enumerate_decorations(t, 2, leg_bounds={1: 2}):
                for i in range(1, n + 1):
                    for m in (1, 2):
                        agree(t, dec, context="i-rooted", i=i, m=m)
                for r in range(1, n):
                    for I in itertools.combinations(range(1, n), r):
                        for i in range(1, n):
                            try:
                                codas += agree(t, dec, context="i-coda", i=i, I=I) > 0
                            except InvalidArgument:
                                pass  # (t, dec) is not a decorated coda for I
    assert codas > 20
    for n in (2, 3):
        for g in enumerate_rt_graphs(n):
            for dec in enumerate_decorations(g, 2, leg_bounds={1: 2, 2: 3}):
                agree(g, dec)
                agree(g, dec, mults={1: 2, 2: 3})


def test_split_coefficients_equal_the_listed_weightings():
    # c^{i,m} = free * rooted_factor(key, i): the grouped route's product
    # against the brute enumeration, plain and truncated, for every term of
    # Z^m(n, ., .) with n <= 5
    from rtails import cycles
    from rtails.trees import decorations_of_degree

    for n in range(2, 6):
        for m in range(1, 7 - n):
            for degree in range(n - 1):
                blocks = cycles._z_blocks(n, m, degree)
                for tree in enumerate_trees0(n):
                    budget = degree - tree.num_edges()
                    if budget < 0:
                        continue
                    sign = (-1) ** (1 + tree.num_edges())
                    for dec in decorations_of_degree(tree, budget, leg_bounds={1: m}):
                        free, key = rooted_split(tree, dec, m)
                        held = blocks[key].terms.get((tree, dec), 0) if key in blocks else 0
                        assert held == sign * free
                        for i in range(1, n + m + 1):
                            assert free * rooted_factor(key, i) == coeff_c_im(tree, dec, i, m, method="brute")
                            truncated = coeff_c_im_truncated(tree, dec, i, m, method="brute")
                            assert free * rooted_factor(key, i, truncated=True) == truncated
