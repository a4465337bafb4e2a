"""Tree enumeration, canonical form, capacities, decorations, splitting."""

from __future__ import annotations

import itertools
import random

import pytest

from rtails import trees
from rtails.trees import (
    H0,
    InvalidArgument,
    Decoration,
    build_tree,
    capacity,
    child_edges_of,
    decorations_of_degree,
    enumerate_decorations,
    enumerate_rt_graphs,
    enumerate_trees0,
    make_decoration,
    overloaded,
    parent_edge_of,
    relabel,
    split_vertex,
    valence,
    vertex_of_leg,
)


# ---------------------------------------------------------------------------
# independent oracle: grow stable trees by inserting one leg at a time.
# A stable tree on L+{x} arises uniquely from a stable tree on L by either
# attaching x to an existing vertex, or splitting an edge-or-vertex corner;
# we simply generate all attachments and dedupe by canonical form.


def _oracle_trees(labels, rt):
    labels = list(labels)
    base = labels[:1]
    if rt:
        start = [build_tree([base], [], rt_root=0)[0]]
    else:
        if len(labels) < 3:
            raise ValueError
        base = labels[:3]
        start = [build_tree([base], [])[0]]
    trees = set(start)
    for label in labels[len(base):]:
        grown = set()
        for t in trees:
            nv = t.num_vertices()
            # attach to an existing vertex
            for v in range(nv):
                legs = [list(ls) for ls in t.legs]
                legs[v].append(label)
                grown.add(build_tree(legs, list(t.edges), rt_root=0 if rt else None)[0])
            # attach via a new trivalent vertex in the middle of an edge
            for eid, (a, b) in enumerate(t.edges):
                legs = [list(ls) for ls in t.legs] + [[label]]
                edges = [list(p) for p in t.edges]
                edges[eid] = [a, nv]
                edges.append([nv, b])
                grown.add(build_tree(legs, edges, rt_root=0 if rt else None)[0])
            # pull a subset of a vertex's items onto a new vertex joined to it,
            # with the fresh leg landing on either side
            for v in range(nv):
                items = list(t.legs[v]) + [("e", e) for e in child_edges_of(t, v)]
                for r in range(1, len(items) + 1):
                    for chosen in itertools.combinations(items, r):
                        for new_on_new in (True, False):
                            legs = [list(ls) for ls in t.legs] + [[]]
                            legs[nv if new_on_new else v].append(label)
                            edges = [list(p) for p in t.edges]
                            for item in chosen:
                                if isinstance(item, tuple) and item[0] == "e":
                                    edges[item[1]][0] = nv
                                else:
                                    legs[v].remove(item)
                                    legs[nv].append(item)
                            edges.append([v, nv])
                            try:
                                grown.add(build_tree(legs, edges, rt_root=0 if rt else None)[0])
                            except InvalidArgument:
                                pass
        trees = grown
    return trees


def test_enumerate_trees0_counts():
    # frozen from the oracle: 1, 4, 26 for n = 2, 3, 4
    for n, expected in [(2, 1), (3, 4), (4, 26)]:
        got = enumerate_trees0(n)
        oracle = _oracle_trees(list(range(1, n + 1)) + [H0], rt=False)
        assert len(oracle) == expected
        assert set(got) == oracle


def test_enumerate_trees0_matches_oracle_n5():
    got = enumerate_trees0(5)
    oracle = _oracle_trees([1, 2, 3, 4, 5, H0], rt=False)
    assert set(got) == oracle


def test_enumerate_rt_counts():
    # frozen from the oracle: 1, 2, 8 for n = 1, 2, 3
    for n, expected in [(1, 1), (2, 2), (3, 8)]:
        got = enumerate_rt_graphs(n)
        oracle = _oracle_trees(list(range(1, n + 1)), rt=True)
        assert len(oracle) == expected
        assert set(got) == oracle


def test_enumerate_rt_matches_oracle_n4():
    assert set(enumerate_rt_graphs(4)) == _oracle_trees([1, 2, 3, 4], rt=True)


def test_enumeration_rejects_out_of_range():
    with pytest.raises(InvalidArgument):
        enumerate_trees0(1)
    with pytest.raises(InvalidArgument):
        enumerate_rt_graphs(0)


def test_head_count_invariant():
    # |H+| = 1 + |E| for rooted rational trees (h0 counts as a head)
    for t in enumerate_trees0(4):
        assert 1 + t.num_edges() == len(t.edges) + 1
        assert vertex_of_leg(t, H0) == 0


def test_canonical_form_stable_under_relabeling():
    rng = random.Random(7)
    for t in enumerate_trees0(5)[::17] + enumerate_rt_graphs(4)[::5] + enumerate_trees0(6)[::311]:
        nv = t.num_vertices()
        for _ in range(5):
            perm = list(range(nv))
            rng.shuffle(perm)
            legs = [None] * nv
            for v in range(nv):
                ls = list(t.legs[v])
                rng.shuffle(ls)
                legs[perm[v]] = ls
            edges = [(perm[a], perm[b]) for a, b in t.edges]
            rng.shuffle(edges)
            edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
            rebuilt, _ = build_tree(legs, edges, rt_root=perm[0] if t.rt else None)
            assert rebuilt == t


def test_capacity_examples():
    # single-edge rt graph, rational vertex with 3 legs: capacity 3
    g, _ = build_tree([[], [1, 2, 3]], [(0, 1)], rt_root=0)
    assert capacity(g, 0) == 3
    # rooted one-vertex tree, n=3, m=1 at leg 1: h0 capacity = n-1+m = 3
    t, _ = build_tree([[1, 2, 3, H0]], [])
    assert capacity(t, H0, {1: 1}) == 3
    assert capacity(t, H0, {1: 2}) == 4
    # chain rt graph g - v(1 leg) - w(3 legs): inner head capacity 1+3 = 4
    g2, _ = build_tree([[], [4], [1, 2, 3]], [(0, 1), (1, 2)], rt_root=0)
    inner = [e for e, (p, c) in enumerate(g2.edges) if p == 0][0]
    assert capacity(g2, inner) == 4
    with pytest.raises(InvalidArgument):
        capacity(g2, 99)


def test_capacity_root_sum_invariant():
    # legs at the root plus capacities of root-incident heads account for all legs
    for g in enumerate_rt_graphs(4):
        total = len(g.legs[0]) + sum(capacity(g, e) for e in child_edges_of(g, 0))
        assert total == 4


def test_enumerate_decorations_examples():
    t, _ = build_tree([[1, 2, H0]], [])
    assert enumerate_decorations(t, 0) == (make_decoration(),)

    one_edge, _ = build_tree([[1, 2, H0], [3, 4]], [(0, 1)])
    half_only = enumerate_decorations(one_edge, 1)
    # empty, psi on head, psi on tail
    assert len(half_only) == 3
    degrees = sorted(d.degree() for d in half_only)
    assert degrees == [0, 1, 1]

    # rooted one-vertex tree (n=3), cap 1, leg-1 bound m=1: only psi_h0 survives
    t3, _ = build_tree([[1, 2, 3, H0]], [])
    decs = enumerate_decorations(t3, 1, leg_bounds={1: 1})
    assert len(decs) == 2
    assert {d.leg_dict().get(H0, 0) for d in decs} == {0, 1}
    # raising the bound admits psi_1
    decs_m2 = enumerate_decorations(t3, 1, leg_bounds={1: 2})
    assert len(decs_m2) == 3


def _decorations_by_brute_force(tree, degree, bounds):
    """Every exponent assignment of total ``degree`` on the half-edges, h0 and
    the bounded legs that keeps each leg below its bound and no vertex overloaded."""
    slots = [(eid, side) for eid in range(tree.num_edges()) for side in (0, 1)]
    slots += [l for ls in tree.legs for l in ls if l == H0 or l in bounds]
    out = set()
    for exps in itertools.product(range(degree + 1), repeat=len(slots)):
        if sum(exps) != degree or any(s in bounds and e >= bounds[s] for s, e in zip(slots, exps)):
            continue
        half = {s: e for s, e in zip(slots, exps) if isinstance(s, tuple)}
        dec = make_decoration(half, {s: e for s, e in zip(slots, exps) if not isinstance(s, tuple)})
        if not overloaded(tree, dec):
            out.add(dec)
    return out


def test_decorations_of_degree_match_brute_force():
    bounds = {1: 2, 2: 3}
    for tree in enumerate_trees0(3) + enumerate_rt_graphs(3):
        union = enumerate_decorations(tree, 2, leg_bounds=bounds)
        for degree in range(3):
            brute = _decorations_by_brute_force(tree, degree, bounds)
            assert decorations_of_degree(tree, degree, leg_bounds=bounds) == tuple(sorted(brute, key=Decoration.sort_key))
            assert {d for d in union if d.degree() == degree} == brute
        assert list(union) == sorted(union, key=Decoration.sort_key)
    with pytest.raises(InvalidArgument):
        decorations_of_degree(tree, -1)


def test_decorations_respect_vertex_dimension():
    one_edge, _ = build_tree([[1, 2, H0], [3, 4]], [(0, 1)])
    # each vertex factor is 3-pointed: no decoration survives beyond degree 0
    assert all(d.degree() == 0 for d in enumerate_decorations(one_edge, 3)[:1])
    for d in enumerate_decorations(one_edge, 3):
        for (eid, side), e in d.half:
            v = one_edge.edges[eid][side]
            assert e <= valence(one_edge, v) - 3


def test_split_vertex_figure_case():
    # chain: root(h0, a) - v_n(n, b, c) - w(d, e) with psi on the head toward
    # v_n and psi on the tail toward w, mirroring the pull-back figure.
    legs = [[H0, 1], ["n", 2, 3], [4, 5]]
    edges = [(0, 1), (1, 2)]
    t, dec = build_tree(
        legs,
        edges,
        half_exp={(0, 1): 1, (1, 0): 1},
    )
    up = parent_edge_of(t)[vertex_of_leg(t, "n")]

    circ = split_vertex(t, dec, "n", "circ")
    assert circ is not None
    tc, dc = circ
    assert tc.num_edges() == 3
    # the transported head exponent dropped to zero, the tail psi survives
    assert dc.degree() == 1
    vn = vertex_of_leg(tc, "n")
    assert valence(tc, vn) == 3

    tail_eid = [e for e in child_edges_of(t, vertex_of_leg(t, "n"))][0]
    tl = split_vertex(t, dec, "n", "tail", tail_eid=tail_eid)
    assert tl is not None
    tt, dt = tl
    assert tt.num_edges() == 3
    assert dt.degree() == 1
    assert valence(tt, vertex_of_leg(tt, "n")) == 3
    # the two splittings give different trees
    assert tt != tc

    # zero-exponent slot: zero marker
    bare = make_decoration()
    assert split_vertex(t, bare, "n", "circ") is None
    assert split_vertex(t, bare, "n", "tail", tail_eid=tail_eid) is None

    # valence < 4 is rejected
    t2, d2 = build_tree([[H0, 1], ["n", 2]], [(0, 1)], half_exp={(0, 1): 1})
    with pytest.raises(InvalidArgument):
        split_vertex(t2, d2, "n", "circ")


def _relabel_rebuilt(tree, dec, mapping):
    """The `build_tree` route of `relabel`: the oracle of its in-place fast path."""
    return build_tree(
        [[mapping.get(l, l) for l in ls] for ls in tree.legs],
        list(tree.edges),
        rt_root=0 if tree.rt else None,
        half_exp=dec.half_dict(),
        leg_exp={mapping.get(l, l): e for l, e in dec.leg},
    )


def test_relabel_fast_path_equals_the_rebuilt_tree(monkeypatch):
    def mappings(n):
        ints = range(1, n + 1)
        yield {k: k + 1 for k in ints}, True  # shift up
        yield {k: k - 1 for k in ints if k >= 2}, n < 2  # shift down onto 1: a collapse
        yield {k: 2 * k for k in ints}, True  # order kept, gaps opened
        yield {k: n + 1 - k for k in ints}, n < 2  # reversal
        yield {1: 2, 2: 1}, False  # swap
        yield {1: "@node"}, n < 2  # moves 1 past every integer
        yield {k: k + 1 for k in ints if k >= 2}, True  # a gap after 1
        yield {H0: 0}, True  # h0 becomes the smallest integer

    real_build = trees.build_tree
    cases = 0
    rooted = [t for n in range(2, 7) for t in enumerate_trees0(n)]
    for tree in rooted + [t for n in range(1, 6) for t in enumerate_rt_graphs(n)]:
        labels = tree.all_legs()
        n = sum(1 for l in labels if l != H0)
        dec = make_decoration(
            {(eid, eid % 2): 1 + eid % 2 for eid in range(tree.num_edges())},
            {l: 1 + k % 2 for k, l in enumerate(labels) if k % 3 != 1},
        )
        for mapping, in_place in mappings(n):
            try:
                want = _relabel_rebuilt(tree, dec, mapping)
            except InvalidArgument:
                with pytest.raises(InvalidArgument):
                    relabel(tree, dec, mapping)
                continue
            with monkeypatch.context() as m:
                if in_place:
                    m.setattr(trees, "build_tree", None)  # the fast path never rebuilds
                assert relabel(tree, dec, mapping) == want
            cases += 1
    assert cases > 20000
    assert trees.build_tree is real_build
