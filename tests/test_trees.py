"""Tree enumeration, canonical form, capacities, decorations, splitting."""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rtails import strata0, trees
from rtails.trees import (
    H0,
    NODE,
    InvalidArgument,
    Decoration,
    Tree,
    build_tree,
    capacity,
    child_edges_of,
    collide_term,
    decorations_of_degree,
    enumerate_decorations,
    enumerate_rt_graphs,
    enumerate_stable_trees,
    enumerate_trees0,
    graft,
    label_key,
    make_decoration,
    overloaded,
    psi_budgets,
    pullback_terms,
    relabel,
    renaming,
    sort_labels,
    vertex_of_leg,
    vertex_slots,
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
    # frozen from the oracle: 1, 4, 26 for n = 2, 3, 4; and 2 752 for n = 6,
    # Schröder's fourth problem on n leaves below the root h0 (OEIS A000311).
    # The order is `Tree.sort_key`'s: `strata_family` keeps it, and it fixes
    # every witness
    for n, expected in [(2, 1), (3, 4), (4, 26), (6, 2752)]:
        got = enumerate_trees0(n)
        oracle = _oracle_trees(list(range(1, n + 1)) + [H0], rt=False)
        assert len(oracle) == expected
        assert list(got) == sorted(oracle, key=Tree.sort_key)


def test_enumerate_trees0_matches_oracle_n5():
    got = enumerate_trees0(5)
    oracle = _oracle_trees([1, 2, 3, 4, 5, H0], rt=False)
    assert list(got) == sorted(oracle, key=Tree.sort_key)


def _pairwise_families(k, max_part):
    """The laminar families of the subsets of 2..max_part of k labels, by the
    pairwise rule (any two chosen splits nested or disjoint), in the
    enumerator's order: candidates by size, then mask."""
    cands = sorted((m for m in range(1, 1 << k) if 2 <= m.bit_count() <= max_part), key=lambda m: (m.bit_count(), m))

    def rec(start, chosen):
        yield tuple(chosen)
        for idx in range(start, len(cands)):
            c = cands[idx]
            if all(c & d in (0, c, d) for d in chosen):
                chosen.append(c)
                yield from rec(idx + 1, chosen)
                chosen.pop()

    yield from rec(0, [])


def test_laminar_families_match_the_pairwise_rule():
    # genus 0 on 3 to 7 legs (the labels after the base, all but one of them
    # a side) and rational tails with n <= 5 (all n labels a side)
    for k, max_part in [(k, k - 1) for k in range(2, 7)] + [(n, n) for n in range(1, 6)]:
        got = list(trees._laminar_families(trees._crossing_table(k, max_part)))
        assert got == list(_pairwise_families(k, max_part))


def test_enumerate_rt_counts():
    # frozen from the oracle: 1, 2, 8, 472 for n = 1, 2, 3, 5
    for n, expected in [(1, 1), (2, 2), (3, 8), (5, 472)]:
        got = enumerate_rt_graphs(n)
        oracle = _oracle_trees(list(range(1, n + 1)), rt=True)
        assert len(oracle) == expected
        assert list(got) == sorted(oracle, key=Tree.sort_key)


def test_enumerate_rt_matches_oracle_n4():
    assert list(enumerate_rt_graphs(4)) == sorted(_oracle_trees([1, 2, 3, 4], rt=True), key=Tree.sort_key)


def test_building_a_tree_memoises_at_most_one_leg_tuple_per_vertex(monkeypatch):
    # a vertex's legs are looked up by its mask: on 40 labels, a table of
    # every mask would hold 2^40 entries, while one tree adds one per vertex
    monkeypatch.setattr(trees, "_mask_labels", {})
    labels = tuple(range(1, 41))
    caterpillar = tuple((1 << k) - 1 for k in range(2, 40))
    pairs = tuple(3 << k for k in range(0, 40, 2))
    nested = tuple((1 << k) - 1 for k in range(4, 40, 2)) + pairs[1:]
    for family in (caterpillar, pairs, nested):
        before = sum(map(len, trees._mask_labels.values()))
        tree = trees._build_from_laminar(labels, family, False, (H0,))
        assert sorted(trees.splits(tree)) == sorted(family)
        assert tree == _dfs_canonical(tree.legs, tree.edges)[0]
        assert sum(map(len, trees._mask_labels.values())) - before <= tree.num_vertices()
    assert list(trees._mask_labels) == [labels]


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


# ---------------------------------------------------------------------------
# the one canonicaliser against the depth-first one `build_tree` used before
# it built every tree from its split family


def _dfs_canonical(legs_by_vertex, edge_pairs, rt_root=None, half_exp=None, leg_exp=None):
    """Root the raw tree, order each vertex's children by the smallest label
    in their subtree, and number the vertices and edges depth first."""
    nv = len(legs_by_vertex)
    adj = [[] for _ in range(nv)]
    for ei, (a, b) in enumerate(edge_pairs):
        adj[a].append((b, ei))
        adj[b].append((a, ei))
    if rt_root is None:
        min_label = min((l for ls in legs_by_vertex for l in ls), key=label_key)
        root = next(v for v in range(nv) if min_label in legs_by_vertex[v])
    else:
        root = rt_root
    order, parent, parent_edge, stack = [], [-1] * nv, [-1] * nv, [root]
    seen = {root}
    while stack:
        v = stack.pop()
        order.append(v)
        for w, ei in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w], parent_edge[w] = v, ei
                stack.append(w)
    submin = [None] * nv
    for v in reversed(order):
        submin[v] = min([label_key(l) for l in legs_by_vertex[v]] + [submin[w] for w, _ in adj[v] if parent[w] == v])
    new_index, new_edges, edge_map = {}, [], {}

    def visit(v):
        new_index[v] = len(new_index)
        for w in sorted((w for w, _ in adj[v] if parent[w] == v), key=lambda w: submin[w]):
            edge_map[parent_edge[w]] = (len(new_edges), w)
            new_edges.append((v, w))
            visit(w)

    visit(root)
    legs = tuple(sort_labels(legs_by_vertex[v]) for v in sorted(range(nv), key=new_index.get))
    edges = tuple((new_index[a], new_index[b]) for a, b in new_edges)
    half = {}
    for (ei, side), e in (half_exp or {}).items():
        eid, child = edge_map[ei]
        half[(eid, int(edge_pairs[ei][side] == child))] = e
    return Tree(legs, edges, rt_root is not None), make_decoration(half, leg_exp)


def _raw_input(tree, rng):
    """``tree`` as raw `build_tree` arguments: legs renamed so that h0,
    `NODE` and integers all occur, vertices permuted, legs shuffled, edges
    reordered and pairs reversed, and one or two exponents on raw slots."""
    old = tree.all_legs()
    images = ([H0, NODE] + rng.sample(range(-1, 2 * len(old)), len(old)))[: len(old)]
    rng.shuffle(images)
    rename = dict(zip(old, images))
    perm = list(range(tree.num_vertices()))
    rng.shuffle(perm)
    legs = [None] * len(perm)
    for v, ls in enumerate(tree.legs):
        legs[perm[v]] = rng.sample([rename[l] for l in ls], len(ls))
    edges = [(perm[a], perm[b])[:: rng.choice((1, -1))] for a, b in tree.edges]
    rng.shuffle(edges)
    slots = [(ei, side) for ei in range(len(edges)) for side in (0, 1)] + images
    exps = {slot: rng.randint(1, 2) for slot in rng.sample(slots, min(len(slots), rng.randint(1, 2)))}
    half = {s: e for s, e in exps.items() if isinstance(s, tuple)}
    leg = {s: e for s, e in exps.items() if not isinstance(s, tuple)}
    return (legs, edges), dict(rt_root=perm[0] if tree.rt else None, half_exp=half, leg_exp=leg)


def test_build_tree_equals_the_depth_first_canonicaliser():
    rng = random.Random(12)
    every = [t for n in range(2, 6) for t in enumerate_trees0(n)] + [t for n in range(1, 6) for t in enumerate_rt_graphs(n)]
    cases = 0
    for tree in every:
        # the enumerated tree of each family is the depth-first one
        base, labels, _ = trees._frame(frozenset(tree.all_legs()), tree.rt)
        assert trees._build_from_laminar(labels, trees.splits(tree), tree.rt, base) == tree
        assert _dfs_canonical(tree.legs, tree.edges, 0 if tree.rt else None)[0] == tree
        for _ in range(3):
            args, kwargs = _raw_input(tree, rng)
            want = _dfs_canonical(*args, **kwargs)
            assert build_tree(*args, **kwargs) == want
            new = want[0]
            base, labels, _ = trees._frame(frozenset(new.all_legs()), new.rt)
            assert trees._build_from_laminar(labels, trees.splits(new), new.rt, base) == new
            cases += 1
    assert cases > 2000


def test_build_tree_refuses_slots_and_vertices_the_input_lacks():
    legs, edges = [[1, 2], [H0, 3, 4]], [(0, 1)]
    for half, leg in (({(-1, 0): 1}, {}), ({(1, 0): 1}, {}), ({(0, 2): 1}, {}), ({0: 1}, {}), ({}, {99: 1})):
        with pytest.raises(InvalidArgument):
            build_tree(legs, edges, half_exp=half, leg_exp=leg)
    # a zero exponent is no exponent
    assert build_tree(legs, edges, half_exp={(1, 0): 0}, leg_exp={99: 0}) == build_tree(legs, edges)
    # and an edge or a genus vertex that names no vertex
    for bad_edges, rt_root in (([(0, 2)], None), ([(0, -1)], None), (edges, 2), (edges, -1)):
        with pytest.raises(InvalidArgument):
            build_tree(legs, bad_edges, rt_root=rt_root)
    # a bool is no vertex or side, though False == 0 and True == 1
    for bad_edges, rt_root, half in (([(False, True)], None, {}), (edges, True, {}), (edges, None, {(True, 0): 1}), (edges, None, {(0, True): 1})):
        with pytest.raises(InvalidArgument, match="must be an integer, not (True|False)$"):
            build_tree(legs, bad_edges, rt_root=rt_root, half_exp=half)


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
    # True == 1 once read as the second edge, and a bool weight as 1
    for head, weights in ((True, None), (inner, {4: True}), (H0, {1: 1.0})):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            capacity(t if head == H0 else g2, head, weights)


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
    # a bound must be an integer >= 1: True once read as 1, and 1.5 raised TypeError
    for bound in (True, 1.5, 0):
        with pytest.raises(InvalidArgument, match=rf"the bound of leg 1 must be an integer >= 1, not {bound!r}$"):
            enumerate_decorations(t3, 1, leg_bounds={1: bound})


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


def _valence(tree, v):
    """Legs plus edges at ``v``, counted from the tree data."""
    return len(tree.legs[v]) + sum(v in edge for edge in tree.edges)


def test_decorations_respect_vertex_dimension():
    one_edge, _ = build_tree([[1, 2, H0], [3, 4]], [(0, 1)])
    # each vertex factor is 3-pointed: no decoration survives beyond degree 0
    assert all(d.degree() == 0 for d in enumerate_decorations(one_edge, 3)[:1])
    for d in enumerate_decorations(one_edge, 3):
        for (eid, side), e in d.half:
            v = one_edge.edges[eid][side]
            assert e <= _valence(one_edge, v) - 3
    assert psi_budgets(one_edge) == (1, 0)
    # the genus root of a rational-tails graph bounds nothing
    graph, _ = build_tree([[1], [2, 3]], [(0, 1)], rt_root=0)
    assert psi_budgets(graph) == (None, 0)
    assert not overloaded(graph, make_decoration({(0, 0): 4}, {1: 5}))


def test_pullback_splits_the_figure_case():
    # chain: root(h0, 1) - v(2, 3) - w(4, 5) with psi on the head toward v and
    # psi on the tail toward w, mirroring the pull-back figure: forgetting n
    # pulls back to n attached at each vertex, less each decorated slot of v
    # split off with n onto a new trivalent vertex
    t, dec = build_tree([[H0, 1], [2, 3], [4, 5]], [(0, 1), (1, 2)], half_exp={(0, 1): 1, (1, 0): 1})
    terms = list(pullback_terms(t, dec, "n"))
    assert [sign for sign, _, _ in terms] == [1, 1, -1, -1, 1]
    assert terms[1][1:] == build_tree([[H0, 1], [2, 3, "n"], [4, 5]], [(0, 1), (1, 2)], half_exp={(0, 1): 1, (1, 0): 1})
    # the head above v: n on a new vertex between the root and v; the
    # transported exponent drops to zero and the tail psi survives
    circ = build_tree([[H0, 1], ["n"], [2, 3], [4, 5]], [(0, 1), (1, 2), (2, 3)], half_exp={(2, 0): 1})
    # the tail toward w: n on a new vertex between v and w
    tail = build_tree([[H0, 1], [2, 3], ["n"], [4, 5]], [(0, 1), (1, 2), (2, 3)], half_exp={(0, 1): 1})
    assert terms[2:4] == [(-1, *circ), (-1, *tail)]
    for _, tree, _ in terms[2:4]:
        assert _valence(tree, vertex_of_leg(tree, "n")) == 3

    # an undecorated term splits nothing: every term is an attachment
    assert [sign for sign, _, _ in pullback_terms(t, make_decoration(), "n")] == [1, 1, 1]


# ---------------------------------------------------------------------------
# the move plans against the `build_tree` route: each oracle edits the raw
# vertex and edge data of a decorated term and canonicalises it with
# `build_tree`


def _rt_root(tree):
    return 0 if tree.rt else None


def _contracted(tree, dec, v, keep, drop, bump=0):
    """`build_tree` of ``tree`` less the leg ``drop`` at the trivalent vertex
    ``v``, whose one other edge contracts onto its far vertex: ``keep`` moves
    there and takes the far exponent plus ``bump``; exponents at ``v`` drop."""
    ((eid, side),) = [s for s in vertex_slots(tree, v) if isinstance(s, tuple) and s != keep]
    u = tree.edges[eid][1 - side]
    legs = [[l for l in ls if l != drop] for ls in tree.legs]
    edges = [list(p) for p in tree.edges]
    half = {s: e for s, e in dec.half if tree.edges[s[0]][s[1]] != v}
    leg = {l: e for l, e in dec.leg if vertex_of_leg(tree, l) != v}
    far = dec.half_exp((eid, 1 - side)) + bump
    if isinstance(keep, tuple):
        edges[keep[0]][keep[1]] = u
        half[keep] = far
    else:
        legs[v].remove(keep)
        legs[u].append(keep)
        leg[keep] = far
    order = [k for k in range(len(edges)) if k != eid]
    renumber = {k: idx for idx, k in enumerate(order)}
    pairs = [tuple(a - (a > v) for a in edges[k]) for k in order]
    half = {(renumber[k], s): e for (k, s), e in half.items() if k != eid}
    legs = [ls for w, ls in enumerate(legs) if w != v]
    return build_tree(legs, pairs, rt_root=_rt_root(tree), half_exp=half, leg_exp=leg)


def _detached(tree, dec, label):
    """`build_tree` of ``tree`` less the leg ``label``."""
    legs = [[l for l in ls if l != label] for ls in tree.legs]
    leg = {l: e for l, e in dec.leg if l != label}
    return build_tree(legs, list(tree.edges), rt_root=_rt_root(tree), half_exp=dec.half_dict(), leg_exp=leg)


def _split_rebuilt(tree, dec, v, slot, leg):
    """`build_tree` of ``tree`` with ``slot`` of vertex ``v`` and the new
    ``leg`` on a new vertex joined to ``v``; the slot's exponent less one
    lands on the new edge's side at ``v``."""
    d = dec.half_exp(slot) if isinstance(slot, tuple) else dec.leg_exp(slot)
    if not d:
        return None
    nv = tree.num_vertices()
    legs = [list(ls) for ls in tree.legs] + [[leg]]
    edges = [list(p) for p in tree.edges]
    half, legexp = dec.half_dict(), dec.leg_dict()
    if isinstance(slot, tuple):
        del half[slot]
        edges[slot[0]][slot[1]] = nv
    else:
        del legexp[slot]
        legs[v].remove(slot)
        legs[nv].append(slot)
    if d > 1:
        half[(len(edges), 0)] = d - 1
    edges.append([v, nv])
    return build_tree(legs, edges, rt_root=_rt_root(tree), half_exp=half, leg_exp=legexp)


def _collide_rebuilt(tree, dec, i, j):
    v = vertex_of_leg(tree, i)
    if j not in tree.legs[v]:
        return None
    if psi_budgets(tree)[v] == 0:
        return (-1, *_contracted(tree, dec, v, i, j, bump=1))
    if dec.leg_exp(i) or dec.leg_exp(j):
        return None
    return (1, *_detached(tree, dec, j))


def _relabel_rebuilt(tree, dec, mapping):
    return build_tree(
        [[mapping.get(l, l) for l in ls] for ls in tree.legs],
        list(tree.edges),
        rt_root=_rt_root(tree),
        half_exp=dec.half_dict(),
        leg_exp={mapping.get(l, l): e for l, e in dec.leg},
    )


def _pullback_rebuilt(tree, dec, new_leg):
    out = []
    for v in range(tree.num_vertices()):
        legs = [list(ls) for ls in tree.legs]
        legs[v].append(new_leg)
        out.append((1, *build_tree(legs, list(tree.edges), rt_root=_rt_root(tree), half_exp=dec.half_dict(), leg_exp=dec.leg_dict())))
        for slot in vertex_slots(tree, v):
            split = _split_rebuilt(tree, dec, v, slot, new_leg)
            if split is not None:
                out.append((-1, *split))
    return out


def _differential_terms():
    """Every tree with h0 and two to five more legs, every tree with three to
    five legs and no h0 (there a move can change which vertex is the root),
    every rational-tails graph with n <= 4, and every decoration up to
    degree 2 on each."""
    rooted = [t for n in range(2, 6) for t in enumerate_trees0(n)]
    bare = [t for n in range(3, 6) for t in enumerate_stable_trees(tuple(range(1, n + 1)))]
    rt = [t for n in range(1, 5) for t in enumerate_rt_graphs(n)]
    for tree in rooted + bare + rt:
        for dec in enumerate_decorations(tree, 2, leg_bounds={l: 3 for l in tree.all_legs()}):
            yield tree, dec


def test_collide_term_equals_the_build_tree_route():
    outputs = 0
    for tree, dec in _differential_terms():
        if not tree.rt and tree.num_edges() == 0 and len(tree.legs[0]) == 3:
            continue  # no edge to contract: test_collide_term_without_an_edge_raises
        for i, j in itertools.permutations(tree.all_legs(), 2):
            got = collide_term(tree, dec, i, j)
            assert got == _collide_rebuilt(tree, dec, i, j)
            outputs += got is not None
    assert outputs > 5000


def test_coda_mapping_takes_any_iterable_and_refuses_a_repeated_member():
    expected = {1: trees.NODE, 2: 2, 3: 3}
    assert trees.coda_mapping(4, (1,)) == trees.coda_mapping(4, [1]) == trees.coda_mapping(4, {1}) == expected
    with pytest.raises(InvalidArgument, match=r"I repeats a member: \[1, 1\]"):
        trees.coda_mapping(4, (1, 1))
    with pytest.raises(InvalidArgument, match="non-empty subset"):
        trees.coda_mapping(4, (4,))


def test_collide_term_without_an_edge_raises():
    # the three-leg one-vertex tree: the trivalent vertex has no edge to contract
    with pytest.raises(InvalidArgument):
        collide_term(enumerate_trees0(2)[0], Decoration(), 1, 2)


def _relabellings(n):
    ints = range(1, n + 1)
    yield {k: k + 1 for k in ints}  # shift up
    yield {k: k - 1 for k in ints if k >= 2}  # shift down onto 1: a collapse
    yield {k: 2 * k for k in ints}  # order kept, gaps opened
    yield {k: n + 1 - k for k in ints}  # reversal
    yield {1: 2, 2: 1}  # swap
    yield {1: "@node"}  # moves 1 past every integer
    yield {k: k + 1 for k in ints if k >= 2}  # a gap after 1
    yield {H0: 0}  # h0 becomes the smallest integer


def test_relabel_equals_the_build_tree_route():
    # the differential terms, and one mixed decoration, of any degree, on every
    # tree with n <= 6 and every rational-tails graph with n <= 5
    every = [t for n in range(2, 7) for t in enumerate_trees0(n)] + [t for n in range(1, 6) for t in enumerate_rt_graphs(n)]
    mixed = [
        (
            tree,
            make_decoration(
                {(eid, eid % 2): 1 + eid % 2 for eid in range(tree.num_edges())},
                {l: 1 + k % 2 for k, l in enumerate(tree.all_legs()) if k % 3 != 1},
            ),
        )
        for tree in every
    ]
    cases = 0
    for tree, dec in itertools.chain(_differential_terms(), mixed):
        n = sum(1 for l in tree.all_legs() if l != H0)
        for mapping in _relabellings(n):
            try:
                want = _relabel_rebuilt(tree, dec, mapping)
            except InvalidArgument:
                with pytest.raises(InvalidArgument):
                    renaming(frozenset(tree.all_legs()), tree.rt, mapping)
                continue
            assert relabel(tree, dec, renaming(frozenset(tree.all_legs()), tree.rt, mapping)) == want
            cases += 1
    assert cases > 20000


def test_pullback_terms_equal_the_build_tree_route():
    outputs = 0
    for tree, dec in _differential_terms():
        # a leg after every label, and one before them all that moves the root of a tree without h0
        for new_leg in ("new", 0):
            got = list(pullback_terms(tree, dec, new_leg))
            assert got == _pullback_rebuilt(tree, dec, new_leg)
            outputs += len(got)
    assert outputs > 10000


def test_pushforward_forget_equals_the_build_tree_route():
    # every term without ψ on the forgotten leg, on every genus-0 tree of the
    # differential with four legs or more: the string rule at valence >= 4,
    # a trivalent vertex keeping a leg or an edge, and, on a tree without h0,
    # a trivalent root whose smallest leg is forgotten, so the root moves
    seen = {"string": 0, "leg": 0, "edge": 0, "root moves": 0}
    for tree, dec in _differential_terms():
        if tree.rt or len(tree.all_legs()) < 4 or overloaded(tree, dec):
            continue
        ambient = frozenset(tree.all_legs())
        for leg in ambient:
            if dec.leg_exp(leg):
                continue
            v = vertex_of_leg(tree, leg)
            want = []
            if _valence(tree, v) >= 4:
                seen["string"] += 1
                for slot in vertex_slots(tree, v):
                    half, legexp = dec.half_dict(), dec.leg_dict()
                    store = half if isinstance(slot, tuple) else legexp
                    if slot != leg and store.get(slot):
                        store[slot] -= 1
                        want.append(_detached(tree, make_decoration(half, legexp), leg))
            else:
                keep = next(s for s in vertex_slots(tree, v) if s != leg)
                kind = "edge" if isinstance(keep, tuple) else "leg"
                seen[kind] += 1
                seen["root moves"] += kind == "edge" and v == 0 and leg == min(ambient, key=trees.label_key)
                want.append(_contracted(tree, dec, v, keep, leg))
            got = strata0.pushforward_forget(strata0.push_tree(tree, dec), leg)
            assert got == strata0.from_terms(ambient - {leg}, [(t, d, 1) for t, d in want])
    assert min(seen.values()) > 50, seen


def _graft_rebuilt(tree, dec, at, legs):
    v = vertex_of_leg(tree, at)
    legs_by_vertex = [list(ls) for ls in tree.legs] + [list(legs)]
    legs_by_vertex[v].remove(at)
    half, leg = dec.half_dict(), dec.leg_dict()
    if leg.get(at):
        half[(tree.num_edges(), 0)] = leg.pop(at)
    edges = list(tree.edges) + [(v, tree.num_vertices())]
    return build_tree(legs_by_vertex, edges, rt_root=0 if tree.rt else None, half_exp=half, leg_exp=leg)


def test_graft_equals_the_build_tree_route():
    # at every leg: a vertex keeping the leg (as sigma0 grafts at h0), two
    # legs after every label, and, on a tree without h0, a leg before them all
    # that moves the root onto the new vertex
    cases = 0
    for tree, dec in _differential_terms():
        for at in tree.all_legs():
            for legs in ((at, "new"), ("new", "two"), (0, "new")):
                assert graft(tree, dec, at, legs) == _graft_rebuilt(tree, dec, at, legs)
                cases += 1
    assert cases > 20000
    # a new vertex with one leg is unstable
    with pytest.raises(InvalidArgument):
        graft(tree, dec, at, ("new",))


def test_move_plans_canonicalise_once_per_tree_and_move(monkeypatch):
    # every term sits on one tree: 1 and 2 on a trivalent vertex, 3 and 4 at the root
    tree, _ = build_tree([[H0, 3, 4], [1, 2]], [(0, 1)])
    x = strata0.Class0(tree.all_legs(), {(tree, dec): 1 for dec in enumerate_decorations(tree, 1, {3: 2, 4: 2})})
    assert len(x.terms) == 5
    # an empty tree cache and empty plan caches: each move's tree is a miss once
    monkeypatch.setattr(trees, "_laminar_trees", {})
    for plan in (trees._forget_plan, trees._graft_plan):
        plan.cache_clear()
    for fresh in (True, False):
        before = len(trees._laminar_trees)
        contracted = strata0.collide(x, 1, 2)
        merged = strata0.collide(x, 3, 4)
        relabelled = strata0.relabel_class(contracted, {3: 2, 4: 3})
        grafted = strata0.glue_push_sigma0(x, 5)
        forgotten = strata0.pushforward_forget(x, 1)
        # one canonicalisation per move, none on a repeat
        assert len(trees._laminar_trees) - before == 5 * fresh
        assert contracted.terms and merged.terms and forgotten.terms
        assert len(relabelled.terms) == len(contracted.terms) and len(grafted.terms) == len(x.terms)


def test_a_plan_that_adds_no_leg_reads_no_path():
    # forgetting a leg adds none, so it needs no root path (`path_edges`)
    # to place one; attaching a leg reads the path to its vertex
    tree, _ = build_tree([[H0, 3, 4], [1, 2]], [(0, 1)])
    trees._forget_plan.cache_clear()
    trees._attach_plan.cache_clear()
    trees.path_edges.cache_clear()
    for leg in (1, 3):  # a trivalent vertex contracts, the root stays
        trees._forget_plan(tree, leg)
    assert trees.path_edges.cache_info().currsize == 0
    trees._attach_plan(tree, 1, 5)
    assert trees.path_edges.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# interning


def test_equal_fields_give_the_one_interned_instance():
    for tree in (*enumerate_trees0(5), *enumerate_rt_graphs(4)):
        assert Tree(tuple(tuple([*ls]) for ls in tree.legs), tuple(tuple([*e]) for e in tree.edges), tree.rt) is tree
        assert Tree(legs=tree.legs, edges=tree.edges, rt=tree.rt) is tree
        assert pickle.loads(pickle.dumps(tree)) is tree and copy.deepcopy(tree) is tree
        for dec in decorations_of_degree(tree, 1, {}):
            assert Decoration(tuple([*dec.half]), tuple([*dec.leg])) is dec
            assert pickle.loads(pickle.dumps(dec)) is dec
    # equal fields built apart meet in one instance, and unequal ones do not
    assert make_decoration({}, {H0: 1}) is Decoration((), ((H0, 1),)) is not Decoration((), ((H0, 2),))
    assert Decoration() is Decoration((), ()) and Tree(((H0, 1, 2),), ()) is not Tree(((H0, 1, 2),), (), True)
    tree = Tree(((H0, 1, 2),), ())
    assert not hasattr(tree, "__dict__")  # slots: no per-instance dict
    with pytest.raises(AttributeError):
        tree.legs = ((H0, 1, 3),)  # an interned instance never changes
    assert repr(tree) == "Tree(legs=(('h0', 1, 2),), edges=(), rt=False)"
    assert repr(Decoration((((0, 1), 2),))) == "Decoration(half=(((0, 1), 2),), leg=())"


def test_a_pickled_tree_takes_the_hash_of_the_loading_process():
    # a tree's hash is its instance's identity, which another process (here
    # also with another string-hash seed) does not share; a pickle carries
    # the fields alone, and loading it finds this process's instance
    tree, dec = build_tree([[H0, 3], [1, 2]], [(0, 1)], half_exp={(0, 1): 1}, leg_exp={H0: 2})
    code = (
        "import pickle, sys\n"
        "from rtails.trees import H0, build_tree\n"
        "term = build_tree([[H0, 3], [1, 2]], [(0, 1)], half_exp={(0, 1): 1}, leg_exp={H0: 2})\n"
        "print(repr(pickle.dumps(term)))\n"
    )
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    loaded_tree, loaded_dec = pickle.loads(eval(out.stdout))
    assert loaded_tree is tree and loaded_dec is dec  # re-interned here
    assert (hash(loaded_tree), hash(loaded_dec)) == (hash(tree), hash(dec))
    assert {tree: 1}[loaded_tree] == 1 and {dec: 1}[loaded_dec] == 1
