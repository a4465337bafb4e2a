"""Stable labeled trees with ψ-decorations.

Two tree families share one representation:

* rooted rational trees: every vertex is rational (genus 0, valence >= 3) and
  the reserved leg label ``h0`` marks the root vertex;
* rational-tails graphs: vertex 0 is an opaque positive-genus root exempt from
  the stability bound, all other vertices are rational.

Legs carry distinct labels, so trees are rigid and a deterministic bottom-up
encoding doubles as an isomorphism test.  Every `Tree` instance is canonical:
vertex 0 is the root (the genus vertex, or the vertex carrying the smallest
label), children are ordered by the smallest label in their subtree, and edges
are stored as ``(parent, child)`` in depth-first discovery order.  Half-edge
slots are addressed as ``(edge_index, side)`` with side 0 at the parent (the
tail, closer to the root) and side 1 at the child (the head).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

Label = Union[int, str]

H0 = "h0"


def label_key(label: Label) -> tuple:
    """Total order on leg labels; `h0` sorts first, then integers, then strings."""
    if label == H0:
        return (0, 0)
    if isinstance(label, int):
        return (1, label)
    return (2, str(label))


def sort_labels(labels: Iterable[Label]) -> tuple:
    return tuple(sorted(labels, key=label_key))


@dataclass(frozen=True)
class Tree:
    """A canonical stable labeled tree.

    ``legs[v]`` is the sorted tuple of leg labels at vertex ``v``; ``edges``
    are ``(parent, child)`` pairs; ``rt`` is True when vertex 0 is a
    positive-genus root (rational-tails variant).
    """

    legs: tuple
    edges: tuple
    rt: bool = False

    def num_vertices(self) -> int:
        return len(self.legs)

    def num_edges(self) -> int:
        return len(self.edges)

    def all_legs(self) -> tuple:
        return sort_labels(l for ls in self.legs for l in ls)

    def sort_key(self) -> tuple:
        return (
            int(self.rt),
            tuple(tuple(label_key(l) for l in ls) for ls in self.legs),
            self.edges,
        )


@dataclass(frozen=True)
class Decoration:
    """ψ-exponents on half-edge slots and legs; only nonzero entries stored."""

    half: tuple = ()
    leg: tuple = ()

    def half_dict(self) -> dict:
        return dict(self.half)

    def leg_dict(self) -> dict:
        return dict(self.leg)

    def half_exp(self, slot) -> int:
        return dict(self.half).get(slot, 0)

    def leg_exp(self, label) -> int:
        return dict(self.leg).get(label, 0)

    def degree(self) -> int:
        return sum(e for _, e in self.half) + sum(e for _, e in self.leg)

    def sort_key(self) -> tuple:
        return (self.half, tuple((label_key(l), e) for l, e in self.leg))


def make_decoration(half_exp: Optional[Mapping] = None, leg_exp: Optional[Mapping] = None) -> Decoration:
    half = tuple(sorted((slot, e) for slot, e in (half_exp or {}).items() if e))
    leg = tuple(sorted(((l, e) for l, e in (leg_exp or {}).items() if e), key=lambda t: label_key(t[0])))
    for _, e in itertools.chain(half, leg):
        if e < 0:
            raise ValueError("negative psi exponent")
    return Decoration(half, leg)


def term_sort_key(tree: Tree, dec: Decoration) -> tuple:
    return (tree.sort_key(), dec.sort_key())


class InvalidArgument(ValueError):
    """Raised when an operation's preconditions are violated."""


def build_tree(
    legs_by_vertex: Sequence[Iterable[Label]],
    edge_pairs: Sequence[tuple],
    *,
    rt_root: Optional[int] = None,
    half_exp: Optional[Mapping] = None,
    leg_exp: Optional[Mapping] = None,
):
    """Canonicalize raw tree data; returns ``(Tree, Decoration)``.

    ``edge_pairs`` are unordered vertex-index pairs; ``half_exp`` is keyed by
    ``(input_edge_index, input_side)`` where side 0 refers to the first vertex
    of the pair.  ``rt_root`` names the genus vertex of a rational-tails graph.
    """
    nv = len(legs_by_vertex)
    legs_in = [list(ls) for ls in legs_by_vertex]
    all_labels = [l for ls in legs_in for l in ls]
    if len(set(all_labels)) != len(all_labels):
        raise InvalidArgument("duplicate leg labels")
    if not all_labels:
        raise InvalidArgument("tree must carry at least one leg")
    if len(edge_pairs) != nv - 1:
        raise InvalidArgument("not a tree: |E| != |V| - 1")

    adj: list = [[] for _ in range(nv)]
    for ei, (a, b) in enumerate(edge_pairs):
        if a == b:
            raise InvalidArgument("loop edge")
        adj[a].append((b, ei))
        adj[b].append((a, ei))

    # stability: rational vertices need valence >= 3
    for v in range(nv):
        valence = len(legs_in[v]) + len(adj[v])
        if rt_root is not None and v == rt_root:
            if valence < 1:
                raise InvalidArgument("isolated genus vertex")
        elif valence < 3:
            raise InvalidArgument(f"unstable vertex of valence {valence}")

    # root selection
    if rt_root is not None:
        root = rt_root
    else:
        min_label = min(all_labels, key=label_key)
        root = next(v for v in range(nv) if min_label in legs_in[v])

    # connectivity + subtree minima (for deterministic child ordering)
    seen = [False] * nv
    order: list = []
    parent = [-1] * nv
    parent_edge = [-1] * nv
    stack = [root]
    seen[root] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w, ei in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                parent_edge[w] = ei
                stack.append(w)
    if len(order) != nv:
        raise InvalidArgument("tree is not connected")

    submin = [None] * nv
    for v in reversed(order):
        cands = [label_key(l) for l in legs_in[v]]
        cands += [submin[w] for w, _ in adj[v] if parent[w] == v]
        submin[v] = min(cands) if cands else (3,)

    # canonical DFS: children sorted by subtree minimum
    new_index = {}
    new_edges = []
    edge_map = {}
    counter = itertools.count()

    def visit(v: int) -> None:
        new_index[v] = next(counter)
        kids = sorted((w for w, _ in adj[v] if parent[w] == v), key=lambda w: submin[w])
        for w in kids:
            eid = len(new_edges)
            new_edges.append((v, w))
            edge_map[parent_edge[w]] = (eid, w)
            visit(w)

    visit(root)
    legs = tuple(sort_labels(legs_in[v]) for v in sorted(range(nv), key=lambda v: new_index[v]))
    edges = tuple((new_index[a], new_index[b]) for a, b in new_edges)
    tree = Tree(legs=legs, edges=edges, rt=rt_root is not None)

    new_half = {}
    for (ei, side), e in (half_exp or {}).items():
        if not e:
            continue
        a, b = edge_pairs[ei]
        vert = (a, b)[side]
        eid, child = edge_map[ei]
        new_side = 1 if vert == child else 0
        new_half[(eid, new_side)] = new_half.get((eid, new_side), 0) + e
    dec = make_decoration(new_half, leg_exp)
    return tree, dec


# ---------------------------------------------------------------------------
# derived structure (cached on the canonical instance)


@lru_cache(maxsize=None)
def vertex_of_leg(tree: Tree, label: Label) -> int:
    for v, ls in enumerate(tree.legs):
        if label in ls:
            return v
    raise InvalidArgument(f"no leg {label!r}")


@lru_cache(maxsize=None)
def parent_edge_of(tree: Tree) -> tuple:
    """For each vertex, the id of the edge to its parent (-1 at the root)."""
    up = [-1] * tree.num_vertices()
    for eid, (_, child) in enumerate(tree.edges):
        up[child] = eid
    return tuple(up)


@lru_cache(maxsize=None)
def child_edges_of(tree: Tree, v: int) -> tuple:
    return tuple(eid for eid, (p, _) in enumerate(tree.edges) if p == v)


@lru_cache(maxsize=None)
def valence(tree: Tree, v: int) -> int:
    deg = len(tree.legs[v]) + len(child_edges_of(tree, v))
    if v != 0:
        deg += 1
    return deg


@lru_cache(maxsize=None)
def beyond_legs(tree: Tree, eid: int) -> frozenset:
    """Legs in the subtree on the child side of edge ``eid``."""
    _, child = tree.edges[eid]
    acc = set(tree.legs[child])
    for e2 in child_edges_of(tree, child):
        acc |= beyond_legs(tree, e2)
    return frozenset(acc)


@lru_cache(maxsize=None)
def path_edges(tree: Tree, v: int) -> tuple:
    """Edge ids on the path from the root down to vertex ``v``."""
    up = parent_edge_of(tree)
    path = []
    while v != 0:
        eid = up[v]
        path.append(eid)
        v = tree.edges[eid][0]
    return tuple(reversed(path))


def vertex_slots(tree: Tree, v: int) -> list:
    """Decoration slots at vertex ``v``: its legs and its half-edge sides."""
    slots: list = list(tree.legs[v])
    if v != 0:
        slots.append((parent_edge_of(tree)[v], 1))
    for eid in child_edges_of(tree, v):
        slots.append((eid, 0))
    return slots


def slot_vertex(tree: Tree, slot) -> int:
    if isinstance(slot, tuple) and len(slot) == 2 and isinstance(slot[0], int) and slot[1] in (0, 1):
        eid, side = slot
        return tree.edges[eid][side]
    return vertex_of_leg(tree, slot)


def capacity(tree: Tree, head, leg_weights: Optional[Mapping] = None) -> int:
    """Capacity of a head: the (weighted) number of legs beyond it.

    ``head`` is an edge id (its head side) or the reserved label ``h0``, whose
    capacity counts every leg of the tree.
    """
    weights = leg_weights or {}

    def w(label: Label) -> int:
        wt = weights.get(label, 1)
        if wt < 1:
            raise InvalidArgument("leg weights must be positive")
        return wt

    if head == H0:
        # h0 sorts first, so a canonical tree that has it carries it at the root
        if tree.rt or H0 not in tree.legs[0]:
            raise InvalidArgument("h0 capacity only defined for rooted rational trees")
        return sum(w(l) for ls in tree.legs for l in ls if l != H0)
    if not isinstance(head, int) or not (0 <= head < tree.num_edges()):
        raise InvalidArgument(f"not a head half-edge: {head!r}")
    return sum(w(l) for l in beyond_legs(tree, head))


# ---------------------------------------------------------------------------
# enumeration


def _subsets_as_masks(k: int, min_size: int, max_size: int) -> list:
    out = []
    for mask in range(1, 1 << k):
        size = mask.bit_count()
        if min_size <= size <= max_size:
            out.append(mask)
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def _laminar_families(candidates: list):
    """All subsets of ``candidates`` that are pairwise nested or disjoint."""
    n = len(candidates)

    def rec(start: int, chosen: list):
        yield tuple(chosen)
        for k in range(start, n):
            c = candidates[k]
            if all((c & d) in (0, c, d) for d in chosen):
                chosen.append(c)
                yield from rec(k + 1, chosen)
                chosen.pop()

    yield from rec(0, [])


def _tree_from_laminar(labels: tuple, family: tuple, rt: bool, extra_root_legs: tuple = ()) -> Tree:
    """Build the dual tree whose edge splits are exactly ``family``."""
    bit = {l: i for i, l in enumerate(labels)}
    sets = sorted(family, key=lambda m: (-m.bit_count(), m))
    parent_set = []
    full = (1 << len(labels)) - 1
    for i, m in enumerate(sets):
        p = -1
        best = None
        for j in range(i):
            if m & sets[j] == m and (best is None or sets[j] & best == sets[j]):
                p, best = j, sets[j]
        parent_set.append(p)
    nv = len(sets) + 1
    legs_by_vertex: list = [set() for _ in range(nv)]
    covered = [0] * nv
    for i, m in enumerate(sets):
        covered[parent_set[i] + 1] |= m
    for i in range(nv):
        mask = full if i == 0 else sets[i - 1]
        own = mask & ~covered[i]
        legs_by_vertex[i] = {l for l in labels if (own >> bit[l]) & 1}
    legs_by_vertex[0] |= set(extra_root_legs)
    edge_pairs = [(parent_set[i] + 1, i + 1) for i in range(len(sets))]
    tree, _ = build_tree(legs_by_vertex, edge_pairs, rt_root=0 if rt else None)
    return tree


def _trees_of_laminar(labels: tuple, max_part: int, rt: bool, extra_root_legs: tuple = ()) -> tuple:
    """Dual trees of the laminar families of 2..max_part-subsets of ``labels``."""
    cands = _subsets_as_masks(len(labels), 2, max_part)
    out = [_tree_from_laminar(labels, fam, rt, extra_root_legs) for fam in _laminar_families(cands)]
    out.sort(key=Tree.sort_key)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_stable_trees(labels: tuple) -> tuple:
    """All stable trees with the given leg labels.

    The trees are built once per leg set, on the sorted labels; another order
    of the same labels is served that family.
    """
    ordered = sort_labels(labels)
    if len(ordered) < 3:
        raise InvalidArgument("need at least three legs")
    if ordered != tuple(labels):
        return enumerate_stable_trees(ordered)
    return _trees_of_laminar(ordered[1:], len(ordered) - 2, rt=False, extra_root_legs=ordered[:1])


def enumerate_trees0(n: int) -> tuple:
    """All rooted rational trees with legs 1..n and the root leg h0."""
    if n < 2:
        raise InvalidArgument("enumerate_trees0 requires n >= 2")
    return enumerate_stable_trees((H0,) + tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def enumerate_rt_graphs(n: int) -> tuple:
    """All rational-tails graphs with legs 1..n and a genus-g root vertex."""
    if n < 1:
        raise InvalidArgument("enumerate_rt_graphs requires n >= 1")
    return _trees_of_laminar(tuple(range(1, n + 1)), n, rt=True)


def dimension_budget(tree: Tree, v: int) -> Optional[int]:
    """Max total ψ-exponent at a vertex before its moduli factor dies; None = unbounded."""
    if tree.rt and v == 0:
        return None
    return valence(tree, v) - 3


def _vertex_choices(tree: Tree, v: int, cap: int, leg_bounds: Mapping) -> list:
    """All slot-exponent assignments at ``v`` of total degree <= cap."""
    budget = dimension_budget(tree, v)
    budget = cap if budget is None else min(budget, cap)
    slots = vertex_slots(tree, v)
    maxes = []
    for s in slots:
        if isinstance(s, tuple) or s == H0:
            maxes.append(budget)
        else:
            maxes.append(min(budget, leg_bounds.get(s, 1) - 1))
    out = []
    for exps in itertools.product(*(range(m + 1) for m in maxes)):
        if sum(exps) <= budget:
            out.append((sum(exps), tuple((s, e) for s, e in zip(slots, exps) if e)))
    return out


def decorations_of_degree(tree: Tree, degree: int, leg_bounds: Optional[Mapping] = None) -> tuple:
    """All decorations of total degree exactly ``degree``.

    Legs other than h0 are bounded by ``leg_bounds`` (exponent < bound); legs
    absent from the mapping are undecorated, matching the contexts where only
    listed legs may carry ψ.  Exponent assignments killing a rational vertex's
    moduli factor (per-vertex degree > valence - 3) are pruned.
    """
    if degree < 0:
        raise InvalidArgument("degree must be >= 0")
    bounds = dict(leg_bounds or {})
    per_vertex = [_vertex_choices(tree, v, degree, bounds) for v in range(tree.num_vertices())]
    out = []

    def rec(v: int, remaining: int, acc: list):
        if v == tree.num_vertices():
            if remaining:
                return
            half = {}
            leg = {}
            for _, items in acc:
                for s, e in items:
                    if isinstance(s, tuple):
                        half[s] = e
                    else:
                        leg[s] = e
            out.append(make_decoration(half, leg))
            return
        for choice in per_vertex[v]:
            if choice[0] <= remaining:
                acc.append(choice)
                rec(v + 1, remaining - choice[0], acc)
                acc.pop()

    rec(0, degree, [])
    out.sort(key=Decoration.sort_key)
    return tuple(out)


def enumerate_decorations(tree: Tree, degree_cap: int, leg_bounds: Optional[Mapping] = None) -> tuple:
    """All decorations of total degree <= degree_cap: the sorted union of
    `decorations_of_degree` over the degrees 0..degree_cap."""
    if degree_cap < 0:
        raise InvalidArgument("degree_cap must be >= 0")
    out = [d for degree in range(degree_cap + 1) for d in decorations_of_degree(tree, degree, leg_bounds)]
    out.sort(key=Decoration.sort_key)
    return tuple(out)


def overloaded(tree: Tree, dec: Decoration) -> bool:
    """Whether ψ-exponents above valence - 3 at a rational vertex kill its
    moduli factor; the genus root of a rational-tails graph is exempt."""
    load = [0] * tree.num_vertices()
    for (eid, side), e in dec.half:
        load[tree.edges[eid][side]] += e
    for l, e in dec.leg:
        load[vertex_of_leg(tree, l)] += e
    return any(load[v] > valence(tree, v) - 3 for v in range(int(tree.rt), tree.num_vertices()))


def coda_path(tree: Tree, n: int, I: frozenset) -> Optional[tuple]:
    """The root-to-coda path edges when ``tree`` is a coda for I, else None:
    the vertex of leg n is external with the legs I ∪ {n}, or it is the only
    vertex (an empty path) and I = {1..n-1}."""
    v_n = vertex_of_leg(tree, n)
    if child_edges_of(tree, v_n):
        return None
    path = path_edges(tree, v_n)
    if path:
        return path if set(tree.legs[v_n]) == I | {n} else None
    return path if I == set(range(1, n)) else None


# ---------------------------------------------------------------------------
# vertex splitting (the T°/T^{h-} constructions of the pull-back expansion)


def split_off(tree: Tree, dec: Decoration, move_leg: Label, slot, fresh: bool = False):
    """Split the vertex holding ``slot``, moving the slot and ``move_leg``
    onto a new trivalent vertex; the slot's ψ-exponent drops by one onto the
    residual side of the inserted edge.  Returns None (zero marker) when it
    is 0.  With ``fresh`` the leg is new instead of moved.
    """
    v = slot_vertex(tree, slot)
    if not fresh and move_leg not in tree.legs[v]:
        raise InvalidArgument("leg and slot sit at different vertices")
    half = dec.half_dict()
    leg = dec.leg_dict()
    if isinstance(slot, tuple):
        d = half.pop(slot, 0)
    else:
        d = leg.pop(slot, 0)
    if d == 0:
        return None

    nv = tree.num_vertices()
    legs_by_vertex = [list(ls) for ls in tree.legs] + [[move_leg]]
    if not fresh:
        legs_by_vertex[v].remove(move_leg)
    edge_pairs = [list(pair) for pair in tree.edges]
    # re-home the split slot onto the new vertex
    if isinstance(slot, tuple):
        eid, side = slot
        edge_pairs[eid][side] = nv
    else:
        legs_by_vertex[v].remove(slot)
        legs_by_vertex[nv].append(slot)
    new_eid = len(edge_pairs)
    edge_pairs.append([v, nv])

    # exponent d-1 sits on the residual-vertex side of the new edge
    if d - 1:
        half[(new_eid, 0)] = d - 1
    return _rebuild(tree, legs_by_vertex, [tuple(p) for p in edge_pairs], half, leg)


def split_vertex(tree: Tree, dec: Decoration, leg_n: Label, mode: str, tail_eid: Optional[int] = None):
    """The pull-back splitting at the vertex of ``leg_n``.

    mode "circ" transports the slot pointing toward the root (the leg h0 at
    the root vertex, else the head above); mode "tail" transports the tail of
    the child edge ``tail_eid``.  Returns ``(tree, dec)`` with a fresh leg
    label, or None (the zero marker) when the transported exponent is zero.
    """
    v = vertex_of_leg(tree, leg_n)
    if valence(tree, v) < 4:
        raise InvalidArgument("split_vertex needs valence >= 4")
    if mode == "circ":
        if v == 0:
            if tree.rt:
                raise InvalidArgument("no upward slot at the genus root")
            slot: object = H0
        else:
            slot = (parent_edge_of(tree)[v], 1)
    elif mode == "tail":
        if tail_eid is None or tail_eid not in child_edges_of(tree, v):
            raise InvalidArgument("tail mode needs a child edge of the split vertex")
        slot = (tail_eid, 0)
    else:
        raise InvalidArgument(f"unknown mode {mode!r}")
    return split_off(tree, dec, move_leg=leg_n, slot=slot)


def _rebuild(tree: Tree, legs_by_vertex, edge_pairs, half_exp: Mapping, leg_exp: Mapping):
    """``build_tree`` on edited data of ``tree``, keeping its root kind."""
    return build_tree(legs_by_vertex, edge_pairs, rt_root=0 if tree.rt else None, half_exp=half_exp, leg_exp=leg_exp)


def attach_leg(tree: Tree, dec: Decoration, v: int, label: Label):
    """Attach a fresh leg at vertex ``v``."""
    legs_by_vertex = [list(ls) for ls in tree.legs]
    legs_by_vertex[v].append(label)
    return _rebuild(tree, legs_by_vertex, list(tree.edges), dec.half_dict(), dec.leg_dict())


def detach_leg(tree: Tree, dec: Decoration, label: Label):
    """Remove the leg ``label``; its vertex must stay stable."""
    legs_by_vertex = [[l for l in ls if l != label] for ls in tree.legs]
    leg = {l: e for l, e in dec.leg if l != label}
    return _rebuild(tree, legs_by_vertex, list(tree.edges), dec.half_dict(), leg)


def relabel(tree: Tree, dec: Decoration, mapping: Mapping):
    """Rename legs; labels absent from the mapping stay fixed.

    A renaming that keeps the `label_key` order of the tree's labels keeps
    the root, the child order and every sorted leg tuple, so it renames the
    legs in place; any other goes through `build_tree`.
    """
    images = [label_key(mapping.get(l, l)) for l in tree.all_legs()]
    if all(a < b for a, b in zip(images, images[1:])):
        legs = tuple(tuple(mapping.get(l, l) for l in ls) for ls in tree.legs)
        return Tree(legs, tree.edges, tree.rt), Decoration(dec.half, tuple((mapping.get(l, l), e) for l, e in dec.leg))
    legs_by_vertex = [[mapping.get(l, l) for l in ls] for ls in tree.legs]
    leg = {mapping.get(l, l): e for l, e in dec.leg}
    return _rebuild(tree, legs_by_vertex, list(tree.edges), dec.half_dict(), leg)


def graft(tree: Tree, dec: Decoration, at: Label, legs: Iterable[Label]):
    """Replace the leg ``at`` by an edge to a new vertex carrying ``legs``.

    The ψ-exponent of ``at`` moves to the new edge's side at the old vertex.
    """
    v = vertex_of_leg(tree, at)
    legs_by_vertex = [list(ls) for ls in tree.legs] + [list(legs)]
    legs_by_vertex[v].remove(at)
    half = dec.half_dict()
    leg = dec.leg_dict()
    exp = leg.pop(at, 0)
    if exp:
        half[(tree.num_edges(), 0)] = exp
    return _rebuild(tree, legs_by_vertex, list(tree.edges) + [(v, tree.num_vertices())], half, leg)


NODE = "@node"


def coda_mapping(n: int, I: frozenset) -> dict:
    """Relabeling that frees the coda legs I ∪ {n} on a space with n - |I| legs.

    Leg 1 becomes the gluing leg `NODE`; legs 2..n-|I| go order-preservingly
    onto {1..n-1} - I.
    """
    if not I or not I <= set(range(1, n)):
        raise InvalidArgument("I must be a non-empty subset of 1..n-1")
    mapping = dict(zip(range(2, n - len(I) + 1), sorted(set(range(1, n)) - I)))
    mapping[1] = NODE
    return mapping


def contract_trivalent(tree: Tree, dec: Decoration, v: int, keep, drop: Label, bump: int = 0):
    """Remove the leg ``drop`` from the trivalent vertex ``v`` and stabilize.

    The third slot at ``v`` is an edge; it is contracted, so ``v`` disappears
    and ``keep`` (a leg or a half-edge slot at ``v``) moves to the far vertex,
    taking the far side's ψ-exponent plus ``bump``.  Exponents at ``v``
    itself are dropped: they vanish on a trivalent vertex.
    """
    ((eid, side),) = [s for s in vertex_slots(tree, v) if s != keep and s != drop]
    u = tree.edges[eid][1 - side]
    half = dec.half_dict()
    leg = dec.leg_dict()
    exp = half.pop((eid, 1 - side), 0) + bump
    half.pop((eid, side), None)
    leg.pop(drop, None)
    legs_by_vertex = [list(ls) for ls in tree.legs]
    legs_by_vertex[v].remove(drop)
    edge_pairs = [list(p) for p in tree.edges]
    if isinstance(keep, tuple):
        edge_pairs[keep[0]][keep[1]] = u
        half[keep] = exp
    else:
        legs_by_vertex[v].remove(keep)
        legs_by_vertex[u].append(keep)
        leg[keep] = exp
    return drop_vertex(tree, legs_by_vertex, edge_pairs, half, leg, v, eid)


def drop_vertex(tree: Tree, legs_by_vertex, edge_pairs, half: Mapping, leg: Mapping, v: int, eid: int):
    """Rebuild edited data of ``tree`` without the vertex ``v`` and the edge ``eid``.

    Neither may still be referenced: ``v`` carries no legs and no other edge,
    and ``half`` has no entry on ``eid``.
    """
    keep = [k for k in range(len(edge_pairs)) if k != eid]
    new_eid = {k: idx for idx, k in enumerate(keep)}
    pairs = [tuple(a - (a > v) for a in edge_pairs[k]) for k in keep]
    new_half = {(new_eid[k], side): e for (k, side), e in half.items()}
    return _rebuild(tree, [ls for w, ls in enumerate(legs_by_vertex) if w != v], pairs, new_half, leg)
