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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

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


@dataclass(frozen=True, slots=True)
class Tree:
    """A canonical stable labeled tree.

    ``legs[v]`` is the sorted tuple of leg labels at vertex ``v``; ``edges``
    are ``(parent, child)`` pairs; ``rt`` is True when vertex 0 is a
    positive-genus root (rational-tails variant).  The hash is computed once,
    when the tree is built, and equals ``hash((legs, edges, rt))``.
    """

    legs: tuple
    edges: tuple
    rt: bool = False
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.legs, self.edges, self.rt)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # only the fields: a process with another string-hash seed rehashes
        return (Tree, (self.legs, self.edges, self.rt))

    def num_vertices(self) -> int:
        return len(self.legs)

    def num_edges(self) -> int:
        return len(self.edges)

    def all_legs(self) -> tuple:
        return sort_labels(l for ls in self.legs for l in ls)

    def sort_key(self) -> tuple:
        return _tree_order(self, label_key)


@dataclass(frozen=True, slots=True)
class Decoration:
    """ψ-exponents on half-edge slots and legs; only nonzero entries stored.
    The hash is stored as `Tree`'s is, equal to ``hash((half, leg))``."""

    half: tuple = ()
    leg: tuple = ()
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.half, self.leg)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Decoration, (self.half, self.leg))

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
    for l, _ in leg:
        label_arg("a leg", l)
    for _, e in itertools.chain(half, leg):
        integer_arg("a psi exponent", e, 0)
    return Decoration(half, leg)


def _tree_order(tree: Tree, key) -> tuple:
    """`Tree.sort_key`, with ``key`` giving each label's `label_key`."""
    return (int(tree.rt), tuple(tuple(map(key, ls)) for ls in tree.legs), tree.edges)


def term_sort_key(tree: Tree, dec: Decoration) -> tuple:
    return (tree.sort_key(), dec.sort_key())


class InvalidArgument(ValueError):
    """Raised when an operation's preconditions are violated."""


def integer_arg(name: str, value, least: Optional[int] = None) -> int:
    """``value``, refused unless it is an `int` of at least ``least`` (when
    given): the one check of a size, index or exponent.  A bool is refused,
    since it would share cache entries with 0 and 1, and so is a float, which
    every rule that reads the value would miss.  Each public entry calls it
    before it touches any cache."""
    if type(value) is not int or (least is not None and value < least):
        raise InvalidArgument(f"{name} must be an integer{'' if least is None else f' >= {least}'}, not {value!r}")
    return value


def label_arg(name: str, value) -> Label:
    """``value``, refused unless it is a leg label: an `int` that is no bool, or a `str`."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InvalidArgument(f"{name} must be an integer or a string, not {value!r}")
    return value


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
    The tree is built from its split family (`_build_from_laminar`), and each
    half-edge follows its edge's split.  An exponent on a missing slot is refused.
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

    if rt_root is not None and integer_arg("rt_root", rt_root) not in range(nv):
        raise InvalidArgument(f"no vertex {rt_root!r}")
    adj: list = [[] for _ in range(nv)]
    for ei, (a, b) in enumerate(edge_pairs):
        if any(integer_arg("a vertex of an edge", v) not in range(nv) for v in (a, b)):
            raise InvalidArgument(f"edge {(a, b)!r} names no vertex")
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

    # the root is the genus vertex, or the vertex of the smallest label
    rt = rt_root is not None
    base, labels, bit = _frame(frozenset(all_labels), rt)
    root = rt_root if rt else next(v for v, ls in enumerate(legs_in) if base[0] in ls)
    up = {root: None}  # vertex -> (its parent, the edge to it), in discovery order
    stack = [root]
    while stack:
        v = stack.pop()
        for w, ei in adj[v]:
            if w not in up:
                up[w] = (v, ei)
                stack.append(w)
    if len(up) != nv:
        raise InvalidArgument("tree is not connected")

    # each vertex's split: the legs of its subtree
    below = list(up)[1:]
    mask = [sum(bit.get(l, 0) for l in ls) for ls in legs_in]
    for v in reversed(below):
        mask[up[v][0]] |= mask[v]
    tree = _build_from_laminar(labels, tuple(mask[v] for v in below), rt, base)
    edge_of = {m: e for e, m in enumerate(splits(tree))}
    image = {up[w][1]: (edge_of[mask[w]], w) for w in below}  # input edge -> (edge, its child)

    new_half = {}
    for slot, e in (half_exp or {}).items():
        if not e:
            continue
        ei, side = slot if isinstance(slot, tuple) and len(slot) == 2 else (-1, -1)
        if integer_arg("an edge index", ei) not in image or integer_arg("a side", side) not in (0, 1):
            raise InvalidArgument(f"no half-edge {slot!r}")
        eid, child = image[ei]
        new_half[(eid, int(edge_pairs[ei][side] == child))] = e
    for l, e in (leg_exp or {}).items():
        if e and l not in all_labels:
            raise InvalidArgument(f"no leg {l!r}")
    return tree, make_decoration(new_half, leg_exp)


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
def beyond_legs(tree: Tree, eid: int) -> frozenset:
    """Legs in the subtree on the child side of edge ``eid``."""
    _, child = tree.edges[eid]
    acc = set(tree.legs[child])
    for e2 in child_edges_of(tree, child):
        acc |= beyond_legs(tree, e2)
    return frozenset(acc)


@lru_cache(maxsize=None)
def _frame(legs: frozenset, rt: bool) -> tuple:
    """``(base, labels, bit)`` of a tree with these legs: a rooted tree keeps
    its smallest label, the base, at the root, and split masks number the
    labels after it (``bit``: label -> its bit).  A rational-tails graph has
    no base.  Cached per leg set: every refinement of a pairing reads it."""
    ordered = sort_labels(legs)
    base = () if rt else ordered[:1]
    labels = ordered[len(base):]
    return base, labels, {l: 1 << k for k, l in enumerate(labels)}


@lru_cache(maxsize=None)
def splits(tree: Tree) -> tuple:
    """Each edge's split, in edge order: the bitmask of the legs beyond it,
    bit k standing for label k of the frame (`_frame`)."""
    bit = _frame(frozenset(itertools.chain.from_iterable(tree.legs)), tree.rt)[2]
    masks = [sum(bit.get(l, 0) for l in ls) for ls in tree.legs]
    # a child's index is above its parent's, so this adds each subtree bottom up
    for p, c in reversed(tree.edges):
        masks[p] |= masks[c]
    return tuple(masks[c] for _, c in tree.edges)


@lru_cache(maxsize=None)
def _crossing_table(k: int, max_part: int) -> dict:
    """Each of the enumerator's candidate splits, two to ``max_part`` of ``k``
    labels, in order -> (its bit, the bits of the candidates crossing it: those
    that meet it with neither holding the other)."""
    cands = _subsets_as_masks(k, 2, max_part)
    bits = {m: 1 << idx for idx, m in enumerate(cands)}
    return {p: (bits[p], sum(bits[q] for q in cands if p & q not in (0, p, q))) for p in cands}


@lru_cache(maxsize=None)
def split_bits(tree: Tree) -> tuple:
    """``(own, crossing)``: the bits of the tree's splits, and of every split
    crossing one of them (`_crossing_table`)."""
    base, labels, _ = _frame(frozenset(tree.all_legs()), tree.rt)
    table = _crossing_table(len(labels), len(labels) - len(base))
    own = crossing = 0
    for m in splits(tree):
        bit, cross = table[m]
        own |= bit
        crossing |= cross
    return own, crossing


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


def capacity(tree: Tree, head, leg_weights: Optional[Mapping] = None) -> int:
    """Capacity of a head: the (weighted) number of legs beyond it.

    ``head`` is an edge id (its head side) or the reserved label ``h0``, whose
    capacity counts every leg of the tree.
    """
    weights = leg_weights or {}
    for weight in weights.values():
        integer_arg("a leg weight", weight, 1)
    if head == H0:
        # h0 sorts first, so a canonical tree that has it carries it at the root
        if tree.rt or H0 not in tree.legs[0]:
            raise InvalidArgument("h0 capacity only defined for rooted rational trees")
        return sum(weights.get(l, 1) for ls in tree.legs for l in ls if l != H0)
    if integer_arg("a head", head, 0) >= tree.num_edges():
        raise InvalidArgument(f"not a head half-edge: {head!r}")
    return sum(weights.get(l, 1) for l in beyond_legs(tree, head))


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


def _laminar_families(table: dict):
    """All subsets of a crossing table's candidates (`_crossing_table`) that
    are pairwise nested or disjoint: a candidate joins when no split already
    chosen crosses it."""
    cands = list(table.items())

    def rec(start: int, chosen: list, crossing: int):
        yield tuple(chosen)
        for k in range(start, len(cands)):
            c, (bit, cross) = cands[k]
            if not bit & crossing:
                chosen.append(c)
                yield from rec(k + 1, chosen, crossing | cross)
                chosen.pop()

    yield from rec(0, [], 0)


# (labels, rt, base, sorted split masks) -> its dual tree; the enumerators
# fill it, so a lookup of an enumerated family builds nothing
_laminar_trees: dict = {}


def _tree_from_laminar(labels: tuple, family: tuple, rt: bool, base: tuple = ()) -> Tree:
    """The dual tree whose edge splits are exactly ``family``, built once per
    family (``_laminar_trees``)."""
    key = (labels, rt, base, tuple(sorted(family)))
    tree = _laminar_trees.get(key)
    if tree is None:
        tree = _laminar_trees[key] = _build_from_laminar(labels, family, rt, base)
    return tree


# labels -> {mask: the labels of its bits, in order}, filled as trees are built
_mask_labels: dict = {}


def _build_from_laminar(labels: tuple, family: tuple, rt: bool, base: tuple) -> Tree:
    """The canonical tree whose edge splits are exactly ``family``.

    Bit k of a split is ``labels[k]``.  A split's parent is the smallest
    split that holds it; the root holds the ``base`` legs and every label no
    split holds.  Children come in the order of their lowest bit, the
    smallest label beyond them, and vertices are numbered depth first.  A
    vertex's own legs are looked up by its mask in a memo per label tuple
    (``_mask_labels``), so only a mask met for the first time scans the labels.
    """
    by_size = sorted(family, key=int.bit_count)
    children: dict = {m: [] for m in [None] + by_size}  # None: the root
    for i, m in enumerate(by_size):
        children[next((p for p in by_size[i + 1:] if p & m == m), None)].append(m)
    own_legs = _mask_labels.setdefault(labels, {})
    legs: list = []
    edges: list = []
    stack = [(None, None)]  # (split, its parent vertex)
    while stack:
        node, parent = stack.pop()
        v = len(legs)
        if parent is not None:
            edges.append((parent, v))
        kids = sorted(children[node], key=lambda m: m & -m)
        rest = ((1 << len(labels)) - 1 if node is None else node) & ~sum(kids)  # disjoint: their sum is their union
        own = own_legs.get(rest)
        if own is None:
            own = own_legs[rest] = tuple(l for k, l in enumerate(labels) if rest >> k & 1)
        legs.append(base + own if node is None else own)
        stack.extend((m, v) for m in reversed(kids))
    return Tree(legs=tuple(legs), edges=tuple(edges), rt=rt)


def _trees_of_laminar(labels: tuple, max_part: int, rt: bool, base: tuple = ()) -> tuple:
    """Dual trees of the laminar families of 2..max_part-subsets of ``labels``, sorted."""
    families = _laminar_families(_crossing_table(len(labels), max_part))
    out = [_tree_from_laminar(labels, fam, rt, base) for fam in families]
    keys = {l: label_key(l) for l in base + labels}
    out.sort(key=lambda tree: _tree_order(tree, keys.__getitem__))
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
    return _trees_of_laminar(ordered[1:], len(ordered) - 2, rt=False, base=ordered[:1])


def enumerate_trees0(n: int) -> tuple:
    """All rooted rational trees with legs 1..n and the root leg h0."""
    integer_arg("n", n, 2)
    return enumerate_stable_trees((H0,) + tuple(range(1, n + 1)))


@lru_cache(maxsize=None, typed=True)
def enumerate_rt_graphs(n: int) -> tuple:
    """All rational-tails graphs with legs 1..n and a genus-g root vertex.
    The cache is typed, so a bool or a float is a key of its own, which
    misses and reaches the guard."""
    integer_arg("n", n, 1)
    return _trees_of_laminar(tuple(range(1, n + 1)), n, rt=True)


@lru_cache(maxsize=None)
def psi_budgets(tree: Tree) -> tuple:
    """Each vertex's ψ budget: valence - 3, the dimension of its moduli factor,
    which a nonzero term never exceeds and a top-degree integral meets
    exactly; None at the genus root of a rational-tails graph."""
    valences = [len(ls) for ls in tree.legs]
    for edge in tree.edges:
        for v in edge:
            valences[v] += 1
    return tuple(None if tree.rt and v == 0 else k - 3 for v, k in enumerate(valences))


def psi_loads(tree: Tree, dec: Decoration) -> list:
    """The total ψ-exponent ``dec`` puts on each vertex."""
    load = [0] * tree.num_vertices()
    for (eid, side), e in dec.half:
        load[tree.edges[eid][side]] += e
    for l, e in dec.leg:
        load[vertex_of_leg(tree, l)] += e
    return load


def _vertex_choices(tree: Tree, v: int, cap: int, leg_bounds: Mapping) -> list:
    """All slot-exponent assignments at ``v`` of total degree <= cap."""
    budget = psi_budgets(tree)[v]
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
    integer_arg("degree", degree, 0)
    bounds = {l: integer_arg(f"the bound of leg {l!r}", bound, 1) for l, bound in (leg_bounds or {}).items()}
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
    integer_arg("degree_cap", degree_cap, 0)
    out = [d for degree in range(degree_cap + 1) for d in decorations_of_degree(tree, degree, leg_bounds)]
    out.sort(key=Decoration.sort_key)
    return tuple(out)


def overloaded(tree: Tree, dec: Decoration) -> bool:
    """Whether a vertex's ψ-load exceeds its budget (`psi_budgets`), which
    kills its moduli factor."""
    return any(b is not None and load > b for load, b in zip(psi_loads(tree, dec), psi_budgets(tree)))


def coda_path(tree: Tree, n: int) -> Optional[tuple]:
    """``(I, path)`` when ``tree`` is a coda, else None: the vertex of leg n
    is external, I is its other legs and ``path`` the root-to-coda edges; on
    the one-vertex tree the path is empty and I is every leg but h0 and n."""
    v_n = vertex_of_leg(tree, integer_arg("n", n))
    if child_edges_of(tree, v_n):
        return None
    return frozenset(tree.legs[v_n]) - {H0, n}, path_edges(tree, v_n)


# ---------------------------------------------------------------------------
# moves: a stable tree is fixed by its legs and the splits its edges cut off,
# so every move edits the split family.  A rename maps each split by a bit
# table built once per (leg set, mapping) (`renaming`); every other move is
# canonicalised once per (tree, move) (`_plan`); decorations follow by slot
# lookups


def _plan(old: Tree, gone: frozenset, extra: tuple = (), at: int = 0, added: tuple = ()):
    """The tree a move makes of ``old``, and its slot map: ``(new tree, slots)``.

    The ``gone`` legs are forgotten; the others stay.  The ``extra`` legs
    are new and land on vertex ``at``'s side of every old edge.  ``added``
    lists the legs on one side of each new edge; the slot map numbers the
    k-th new edge ``old.num_edges() + k``, with that side as its head.  Each
    edge keeps its split under these edits.  A split that no longer cuts
    off two legs a side (the genus root of a rational-tails graph needs
    none) drops: that edge was contracted, and its slots get no image.
    Edges whose splits coincide merge: the vertex between them was
    contracted, and no exponent may sit there.  Adding h0 to a
    rational-tails graph cuts off a rooted tree.

    The new tree comes from the enumerator's split-keyed cache
    (`_laminar_trees`), so each family is canonicalised once, and each slot
    finds its new slot by its edge's split.  A rooted tree stores the side
    without its smallest label, so there a split may flip; a rational-tails
    root stays the root, so there none does.
    """
    legs = [l for ls in old.legs for l in ls if l not in gone] + list(extra)
    if len(set(legs)) != len(legs):
        raise InvalidArgument("duplicate leg labels")
    rt = old.rt and H0 not in extra
    base, labels, bit = _frame(frozenset(legs), rt)
    full = (1 << len(labels)) - 1
    on_path = path_edges(old, at) if extra else ()

    def split(side) -> tuple:
        mask = sum(bit.get(l, 0) for l in side)
        flip = bool(base) and base[0] in side
        return (full ^ mask if flip else mask), flip

    sides = [
        split([l for l in beyond_legs(old, e) if l not in gone] + (list(extra) if e in on_path else []))
        for e in range(old.num_edges())
    ] + [split(side) for side in added]
    most = len(labels) - 1 if base else len(labels)
    kept = {mask for mask, _ in sides if 2 <= mask.bit_count() <= most}
    if any(mask not in kept for mask, _ in sides[old.num_edges():]):
        raise InvalidArgument("a new edge must cut off two legs a side")
    new = _tree_from_laminar(labels, tuple(kept), rt, base)
    edge_of = {m: e2 for e2, m in enumerate(splits(new))}
    slots = {}
    for e, (mask, flip) in enumerate(sides):
        if mask in kept:
            slots[(e, 0)], slots[(e, 1)] = (edge_of[mask], int(flip)), (edge_of[mask], 1 - flip)
    return new, slots


def _carried(half: tuple, slots: Mapping, skip=None) -> tuple:
    """The half-edge exponents of ``half`` on their new slots; unmapped slots and ``skip`` drop."""
    return tuple(sorted((slots[s], e) for s, e in half if s != skip and s in slots))


@lru_cache(maxsize=None)
def _forget_plan(tree: Tree, leg: Label):
    """Forgetting ``leg``: ``(new tree, slot map, moved)``.

    At a trivalent rational vertex an edge there contracts: the last of its
    two other slots, legs coming first.  When the first is a leg,
    ``moved`` is ``(far slot, that leg)``: the leg moves to the far vertex
    and takes the far slot's exponent.  Otherwise (the first is an edge,
    whose split the contracted one shares, or the vertex stays stable)
    ``moved`` is None.
    """
    v = vertex_of_leg(tree, leg)
    moved = None
    if psi_budgets(tree)[v] == 0:
        keep, edge = [s for s in vertex_slots(tree, v) if s != leg]
        if not isinstance(edge, tuple):
            raise InvalidArgument("no edge to contract at the vertex")
        if not isinstance(keep, tuple):
            moved = ((edge[0], 1 - edge[1]), keep)
    return (*_plan(tree, frozenset([leg])), moved)


@lru_cache(maxsize=None)
def _attach_plan(tree: Tree, v: int, new_leg: Label):
    """Attaching ``new_leg`` at ``v``: ``(new tree, slot map)``."""
    return _plan(tree, frozenset(), (new_leg,), v)


@lru_cache(maxsize=None)
def _split_plan(tree: Tree, v: int, slot, leg: Label):
    """Splitting ``slot`` of vertex ``v`` and the new ``leg`` off onto a new
    trivalent vertex: ``(new tree, slot map, residual slot)``, the residual
    slot being the new edge's side at ``v``."""
    if isinstance(slot, tuple) and slot[1] == 1:
        # the head above v: the new vertex goes above it, and v heads the new edge
        cut, side = beyond_legs(tree, slot[0]), 1
    else:
        cut, side = (beyond_legs(tree, slot[0]) if isinstance(slot, tuple) else {slot}) | {leg}, 0
    new, slots = _plan(tree, frozenset(), (leg,), v, (cut,))
    return new, slots, slots[(tree.num_edges(), side)]


@lru_cache(maxsize=None)
def _graft_plan(tree: Tree, at: Label, legs: tuple):
    """Grafting ``legs`` at the leg ``at``: ``(new tree, slot map, at slot)``,
    the at slot being the new edge's side at the old vertex, where the
    exponent of ``at`` lands."""
    new, slots = _plan(tree, frozenset([at]), legs, vertex_of_leg(tree, at), (legs,))
    return new, slots, slots[(tree.num_edges(), 0)]


class Renaming(NamedTuple):
    """How `relabel` renames the trees on one leg set: the new frame
    (`_frame`), each old split mask's new mask (``image``, indexed by the old
    mask), the old bits whose labels become the new base (``to_base``: a
    split holding one keeps its other side, so its two slots swap), and each
    old label's new label."""

    labels: tuple
    base: tuple
    image: tuple
    to_base: int
    leg_of: dict


def renaming(legs: frozenset, rt: bool, mapping: Mapping) -> Renaming:
    """The `Renaming` of the trees on ``legs`` (rational-tails graphs when
    ``rt``) by ``mapping``; labels absent from it stay.  It is the same for
    every term of a class, so it is built once per (legs, rt, mapping).  A
    mapping that merges two legs is refused (`relabel_legs`)."""
    return _renaming(frozenset(legs), rt, tuple(mapping.items()))


@lru_cache(maxsize=None)
def _renaming(legs: frozenset, rt: bool, pairs: tuple) -> Renaming:
    """Each old bit goes to its label's bit in the new frame, and a mask to
    the union of its bits' images, complemented when it holds the new base."""
    mapping = dict(pairs)
    leg_of = {l: mapping.get(l, l) for l in legs}
    labels = _frame(legs, rt)[1]
    base, new_labels, bit = _frame(relabel_legs(legs, mapping), rt)
    into = [bit.get(leg_of[l], 0) for l in labels]  # 0: the new base
    to_base = sum(1 << k for k, l in enumerate(labels) if leg_of[l] in base)
    full = (1 << len(new_labels)) - 1
    image = [0]
    for mask in range(1, 1 << len(labels)):
        low = mask & -mask
        image.append(image[mask ^ low] | into[low.bit_length() - 1])
    image = tuple(full ^ m if mask & to_base else m for mask, m in enumerate(image))
    return Renaming(new_labels, base, image, to_base, leg_of)


def relabel(tree: Tree, dec: Decoration, rename: Renaming):
    """Rename the legs of a term by a `Renaming` built for its legs.

    Each split of the tree (`splits`) goes through the renaming's table, the
    new tree is looked up by its splits (`_laminar_trees`), and each
    half-edge exponent follows its edge's split.
    """
    labels, base, image, to_base, leg_of = rename
    old = splits(tree)
    family = tuple([image[m] for m in old])
    new = _tree_from_laminar(labels, family, tree.rt, base)
    half = dec.half
    if half:
        edge = splits(new).index
        half = tuple(sorted(((edge(family[e]), side ^ (old[e] & to_base > 0)), x) for (e, side), x in half))
    leg = tuple([(leg_of[l], x) for l, x in dec.leg])
    if len(leg) > 1:
        leg = tuple(sorted(leg, key=lambda t: label_key(t[0])))
    return new, Decoration(half, leg)


def relabel_legs(legs: frozenset, mapping: Mapping) -> frozenset:
    """The leg set after `relabel`; a mapping that merges two of ``legs`` is
    refused here, so a class with no terms is refused as one with terms is."""
    image = frozenset(mapping.get(l, l) for l in legs)
    if len(image) != len(legs):
        raise InvalidArgument("duplicate leg labels")
    return image


def graft(tree: Tree, dec: Decoration, at: Label, legs: Iterable[Label]):
    """Replace the leg ``at`` by an edge to a new vertex carrying ``legs``.

    The ψ-exponent of ``at`` moves to the new edge's side at the old vertex.
    The new tree comes from one plan per (tree, at, legs) (`_graft_plan`).
    """
    new, slots, at_slot = _graft_plan(tree, at, sort_labels(legs))
    half = _carried(dec.half, slots)
    exp = dec.leg_exp(at)
    if exp:
        half = tuple(sorted(half + ((at_slot, exp),)))
    return new, Decoration(half, tuple((l, e) for l, e in dec.leg if l != at))


NODE = "@node"


def coda_members(I: Iterable[Label]) -> frozenset:
    """The coda legs I as a set; an I that lists a member twice, or a member
    that is not an `int` (every coda reads legs 1..n-1), is refused."""
    members = tuple(integer_arg("a member of I", l) for l in I)
    if len(set(members)) != len(members):
        raise InvalidArgument(f"I repeats a member: {list(members)}")
    return frozenset(members)


def coda_mapping(n: int, I: Iterable[Label]) -> dict:
    """Relabeling that frees the coda legs I ∪ {n} on a space with n - |I| legs.

    Leg 1 becomes the gluing leg `NODE`; legs 2..n-|I| go order-preservingly
    onto {1..n-1} - I.
    """
    I = coda_members(I)
    if not I or not I <= set(range(1, integer_arg("n", n))):
        raise InvalidArgument("I must be a non-empty subset of 1..n-1")
    mapping = dict(zip(range(2, n - len(I) + 1), sorted(set(range(1, n)) - I)))
    mapping[1] = NODE
    return mapping


# ---------------------------------------------------------------------------
# per-term rules of the class moves (shared by `Class0` and `RtClass`)


def collide_term(tree: Tree, dec: Decoration, i: Label, j: Label):
    """One term of colliding ``j`` into ``i``: ``(sign, tree, dec)`` or None (zero).

    Legs apart give zero.  At a trivalent rational vertex the supporting edge
    contracts: the far branch exponent moves to ``i``, gains one from the
    excess -ψ, and the sign flips; the genus root never contracts.  Any other
    vertex merges the two legs, unless either carries ψ.  The new tree is
    that of forgetting ``j`` (`_forget_plan`).
    """
    if j not in tree.legs[vertex_of_leg(tree, i)]:
        return None
    new, slots, moved = _forget_plan(tree, j)
    if moved is None:
        if dec.leg_exp(i) or dec.leg_exp(j):
            return None
        return (1, new, Decoration(_carried(dec.half, slots), dec.leg))
    # exponents at the contracted vertex drop: they vanish on a trivalent vertex
    leg = [(l, e) for l, e in dec.leg if l != i and l != j]
    leg.append((i, dec.half_exp(moved[0]) + 1))
    leg.sort(key=lambda t: label_key(t[0]))
    return (-1, new, Decoration(_carried(dec.half, slots), tuple(leg)))


def forget_terms(tree: Tree, dec: Decoration, leg: Label):
    """The terms ``(sign, tree, dec)`` of pushing forward along forgetting
    ``leg``, for a decoration without ψ_leg; the new tree is that of
    `_forget_plan`."""
    new, slots, moved = _forget_plan(tree, leg)
    half = _carried(dec.half, slots)
    v = vertex_of_leg(tree, leg)
    if psi_budgets(tree)[v]:
        # string rule: lower one decorated slot at v by one (ψ_leg is gone)
        for slot in vertex_slots(tree, v):
            lowered, legexp = dict(half), dec.leg_dict()
            store, key = (lowered, slots[slot]) if isinstance(slot, tuple) else (legexp, slot)
            if store.get(key):
                store[key] -= 1
                yield 1, new, make_decoration(lowered, legexp)
    else:
        # decorated slots at a trivalent vertex are already zero in normal
        # form; the leg left over takes the far exponent, or the edge left
        # over merges with the contracted one (`_forget_plan`)
        legexp = dec.leg_dict()
        if moved is not None:
            far, keep = moved
            legexp[keep] = dec.half_exp(far)
        yield 1, new, make_decoration(dict(half), legexp)


def pullback_terms(tree: Tree, dec: Decoration, new_leg: Label):
    """The terms ``(sign, tree, dec)`` of pulling back along forgetting ``new_leg``.

    Per vertex: the leg attached there, minus one splitting per decorated
    slot at that vertex (the ψ-comparison corrections), whose exponent drops
    by one onto the new edge's side there.  The new trees come from one plan
    per (tree, vertex or slot, new_leg).
    """
    exps = {**dict(dec.half), **dict(dec.leg)}
    for v in range(tree.num_vertices()):
        new, slots = _attach_plan(tree, v, new_leg)
        yield (1, new, Decoration(_carried(dec.half, slots), dec.leg))
        for slot in vertex_slots(tree, v):
            d = exps.get(slot)
            if d:
                new, slots, residual = _split_plan(tree, v, slot, new_leg)
                half = _carried(dec.half, slots, skip=slot)
                if d > 1:
                    half = tuple(sorted(half + ((residual, d - 1),)))
                yield (-1, new, Decoration(half, tuple((l, e) for l, e in dec.leg if l != slot)))
