"""The genus-0 strata algebra, and the formal-sum core every class shares.

`FormalSum` owns the bookkeeping of an exact finite linear combination (add,
cancel, compare); `Class0` here and `RtClass`, `PushedClass` and `KPoly` in
`rtclasses` subclass it.

A `Class0` is an exact formal sum of ψ-decorated boundary-strata pushforwards
on the moduli space of stable rational curves determined by its leg set.
Terms are keyed by the canonical (tree, decoration) encoding; coefficients are
`Fraction`s.  Terms whose decoration kills a vertex's moduli factor, and terms
of degree above the ambient dimension, are dropped on construction.

Products with undecorated strata use the excess-intersection formula: the leg
splits of the two trees must form a laminar family (otherwise the product is
empty), the common refinement is the unique minimal joint degeneration, and
every shared edge contributes a factor -ψ' - ψ''.

The zero test pairs a homogeneous class against every boundary stratum of
complementary dimension.  Boundary strata span these spaces and the
intersection pairing is perfect over the rationals, so a class vanishes
exactly when all such pairings do.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterable, Mapping, Optional

from .trees import (
    H0,
    NODE,
    Decoration,
    InvalidArgument,
    Tree,
    attach_leg,
    beyond_legs,
    build_tree,
    coda_mapping,
    contract_trivalent,
    detach_leg,
    enumerate_stable_trees,
    graft,
    label_key,
    make_decoration,
    overloaded,
    relabel,
    sort_labels,
    split_off,
    term_sort_key,
    valence,
    vertex_of_leg,
    vertex_slots,
    _tree_from_laminar,
)


class FormalSum:
    """An exact finite linear combination: term key -> nonzero coefficient.

    ``_put`` is the one place a coefficient is added into ``terms`` and a
    cancelled key dropped.  Subclasses check a new term in their own ``_add``
    before they ``_put`` it; sums and multiples copy terms that are already
    checked.  A subclass supplies ``_space()``, the constructor arguments
    that fix where the sum lives (two summands must agree on them), and
    ``_sort_key(key)``, the canonical order of ``items()``.

    A cached sum is frozen: ``_put`` and ``_add`` then raise, while sums,
    multiples and products still return fresh sums.
    """

    __slots__ = ("terms", "_frozen")

    def _space(self) -> tuple:
        return ()

    def freeze(self):
        """Refuse every later ``_put`` and ``_add``; returns self."""
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if getattr(self, "_frozen", False):
            raise TypeError(f"{self!r} is frozen; copy it before changing it")

    def _put(self, key, coeff) -> None:
        self._check_mutable()
        old = self.terms.get(key)
        new = coeff if old is None else old + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def _empty(self):
        return type(self)(*self._space())

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))

    def _combined(self, other: "FormalSum", sign: int):
        """self + sign * other."""
        if type(other) is not type(self) or other._space() != self._space():
            raise InvalidArgument(f"cannot add {other!r} to {self!r}")
        out = self._empty()
        out.terms = dict(self.terms)
        for key, coeff in other.terms.items():
            out._put(key, coeff if sign > 0 else -coeff)
        return out

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def scale(self, factor):
        factor = Fraction(factor)
        out = self._empty()
        if factor:
            out.terms = {k: c * factor for k, c in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._space() == other._space() and self.terms == other.terms


class Class0(FormalSum):
    """Formal sum of decorated strata on the moduli space with the given legs."""

    __slots__ = ("ambient",)

    def __init__(self, ambient: Iterable, terms: Optional[Mapping] = None):
        self.ambient = frozenset(ambient)
        if len(self.ambient) < 3:
            raise InvalidArgument("ambient needs at least three legs")
        self.terms = {}
        for (tree, dec), coeff in (terms or {}).items():
            self._add(tree, dec, coeff)

    def _add(self, tree: Tree, dec: Decoration, coeff: Fraction) -> None:
        self._check_mutable()
        if coeff and not term_is_zero(tree, dec, self.ambient):
            self._put((tree, dec), coeff)

    def _space(self) -> tuple:
        return (self.ambient,)

    @staticmethod
    def _sort_key(key) -> tuple:
        return term_sort_key(*key)

    def __repr__(self) -> str:
        return f"Class0({sorted(self.ambient, key=label_key)!r}, {len(self.terms)} terms)"

    def degrees(self) -> set:
        return {term_degree(t, d) for t, d in self.terms}

    def mul_psi(self, leg, power: int = 1) -> "Class0":
        """Multiply by ψ_leg^power (the ψ-class at a marked point)."""
        out = Class0(self.ambient)
        for (tree, dec), coeff in self.terms.items():
            legexp = dec.leg_dict()
            legexp[leg] = legexp.get(leg, 0) + power
            out._add(tree, make_decoration(dec.half_dict(), legexp), coeff)
        return out


def dim_of(ambient: frozenset) -> int:
    return len(ambient) - 3


def term_degree(tree: Tree, dec: Decoration) -> int:
    return tree.num_edges() + dec.degree()


def term_is_zero(tree: Tree, dec: Decoration, ambient: frozenset) -> bool:
    if frozenset(l for ls in tree.legs for l in ls) != ambient:
        raise InvalidArgument("term legs do not match the ambient")
    return term_degree(tree, dec) > dim_of(ambient) or overloaded(tree, dec)


def zero(ambient) -> Class0:
    return Class0(ambient)


def push_tree(tree: Tree, dec: Decoration = Decoration()) -> Class0:
    """The single-term class of a decorated stratum pushforward."""
    out = Class0(frozenset(tree.all_legs()))
    out._add(tree, dec, Fraction(1))
    return out


def from_terms(ambient, triples) -> Class0:
    out = Class0(ambient)
    for tree, dec, coeff in triples:
        out._add(tree, dec, Fraction(coeff))
    return out


# ---------------------------------------------------------------------------
# integration


def integrate_term(tree: Tree, dec: Decoration, ambient: frozenset) -> int:
    """∏ over vertices of the top ψ-integral on that vertex's factor.

    A vertex of valence k whose exponents e sum to k - 3 contributes the
    multinomial (k - 3)! / ∏ e!, so the integral is an integer.
    """
    if term_degree(tree, dec) != dim_of(ambient):
        return 0
    load: list = [[] for _ in range(tree.num_vertices())]
    for (eid, side), e in dec.half:
        load[tree.edges[eid][side]].append(e)
    for l, e in dec.leg:
        load[vertex_of_leg(tree, l)].append(e)
    total = 1
    for v, exps in enumerate(load):
        k = valence(tree, v)
        if sum(exps) != k - 3:
            return 0
        den = 1
        for e in exps:
            den *= factorial(e)
        total *= factorial(k - 3) // den
    return total


def integrate(x: Class0) -> Fraction:
    return sum((c * integrate_term(t, d, x.ambient) for (t, d), c in x.terms.items()), Fraction(0))


# ---------------------------------------------------------------------------
# strata families and split masks


@lru_cache(maxsize=None)
def _bit_order(ambient: frozenset) -> tuple:
    return sort_labels(ambient)


@lru_cache(maxsize=None)
def _strata_by_codim(ambient: frozenset) -> tuple:
    """The one family of strata on ``ambient``, split by edge count (in order)."""
    by_codim: list = [[] for _ in range(dim_of(ambient) + 1)]
    for tree in enumerate_stable_trees(_bit_order(ambient)):
        by_codim[tree.num_edges()].append(tree)
    return tuple(map(tuple, by_codim))


def strata_family(ambient, codim: int) -> tuple:
    """Undecorated boundary strata of the given codimension, canonical order."""
    ambient = frozenset(ambient)
    if codim < 0 or codim > dim_of(ambient):
        return ()
    return _strata_by_codim(ambient)[codim]


@lru_cache(maxsize=None)
def split_masks(tree: Tree, ambient: frozenset) -> tuple:
    """Per-edge bitmask of the legs beyond the edge (never the base label)."""
    order = _bit_order(ambient)
    bit = {l: i for i, l in enumerate(order)}
    out = []
    for eid in range(tree.num_edges()):
        mask = 0
        for l in beyond_legs(tree, eid):
            mask |= 1 << bit[l]
        out.append(mask)
    return tuple(out)


@lru_cache(maxsize=None)
def _tree_from_masks(ambient: frozenset, masks: tuple) -> Tree:
    """The stratum whose edge splits are the bitmasks ``masks``."""
    return _tree_from_laminar(_bit_order(ambient), masks, rt=False)


def _laminar(t_masks: tuple, s_masks: tuple) -> bool:
    """Whether two trees' splits are pairwise nested or disjoint.

    The splits of one tree already are, so only the cross pairs are tested.
    """
    for p in t_masks:
        for q in s_masks:
            inter = p & q
            if inter and inter != p and inter != q:
                return False
    return True


class _Refinement:
    """The common minimal degeneration ``gamma`` of a tree and a stratum.

    ``edge_of_mask`` maps a split bitmask to its edge of ``gamma``,
    ``shared`` lists the splits of the edges both trees have, and ``values``
    memoises the pairing of each decoration of the tree with the stratum.
    """

    __slots__ = ("gamma", "edge_of_mask", "shared", "values")

    def __init__(self, gamma: Tree, edge_of_mask: dict, shared: tuple):
        self.gamma = gamma
        self.edge_of_mask = edge_of_mask
        self.shared = shared
        self.values: dict = {}


@lru_cache(maxsize=None)
def _refine(tree: Tree, stratum: Tree, ambient: frozenset) -> Optional[_Refinement]:
    """Common minimal degeneration of a decorated tree and a stratum.

    None when the two trees admit no joint degeneration (their splits are not
    laminar).  The pairing routes test ``_laminar`` first, so only laminar
    pairs reach this cache from them.
    """
    t_masks = split_masks(tree, ambient)
    s_masks = split_masks(stratum, ambient)
    if not _laminar(t_masks, s_masks):
        return None
    gamma = _tree_from_masks(ambient, tuple(sorted(set(t_masks) | set(s_masks))))
    g_masks = split_masks(gamma, ambient)
    edge_of_mask = {m: e for e, m in enumerate(g_masks)}
    shared = tuple(m for m in t_masks if m in set(s_masks))
    return _Refinement(gamma, edge_of_mask, shared)


def _excess_decorations(tree: Tree, dec: Decoration, ambient: frozenset, ref: _Refinement):
    """Decorations on the refinement of the product of (tree, dec) with a stratum.

    ``ref`` is ``_refine(tree, stratum, ambient)``.  Each shared edge
    contributes -ψ' - ψ'', so the product is (-1)^|shared| times the sum of
    the decorated refinements yielded here, one per choice of sides.
    """
    edge_of_mask, shared = ref.edge_of_mask, ref.shared
    t_masks = split_masks(tree, ambient)
    half = {(edge_of_mask[t_masks[eid]], side): e for (eid, side), e in dec.half}
    legexp = dec.leg_dict()
    for sides in itertools.product((0, 1), repeat=len(shared)):
        h2 = dict(half)
        for m, side in zip(shared, sides):
            slot = (edge_of_mask[m], side)
            h2[slot] = h2.get(slot, 0) + 1
        yield make_decoration(h2, legexp)


def _pair_refined(tree: Tree, dec: Decoration, ambient: frozenset, ref: _Refinement) -> int:
    """The pairing of (tree, dec) with the stratum that ``ref`` refines it against."""
    value = ref.values.get(dec)
    if value is None:
        value = 0
        for d2 in _excess_decorations(tree, dec, ambient, ref):
            value += integrate_term(ref.gamma, d2, ambient)
        if len(ref.shared) % 2:
            value = -value
        ref.values[dec] = value
    return value


def product_with_stratum(x: Class0, stratum: Tree) -> Class0:
    """Excess-intersection product with an undecorated boundary stratum."""
    if frozenset(stratum.all_legs()) != x.ambient:
        raise InvalidArgument("ambient mismatch")
    out = Class0(x.ambient)
    for (tree, dec), coeff in x.terms.items():
        ref = _refine(tree, stratum, x.ambient)
        if ref is None:
            continue
        signed = coeff * (-1) ** len(ref.shared)
        for d2 in _excess_decorations(tree, dec, x.ambient, ref):
            out._add(ref.gamma, d2, signed)
    return out


def pair_term(tree: Tree, dec: Decoration, stratum: Tree, ambient: frozenset) -> int:
    if not _laminar(split_masks(tree, ambient), split_masks(stratum, ambient)):
        return 0
    return _pair_refined(tree, dec, ambient, _refine(tree, stratum, ambient))


def pair(x: Class0, stratum: Tree) -> Fraction:
    """Integral of the product against an undecorated stratum."""
    if frozenset(stratum.all_legs()) != x.ambient:
        raise InvalidArgument("ambient mismatch")
    if x.terms:
        degs = x.degrees()
        if len(degs) > 1:
            raise InvalidArgument("pairing needs a homogeneous class")
        if degs.pop() + stratum.num_edges() != dim_of(x.ambient):
            raise InvalidArgument("degree mismatch")
    return sum(
        (c * pair_term(t, d, stratum, x.ambient) for (t, d), c in x.terms.items()),
        Fraction(0),
    )


def zero_witness(x: Class0) -> Optional[Tree]:
    """A complementary stratum with nonzero pairing, or None when x = 0."""
    if not x.terms:
        return None
    degs = x.degrees()
    if len(degs) > 1:
        raise InvalidArgument("zero test needs a homogeneous class")
    ambient = x.ambient
    codim = dim_of(ambient) - degs.pop()
    # integer numerators over the common denominator: same zero pattern
    common = lcm(*(c.denominator for c in x.terms.values()))
    by_tree: dict = {}
    for (tree, dec), coeff in x.terms.items():
        by_tree.setdefault(tree, []).append((dec, coeff.numerator * (common // coeff.denominator)))
    rows = [(tree, split_masks(tree, ambient), items) for tree, items in by_tree.items()]
    for stratum in strata_family(ambient, codim):
        s_masks = split_masks(stratum, ambient)
        total = 0
        for tree, t_masks, items in rows:
            if not _laminar(t_masks, s_masks):
                continue
            ref = _refine(tree, stratum, ambient)
            for dec, num in items:
                total += num * _pair_refined(tree, dec, ambient, ref)
        if total:
            return stratum
    return None


def is_zero(x: Class0) -> bool:
    return zero_witness(x) is None


# ---------------------------------------------------------------------------
# forgetful maps


def pullback_forget(x: Class0, new_leg) -> Class0:
    """Pull back along the map forgetting ``new_leg``.

    Per term and vertex: attach the leg, minus one splitting per decorated
    slot at that vertex (the ψ-comparison corrections).
    """
    if new_leg in x.ambient:
        raise InvalidArgument(f"leg {new_leg!r} already present")
    out = Class0(x.ambient | {new_leg})
    for (tree, dec), coeff in x.terms.items():
        for v in range(tree.num_vertices()):
            t2, d2 = attach_leg(tree, dec, v, new_leg)
            out._add(t2, d2, coeff)
            for slot in vertex_slots(tree, v):
                split = split_off(tree, dec, new_leg, slot, fresh=True)
                if split is not None:
                    out._add(split[0], split[1], -coeff)
    return out


def _eliminate_leg_psi(x: Class0, leg) -> Class0:
    """Rewrite every ψ_leg factor via ψ_leg = Σ δ_M (M containing leg, not a, b)."""
    ambient = x.ambient
    others = sort_labels(ambient - {leg})
    a, b = others[0], others[1]
    pool = sort_labels(ambient - {leg, a, b})
    divisors = []
    for r in range(1, len(pool) + 1):
        for extra in itertools.combinations(pool, r):
            part = set(extra) | {leg}
            if len(part) <= len(ambient) - 2:
                tree, _ = build_tree([sorted(ambient - part, key=label_key), sorted(part, key=label_key)], [(0, 1)])
                divisors.append(tree)
    current = x
    while True:
        pending = Class0(ambient)
        done = Class0(ambient)
        for (tree, dec), coeff in current.terms.items():
            if dec.leg_exp(leg):
                legexp = dec.leg_dict()
                legexp[leg] -= 1
                reduced = Class0(ambient, {(tree, make_decoration(dec.half_dict(), legexp)): coeff})
                for div in divisors:
                    pending += product_with_stratum(reduced, div)
            else:
                done._add(tree, dec, coeff)
        if not pending.terms:
            return done
        current = done + pending


def pushforward_forget(x: Class0, leg) -> Class0:
    """Push forward along the map forgetting ``leg``; degree drops by one."""
    if leg not in x.ambient:
        raise InvalidArgument(f"no leg {leg!r}")
    if len(x.ambient) < 4:
        raise InvalidArgument("cannot forget below three legs")
    ambient2 = x.ambient - {leg}
    flat = _eliminate_leg_psi(x, leg)
    out = Class0(ambient2)
    for (tree, dec), coeff in flat.terms.items():
        v = vertex_of_leg(tree, leg)
        if valence(tree, v) >= 4:
            # string rule: lower one decorated slot at v by one
            for slot in vertex_slots(tree, v):
                if slot == leg:
                    continue
                half = dec.half_dict()
                legexp = dec.leg_dict()
                store = half if isinstance(slot, tuple) else legexp
                if store.get(slot, 0):
                    store[slot] -= 1
                    out._add(*detach_leg(tree, make_decoration(half, legexp), leg), coeff)
        else:
            # decorated slots at a trivalent vertex are already zero in normal
            # form; the leg left over, or else the first edge, survives
            keep = next(s for s in vertex_slots(tree, v) if s != leg)
            out._add(*contract_trivalent(tree, dec, v, keep, leg), coeff)
    return out


def collide(x: Class0, leg_i, leg_j) -> Class0:
    """Multiply with the {i,j} boundary divisor and forget ``leg_j``.

    Implemented by the direct rule: a trivalent vertex carrying both legs
    contracts with a ψ-bump and a sign; a larger vertex merges the legs (ψ on
    either colliding leg kills the term); legs apart give zero.
    """
    if leg_i == leg_j:
        raise InvalidArgument("cannot collide a leg with itself")
    if leg_i not in x.ambient or leg_j not in x.ambient:
        raise InvalidArgument("legs must sit in the ambient")
    out = Class0(x.ambient - {leg_j})
    for (tree, dec), coeff in x.terms.items():
        vi = vertex_of_leg(tree, leg_i)
        if vi != vertex_of_leg(tree, leg_j):
            continue
        if valence(tree, vi) == 3:
            # contract the supporting edge; the far branch exponent moves to
            # leg_i and gains one from the excess -ψ
            out._add(*contract_trivalent(tree, dec, vi, leg_i, leg_j, bump=1), -coeff)
        elif not (dec.leg_exp(leg_i) or dec.leg_exp(leg_j)):
            out._add(*detach_leg(tree, dec, leg_j), coeff)
    return out


def collide_via_product(x: Class0, leg_i, leg_j) -> Class0:
    """Reference route: product with δ_{ij} then pushforward; for cross-checks."""
    part = {leg_i, leg_j}
    tree, _ = build_tree(
        [sorted(x.ambient - part, key=label_key), sorted(part, key=label_key)],
        [(0, 1)],
    )
    return pushforward_forget(product_with_stratum(x, tree), leg_j)


# ---------------------------------------------------------------------------
# gluing pushforwards


def relabel_class(x: Class0, mapping: Mapping) -> Class0:
    out = Class0(frozenset(mapping.get(l, l) for l in x.ambient))
    for (tree, dec), coeff in x.terms.items():
        t2, d2 = relabel(tree, dec, mapping)
        out._add(t2, d2, coeff)
    return out


def glue_push_gamma(x: Class0, I, n: int) -> Class0:
    """Attach the coda vertex with legs I ∪ {n} at the first marked point.

    ``x`` lives on the space with legs {1..n-m, h0}; its leg 1 becomes the
    node, its remaining legs are relabeled order-preservingly onto
    {1..n-1} - I, and the output lives on {1..n, h0}.
    """
    I = frozenset(I)
    mapping = coda_mapping(n, I)
    if x.ambient != frozenset(range(1, n - len(I) + 1)) | {H0}:
        raise InvalidArgument("class lives on the wrong space for this coda")
    out = Class0(frozenset(range(1, n + 1)) | {H0})
    for (tree, dec), coeff in relabel_class(x, mapping).terms.items():
        out._add(*graft(tree, dec, NODE, I | {n}), coeff)
    return out


def glue_push_sigma0(x: Class0, n: int) -> Class0:
    """Attach a rational bridge carrying h0 and the new leg n at the root leg."""
    if H0 not in x.ambient:
        raise InvalidArgument("sigma0 needs the root leg h0")
    expected = frozenset(range(1, n)) | {H0}
    if x.ambient != expected:
        raise InvalidArgument("class lives on the wrong space for sigma0")
    out = Class0(frozenset(range(1, n + 1)) | {H0})
    for (tree, dec), coeff in x.terms.items():
        out._add(*graft(tree, dec, H0, (H0, n)), coeff)
    return out
