"""The genus-0 strata algebra, and the formal-sum core every class shares.

`FormalSum` owns the bookkeeping of an exact finite linear combination (add,
cancel, compare); `Class0` here and `RtClass`, `PushedClass` and `KPoly` in
`rtclasses` subclass it.

A `Class0` is an exact formal sum of ψ-decorated boundary-strata pushforwards
on the moduli space of stable rational curves determined by its leg set.
Terms are keyed by the canonical (tree, decoration) encoding; coefficients are
`Fraction`s.  Terms whose decoration kills a vertex's moduli factor, and terms
of degree above the ambient dimension, are dropped on construction.

Each move is written once, `_moved` builds its output term by term, and
`pullback_forget`, `collide`, `fold` and `glue_push_gamma` serve an `RtClass`
too: its graphs follow the same `trees` rules, and its monomial follows the
move's leg image through `RtClass._follow`.

Products with undecorated strata use the excess-intersection formula: the leg
splits of the two trees must form a laminar family (otherwise the product is
empty), the common refinement is the unique minimal joint degeneration, and
every shared edge contributes a factor -ψ' - ψ''.

The zero test pairs a homogeneous class against every boundary stratum of
complementary dimension.  Boundary strata span these spaces and the
intersection pairing is perfect over the rationals, so a class vanishes
exactly when all such pairings do.  A caller may name legs under whose
permutations the class is invariant; the test then pairs only the first
stratum of each orbit, in family order (`_orbit_firsts`).  When σx = x,
⟨x, σS⟩ = ⟨σx, σS⟩ = ⟨x, S⟩, so the pairing is constant on each orbit: the
first nonzero orbit representative is the full route's first nonzero
stratum, and the witness does not change.  The invariance is a claim the
caller certifies (`is_invariant`); without one the full route runs.

The pairing kernel (`zero_witness`, `pair_term`, `_refine`) tests laminarity
with one AND of the bits `trees.split_bits` caches per tree: those of its own
splits, and of every split crossing one of them, from the enumerator's
crossing table.  The common refinement comes from the mask-keyed tree cache
that the enumerator fills, so each stratum is canonicalised once.  Of the
side choices of the excess factor, a pairing integrates only those that
leave every vertex a ψ-load equal to its budget (`trees.psi_budgets`); the
others give 0.
"""

from __future__ import annotations

import itertools
import numbers
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from typing import Iterable, Mapping, Optional

from .trees import (
    H0,
    NODE,
    Decoration,
    InvalidArgument,
    Tree,
    build_tree,
    coda_mapping,
    coda_members,
    collide_term,
    enumerate_stable_trees,
    graft,
    label_key,
    make_decoration,
    overloaded,
    psi_budgets,
    psi_loads,
    pullback_terms,
    relabel,
    relabel_legs,
    sort_labels,
    split_bits,
    splits,
    term_sort_key,
    vertex_of_leg,
    vertex_slots,
    _carried,
    _forget_plan,
    _frame,
    _tree_from_laminar,
)


def exact(coeff) -> Fraction:
    """``coeff`` as a `Fraction`; a float or other inexact number is refused."""
    if isinstance(coeff, Fraction):
        return coeff
    if not isinstance(coeff, numbers.Rational):
        raise InvalidArgument(f"coefficient {coeff!r} is not an exact rational")
    return Fraction(coeff)


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

    @staticmethod
    def _space() -> tuple:
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
        factor = exact(factor)
        out = self._empty()
        if factor:
            out.terms = {k: c * factor for k, c in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._space() == other._space() and self.terms == other.terms


def _moved(x: FormalSum, ambient, images, image: Optional[Mapping] = None):
    """A class of x's type on ``ambient``, built term by term by one move.

    ``images(tree, dec)`` yields a term's signed images ``(sign, tree, dec)``,
    by a per-term rule of `trees`; each enters through the new class's own
    ``_add``, which checks it.  The rest of a term's key, an `RtClass`
    monomial, follows the move's leg ``image`` (`RtClass._follow`).
    """
    out = type(x)(ambient)
    for (tree, dec, *rest), coeff in x.terms.items():
        for sign, t2, d2 in images(tree, dec):
            out._add(t2, d2, *[x._follow(fact, t2, image) for fact in rest], coeff if sign > 0 else -coeff)
    return out


class Class0(FormalSum):
    """Formal sum of decorated strata on the moduli space with the given legs."""

    __slots__ = ("ambient",)

    def __init__(self, ambient: Iterable, terms: Optional[Mapping] = None):
        self.ambient = frozenset(ambient)
        if len(self.ambient) < 3:
            raise InvalidArgument("ambient needs at least three legs")
        self.terms = {}
        for (tree, dec), coeff in (terms or {}).items():
            self._add(tree, dec, exact(coeff))

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

        def times_psi(tree: Tree, dec: Decoration):
            legexp = dec.leg_dict()
            legexp[leg] = legexp.get(leg, 0) + power
            yield 1, tree, make_decoration(dec.half_dict(), legexp)

        return _moved(self, self.ambient, times_psi)


def dim_of(ambient: frozenset) -> int:
    return len(ambient) - 3


def term_degree(tree: Tree, dec: Decoration) -> int:
    return tree.num_edges() + dec.degree()


def _check_tree(tree: Tree, ambient: frozenset) -> None:
    """Refuse a tree that is no genus-0 stratum of ``ambient``."""
    if tree.rt:
        raise InvalidArgument("a genus-0 class has no rational-tails graph")
    if frozenset(l for ls in tree.legs for l in ls) != ambient:
        raise InvalidArgument("tree legs do not match the ambient")


def term_is_zero(tree: Tree, dec: Decoration, ambient: frozenset) -> bool:
    _check_tree(tree, ambient)
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
        out._add(tree, dec, exact(coeff))
    return out


# ---------------------------------------------------------------------------
# integration


def integrate_term(tree: Tree, dec: Decoration, ambient: frozenset) -> int:
    """∏ over vertices of the top ψ-integral on that vertex's factor.

    It is 0 unless every vertex's ψ-load equals its budget b (`psi_budgets`).
    Then each vertex contributes the multinomial b! / ∏ e! of its exponents,
    so the integral ∏ b! // ∏ e!, over all vertices and exponents, is an integer.
    """
    if term_degree(tree, dec) != dim_of(ambient):
        return 0
    budgets = psi_budgets(tree)
    if tuple(psi_loads(tree, dec)) != budgets:
        return 0
    return prod(map(factorial, budgets)) // prod(factorial(e) for _, e in itertools.chain(dec.half, dec.leg))


def integrate(x: Class0) -> Fraction:
    return sum((c * integrate_term(t, d, x.ambient) for (t, d), c in x.terms.items()), Fraction(0))


# ---------------------------------------------------------------------------
# strata families and split masks


@lru_cache(maxsize=None)
def _strata_by_codim(ambient: frozenset) -> tuple:
    """The one family of strata on ``ambient``, split by edge count (in order)."""
    by_codim: list = [[] for _ in range(dim_of(ambient) + 1)]
    for tree in enumerate_stable_trees(sort_labels(ambient)):
        by_codim[tree.num_edges()].append(tree)
    return tuple(map(tuple, by_codim))


def strata_family(ambient, codim: int) -> tuple:
    """Undecorated boundary strata of the given codimension, canonical order."""
    ambient = frozenset(ambient)
    if codim < 0 or codim > dim_of(ambient):
        return ()
    return _strata_by_codim(ambient)[codim]


def _laminar(tree: Tree, stratum: Tree) -> bool:
    """Whether the splits of two trees are pairwise nested or disjoint: one
    AND, since no split of ``stratum`` may cross a split of ``tree``."""
    return not split_bits(tree)[1] & split_bits(stratum)[0]


class _Refinement:
    """The common minimal degeneration ``gamma`` of a tree and a stratum.

    ``edge_of`` maps each edge of the tree to its edge of ``gamma``,
    ``shared`` lists the edges of ``gamma`` both trees have, and ``values``
    memoises the pairing of each decoration of the tree with the stratum.
    """

    __slots__ = ("gamma", "edge_of", "shared", "values")

    def __init__(self, gamma: Tree, edge_of: tuple, shared: tuple):
        self.gamma = gamma
        self.edge_of = edge_of
        self.shared = shared
        self.values: dict = {}


@lru_cache(maxsize=None)
def _refine(tree: Tree, stratum: Tree, ambient: frozenset) -> Optional[_Refinement]:
    """Common minimal degeneration of a decorated tree and a stratum.

    None when the two trees admit no joint degeneration (their splits are not
    laminar).  The pairing routes test ``_laminar`` first, so only laminar
    pairs reach this cache from them.
    """
    if not _laminar(tree, stratum):
        return None
    t_masks = splits(tree)
    s_masks = set(splits(stratum))
    base, labels, _ = _frame(ambient, rt=False)
    # the enumerator's masks: an enumerated stratum is looked up, not rebuilt
    gamma = _tree_from_laminar(labels, tuple(s_masks.union(t_masks)), False, base)
    edge_of_mask = {m: e for e, m in enumerate(splits(gamma))}
    shared = tuple(edge_of_mask[m] for m in t_masks if m in s_masks)
    return _Refinement(gamma, tuple(edge_of_mask[m] for m in t_masks), shared)


def _excess_decorations(dec: Decoration, ref: _Refinement, top_only: bool = False):
    """Decorations on the refinement of the product of (tree, dec) with a stratum.

    ``ref`` is ``_refine(tree, stratum, ambient)``.  Each shared edge
    contributes -ψ' - ψ'', so the product is (-1)^|shared| times the sum of
    the decorated refinements yielded here, one per choice of sides.  With
    ``top_only``, only the choices that leave every vertex of ``gamma`` a
    ψ-load equal to its budget are yielded: every other choice integrates to 0.
    """
    gamma, edge_of, shared = ref.gamma, ref.edge_of, ref.shared
    half = {(edge_of[eid], side): e for (eid, side), e in dec.half}
    if top_only:
        loads = psi_loads(gamma, Decoration(tuple(half.items()), dec.leg))
        need = [b - load for b, load in zip(psi_budgets(gamma), loads)]
        if min(need) < 0 or sum(need) != len(shared):
            return
    for sides in itertools.product((0, 1), repeat=len(shared)):
        if top_only:
            left = list(need)
            for eid, side in zip(shared, sides):
                left[gamma.edges[eid][side]] -= 1
            if any(left):
                continue
        h2 = dict(half)
        for eid, side in zip(shared, sides):
            h2[(eid, side)] = h2.get((eid, side), 0) + 1
        yield Decoration(tuple(sorted(h2.items())), dec.leg)


def _pair_refined(dec: Decoration, ambient: frozenset, ref: _Refinement) -> int:
    """The pairing of (tree, dec) with the stratum that ``ref`` refines it
    against, memoised in ``ref.values``; the callers read the memo first."""
    value = 0
    for d2 in _excess_decorations(dec, ref, top_only=True):
        value += integrate_term(ref.gamma, d2, ambient)
    if len(ref.shared) % 2:
        value = -value
    ref.values[dec] = value
    return value


def product_with_stratum(x: Class0, stratum: Tree) -> Class0:
    """Excess-intersection product with an undecorated boundary stratum."""
    _check_tree(stratum, x.ambient)

    def excess(tree: Tree, dec: Decoration):
        ref = _refine(tree, stratum, x.ambient)
        if ref is not None:
            sign = (-1) ** len(ref.shared)
            for d2 in _excess_decorations(dec, ref):
                yield sign, ref.gamma, d2

    return _moved(x, x.ambient, excess)


def pair_term(tree: Tree, dec: Decoration, stratum: Tree, ambient: frozenset) -> int:
    if not _laminar(tree, stratum):
        return 0
    ref = _refine(tree, stratum, ambient)
    value = ref.values.get(dec)
    return _pair_refined(dec, ambient, ref) if value is None else value


def pair(x: Class0, stratum: Tree) -> Fraction:
    """Integral of the product against an undecorated stratum."""
    _check_tree(stratum, x.ambient)
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


@lru_cache(maxsize=None)
def _orbit_firsts(ambient: frozenset, codim: int, legs: frozenset) -> tuple:
    """The first stratum of each orbit under permuting ``legs``, in family order.

    Two strata lie in one orbit exactly when they have the same rooted shape:
    the root is vertex 0, which holds the base label (so ``legs`` must not),
    and each vertex's key is its fixed legs, the count of its permutable legs
    and the sorted keys of its children.
    """
    firsts: dict = {}
    for stratum in strata_family(ambient, codim):
        kids: list = [[] for _ in stratum.legs]
        for parent, child in stratum.edges:
            kids[parent].append(child)
        keys: list = [None] * len(kids)
        # a child's index is above its parent's, so this keys each subtree bottom up
        for v in reversed(range(len(kids))):
            own = stratum.legs[v]
            fixed = tuple(label_key(l) for l in own if l not in legs)
            keys[v] = (fixed, len(own) - len(fixed), tuple(sorted(keys[c] for c in kids[v])))
        firsts.setdefault(keys[0], stratum)
    return tuple(firsts.values())


def is_invariant(x: Class0, legs) -> bool:
    """Whether every permutation of ``legs`` fixes x: checked exactly for one
    transposition and the full cycle of the legs, which generate them all."""
    order = sort_labels(legs)
    if len(order) < 2:
        return True
    swap = {order[0]: order[1], order[1]: order[0]}
    cycle = dict(zip(order, order[1:] + order[:1]))
    return all(relabel_class(x, g) == x for g in (swap, cycle))


def zero_witness(x: Class0, legs: Iterable = frozenset()) -> Optional[Tree]:
    """A complementary stratum with nonzero pairing, or None when x = 0.

    ``legs``, when given, are legs under whose permutations x is invariant
    (`is_invariant` certifies it); only the first stratum of each orbit is
    paired then (`_orbit_firsts`), and the witness is the same.
    """
    legs = frozenset(legs)
    base = _frame(x.ambient, rt=False)[0][0]
    if base in legs or not legs <= x.ambient:
        raise InvalidArgument(f"cannot permute {sort_labels(legs)!r}: only ambient legs other than {base!r} move")
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
    rows = [(tree, split_bits(tree)[1], items) for tree, items in by_tree.items()]
    for stratum in _orbit_firsts(ambient, codim, legs) if legs else strata_family(ambient, codim):
        own = split_bits(stratum)[0]
        total = 0
        for tree, crossing, items in rows:
            if crossing & own:
                continue
            ref = _refine(tree, stratum, ambient)
            values = ref.values
            for dec, num in items:
                value = values.get(dec)
                if value is None:
                    value = _pair_refined(dec, ambient, ref)
                total += num * value
        if total:
            return stratum
    return None


def is_zero(x: Class0) -> bool:
    return zero_witness(x) is None


# ---------------------------------------------------------------------------
# forgetful maps


def pullback_forget(x: FormalSum, new_leg) -> FormalSum:
    """Pull back along the map forgetting ``new_leg`` (`trees.pullback_terms`)."""
    if new_leg in x.ambient:
        raise InvalidArgument(f"leg {new_leg!r} already present")
    return _moved(x, x.ambient | {new_leg}, lambda tree, dec: pullback_terms(tree, dec, new_leg))


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
                    out._add(new, make_decoration(lowered, legexp), coeff)
        else:
            # decorated slots at a trivalent vertex are already zero in normal
            # form; the leg left over takes the far exponent, or the edge left
            # over merges with the contracted one (`_forget_plan`)
            leg_exp = dec.leg_dict()
            if moved is not None:
                far, keep = moved
                leg_exp[keep] = dec.half_exp(far)
            out._add(new, make_decoration(dict(half), leg_exp), coeff)
    return out


def collide(x: FormalSum, leg_i, leg_j) -> FormalSum:
    """Multiply with the {i,j} boundary divisor and forget ``leg_j`` (`trees.collide_term`)."""
    return _collided(x, leg_i, leg_j, {})


def fold(x: FormalSum, leg: int) -> FormalSum:
    """Collide ``leg + 1`` into ``leg`` and renumber the integer legs above
    it down by one: one step of a colliding chain, in one pass."""
    return _collided(x, leg, leg + 1, {l: l - 1 for l in x.ambient if isinstance(l, int) and l > leg + 1})


def _collided(x: FormalSum, leg_i, leg_j, mapping: Mapping) -> FormalSum:
    """`collide`, each image then renamed by ``mapping`` (`trees.relabel`)."""
    if leg_i == leg_j:
        raise InvalidArgument("cannot collide a leg with itself")
    if leg_i not in x.ambient or leg_j not in x.ambient:
        raise InvalidArgument("legs must sit in the ambient")

    def images(tree: Tree, dec: Decoration):
        term = collide_term(tree, dec, leg_i, leg_j)
        if term is not None:
            yield (term[0], *relabel(*term[1:], mapping)) if mapping else term

    image = {**mapping, leg_j: mapping.get(leg_i, leg_i)}
    return _moved(x, relabel_legs(x.ambient - {leg_j}, mapping), images, image)


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
    """Rename legs.  Renaming keeps a term's degree and vertex loads, and a
    merging mapping is refused up front (`trees.relabel_legs`), so the terms
    of x, already checked, are copied without a new check."""
    out = Class0(relabel_legs(x.ambient, mapping))
    for (tree, dec), coeff in x.terms.items():
        out._put(relabel(tree, dec, mapping), coeff)
    return out


def ambient0(n: int) -> frozenset:
    """The legs {1..n, h0} of the rooted space M̄_{0,n+1}."""
    return frozenset(range(1, n + 1)) | {H0}


def glue_push_gamma(x: FormalSum, I, n: int) -> FormalSum:
    """Attach the coda vertex with legs I ∪ {n} at the first marked point.

    ``x`` is a `Class0` on the legs {1..n-m, h0} or an `RtClass` on
    {1..n-m}; its leg 1 becomes the node, its remaining legs are relabeled
    order-preservingly onto {1..n-1} - I, and the output lives on {1..n},
    with h0 for a `Class0`.  Each term is relabelled and grafted in one
    pass; an `RtClass` monomial slot of leg 1 becomes the coda tail.
    """
    I = coda_members(I)
    mapping = coda_mapping(n, I)
    root = frozenset([H0]) if isinstance(x, Class0) else frozenset()
    if x.ambient != root | frozenset(range(1, n - len(I) + 1)):
        raise InvalidArgument("class lives on the wrong space for this coda")

    def glued(tree: Tree, dec: Decoration):
        return [(1, *graft(*relabel(tree, dec, mapping), NODE, I | {n}))]

    return _moved(x, root | frozenset(range(1, n + 1)), glued, {**mapping, 1: n})


def glue_push_sigma0(x: Class0, n: int) -> Class0:
    """Attach a rational bridge carrying h0 and the new leg n at the root leg."""
    if H0 not in x.ambient:
        raise InvalidArgument("sigma0 needs the root leg h0")
    if x.ambient != ambient0(n - 1):
        raise InvalidArgument("class lives on the wrong space for sigma0")
    return _moved(x, ambient0(n), lambda tree, dec: [(1, *graft(tree, dec, H0, (H0, n)))])
