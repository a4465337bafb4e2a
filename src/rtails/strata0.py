"""The genus-0 strata algebra, and the formal-sum core every class shares.

`FormalSum` owns the bookkeeping of an exact finite linear combination (add,
cancel, compare); `Class0` here and `RtClass`, `PushedClass` and `KPoly` in
`rtclasses` subclass it.

A `Class0` is an exact formal sum of ψ-decorated boundary-strata pushforwards
on the moduli space of stable rational curves determined by its leg set.
Terms are keyed by the canonical (tree, decoration) encoding; a coefficient
is an `int` while it is one, else a `Fraction` (`exact`).  Terms whose
decoration kills a vertex's moduli factor, and terms of degree above the
ambient dimension, are dropped on construction.

Each move is written once, `_moved` builds its output term by term, and
`pullback_forget`, `collide`, `fold`, `relabel_class` and `glue_push_gamma`
serve an `RtClass` too: its graphs follow the same `trees` rules, and its
monomial follows the move's leg image through `RtClass._follow`.  One check,
`_check_tree`, refuses a term whose graph is of the other class type or
whose legs are not the class's.

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
side choices of the excess factor, a pairing sums the multinomial ∏b!/∏e!
of only those that leave every vertex a ψ-load equal to its budget
(`trees.psi_budgets`), the others giving 0, straight from the refinement:
it builds no decoration (`_pair_refined`).  In codim 0 the one stratum is
the whole space, so each term is integrated as it is, with no refinement.

Pairing is linear, and `FormalSum.plus` records the summands of a sum of
frozen classes alone, so `zero_witness` pairs such a sum as Σ f·⟨y, S⟩ over
its record.  Each frozen y keeps a `_Kernel`: its degrees, a memo of
⟨y, S⟩, so that a cached block pairs each stratum once, whichever Z or Zᵗ
sums it, and its terms grouped by tree, built on its first codim >= 1 miss.
A Z block comes frozen with its degree (`freeze_block`), and in the top
degree with its integral as a sum over decorated shapes.  Any other class
is its own one part.
"""

from __future__ import annotations

import itertools
import numbers
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
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
    forget_terms,
    graft,
    integer_arg,
    label_arg,
    label_key,
    make_decoration,
    overloaded,
    psi_budgets,
    psi_loads,
    pullback_terms,
    relabel,
    relabel_legs,
    renaming,
    sort_labels,
    split_bits,
    splits,
    term_sort_key,
    vertex_of_leg,
    _build_from_laminar,
    _frame,
    _tree_from_laminar,
)


def exact(coeff):
    """``coeff`` as an `int` (not a bool) or else a `Fraction`; a float or other inexact number is refused."""
    if type(coeff) is int or type(coeff) is Fraction:
        return coeff
    if not isinstance(coeff, numbers.Rational):
        raise InvalidArgument(f"coefficient {coeff!r} is not an exact rational")
    return Fraction(coeff)


class FormalSum:
    """An exact finite linear combination: term key -> nonzero `exact` coefficient.

    ``_put`` adds a coefficient and drops a cancelled key.  Subclasses check
    a new term in their own ``_add`` before they ``_put`` it; ``plus`` is the
    one way to sum (sums, differences and multiples call it) and adds terms
    that are already checked straight into its fresh output, a summand
    that shares no key with it in one ``dict.update``.  A subclass
    supplies ``_space()``, the constructor arguments that fix where the sum
    lives (two summands must agree on them), and ``_sort_key(key)``, the
    canonical order of ``items()``.  A ``plus`` of frozen summands alone into
    an empty sum records them as ``_summands``; ``_put`` drops the record.

    A cached sum is frozen: ``_put`` and ``_add`` then raise, while sums,
    multiples and products still return fresh sums.
    """

    __slots__ = ("terms", "_frozen", "_summands")

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
        self._summands = None
        old = self.terms.get(key)
        new = coeff if old is None else old + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))

    def plus(self, pairs: Iterable):
        """self + Σ factor·y over the ``(factor, y)`` pairs, in one pass; each
        y must have self's type and space, and is built when a lazy sum reaches it."""
        out = type(self)(*self._space())
        terms = out.terms = dict(self.terms)
        summands = None if terms else []
        for factor, y in pairs:
            if type(y) is not type(self) or y._space() != self._space():
                raise InvalidArgument(f"cannot add {y!r} to {self!r}")
            factor = exact(factor)
            if summands is not None and getattr(y, "_frozen", False):
                summands.append((factor, y))
            else:
                summands = None
            if factor and terms.keys().isdisjoint(y.terms):  # no key to merge: one update
                terms.update({key: coeff * factor for key, coeff in y.terms.items()})
            elif factor:
                for key, coeff in y.terms.items():
                    old = terms.get(key)
                    new = coeff * factor if old is None else old + coeff * factor
                    if new:
                        terms[key] = new
                    else:
                        del terms[key]
        out._summands = summands
        return out

    def __add__(self, other):
        return self.plus([(1, other)])

    def __sub__(self, other):
        return self.plus([(-1, other)])

    def scale(self, factor):
        return type(self)(*self._space()).plus([(factor, self)])

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

    __slots__ = ("ambient", "_pairing")

    def __init__(self, ambient: Iterable, terms: Optional[Mapping] = None):
        self.ambient = frozenset(ambient)
        if len(self.ambient) < 3:
            raise InvalidArgument("ambient needs at least three legs")
        self.terms = {}
        for (tree, dec), coeff in (terms or {}).items():
            self._add(tree, dec, exact(coeff))

    def _add(self, tree: Tree, dec: Decoration, coeff) -> None:
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

    def mul_psi(self, leg, power: int = 1) -> "Class0":
        """Multiply by ψ_leg^power (the ψ-class at a marked point); a bad
        power or a leg outside the ambient is refused, with terms or without."""
        integer_arg("a psi exponent", power, 0)
        if label_arg("a leg", leg) not in self.ambient:
            raise InvalidArgument(f"no leg {leg!r}")

        def times_psi(tree: Tree, dec: Decoration):
            legexp = dec.leg_dict()
            legexp[leg] = legexp.get(leg, 0) + power
            yield 1, tree, make_decoration(dec.half_dict(), legexp)

        return _moved(self, self.ambient, times_psi)


def dim_of(ambient: frozenset) -> int:
    return len(ambient) - 3


def term_degree(tree: Tree, dec: Decoration) -> int:
    return tree.num_edges() + dec.degree()


def _check_tree(tree: Tree, ambient: frozenset, rt: bool = False) -> None:
    """Refuse a tree that is no stratum of ``ambient``: a genus-0 tree, or a
    rational-tails graph when ``rt``."""
    if tree.rt != rt:
        kind = "a rational-tails class needs a genus vertex" if rt else "a genus-0 class has no rational-tails graph"
        raise InvalidArgument(kind)
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
    out._add(tree, dec, 1)
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
    if integer_arg("codim", codim) < 0 or codim > dim_of(ambient):
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


def _excess_decorations(dec: Decoration, ref: _Refinement):
    """Decorations on the refinement of the product of (tree, dec) with a stratum.

    ``ref`` is ``_refine(tree, stratum, ambient)``.  Each shared edge
    contributes -ψ' - ψ'', so the product is (-1)^|shared| times the sum of
    the decorated refinements yielded here, one per choice of sides.
    """
    half = {(ref.edge_of[eid], side): e for (eid, side), e in dec.half}
    for sides in itertools.product((0, 1), repeat=len(ref.shared)):
        h2 = dict(half)
        for eid, side in zip(ref.shared, sides):
            h2[(eid, side)] = h2.get((eid, side), 0) + 1
        yield Decoration(tuple(sorted(h2.items())), dec.leg)


def _pair_refined(dec: Decoration, ref: _Refinement) -> int:
    """The pairing of (tree, dec) with the stratum that ``ref`` refines it
    against, memoised in ``ref.values``; the callers read the memo first.

    It is (-1)^|shared| times the top integral over gamma of each side choice
    of the excess factor (`_excess_decorations`), summed here without
    building one: a choice integrates to nonzero only when it leaves every
    vertex a ψ-load equal to its budget, and then to ∏ b! // ∏ e!
    (`integrate_term`), where a chosen slot's exponent is one above dec's.
    Gamma's budgets and leg vertices come from the caches per tree
    (`psi_budgets`, `vertex_of_leg`), which hold nothing per refinement.
    """
    gamma, shared = ref.gamma, ref.shared
    edges, budgets = gamma.edges, psi_budgets(gamma)
    need = list(budgets)
    half, denom = {}, 1
    for (eid, side), e in dec.half:
        slot = (ref.edge_of[eid], side)
        half[slot] = e
        need[edges[slot[0]][side]] -= e
        denom *= factorial(e)
    for l, e in dec.leg:
        need[vertex_of_leg(gamma, l)] -= e
        denom *= factorial(e)
    value = 0
    if min(need) >= 0 and sum(need) == len(shared):
        top = prod(map(factorial, budgets))
        for sides in itertools.product((0, 1), repeat=len(shared)):
            left, chosen = list(need), denom
            for eid, side in zip(shared, sides):
                left[edges[eid][side]] -= 1
                chosen *= half.get((eid, side), 0) + 1
            if not any(left):
                value += top // chosen
    if len(shared) % 2:
        value = -value
    ref.values[dec] = value
    return value


def _excess_terms(tree: Tree, dec: Decoration, stratum: Tree, ambient: frozenset):
    """The terms ``(sign, tree, dec)`` of the product of (tree, dec) with an
    undecorated stratum; none when the two are not laminar."""
    ref = _refine(tree, stratum, ambient)
    if ref is not None:
        sign = (-1) ** len(ref.shared)
        for d2 in _excess_decorations(dec, ref):
            yield sign, ref.gamma, d2


def product_with_stratum(x: Class0, stratum: Tree) -> Class0:
    """Excess-intersection product with an undecorated boundary stratum."""
    _check_tree(stratum, x.ambient)
    return _moved(x, x.ambient, lambda tree, dec: _excess_terms(tree, dec, stratum, x.ambient))


def pair_term(tree: Tree, dec: Decoration, stratum: Tree, ambient: frozenset) -> int:
    if not _laminar(tree, stratum):
        return 0
    ref = _refine(tree, stratum, ambient)
    value = ref.values.get(dec)
    return _pair_refined(dec, ref) if value is None else value


def pair(x: Class0, stratum: Tree) -> Fraction:
    """Integral of the product against an undecorated stratum."""
    _check_tree(stratum, x.ambient)
    kernel = _pairing_kernel(x)
    if len(kernel.degrees) > 1:
        raise InvalidArgument("pairing needs a homogeneous class")
    if kernel.degrees and min(kernel.degrees) + stratum.num_edges() != dim_of(x.ambient):
        raise InvalidArgument("degree mismatch")
    return Fraction(_pair_part(kernel, stratum, x.ambient, stratum.num_edges()))


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
    transposition and the full cycle of the legs, which generate them all.
    A renaming is a bijection on terms, so it fixes x when it keeps the
    ambient and sends each term to a term of x with the same coefficient;
    the check stops at the first that it does not, and builds no class."""
    order = sort_labels(legs)
    if len(order) < 2:
        return True
    swap = {order[0]: order[1], order[1]: order[0]}
    cycle = dict(zip(order, order[1:] + order[:1]))
    for g in (swap, cycle):
        if relabel_legs(x.ambient, g) != x.ambient:
            return False
        rename = renaming(x.ambient, False, g)
        if any(x.terms.get(relabel(tree, dec, rename)) != coeff for (tree, dec), coeff in x.terms.items()):
            return False
    return True


class _Kernel:
    """How a class pairs: its term degrees, its terms (``source``), a stratum ->
    pairing ``memo``, and, once a codim >= 1 pairing misses the memo, its
    ``rows`` ``(tree, crossing bits, dec, coeff)``, grouped by tree.  A
    top-degree block may carry ``shapes`` instead of integrating its terms:
    ``(multiplicity, tree, dec, coeff)`` with Σ mult·coeff·∫(tree, dec)
    equal to its integral (`freeze_block`)."""

    __slots__ = ("degrees", "source", "memo", "rows", "shapes")

    def __init__(self, source: dict, degrees: frozenset, shapes: Optional[list] = None):
        self.degrees = degrees
        self.source = source
        self.memo: dict = {}
        self.rows = None
        self.shapes = shapes


def _pairing_kernel(x: Class0) -> _Kernel:
    """x's `_Kernel`, kept on a frozen x."""
    kernel = getattr(x, "_pairing", None)
    if kernel is None:
        kernel = _Kernel(x.terms, frozenset(term_degree(tree, dec) for tree, dec in x.terms))
        if getattr(x, "_frozen", False):
            x._pairing = kernel
    return kernel


def freeze_block(x: Class0, degree: int, shapes: Optional[list]) -> Class0:
    """Freeze x, whose terms all have ``degree``, with a `_Kernel` that takes
    the degree as given; in the top degree ``shapes`` may give its integral
    (`_Kernel`).  Returns x."""
    x._pairing = _Kernel(x.terms, frozenset([degree]) if x.terms else frozenset(), shapes)
    return x.freeze()


def _pair_part(kernel: _Kernel, stratum: Tree, ambient: frozenset, codim: int):
    """⟨P, stratum⟩ for the part P of this `_Kernel`, from its memo or term by term."""
    value = kernel.memo.get(stratum)
    if value is None:
        if not codim:
            if kernel.shapes is not None:
                value = sum(mult * coeff * integrate_term(tree, dec, ambient) for mult, tree, dec, coeff in kernel.shapes)
                kernel.shapes = None  # the memo holds the one codim-0 value now
            else:
                value = sum(coeff * integrate_term(tree, dec, ambient) for (tree, dec), coeff in kernel.source.items())
        else:
            rows = kernel.rows
            if rows is None:
                by_tree: dict = {}
                for (tree, dec), coeff in kernel.source.items():
                    by_tree.setdefault(tree, []).append((dec, coeff))
                rows = kernel.rows = [(tree, split_bits(tree)[1], dec, coeff) for tree, items in by_tree.items() for dec, coeff in items]
            own, value, last = split_bits(stratum)[0], 0, None
            for tree, crossing, dec, coeff in rows:
                if crossing & own:
                    continue
                if tree is not last:
                    ref, last = _refine(tree, stratum, ambient), tree
                paired = ref.values.get(dec)
                value += coeff * (_pair_refined(dec, ref) if paired is None else paired)
        kernel.memo[stratum] = value
    return value


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
    parts = [(factor, _pairing_kernel(y)) for factor, y in getattr(x, "_summands", None) or () if factor]
    degrees = frozenset().union(*(kernel.degrees for _, kernel in parts))
    if len(degrees) != 1:  # no record, or summands of several degrees
        parts = [(1, _pairing_kernel(x))]
        degrees = parts[0][1].degrees
        if len(degrees) > 1:
            raise InvalidArgument("zero test needs a homogeneous class")
    codim = dim_of(x.ambient) - min(degrees)
    for stratum in _orbit_firsts(x.ambient, codim, legs) if legs else strata_family(x.ambient, codim):
        if sum(factor * _pair_part(kernel, stratum, x.ambient, codim) for factor, kernel in parts):
            return stratum
    return None


def is_zero(x: Class0) -> bool:
    return zero_witness(x) is None


# ---------------------------------------------------------------------------
# forgetful maps


def pullback_forget(x: FormalSum, new_leg) -> FormalSum:
    """Pull back along the map forgetting ``new_leg`` (`trees.pullback_terms`)."""
    if label_arg("a leg", new_leg) in x.ambient:
        raise InvalidArgument(f"leg {new_leg!r} already present")
    return _moved(x, x.ambient | {new_leg}, lambda tree, dec: pullback_terms(tree, dec, new_leg))


def _psi_divisors(ambient: frozenset, leg) -> list:
    """The divisors D_M with ψ_leg = Σ D_M: M holds ``leg`` and another leg,
    but not the two smallest other legs.  Each is built from its split mask,
    the side without the base label (`trees._frame`), outside the tree cache."""
    base, labels, bit = _frame(ambient, rt=False)
    a, b = sort_labels(ambient - {leg})[:2]
    free = [bit[l] for l in labels if l not in (leg, a, b)]
    flip = (1 << len(labels)) - 1 if leg in base else 0  # the base is in M: take the other side
    masks = (flip ^ (bit.get(leg, 0) | sum(C)) for r in range(1, len(free) + 1) for C in itertools.combinations(free, r))
    return [_build_from_laminar(labels, (mask,), False, base) for mask in masks]


def _eliminate_leg_psi(x: Class0, leg) -> Class0:
    """Rewrite every ψ_leg factor via ψ_leg = Σ δ_M (`_psi_divisors`), one
    pass per power of ψ_leg: the excess product adds no ψ_leg."""
    ambient = x.ambient
    divisors = _psi_divisors(ambient, leg)

    def lowered(tree: Tree, dec: Decoration):
        legexp = dec.leg_dict()
        if not legexp.get(leg):
            yield 1, tree, dec
            return
        legexp[leg] -= 1
        reduced = make_decoration(dec.half_dict(), legexp)
        for div in divisors:
            yield from _excess_terms(tree, reduced, div, ambient)

    for _ in range(max((dec.leg_exp(leg) for _, dec in x.terms), default=0)):
        x = _moved(x, ambient, lowered)
    return x


def pushforward_forget(x: Class0, leg) -> Class0:
    """Push forward along the map forgetting ``leg`` (`trees.forget_terms`); degree drops by one."""
    if label_arg("a leg", leg) not in x.ambient:
        raise InvalidArgument(f"no leg {leg!r}")
    if len(x.ambient) < 4:
        raise InvalidArgument("cannot forget below three legs")
    return _moved(_eliminate_leg_psi(x, leg), x.ambient - {leg}, lambda tree, dec: forget_terms(tree, dec, leg))


def collide(x: FormalSum, leg_i, leg_j) -> FormalSum:
    """Multiply with the {i,j} boundary divisor and forget ``leg_j`` (`trees.collide_term`)."""
    return _collided(x, label_arg("a leg", leg_i), label_arg("a leg", leg_j), {})


def fold(x: FormalSum, leg: int) -> FormalSum:
    """Collide ``leg + 1`` into ``leg`` and renumber the integer legs above
    it down by one: one step of a colliding chain, in one pass."""
    integer_arg("the leg of a chain step", leg)
    return _collided(x, leg, leg + 1, {l: l - 1 for l in x.ambient if isinstance(l, int) and l > leg + 1})


def _collided(x: FormalSum, leg_i, leg_j, mapping: Mapping) -> FormalSum:
    """`collide`, each image then renamed by ``mapping`` (`trees.relabel`)."""
    if leg_i == leg_j:
        raise InvalidArgument("cannot collide a leg with itself")
    if leg_i not in x.ambient or leg_j not in x.ambient:
        raise InvalidArgument("legs must sit in the ambient")

    rename = renaming(x.ambient - {leg_j}, not isinstance(x, Class0), mapping) if mapping else None

    def images(tree: Tree, dec: Decoration):
        term = collide_term(tree, dec, leg_i, leg_j)
        if term is not None:
            yield (term[0], *relabel(*term[1:], rename)) if rename else term

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


def relabel_class(x: FormalSum, mapping: Mapping) -> FormalSum:
    """Rename legs (`trees.relabel`); an `RtClass` monomial follows them
    (`RtClass._follow`).  Renaming keeps a term's degree and vertex loads,
    and a merging mapping is refused up front (`trees.relabel_legs`), so the
    terms of x, already checked, are copied without a new check."""
    out = type(x)(relabel_legs(x.ambient, mapping))
    rename = renaming(x.ambient, not isinstance(x, Class0), mapping)
    for (tree, dec, *rest), coeff in x.terms.items():
        t2, d2 = relabel(tree, dec, rename)
        out._put((t2, d2, *[x._follow(fact, t2, mapping) for fact in rest]), coeff)
    return out


def ambient0(n: int) -> frozenset:
    """The legs {1..n, h0} of the rooted space M̄_{0,n+1}."""
    return frozenset(range(1, integer_arg("n", n) + 1)) | {H0}


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

    rename = renaming(x.ambient, not isinstance(x, Class0), mapping)

    def glued(tree: Tree, dec: Decoration):
        return [(1, *graft(*relabel(tree, dec, rename), NODE, I | {n}))]

    return _moved(x, root | frozenset(range(1, n + 1)), glued, {**mapping, 1: n})


def glue_push_sigma0(x: Class0, n: int) -> Class0:
    """Attach a rational bridge carrying h0 and the new leg n at the root leg."""
    integer_arg("n", n)
    if H0 not in x.ambient:
        raise InvalidArgument("sigma0 needs the root leg h0")
    if x.ambient != ambient0(n - 1):
        raise InvalidArgument("class lives on the wrong space for sigma0")
    return _moved(x, ambient0(n), lambda tree, dec: [(1, *graft(tree, dec, H0, (H0, n)))])
