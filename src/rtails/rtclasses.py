"""Rational-tails classes: the graph-formula cycles and their identities.

Terms live over a rational-tails graph (genus vertex 0, rational tails) and
carry, besides the ψ-decoration, a factored root monomial: exponents of
(kω_x - η) keyed by the root's own legs and, per tail, by the tail's leg set
(all ω-classes of a tail restrict to the ω of its root edge, so the net
exponent after cancelling against the legs' divisor factors sits on the edge).
k stays symbolic inside the factored basis; coefficients are rationals.

Pullback, collide, the chain step `fold`, relabelling and the coda gluing
are the moves of `strata0`, shared with `Class0`.  A move hands
`RtClass._follow` its leg image, and each exponent goes to the root slot that
the image of its slot's first leg feeds in the new graph.

The graph formula can produce decorated graphs whose net tail exponent is
negative while the total degree is fine; such a bracket is not a cycle, but
the per-root-profile sum of those terms is a combination of vanishing cycles
(the degree argument behind the D-polynomial vanishing theorem).  `f_class_m`
verifies that per profile and drops them, so emitted classes are genuine.

Pushforwards expand the factored basis: along the bundle map the η-powers
reduce through the rank-r Chern relation (λ-classes), keeping the coefficient
of (-η)^{r-1}; along the point-forgetting map ψ-powers become κ-classes and
coefficients become integer polynomials in k.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from typing import Mapping, Optional

from .trees import (
    H0,
    Decoration,
    InvalidArgument,
    Tree,
    beyond_legs,
    build_tree,
    child_edges_of,
    coda_mapping,
    coda_members,
    enumerate_decorations,
    enumerate_rt_graphs,
    integer_arg,
    label_arg,
    label_key,
    overloaded,
    path_edges,
    psi_budgets,
    split_bits,
    vertex_of_leg,
    _carried,
    _plan,
)
from .strata0 import FormalSum, dim_of, exact, pair_term, strata_family, term_degree, _check_tree
from .strata0 import collide, fold, glue_push_gamma, pullback_forget, relabel_class  # the moves of both class types
from .weights import coeff_c
from .cycles import VerificationReport, _nonempty_subsets


def _leg_slot(label):
    return ("leg", label)


def _tail_slot(legs):
    return ("tail", tuple(sorted(legs, key=label_key)))


def _fact_tuple(fact: Mapping) -> tuple:
    return tuple(sorted(((k, e) for k, e in fact.items() if e), key=lambda t: (t[0][0], str(t[0][1]))))


def rt_term_degree(graph: Tree, dec: Decoration, fact: tuple) -> int:
    return graph.num_edges() + dec.degree() + sum(e for _, e in fact)


class RtClass(FormalSum):
    """Formal sum of rational-tails terms with factored root monomials."""

    __slots__ = ("ambient",)

    def __init__(self, ambient, terms: Optional[Mapping] = None):
        self.ambient = frozenset(ambient)
        self.terms = {}
        for (graph, dec, fact), coeff in (terms or {}).items():
            self._add(graph, dec, _fact_tuple(dict(fact)), coeff)

    def _add(self, graph: Tree, dec: Decoration, fact, coeff) -> None:
        self._check_mutable()
        coeff = exact(coeff)
        if coeff:
            _check_tree(graph, self.ambient, rt=True)  # before the load, as in `Class0`
        if not coeff or overloaded(graph, dec):
            return
        if not isinstance(fact, tuple):  # a tuple comes normalised, as `_follow` returns it
            fact = _fact_tuple(fact)
        if not _root_slots(graph).issuperset(key for key, _ in fact):
            raise InvalidArgument(f"a factored slot of {fact!r} is not a root slot")
        self._put((graph, dec, fact), coeff)

    def _space(self) -> tuple:
        return (self.ambient,)

    @staticmethod
    def _follow(fact: tuple, graph: Tree, image: Optional[Mapping]) -> tuple:
        """A factored monomial after a move whose output graph is ``graph``,
        normalised (`_fact_tuple`).

        Each exponent follows the first leg of its slot, renamed by ``image``,
        to the root slot that leg feeds in ``graph``; slots that merge add
        their exponents.  No move splits a root slot, so the first leg speaks
        for all.
        """
        out: dict = {}
        for (kind, payload), e in fact:
            leg = payload if kind == "leg" else payload[0]
            key = _fact_key(graph, image.get(leg, leg) if image else leg)
            out[key] = out.get(key, 0) + e
        return _fact_tuple(out)

    @staticmethod
    def _sort_key(key) -> tuple:
        graph, dec, fact = key
        return (graph.sort_key(), dec.sort_key(), tuple((k[0], str(k[1]), e) for k, e in fact))

    def __repr__(self) -> str:
        return f"RtClass(n={len(self.ambient)}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# the graph formula


def _fact_for(graph: Tree, dec: Decoration, mults: Mapping) -> dict:
    """Net factored exponents after the per-tail ω-cancellation: each leg adds
    its weight less its ψ to the root slot it feeds (`_fact_key`), and each
    edge takes one plus its two half-edge ψs from the tail it lies in."""
    fact: dict = {}
    legexp = dec.leg_dict()
    for l in itertools.chain(*graph.legs):
        key = _fact_key(graph, l)
        fact[key] = fact.get(key, 0) + mults[l] - legexp.get(l, 0)
    half = dec.half_dict()
    for eid in range(graph.num_edges()):
        key = _fact_key(graph, next(iter(beyond_legs(graph, eid))))
        fact[key] -= 1 + half.get((eid, 0), 0) + half.get((eid, 1), 0)
    return fact


def _root_slot_order(graph: Tree) -> tuple:
    """Every root slot of ``graph`` by position: the root's own legs in leg
    order, then the tails in the order of their root edges."""
    tails = (_tail_slot(beyond_legs(graph, e)) for e in child_edges_of(graph, 0))
    return (*map(_leg_slot, graph.legs[0]), *tails)


def _weighted_shape(graph: Tree, weights: Mapping) -> tuple:
    """The part of a rational-tails graph that its decorations, `coeff_c` and
    factored exponents read: its edges and, per vertex, its legs' weights in
    leg order."""
    return graph.edges, tuple([tuple([weights[l] for l in legs]) for legs in graph.legs])


def _formula_terms(weights: Mapping, cap, keep=None):
    """The graph-formula terms ``(graph, dec, fact, coeff)`` with leg weights ``weights``.

    Each rt graph is decorated up to ``cap(graph)`` (skipped when negative);
    decorations failing ``keep(graph, dec)`` are skipped before their
    coefficient is computed.  The sign is (-1)^|E|.

    ``cap``, ``keep``, the decorations, the coefficient and the factored
    exponents read only the weighted shape (`_weighted_shape`), so the first
    graph of a shape lists them once, each leg exponent keyed by its position
    ``(vertex, index)`` and each factored exponent by its root slot's
    position (`_root_slot_order`); every graph of the shape puts its own
    labels back in those positions and re-sorts, so the terms and their
    order are those of a per-graph listing.
    """
    listed: dict = {}
    for graph in enumerate_rt_graphs(len(weights)):
        shape = _weighted_shape(graph, weights)
        slots = _root_slot_order(graph)
        if shape not in listed:
            listed[shape] = terms = []
            budget = cap(graph)
            if budget >= 0:
                sign = (-1) ** graph.num_edges()
                position = {l: (v, idx) for v, legs in enumerate(graph.legs) for idx, l in enumerate(legs)}
                for dec in enumerate_decorations(graph, budget, weights):
                    if keep is not None and not keep(graph, dec):
                        continue
                    c = coeff_c(graph, dec, weights)
                    if c:
                        fact = _fact_for(graph, dec, weights)
                        legs = tuple([(position[l], e) for l, e in dec.leg])
                        terms.append((dec.half, legs, tuple([fact[key] for key in slots]), sign * c))
        decorated = []
        for half, legs, exponents, coeff in listed[shape]:
            leg = sorted([(graph.legs[v][idx], e) for (v, idx), e in legs], key=lambda t: label_key(t[0]))
            decorated.append((Decoration(half, tuple(leg)), exponents, coeff))
        decorated.sort(key=lambda t: t[0].sort_key())
        for dec, exponents, coeff in decorated:
            yield graph, dec, dict(zip(slots, exponents)), coeff


def _multiplicities(mults) -> tuple:
    """``mults`` as a non-empty tuple of leg weights, each an integer >= 1."""
    mults = tuple(integer_arg("a multiplicity", m, 1) for m in mults)
    integer_arg("the number of legs", len(mults), 1)
    return mults


_f_cache: dict = {}


def f_class_m(mults) -> RtClass:
    """The multiplicity graph-formula class; legs 1..n with weights ``mults``.

    One class serves every k and g: k stays symbolic in the factored basis and
    the genus vertex is opaque.  Decorated graphs with a negative net tail
    exponent are verified to sum to zero per root profile and dropped.
    """
    mults = _multiplicities(mults)
    if mults in _f_cache:
        return _f_cache[mults]
    n = len(mults)
    weights = {l: mults[l - 1] for l in range(1, n + 1)}
    total_degree = sum(mults)
    out = RtClass(range(1, n + 1))
    formal = RtClass(range(1, n + 1))
    for graph, dec, fact, coeff in _formula_terms(weights, lambda graph: total_degree - graph.num_edges()):
        normal = _fact_tuple(fact)  # normalised once: `_add` keeps a tuple as it is
        if rt_term_degree(graph, dec, normal) != total_degree:
            raise ArithmeticError("graph formula degree bookkeeping broke")
        if min(fact.values(), default=0) < 0:
            formal._add(graph, dec, normal, coeff)
        else:
            out._add(graph, dec, normal, coeff)
    profile = _profile_witness(formal)
    if profile is not None:
        raise ArithmeticError(f"f_class_m{mults} negative exponents: profile {profile} does not vanish")
    _f_cache[mults] = out.freeze()
    return out


def f_class(n: int) -> RtClass:
    """The unit-multiplicity graph formula."""
    return f_class_m((1,) * integer_arg("n", n, 1))


def over_degree_terms(n: int) -> RtClass:
    """The graph-formula contributions with deg β > n, kept formally.

    These are dropped from `f_class`; the vanishing theorem makes their
    per-profile sums zero, which `verify_overdegree_drop` certifies.
    """
    integer_arg("n", n, 1)

    def cap(graph: Tree) -> int:
        # nonzero coefficients are bounded by the rational vertices' moduli
        # dimensions plus the chain bound n-2 per root-edge tail slot
        rational = sum(psi_budgets(graph)[1:])
        return rational + len(child_edges_of(graph, 0)) * max(n - 2, 0)

    out = RtClass(range(1, n + 1))
    terms = _formula_terms({l: 1 for l in range(1, n + 1)}, cap, lambda graph, dec: term_degree(graph, dec) > n)
    for graph, dec, fact, coeff in terms:
        out._add(graph, dec, fact, coeff)
    return out


# ---------------------------------------------------------------------------
# root profiles and the per-profile zero test


def extract_tail(graph: Tree, dec: Decoration, root_edge: int):
    """The genus-0 content of a tail as a rooted rational tree with leg h0.

    The head of the root edge carries h0, with that side's ψ-exponent.  The
    tree comes from one plan per (graph, root edge) (`_tail_plan`).
    """
    tree, slots, legs = _tail_plan(graph, root_edge)
    leg = tuple((l, e) for l, e in dec.leg if l in legs)
    h0_exp = dec.half_exp((root_edge, 1))
    if h0_exp:
        leg = ((H0, h0_exp),) + leg  # h0 sorts first
    return tree, Decoration(_carried(dec.half, slots), leg)


@lru_cache(maxsize=None)
def _tail_plan(graph: Tree, root_edge: int):
    """The tail below ``root_edge``: ``(tree, slot map, its legs)``.  Every
    other leg is forgotten and h0 lands at the head of the root edge, so the
    edges outside the tail, the root edge among them, drop."""
    legs = beyond_legs(graph, root_edge)
    forgotten = frozenset(l for ls in graph.legs for l in ls if l not in legs)
    return (*_plan(graph, forgotten, (H0,), graph.edges[root_edge][1]), legs)


def root_profile(graph: Tree, dec: Decoration, fact: tuple):
    """(root data, ordered tail contents): the grouping of the identity proofs."""
    fd = dict(fact)
    root_legs = tuple(
        (l, dec.leg_exp(l), fd.get(_leg_slot(l), 0)) for l in graph.legs[0]
    )
    tails = []
    for e in child_edges_of(graph, 0):
        legs = tuple(sorted(beyond_legs(graph, e), key=label_key))
        tails.append((legs, dec.half_exp((e, 0)), fd.get(_tail_slot(legs), 0), e))
    tails.sort(key=lambda t: t[0])
    profile = (root_legs, tuple(t[:3] for t in tails))
    contents = tuple(extract_tail(graph, dec, e) for _, _, _, e in tails)
    return profile, contents


def _profile_groups(x: RtClass) -> dict:
    groups: dict = {}
    for (graph, dec, fact), coeff in x.terms.items():
        profile, contents = root_profile(graph, dec, fact)
        bucket = groups.setdefault(profile, {})
        bucket[contents] = bucket.get(contents, 0) + coeff
    return groups


def _tensor_is_zero(profile, bucket: dict) -> bool:
    """Zero test in the tensor product of the tails' strata algebras.

    The product is graded by multidegree (one degree per tail), and a term
    pairs to nonzero only with tuples of strata of complementary codimension,
    so each multidegree is paired against those tuples alone.  Sound and
    complete because each factor's pairing is perfect and strata span.
    Coefficients are summed as integer numerators over the bucket's lcm.

    Each distinct tail content is paired once, with the strata of its family
    laminar to it (one AND on the split bits); its nonzero values are its
    support.  A term adds its numerator times the product of its tails'
    values to each tuple of strata in the product of their supports, which
    is the sum over every tuple with the zero pairings left out.
    """
    bucket = {k: c for k, c in bucket.items() if c}
    if not bucket:
        return True
    ambients = [frozenset(legs) | {H0} for legs, _, _ in profile[1]]
    common = lcm(*(c.denominator for c in bucket.values()))
    by_degree: dict = {}
    for contents, coeff in bucket.items():
        degrees = tuple(term_degree(tree, dec) for tree, dec in contents)
        by_degree.setdefault(degrees, []).append((contents, coeff.numerator * (common // coeff.denominator)))
    # a tail's degree fixes its family, so its support serves every degree group
    supports: dict = {}
    for degrees, items in by_degree.items():
        families = [strata_family(amb, dim_of(amb) - d) for amb, d in zip(ambients, degrees)]
        owns = [[split_bits(S)[0] for S in family] for family in families]
        totals: dict = {}
        for contents, num in items:
            factors = []
            for t, (tree, dec) in enumerate(contents):
                if (t, tree, dec) not in supports:
                    crossing, amb = split_bits(tree)[1], ambients[t]
                    values = (
                        (s, pair_term(tree, dec, S, amb))
                        for s, (S, own) in enumerate(zip(families[t], owns[t]))
                        if not crossing & own
                    )
                    supports[t, tree, dec] = [(s, value) for s, value in values if value]
                factors.append(supports[t, tree, dec])
            for picks in itertools.product(*factors):
                strata = tuple(s for s, _ in picks)
                totals[strata] = totals.get(strata, 0) + num * prod(value for _, value in picks)
        if any(totals.values()):
            return False
    return True


def _profile_witness(x: RtClass):
    """The first root profile of ``x`` that does not vanish, or None."""
    for profile, bucket in _profile_groups(x).items():
        if not _tensor_is_zero(profile, bucket):
            return profile
    return None


def verify_overdegree_drop(n: int) -> VerificationReport:
    """The dropped deg β > n contributions vanish per root profile."""
    profile = _profile_witness(over_degree_terms(n))
    return VerificationReport("overdegree_drop", (n,), profile is None, profile)


# ---------------------------------------------------------------------------
# operations


@lru_cache(maxsize=None)
def _fact_key(graph: Tree, leg) -> tuple:
    """The root slot that ``leg`` feeds: its own leg slot at the root, else its tail's slot."""
    v = vertex_of_leg(graph, leg)
    return _tail_slot(beyond_legs(graph, path_edges(graph, v)[0])) if v else _leg_slot(leg)


@lru_cache(maxsize=None)
def _root_slots(graph: Tree) -> frozenset:
    """Every root slot of ``graph``: the root's own legs and its tails."""
    return frozenset(_root_slot_order(graph))


def multiply_divisor(x: RtClass, leg) -> RtClass:
    """Multiply by (kω_leg - η): a factored bump at the leg's root slot."""
    if label_arg("a leg", leg) not in x.ambient:
        raise InvalidArgument(f"no leg {leg!r}")
    # the new factor starts at the leg's own slot and lands where that leg feeds
    bump = ((_leg_slot(leg), 1),)
    out = RtClass(x.ambient)
    for (graph, dec, fact), coeff in x.terms.items():
        out._add(graph, dec, RtClass._follow(fact + bump, graph, None), coeff)
    return out


# the `strata0` moves under their rational-tails names, which `bench/tracer.py` still lists
pullback_forget_rt = pullback_forget
collide_rt = collide
relabel_rt = relabel_class


def e_class(n: int, I) -> RtClass:
    """γ_* of the heavy-multiplicity class: the coda-glued extra class
    (`strata0.glue_push_gamma`), whose node slot becomes the coda tail."""
    I = coda_members(I)
    coda_mapping(n, I)  # a bad I is refused before the base class is built
    return glue_push_gamma(f_class_m((len(I),) + (1,) * (n - len(I) - 1)), I, n)


# ---------------------------------------------------------------------------
# identity checks


def verify_frec(n: int) -> VerificationReport:
    """π* F_{n-1} · (kω_n - η) - Σ |I| E_I = F_n, per root profile."""
    integer_arg("n", n, 2)
    summands = itertools.chain(((-len(I), e_class(n, I)) for I in _nonempty_subsets(n - 1)), [(-1, f_class(n))])
    profile = _profile_witness(multiply_divisor(pullback_forget(f_class(n - 1), n), n).plus(summands))
    return VerificationReport("frec", (n,), profile is None, profile)


_chain_cache: dict = {}


def _folded(weights: tuple) -> RtClass:
    """The unit class with its legs folded left to right until each reaches
    its weight in ``weights``, frozen and cached per chain state.

    The state's last fold raised its rightmost weight above 1, so it is one
    fold of the state with that weight lowered by one and a 1 inserted after
    it; the all-ones state is `f_class`.  Every composition shares the
    states on its way, and the folds run in the order of a left-to-right loop.
    """
    if weights not in _chain_cache:
        p = max((pos for pos, w in enumerate(weights) if w > 1), default=None)
        if p is None:
            return f_class(len(weights))
        shorter = (*weights[:p], weights[p] - 1, 1, *weights[p + 1:])
        _chain_cache[weights] = fold(_folded(shorter), p + 1).freeze()
    return _chain_cache[weights]


def verify_colliding_rt(mults) -> VerificationReport:
    """Colliding consecutive legs carries the unit class onto the heavy one."""
    mults = _multiplicities(mults)
    x = _folded(mults)
    expected = f_class_m(mults)
    profile = None
    if x == expected:
        witness = "termwise"
    else:
        profile = _profile_witness(x - expected)
        witness = "per-profile" if profile is None else profile
    return VerificationReport("colliding_rt", mults, profile is None, witness)


def verify_expansions() -> VerificationReport:
    """The appendix consistency F_2 = (kω_1-η)(kω_2-η) - E_{1}, after building F_1..F_3."""
    for n in (1, 2, 3):
        f_class(n)
    t, d = build_tree([[1, 2]], [], rt_root=0)
    smooth = RtClass({1, 2}, {(t, d, _fact_tuple({_leg_slot(1): 1, _leg_slot(2): 1})): 1})
    ok = f_class(2) == smooth - e_class(2, {1})
    witness = None if ok else "F_2 vs (kω-η)^2 - E_1"
    return VerificationReport("expansions", (), ok, witness)


def verify_logan(g: int) -> VerificationReport:
    """φ_* F^1_{g,g}: Σ ω_i - λ_1 - Σ_M C(|M|,2) δ_M over the boundary divisors."""
    out = pushforward_phi(f_class(integer_arg("g", g, 1)), k=1, g=g)
    expected = PushedClass()
    t, d = build_tree([list(range(1, g + 1))], [], rt_root=0)
    for i in range(1, g + 1):
        expected._add((t, d, ((_leg_slot(i), 1),), ()), KPoly.const(1))
    expected._add((t, d, (), (1,)), KPoly.const(-1))
    for r in range(2, g + 1):
        for M in itertools.combinations(range(1, g + 1), r):
            root = [l for l in range(1, g + 1) if l not in M]
            tc, dc = build_tree([root, list(M)], [(0, 1)], rt_root=0)
            expected._add((tc, dc, (), ()), KPoly.const(-r * (r - 1) // 2))
    ok = out == expected
    return VerificationReport("logan", (g,), ok, None if ok else "class mismatch")


def verify_heavy(a: int) -> VerificationReport:
    """The one-heavy-leg class equals ∏_{b<a}((k+b)ψ - η)."""
    ok = f_heavy_expanded(a) == heavy_point_expansion(a)
    return VerificationReport("heavy", (a,), ok, None if ok else "expansion mismatch")


def verify_heavy_pushforwards() -> VerificationReport:
    """Both pushforwards of the weight-2 one-leg class against their closed forms."""
    out = pushforward_point(f_class_m((2,)), g=None)
    expected = PushedClass()
    expected._add(("kappa", 1, "eta", 0), KPoly({2: 1, 1: 1}))
    expected._add(("kappa", 0, "eta", 1), KPoly({1: -2, 0: -1}))
    ok = out == expected
    if ok:
        t, d = build_tree([[1]], [], rt_root=0)
        phi = pushforward_phi(f_class_m((2,)), k=2, g=2)
        ok = phi == PushedClass({(t, d, (), ()): KPoly.const(1)})
    return VerificationReport("heavy_pushforwards", (), ok, None if ok else "pushforward mismatch")


# ---------------------------------------------------------------------------
# pushforwards


class KPoly(FormalSum):
    """Integer-coefficient polynomials in the symbol k, with Fraction arithmetic.

    ``terms`` maps a power of k to its nonzero coefficient.
    """

    __slots__ = ()

    def __init__(self, c=None):
        self.terms = {}
        for d, v in dict(c or {}).items():
            self._put(integer_arg("a power of k", d, 0), exact(v))

    @staticmethod
    def _sort_key(d: int) -> int:
        return -d

    @staticmethod
    def const(v) -> "KPoly":
        return KPoly({0: exact(v)})

    def __neg__(self) -> "KPoly":
        return self.scale(-1)

    def __mul__(self, other) -> "KPoly":
        if not isinstance(other, KPoly):
            other = KPoly.const(other)
        out = KPoly()
        for d1, v1 in self.terms.items():
            for d2, v2 in other.terms.items():
                out._put(d1 + d2, v1 * v2)
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for d, v in self.items():
            mag = abs(v)
            mono = "" if d == 0 else ("k" if d == 1 else f"k^{d}")
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            bits.append(("-" if v < 0 else "+", body))
        out = ("-" if bits[0][0] == "-" else "") + bits[0][1]
        for sign, body in bits[1:]:
            out += f" {sign} {body}"
        return out


class PushedClass(FormalSum):
    """η-reduced pushforward: symbols ω, ψ, λ, κ, η over boundary graphs."""

    __slots__ = ()

    def __init__(self, terms: Optional[Mapping] = None):
        self.terms = {}
        for key, coeff in (terms or {}).items():
            self._add(key, coeff)

    def _add(self, key, coeff) -> None:
        self._put(key, coeff if isinstance(coeff, KPoly) else KPoly.const(coeff))

    @staticmethod
    def _sort_key(key) -> str:
        return repr(key)

    def __repr__(self) -> str:
        return f"PushedClass({len(self.terms)} terms)"


@lru_cache(maxsize=None)
def _eta_reduce(p: int, r: int):
    """(-η)^p as a combination {(λ-monomial, q): coeff} with q < r."""
    if p < r:
        return {((), p): Fraction(1)}
    out: dict = {}
    # (-η)^p = -Σ_q λ_q (-η)^{p-q}
    for q in range(1, r + 1):
        for (lam, pe), c in _eta_reduce(p - q, r).items():
            key = (tuple(sorted(lam + (q,))), pe)
            out[key] = out.get(key, Fraction(0)) - c
    return out


def pushforward_phi(x: RtClass, k: int, g: int) -> PushedClass:
    """Push down the bundle: keep the (-η)^{r-1} coefficient after reduction.

    The bundle rank r is Riemann-Roch's h^0(ω^k): g for k = 1, (2k-1)(g-1)
    for k >= 2 and g >= 2, and 1 on genus 1, where ω is trivial.
    """
    integer_arg("k", k, 1)
    integer_arg("g", g, 1)
    r = g if k == 1 else 1 if g == 1 else (2 * k - 1) * (g - 1)
    out = PushedClass()
    for (graph, dec, fact), coeff in x.terms.items():
        slots = list(fact)
        if any(e < 0 for _, e in slots):
            raise InvalidArgument("negative factored exponent cannot be expanded")
        ranges = [range(e + 1) for _, e in slots]
        for eta_picks in itertools.product(*ranges):
            p = sum(eta_picks)
            scalar = Fraction(1)
            omegas = []
            for (slotkey, e), t in zip(slots, eta_picks):
                a = e - t
                scalar *= comb(e, a) * Fraction(k) ** a
                if a:
                    omegas.append((slotkey, a))
            for (lam, pe), c in _eta_reduce(p, r).items():
                if pe != r - 1:
                    continue
                key = (graph, dec, tuple(sorted(omegas)), lam)
                out._add(key, KPoly.const(coeff * scalar * c))
    return out


def _psi_eta_terms(x: RtClass):
    """Expand a smooth one-leg class after ω = ψ: ((ψ-exp, η-exp), KPoly) pairs.

    A term c ψ^d (kψ - η)^b contributes c C(b,t) (-1)^t k^{b-t} ψ^{b-t+d} η^t.
    """
    (leg,) = x.ambient
    for (graph, dec, fact), coeff in x.terms.items():
        if graph.num_edges():
            raise InvalidArgument("single-leg classes are supported on the smooth locus only")
        d = dec.leg_exp(leg)
        b = dict(fact).get(_leg_slot(leg), 0)
        if b < 0:
            raise InvalidArgument("negative factored exponent cannot be expanded")
        for t in range(b + 1):
            yield (b - t + d, t), KPoly({b - t: coeff * comb(b, t) * (-1) ** t})


def pushforward_point(x: RtClass, g: Optional[int] = None) -> PushedClass:
    """Push a single-leg class down the point-forgetting map via κ-classes.

    The coefficients are polynomials in the symbol k.  κ_0 evaluates to
    2g - 2 when g is numeric; the root has positive genus, so g >= 1.
    """
    if len(x.ambient) != 1:
        raise InvalidArgument("pushforward_point needs a single-leg class")
    if g is not None:
        integer_arg("g", g, 1)
    out = PushedClass()
    for (a, t), kc in _psi_eta_terms(x):
        if a == 0:
            continue  # π_*(η^t) with no ψ dies
        kappa = a - 1
        if kappa == 0 and g is not None:
            out._add(("eta", t), kc * KPoly.const(2 * g - 2))
        else:
            out._add(("kappa", kappa, "eta", t), kc)
    return out


def heavy_point_expansion(a: int) -> PushedClass:
    """∏_{b=0}^{a-1}((k+b)ψ - η), keyed by (ψ-exp, η-exp)."""
    out = PushedClass({(0, 0): 1})
    for b in range(a):
        step = PushedClass()
        for (pp, pe), c in out.terms.items():
            step._add((pp + 1, pe), c * KPoly({1: 1, 0: b}))
            step._add((pp, pe + 1), -c)
        out = step
    return out


def f_heavy_expanded(a: int) -> PushedClass:
    """The one-heavy-leg class expanded in (ψ, η) after the ω = ψ identification."""
    out = PushedClass()
    for key, kc in _psi_eta_terms(f_class_m((a,))):
        out._add(key, kc)
    return out


def emit_relation(g: int, n: int) -> RtClass:
    """The vanishing-regime class (k = 1, g >= 1, n > 2g-2), rendered by the caller."""
    integer_arg("g", g, 1)  # the root has positive genus
    if integer_arg("n", n, 1) <= 2 * g - 2:
        raise InvalidArgument("relations need n > 2g-2")
    return f_class(n)
