"""Rational-tails classes: the graph-formula cycles and their identities.

Terms live over a rational-tails graph (genus vertex 0, rational tails) and
carry, besides the ψ-decoration, a factored root monomial: exponents of
(kω_x - η) keyed by the root's own legs and, per tail, by the tail's leg set
(all ω-classes of a tail restrict to the ω of its root edge, so the net
exponent after cancelling against the legs' divisor factors sits on the edge).
k stays symbolic inside the factored basis; coefficients are rationals.

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
from math import comb, lcm
from typing import Mapping, Optional

from .trees import (
    H0,
    NODE,
    Decoration,
    InvalidArgument,
    Tree,
    attach_leg,
    beyond_legs,
    build_tree,
    child_edges_of,
    coda_mapping,
    contract_trivalent,
    detach_leg,
    enumerate_decorations,
    enumerate_rt_graphs,
    graft,
    label_key,
    overloaded as _rt_term_is_zero,  # `RtClass._add` looks it up under this name
    parent_edge_of,
    path_edges,
    relabel,
    split_off,
    valence,
    vertex_of_leg,
    vertex_slots,
)
from .strata0 import FormalSum, dim_of, pair_term, strata_family, term_degree
from .weights import coeff_c
from .cycles import VerificationReport


def _leg_slot(label):
    return ("leg", label)


def _tail_slot(legs):
    return ("tail", tuple(sorted(legs, key=label_key)))


def _fact_tuple(fact: Mapping) -> tuple:
    return tuple(sorted(((k, e) for k, e in fact.items() if e), key=lambda t: (t[0][0], str(t[0][1]))))


def rt_term_degree(graph: Tree, dec: Decoration, fact: tuple) -> int:
    return graph.num_edges() + dec.degree() + sum(e for _, e in fact)


def _check_fact_keys(graph: Tree, fact: tuple) -> None:
    tails = {_tail_slot(beyond_legs(graph, e)) for e in child_edges_of(graph, 0)}
    legs = {_leg_slot(l) for l in graph.legs[0]}
    for key, _ in fact:
        if key not in tails and key not in legs:
            raise InvalidArgument(f"factored slot {key!r} is not a root slot")


class RtClass(FormalSum):
    """Formal sum of rational-tails terms with factored root monomials."""

    __slots__ = ("legs",)

    def __init__(self, legs, terms: Optional[Mapping] = None):
        self.legs = frozenset(legs)
        self.terms = {}
        for (graph, dec, fact), coeff in (terms or {}).items():
            self._add(graph, dec, fact, coeff)

    def _add(self, graph: Tree, dec: Decoration, fact, coeff) -> None:
        self._check_mutable()
        coeff = Fraction(coeff)
        if not coeff or _rt_term_is_zero(graph, dec):
            return
        if frozenset(l for ls in graph.legs for l in ls) != self.legs:
            raise InvalidArgument("term legs do not match the class")
        fact = _fact_tuple(dict(fact))
        _check_fact_keys(graph, fact)
        self._put((graph, dec, fact), coeff)

    def _space(self) -> tuple:
        return (self.legs,)

    @staticmethod
    def _sort_key(key) -> tuple:
        graph, dec, fact = key
        return (graph.sort_key(), dec.sort_key(), tuple((k[0], str(k[1]), e) for k, e in fact))

    def __repr__(self) -> str:
        return f"RtClass(n={len(self.legs)}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# the graph formula


def _fact_for(graph: Tree, dec: Decoration, mults: Mapping) -> dict:
    """Net factored exponents after the per-tail ω-cancellation."""
    fact = {}
    for l in graph.legs[0]:
        fact[_leg_slot(l)] = mults[l] - dec.leg_exp(l)
    half = dec.half_dict()
    legexp = dec.leg_dict()
    for e in child_edges_of(graph, 0):
        region = beyond_legs(graph, e)
        total = sum(mults[l] - legexp.get(l, 0) for l in region)
        edges_in = [e2 for e2 in range(graph.num_edges()) if beyond_legs(graph, e2) <= region]
        psi_on_tail = sum(
            ex for (eid, _), ex in half.items() if eid in edges_in
        )
        fact[_tail_slot(region)] = total - len(edges_in) - psi_on_tail
    return fact


_f_cache: dict = {}


def f_class_m(k, g, mults) -> RtClass:
    """The multiplicity graph-formula class; legs 1..n with weights ``mults``.

    k and g ride along symbolically (the factored basis carries k, the genus
    vertex is opaque).  Decorated graphs with a negative net tail exponent are
    verified to sum to zero per root profile and dropped.
    """
    mults = tuple(int(m) for m in mults)
    if not mults or any(m < 1 for m in mults):
        raise InvalidArgument("multiplicities must be positive")
    if mults in _f_cache:
        return _f_cache[mults]
    n = len(mults)
    weights = {l: mults[l - 1] for l in range(1, n + 1)}
    total_degree = sum(mults)
    out = RtClass(range(1, n + 1))
    formal = RtClass(range(1, n + 1))
    for graph in enumerate_rt_graphs(n):
        budget = total_degree - graph.num_edges()
        if budget < 0:
            continue
        sign = (-1) ** graph.num_edges()
        for dec in enumerate_decorations(graph, budget, weights):
            c = coeff_c(graph, dec, weights)
            if not c:
                continue
            fact = _fact_for(graph, dec, weights)
            term_deg = rt_term_degree(graph, dec, _fact_tuple(fact))
            if term_deg != total_degree:
                raise ArithmeticError("graph formula degree bookkeeping broke")
            if min(fact.values(), default=0) < 0:
                formal._add(graph, dec, fact, sign * c)
            else:
                out._add(graph, dec, fact, sign * c)
    profile = _profile_witness(formal)
    if profile is not None:
        raise ArithmeticError(f"f_class_m{mults} negative exponents: profile {profile} does not vanish")
    _f_cache[mults] = out.freeze()
    return out


def f_class(k, g, n: int) -> RtClass:
    """The unit-multiplicity graph formula (k and g are carried, not used)."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    return f_class_m(k, g, (1,) * n)


def over_degree_terms(n: int) -> RtClass:
    """The graph-formula contributions with deg β > n, kept formally.

    These are dropped from `f_class`; the vanishing theorem makes their
    per-profile sums zero, which `verify_overdegree_drop` certifies.
    """
    weights = {l: 1 for l in range(1, n + 1)}
    out = RtClass(range(1, n + 1))
    for graph in enumerate_rt_graphs(n):
        # nonzero coefficients are bounded by the rational vertices' moduli
        # dimensions plus the chain bound n-2 per root-edge tail slot
        cap = sum(valence(graph, v) - 3 for v in range(1, graph.num_vertices()))
        cap += len(child_edges_of(graph, 0)) * max(n - 2, 0)
        for dec in enumerate_decorations(graph, cap, weights):
            if graph.num_edges() + dec.degree() <= n:
                continue
            c = coeff_c(graph, dec, weights)
            if not c:
                continue
            fact = _fact_for(graph, dec, mults=weights)
            out._add(graph, dec, fact, (-1) ** graph.num_edges() * c)
    return out


# ---------------------------------------------------------------------------
# root profiles and the per-profile zero test


def extract_tail(graph: Tree, dec: Decoration, root_edge: int):
    """The genus-0 content of a tail as a rooted rational tree with leg h0."""
    region_edges = [
        e for e in range(graph.num_edges()) if beyond_legs(graph, e) <= beyond_legs(graph, root_edge)
    ]
    inner = [e for e in region_edges if e != root_edge]
    verts = sorted({graph.edges[e][1] for e in region_edges})
    vmap = {v: idx for idx, v in enumerate(verts)}
    legs_by = [list(graph.legs[v]) for v in verts]
    legs_by[vmap[graph.edges[root_edge][1]]].append(H0)
    pairs = [(vmap[graph.edges[e][0]], vmap[graph.edges[e][1]]) for e in inner]
    half = {}
    for (eid, side), ex in dec.half:
        if eid in inner:
            half[(inner.index(eid), side)] = ex
    legexp = {l: e for l, e in dec.leg if vertex_of_leg(graph, l) in verts}
    legexp[H0] = dec.half_exp((root_edge, 1))
    return build_tree(legs_by, pairs, half_exp=half, leg_exp=legexp)


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
        groups.setdefault(profile, {})
        bucket = groups[profile]
        bucket[contents] = bucket.get(contents, Fraction(0)) + coeff
    return groups


def _tensor_is_zero(profile, bucket: dict) -> bool:
    """Zero test in the tensor product of the tails' strata algebras.

    The product is graded by multidegree (one degree per tail), and a term
    pairs to nonzero only with tuples of strata of complementary codimension,
    so each multidegree is paired against those tuples alone.  Sound and
    complete because each factor's pairing is perfect and strata span.
    Coefficients are summed as integer numerators over the bucket's lcm.
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
    for degrees, items in by_degree.items():
        families = [strata_family(amb, dim_of(amb) - d) for amb, d in zip(ambients, degrees)]
        for strata in itertools.product(*families):
            total = 0
            for contents, num in items:
                for (tree, dec), S, amb in zip(contents, strata, ambients):
                    num *= pair_term(tree, dec, S, amb)
                    if not num:
                        break
                total += num
            if total:
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


def multiply_divisor(x: RtClass, leg) -> RtClass:
    """Multiply by (kω_leg - η): a factored bump at the leg's root slot."""
    if leg not in x.legs:
        raise InvalidArgument(f"no leg {leg!r}")
    out = RtClass(x.legs)
    for (graph, dec, fact), coeff in x.terms.items():
        fd = dict(fact)
        slot = _tail_key(graph, vertex_of_leg(graph, leg)) or _leg_slot(leg)
        fd[slot] = fd.get(slot, 0) + 1
        out._add(graph, dec, fd, coeff)
    return out


def _tail_key(graph: Tree, v: int):
    """Fact key of the tail holding vertex ``v`` (None at the root)."""
    return _tail_slot(beyond_legs(graph, path_edges(graph, v)[0])) if v else None


def _rekey(fd: dict, old, legs) -> None:
    """Move the exponent at the fact key ``old`` (if any) to the tail ``legs``."""
    if old in fd:
        fd[_tail_slot(legs)] = fd.pop(old)


def pullback_forget_rt(x: RtClass, new_leg) -> RtClass:
    """Pull back along the bundle map forgetting ``new_leg``.

    The fact key of the tail that receives ``new_leg`` grows by it; a
    decorated root leg split off with it becomes a two-leg tail.
    """
    if new_leg in x.legs:
        raise InvalidArgument(f"leg {new_leg!r} already present")
    out = RtClass(x.legs | {new_leg})
    for (graph, dec, fact), coeff in x.terms.items():
        for v in range(graph.num_vertices()):
            grown = dict(fact)
            if v:
                key = _tail_key(graph, v)
                _rekey(grown, key, key[1] + (new_leg,))
            out._add(*attach_leg(graph, dec, v, new_leg), grown, coeff)
            for slot in vertex_slots(graph, v):
                split = split_off(graph, dec, new_leg, slot, fresh=True)
                if split is None:
                    continue
                fd = grown
                if not v:
                    fd = dict(fact)
                    if isinstance(slot, tuple):
                        # a decorated root-edge tail: the inserted vertex joins its tail
                        key = _tail_slot(beyond_legs(graph, slot[0]))
                        _rekey(fd, key, key[1] + (new_leg,))
                    else:
                        _rekey(fd, _leg_slot(slot), (slot, new_leg))
                out._add(*split, fd, -coeff)
    return out


def collide_rt(x: RtClass, leg_i, leg_j) -> RtClass:
    """Collide two legs: multiply by the {i,j} divisor and forget ``leg_j``."""
    if leg_i == leg_j or leg_i not in x.legs or leg_j not in x.legs:
        raise InvalidArgument("collide needs two distinct present legs")
    out = RtClass(x.legs - {leg_j})
    for (graph, dec, fact), coeff in x.terms.items():
        vi = vertex_of_leg(graph, leg_i)
        if vi != vertex_of_leg(graph, leg_j):
            continue
        if vi != 0 and valence(graph, vi) == 3:
            # contract the supporting edge; ψ moves up with a unit bump
            g2, d2 = contract_trivalent(graph, dec, vi, leg_i, leg_j, bump=1)
            sign, home = -1, graph.edges[parent_edge_of(graph)[vi]][0]
            merged = _tail_slot({leg_i, leg_j})
        elif not (dec.leg_exp(leg_i) or dec.leg_exp(leg_j)):
            g2, d2 = detach_leg(graph, dec, leg_j)
            sign, home = 1, vi
            merged = _leg_slot(leg_j)
        else:
            continue
        fd = dict(fact)
        if home == 0:
            # leg_j's root slot, or the two-leg tail that collapsed, folds onto leg_i
            b = fd.pop(merged, 0)
            if b:
                fd[_leg_slot(leg_i)] = fd.get(_leg_slot(leg_i), 0) + b
        else:
            key = _tail_key(graph, home)
            _rekey(fd, key, set(key[1]) - {leg_j})
        out._add(g2, d2, fd, sign * coeff)
    return out


def relabel_rt(x: RtClass, mapping: Mapping) -> RtClass:
    out = RtClass(frozenset(mapping.get(l, l) for l in x.legs))
    for (graph, dec, fact), coeff in x.terms.items():
        fd = {}
        for (kind, payload), e in fact:
            if kind == "leg":
                fd[_leg_slot(mapping.get(payload, payload))] = e
            else:
                fd[_tail_slot({mapping.get(l, l) for l in payload})] = e
        out._add(*relabel(graph, dec, mapping), fd, coeff)
    return out


def e_class(k, g, n: int, I) -> RtClass:
    """γ_* of the heavy-multiplicity class: the coda-glued extra class."""
    I = frozenset(I)
    mapping = coda_mapping(n, I)
    base = f_class_m(k, g, (len(I),) + (1,) * (n - len(I) - 1))
    out = RtClass(range(1, n + 1))
    coda = I | {n}
    for (graph, dec, fact), coeff in relabel_rt(base, mapping).terms.items():
        fd = {}
        for (kind, payload), e in fact:
            if kind == "leg":
                # the node's root slot becomes the coda tail
                fd[_tail_slot(coda) if payload == NODE else _leg_slot(payload)] = e
            elif NODE in payload:
                fd[_tail_slot((set(payload) - {NODE}) | coda)] = e
            else:
                fd[_tail_slot(payload)] = e
        out._add(*graft(graph, dec, NODE, coda), fd, coeff)
    return out


# ---------------------------------------------------------------------------
# identity checks


def verify_frec(k, g, n: int) -> VerificationReport:
    """π* F_{n-1} · (kω_n - η) - Σ |I| E_I = F_n, per root profile."""
    if n < 2:
        raise InvalidArgument("n must be >= 2")
    lhs = multiply_divisor(pullback_forget_rt(f_class(k, g, n - 1), n), n)
    for r in range(1, n):
        for I in itertools.combinations(range(1, n), r):
            lhs = lhs - e_class(k, g, n, I).scale(len(I))
    profile = _profile_witness(lhs - f_class(k, g, n))
    return VerificationReport("frec", (n,), profile is None, profile)


def verify_colliding_rt(k, g, mults) -> VerificationReport:
    """Colliding consecutive legs carries the unit class onto the heavy one."""
    mults = tuple(int(m) for m in mults)
    total = sum(mults)
    x = f_class(k, g, total)
    # fold the legs left to right: collide (pos, pos+1) until each weight is met
    pos = 1
    for m in mults:
        for _ in range(m - 1):
            x = collide_rt(x, pos, pos + 1)
            mapping = {l: l - 1 for l in sorted(x.legs) if l >= pos + 2}
            x = relabel_rt(x, mapping)
        pos += 1
    expected = f_class_m(k, g, mults)
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
        f_class("k", "g", n)
    t, d = build_tree([[1, 2]], [], rt_root=0)
    smooth = RtClass({1, 2}, {(t, d, _fact_tuple({_leg_slot(1): 1, _leg_slot(2): 1})): 1})
    ok = f_class("k", "g", 2) == smooth - e_class("k", "g", 2, {1})
    witness = None if ok else "F_2 vs (kω-η)^2 - E_1"
    return VerificationReport("expansions", (), ok, witness)


def verify_logan(g: int) -> VerificationReport:
    """φ_* F^1_{g,g}: Σ ω_i - λ_1 - Σ_M C(|M|,2) δ_M over the boundary divisors."""
    out = pushforward_phi(f_class(1, g, g), k=1, g=g)
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
    out = pushforward_point(f_class_m("k", "g", (2,)), g=None)
    expected = PushedClass()
    expected._add(("kappa", 1, "eta", 0), KPoly({2: 1, 1: 1}))
    expected._add(("kappa", 0, "eta", 1), KPoly({1: -2, 0: -1}))
    ok = out == expected
    if ok:
        t, d = build_tree([[1]], [], rt_root=0)
        phi = pushforward_phi(f_class_m("k", "g", (2,)), k=2, g=2, rank_override=3)
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
            self._put(int(d), Fraction(v))

    @staticmethod
    def _sort_key(d: int) -> int:
        return -d

    @staticmethod
    def const(v) -> "KPoly":
        return KPoly({0: Fraction(v)})

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


def pushforward_phi(x: RtClass, k: int, g: int, rank_override: Optional[int] = None) -> PushedClass:
    """Push down the bundle: keep the (-η)^{r-1} coefficient after reduction.

    The bundle rank r is g for k = 1; for k >= 2 it must be supplied (the
    Riemann-Roch value (2k-1)(g-1) is the natural input).
    """
    if not isinstance(k, int):
        raise InvalidArgument("pushforward_phi needs a numeric k")
    if k >= 2 and rank_override is None:
        raise InvalidArgument("k >= 2 needs rank_override")
    r = g if k == 1 else rank_override
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
    (leg,) = x.legs
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
    2g - 2 when g is numeric.
    """
    if len(x.legs) != 1:
        raise InvalidArgument("pushforward_point needs a single-leg class")
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
    for key, kc in _psi_eta_terms(f_class_m("k", "g", (a,))):
        out._add(key, kc)
    return out


def emit_relation(g: int, n: int) -> RtClass:
    """The vanishing-regime class (k = 1, n > 2g-2), rendered by the caller."""
    if n <= 2 * g - 2:
        raise InvalidArgument("relations need n > 2g-2")
    return f_class(1, g, n)
