"""Cycle systems from weighted rooted trees, and their identity checks.

The D-polynomial of a rooted context collects, per tree and decoration, the
signed coefficient times the stratum pushforward at the D-power minus the size
of the echelon index set.  Its graded pieces (by class degree) are assembled
directly; degrees above the ambient dimension vanish and are never built.

Every verifier returns a `VerificationReport`; failures carry the witness
stratum whose pairing does not vanish.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional

from .trees import (
    H0,
    InvalidArgument,
    Tree,
    build_tree,
    coda_members,
    coda_path,
    decorations_of_degree,
    enumerate_trees0,
    make_decoration,
)
from .strata0 import (
    Class0,
    ambient0,
    dim_of,
    fold,
    glue_push_gamma,
    glue_push_sigma0,
    is_invariant,
    pullback_forget,
    term_is_zero,
    zero,
    zero_witness,
    _check_tree,
)
from .weights import coeff_d, rooted_factor, rooted_split


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    params: tuple
    passed: bool
    witness: Optional[object] = None
    seconds: float = 0.0

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = "" if self.passed else f"  witness={self.witness!r}"
        return f"{status} {self.identity}{self.params}{extra}"


def _report_first(identity: str, params: tuple, labelled) -> VerificationReport:
    """Zero-test the ``(label, diff)`` pairs in turn and fail on the first
    nonzero diff, with witness ``(*label, w)`` (the bare ``w`` under an empty
    label).  ``labelled`` may be lazy: no diff past the failing one is built."""
    for label, diff in labelled:
        w = zero_witness(diff)
        if w is not None:
            return VerificationReport(identity, params, False, (*label, w) if label else w)
    return VerificationReport(identity, params, True, None)


def _z_degree(n: int, i: int, j: int, m: int = 1) -> int:
    """The class degree of Z^m(n, i, j) and Z^t(n, i, j)."""
    return n + m - 2 + j - i


def z_cycle(n: int, i: int, j: int, m: int = 1) -> Class0:
    """The degree-(n+m-2+j-i) cycle of the rooted D-polynomial."""
    return _combine_blocks(n, i, j, m, truncated=False)


def z_truncated(n: int, i: int, j: int) -> Class0:
    """Z^t: the same sum restricted by the truncation property at the root."""
    return _combine_blocks(n, i, j, 1, truncated=True)


def _combine_blocks(n: int, i: int, j: int, m: int, truncated: bool) -> Class0:
    """Z or Z^t as the sum of the shared blocks of its degree, each scaled by
    the half of the coefficient that reads i: a fresh class on every call."""
    if n < 2 or i < 1 or m < 1:
        raise InvalidArgument("Z needs n >= 2, i >= 1, m >= 1")
    out = zero(ambient0(n))
    degree = _z_degree(n, i, j, m)
    if 0 <= degree <= dim_of(out.ambient):
        for key, block in _z_blocks(n, m, degree).items():
            factor = rooted_factor(key, i, truncated)
            if factor:
                # every term lives in one block only, so nothing cancels
                out.terms.update(block.scale(factor).terms)
    return out


_block_cache: dict = {}


def _shape(tree: Tree, n: int) -> tuple:
    """The part of a rooted tree on legs 1..n that Z's blocks read: its edges
    and, per vertex, its legs with every label but h0, 1 and n masked.

    `decorations_of_degree` decorates only h0, leg 1 and the half-edges, and
    `rooted_split` reads leg weights (leg 1 weighs m) and whether the root
    carries exactly {h0, n}.  The mask (None) keeps the leg order, since
    h0 < 1 < the others < n.
    """
    keep = {H0: H0, 1: 1, n: n}.get
    return tree.edges, tuple([tuple(map(keep, legs)) for legs in tree.legs])


def _z_blocks(n: int, m: int, degree: int) -> dict:
    """The support of Z^m(n, ·, ·) in one degree, grouped for every (i, j).

    Each decorated shape (`_shape`) is listed once, with its sign times the
    i-free half of its coefficient (`weights.rooted_split`); every tree of
    that shape adds its terms, grouped by the key that the half reading i
    depends on, one frozen `Class0` per key.  Z and Z^t of this degree share
    the blocks.

    Whether a term vanishes (`term_is_zero`) reads its degree, fixed here,
    and the ψ-budgets, which are the shape's, so a listed decoration is
    checked on the shape's first tree; each tree's own legs are checked once
    (`_check_tree`), and its terms go straight into the blocks.
    """
    cache_key = (n, m, degree)
    if cache_key not in _block_cache:
        amb = ambient0(n)
        blocks: dict = {}
        listed: dict = {}
        for tree in enumerate_trees0(n):
            psi_budget = degree - tree.num_edges()
            if psi_budget < 0:
                continue
            _check_tree(tree, amb)
            shape = _shape(tree, n)
            if shape not in listed:
                sign = (-1) ** (1 + tree.num_edges())
                listed[shape] = terms = []
                for dec in decorations_of_degree(tree, psi_budget, leg_bounds={1: m}):
                    free, key = rooted_split(tree, dec, m)
                    if free and not term_is_zero(tree, dec, amb):
                        terms.append((dec, Fraction(sign * free), key))
            for dec, coeff, key in listed[shape]:
                if key not in blocks:
                    blocks[key] = zero(amb)
                blocks[key].terms[tree, dec] = coeff
        _block_cache[cache_key] = {key: block.freeze() for key, block in blocks.items()}
    return _block_cache[cache_key]


@lru_cache(maxsize=None)
def _z_symmetry(n: int, m: int, degree: int) -> frozenset:
    """Legs under whose permutations Z^m(n, ·, ·) and Z^t(n, ·, ·) of this
    degree are invariant, or ``frozenset()``.

    Each block's key reads only the h0 exponent, the h0 cap and the edge
    above a root that carries exactly {h0, n}, so the blocks, and every sum
    of them, should not tell legs 1..n-1 apart (2..n-1 when m > 1, since leg
    1 then weighs m).  That is certified here, block by block (`is_invariant`).
    """
    legs = frozenset(range(1 if m == 1 else 2, n))
    blocks = _z_blocks(n, m, degree).values()
    return legs if all(is_invariant(block, legs) for block in blocks) else frozenset()


@dataclass(frozen=True)
class DecPolynomial:
    """Graded coefficients of the D-polynomial, keyed by the index j."""

    n: int
    i: int
    m: int
    coefficients: tuple  # of (j, Class0)

    def coefficient(self, j: int) -> Class0:
        for jj, c in self.coefficients:
            if jj == j:
                return c
        return zero(ambient0(self.n))


def dec_polynomial(n: int, i: int, m: int = 1) -> DecPolynomial:
    """All graded pieces of Dec with degrees inside the ambient dimension."""
    if n < 2 or i < 1 or m < 1:
        raise InvalidArgument("dec_polynomial needs n >= 2, i >= 1, m >= 1")
    lo = i - n - m + 2
    hi = lo + dim_of(ambient0(n))
    coeffs = tuple((j, z_cycle(n, i, j, m)) for j in range(lo, hi + 1))
    return DecPolynomial(n, i, m, coeffs)


@lru_cache(maxsize=None)
def _codas(n: int) -> dict:
    """Every coda tree on legs 1..n with its root-to-coda path, grouped by
    its I (`trees.coda_path`), in one scan of the trees."""
    out: dict = {}
    for tree in enumerate_trees0(n):
        coda = coda_path(tree, n)
        if coda is not None:
            out.setdefault(coda[0], []).append((tree, coda[1]))
    return {I: tuple(trees) for I, trees in out.items()}


def e_cycle(n: int, I, i: int, j: int) -> Class0:
    """E_I(i,j): the coda cycle of degree n-1+j-i."""
    I = coda_members(I)
    if not I or not I <= set(range(1, n)):
        raise InvalidArgument("I must be a non-empty subset of 1..n-1")
    if i < 1:
        raise InvalidArgument("i must be >= 1")
    amb = ambient0(n)
    degree = n - 1 + j - i
    out = zero(amb)
    if degree < 0 or degree > dim_of(amb):
        return out
    for tree, path in _codas(n).get(I, ()):
        psi_budget = degree - tree.num_edges()
        # the one-vertex coda (empty path) carries no ψ
        if psi_budget < 0 or (not path and psi_budget):
            continue
        sign = (-1) ** tree.num_edges()
        for dec in decorations_of_degree(tree, psi_budget):
            if path and dec.half_exp((path[-1], 1)):
                continue  # the coda head stays undecorated
            d = coeff_d(tree, dec, i, I)
            if d:
                out._add(tree, dec, Fraction(sign) * d)
    return out


# ---------------------------------------------------------------------------
# identity checks


def _recursion_lhs(n: int, i: int, j: int) -> Class0:
    lhs = pullback_forget(z_cycle(n - 1, i, j + 1), n)
    for I in _nonempty_subsets(n - 1):
        e = e_cycle(n, I, i, j)
        if e.terms:
            lhs = lhs - e.scale(len(I))
    return lhs


def _nonempty_subsets(k: int):
    for r in range(1, k + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(1, k + 1), r))


def _verify_recursion(identity: str, n: int, i: int, j: int) -> VerificationReport:
    diff = _recursion_lhs(n, i, j) - z_truncated(n, i, j)
    return _report_first(identity, (n, i, j), [((), diff)])


def verify_recursion_a(n: int, i: int, j: int) -> VerificationReport:
    """Pullback recursion onto the truncated cycle, for 1 <= i <= n-2."""
    if not 1 <= i <= n - 2:
        raise InvalidArgument("verify_recursion_a needs 1 <= i <= n-2")
    return _verify_recursion("recursion_a", n, i, j)


def verify_recursion_all(n: int, i: int, j: int) -> VerificationReport:
    """The same identity without the upper restriction on i."""
    if i < 1:
        raise InvalidArgument("i must be >= 1")
    return _verify_recursion("recursion_all", n, i, j)


def _plus_sigma0_terms(diff: Class0, n: int, i: int, j: int, factor: int) -> Class0:
    """diff + factor · Σ_{i+ > i} σ0_*(Z(n-1, i+, j+)) with j+ - i+ = j - i."""
    for ip in range(i + 1, n - 1):
        corr = z_cycle(n - 1, ip, j - i + ip)
        if corr.terms:
            diff = diff + glue_push_sigma0(corr, n).scale(factor)
    return diff


def verify_dect(n: int, i: int, j: int) -> VerificationReport:
    """Z = Z^t - sum_{i+ > i} i sigma0_*(Z(n-1, i+, j+)) with j+ - i+ = j - i."""
    if i < 1:
        raise InvalidArgument("i must be >= 1")
    diff = _plus_sigma0_terms(z_cycle(n, i, j) - z_truncated(n, i, j), n, i, j, i)
    return _report_first("dect", (n, i, j), [((), diff)])


def verify_decrec(n: int, i: int) -> VerificationReport:
    """The D-polynomial recursion, checked coefficientwise in D^{-1}."""
    if n < 3 or i < 1:
        raise InvalidArgument("verify_decrec needs n >= 3, i >= 1")
    diffs = (
        ((j,), _plus_sigma0_terms(_recursion_lhs(n, i, j) - z_cycle(n, i, j), n, i, j, -i))
        for j in range(i - n + 1, i)
    )
    return _report_first("decrec", (n, i), diffs)


def verify_vanishing(n_max: int):
    """is_zero for Z(n,i,j) and Z^t(n,i,j), 1 <= j < i <= n-1, 3 <= n <= n_max."""
    if n_max < 3:
        raise InvalidArgument("n_max must be >= 3")
    return [
        verify_vanishing_cycle(n, i, j, truncated)
        for n in range(3, n_max + 1)
        for i in range(1, n)
        for j in range(1, i)
        for truncated in (False, True)
    ]


def verify_vanishing_cycle(n: int, i: int, j: int, truncated: bool = False) -> VerificationReport:
    """is_zero for Z(n,i,j), or for Z^t(n,i,j) when ``truncated``.

    Both are sums of the blocks of their degree, so the zero test pairs one
    stratum per orbit of the legs `_z_symmetry` certifies; the witness is
    the full route's.  In the top degree the one stratum to pair is the
    whole space, so no certificate is sought there.
    """
    x = z_truncated(n, i, j) if truncated else z_cycle(n, i, j)
    degree = _z_degree(n, i, j)
    legs = _z_symmetry(n, 1, degree) if x.terms and degree < dim_of(x.ambient) else frozenset()
    w = zero_witness(x, legs)
    return VerificationReport("vanishing_zt" if truncated else "vanishing_z", (n, i, j), w is None, w)


def collide_first_legs(x: Class0, steps: int) -> Class0:
    """Collide leg 2 into leg 1 and renumber down (`fold`), ``steps`` times."""
    for _ in range(steps):
        x = fold(x, 1)
    return x


def verify_collide0(n: int, m_target: int) -> VerificationReport:
    """Colliding the first m points carries Z(n,i,j) onto Z^m(n-m+1,i,j).

    Both sides are sums of the blocks of their degree scaled by
    ``rooted_factor(key, i)`` (`_z_blocks`), and `collide_first_legs` is
    linear: it sends each term to at most one term, with a sign.  So each
    block of Z(n, ·, ·) is collided once per chain step (`_collided_blocks`,
    shared by every m), and each (i, j) only combines the integer rows of
    one table per degree (`_collide0_rows`).  The (i, j) order, the diffs
    and their zero tests are the per-class route's, so the report is too.
    """
    if not 1 <= m_target < n:
        raise InvalidArgument("need 1 <= m < n")
    amb = ambient0(n - m_target + 1)
    tables: dict = {}

    def diff(i: int, j: int) -> Class0:
        degree = _z_degree(n, i, j)
        if degree not in tables:
            tables[degree] = _collide0_rows(n, m_target, degree)
        keys, rows, common = tables[degree]
        factors = [rooted_factor(key, i) for key in keys]
        out = zero(amb)
        for term, pairs in rows.items():
            total = sum(factors[column] * num for column, num in pairs)
            if total:
                out.terms[term] = Fraction(total, common)
        return out

    diffs = (((i, j), diff(i, j)) for i in range(1, n) for j in range(i - n + 1, i))
    return _report_first("collide0", (n, m_target), diffs)


_collided_cache: dict = {}


def _collided_blocks(n: int, degree: int, steps: int) -> dict:
    """The blocks of Z(n, ·, ·) in one degree with the first legs collided
    ``steps`` times; each entry is built from the one a step shorter."""
    if steps == 0:
        return _z_blocks(n, 1, degree)
    cache_key = (n, degree, steps)
    if cache_key not in _collided_cache:
        shorter = _collided_blocks(n, degree, steps - 1)
        _collided_cache[cache_key] = {key: collide_first_legs(block, 1).freeze() for key, block in shorter.items()}
    return _collided_cache[cache_key]


def _collide0_rows(n: int, m: int, degree: int) -> tuple:
    """One degree of collide0's diff as an integer table: ``(keys, rows,
    common)``.  The columns are the collided Z(n) blocks, then the negated
    Z^m(n-m+1) blocks, with their `rooted_split` keys; ``rows`` maps each
    term to its (column, numerator) pairs over the common denominator."""
    n_small = n - m + 1
    sides = [(1, _collided_blocks(n, degree, m - 1))]
    if degree <= dim_of(ambient0(n_small)):
        sides.append((-1, _z_blocks(n_small, m, degree)))
    columns = [(sign, key, block) for sign, blocks in sides for key, block in blocks.items()]
    common = lcm(*(c.denominator for _, _, block in columns for c in block.terms.values()))
    rows: dict = {}
    for column, (sign, _, block) in enumerate(columns):
        for term, coeff in block.terms.items():
            rows.setdefault(term, []).append((column, sign * coeff.numerator * (common // coeff.denominator)))
    return [key for _, key, _ in columns], rows, common


def verify_ei_pushforward(n: int, I, i: int) -> VerificationReport:
    """E_I^i(D) = γ_* Dec^{i,m}(D), termwise per D-coefficient."""
    I = coda_members(I)
    m = len(I)
    if not I or not I <= set(range(1, n)) or m > n - 2:
        raise InvalidArgument("need a non-empty I inside 1..n-1 with |I| <= n-2")
    # degrees outside [0, dim] vanish on both sides, so this j-range is complete
    diffs = (
        ((j,), e_cycle(n, I, i, j) - glue_push_gamma(z_cycle(n - m, i, j, m), I, n))
        for j in range(i - n + 1, i)
    )
    return _report_first("ei_pushforward", (n, tuple(sorted(I)), i), diffs)


def closed_form_z_top(n: int) -> Class0:
    """-(n-1) C(n,2) ψ_{h0} + (n-1) Σ_m C(m,2) δ_m, the displayed divisor form."""
    amb = ambient0(n)
    out = zero(amb)
    top, _ = build_tree([sorted(amb, key=str)], [])
    out._add(top, make_decoration(leg_exp={H0: 1}), -Fraction((n - 1) * n * (n - 1), 2))
    for r in range(2, n):
        coeff = Fraction((n - 1) * r * (r - 1), 2)
        for M in itertools.combinations(range(1, n + 1), r):
            t, _ = build_tree([sorted(amb - set(M), key=str), sorted(M)], [(0, 1)])
            out._add(t, make_decoration(), coeff)
    return out


def verify_closed_forms(n: int) -> VerificationReport:
    """Termwise closed form of Z(n,n-1,1), its vanishing, and the j-recursion."""
    if n < 3:
        raise InvalidArgument("n must be >= 3")
    z = z_cycle(n, n - 1, 1)
    if z != closed_form_z_top(n):
        return VerificationReport("closed_forms", (n,), False, "termwise closed form")
    # its vanishing, then the j-recursion
    j_recursion = (
        (
            (j,),
            z_cycle(n, n - 1, j)
            - z_cycle(n, n - 2, j - 1).scale(Fraction(n - 1, n - 2))
            - z_cycle(n, n - 1, j - 1).mul_psi(H0).scale(n - 1),
        )
        for j in range(2, n - 1)
    )
    return _report_first("closed_forms", (n,), itertools.chain([((), z)], j_recursion))
