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
    integer_arg,
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
    integer_arg("n", n, 2)
    integer_arg("i", i, 1)
    integer_arg("j", j)
    integer_arg("m", m, 1)
    degree = _z_degree(n, i, j, m)
    blocks = _z_blocks(n, m, degree).items() if 0 <= degree <= dim_of(ambient0(n)) else ()
    return zero(ambient0(n)).plus((rooted_factor(key, i, truncated), block) for key, block in blocks)


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


@lru_cache(maxsize=None)
def _shaped_trees(n: int) -> tuple:
    """Each rooted tree on legs 1..n, in enumeration order, checked once
    (`_check_tree`), with its edge count and the number of its `_shape`, the
    shapes numbered as they first occur."""
    amb, numbers, out = ambient0(n), {}, []
    for tree in enumerate_trees0(n):
        _check_tree(tree, amb)
        out.append((tree, tree.num_edges(), numbers.setdefault(_shape(tree, n), len(numbers))))
    return tuple(out)


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
    per n (`_shaped_trees`), and its terms go straight into the blocks.
    """
    cache_key = (n, m, degree)
    if cache_key not in _block_cache:
        amb = ambient0(n)
        blocks: dict = {}
        listed: dict = {}
        for tree, num_edges, shape in _shaped_trees(n):
            psi_budget = degree - num_edges
            if psi_budget < 0:
                continue
            if shape not in listed:
                sign = (-1) ** (1 + num_edges)
                listed[shape] = terms = []
                for dec in decorations_of_degree(tree, psi_budget, leg_bounds={1: m}):
                    free, key = rooted_split(tree, dec, m)
                    if free and not term_is_zero(tree, dec, amb):
                        terms.append((dec, sign * free, key))
            for dec, coeff, key in listed[shape]:
                if key not in blocks:
                    blocks[key] = zero(amb)
                blocks[key]._put((tree, dec), coeff)
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
    integer_arg("n", n, 2)
    integer_arg("i", i, 1)
    integer_arg("m", m, 1)
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
    if not I or not I <= set(range(1, integer_arg("n", n))):
        raise InvalidArgument("I must be a non-empty subset of 1..n-1")
    integer_arg("i", i, 1)
    integer_arg("j", j)
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
                out._add(tree, dec, sign * d)
    return out


# ---------------------------------------------------------------------------
# identity checks


def _recursion_lhs(n: int, i: int, j: int) -> Class0:
    """π*Z(n-1, i, j+1) - Σ_I |I|·E_I(i, j)."""
    pulled = pullback_forget(z_cycle(n - 1, i, j + 1), n)
    return pulled.plus((-len(I), e_cycle(n, I, i, j)) for I in _nonempty_subsets(n - 1))


def _nonempty_subsets(k: int):
    return (frozenset(c) for r in range(1, k + 1) for c in itertools.combinations(range(1, k + 1), r))


def _verify_recursion(identity: str, n: int, i: int, j: int) -> VerificationReport:
    integer_arg("n", n, 3)
    integer_arg("i", i, 1)
    integer_arg("j", j)
    diff = _recursion_lhs(n, i, j) - z_truncated(n, i, j)
    return _report_first(identity, (n, i, j), [((), diff)])


def verify_recursion_a(n: int, i: int, j: int) -> VerificationReport:
    """Pullback recursion onto the truncated cycle, for 1 <= i <= n-2."""
    if integer_arg("i", i, 1) > integer_arg("n", n) - 2:
        raise InvalidArgument("verify_recursion_a needs 1 <= i <= n-2")
    return _verify_recursion("recursion_a", n, i, j)


def verify_recursion_all(n: int, i: int, j: int) -> VerificationReport:
    """The same identity without the upper restriction on i."""
    return _verify_recursion("recursion_all", n, i, j)


def _plus_sigma0_terms(n: int, i: int, j: int, factor: int):
    """factor · Σ_{i+ > i} σ0_*(Z(n-1, i+, j+)) with j+ - i+ = j - i, as summands of a `plus`."""
    return ((factor, glue_push_sigma0(z_cycle(n - 1, ip, j - i + ip), n)) for ip in range(i + 1, n - 1))


def verify_dect(n: int, i: int, j: int) -> VerificationReport:
    """Z = Z^t - sum_{i+ > i} i sigma0_*(Z(n-1, i+, j+)) with j+ - i+ = j - i."""
    integer_arg("n", n, 2)
    integer_arg("i", i, 1)
    integer_arg("j", j)
    diff = z_cycle(n, i, j).plus(itertools.chain([(-1, z_truncated(n, i, j))], _plus_sigma0_terms(n, i, j, i)))
    return _report_first("dect", (n, i, j), [((), diff)])


def verify_decrec(n: int, i: int) -> VerificationReport:
    """The D-polynomial recursion, checked coefficientwise in D^{-1}."""
    integer_arg("n", n, 3)
    integer_arg("i", i, 1)
    diffs = (
        ((j,), _recursion_lhs(n, i, j).plus(itertools.chain([(-1, z_cycle(n, i, j))], _plus_sigma0_terms(n, i, j, -i))))
        for j in range(i - n + 1, i)
    )
    return _report_first("decrec", (n, i), diffs)


def verify_vanishing(n_max: int):
    """is_zero for Z(n,i,j) and Z^t(n,i,j), 1 <= j < i <= n-1, 3 <= n <= n_max."""
    integer_arg("n_max", n_max, 3)
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
    for _ in range(integer_arg("steps", steps, 0)):
        x = fold(x, 1)
    return x


def verify_collide0(n: int, m_target: int) -> VerificationReport:
    """Colliding the first m points carries Z(n,i,j) onto Z^m(n-m+1,i,j).

    Both sides are sums of the blocks of their degree scaled by
    ``rooted_factor(key, i)`` (`_z_blocks`), and `collide_first_legs` is
    linear, so the (i, j) diff is Σ_k rooted_factor(k, i)·(C_k − Z_k) over
    the collided Z(n) blocks C (`_collided_blocks`: each collided once per
    chain step, shared by every m) and the Z^m(n-m+1) blocks Z.  If the
    tables agree key by key in every degree (a missing key reads as empty),
    every diff is 0 and none is built; else each diff is one `plus` of the
    tables, and the diffs, their order and zero tests are the per-class route's.
    """
    if integer_arg("m", m_target, 1) >= integer_arg("n", n):
        raise InvalidArgument("need 1 <= m < n")
    amb = ambient0(n - m_target + 1)

    def tables(degree: int) -> tuple:  # (C, Z) of one degree
        target = _z_blocks(n - m_target + 1, m_target, degree) if degree <= dim_of(amb) else {}
        return _collided_blocks(n, degree, m_target - 1), target

    none = zero(amb)
    agree = (c is z or all(c.get(k, none) == z.get(k, none) for k in c.keys() | z.keys()) for c, z in map(tables, range(n - 1)))
    if all(agree):
        return _report_first("collide0", (n, m_target), ())

    def diff(i: int, j: int) -> Class0:
        sides = zip((1, -1), tables(_z_degree(n, i, j)))
        return zero(amb).plus((sign * rooted_factor(key, i), block) for sign, blocks in sides for key, block in blocks.items())

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


def verify_ei_pushforward(n: int, I, i: int) -> VerificationReport:
    """E_I^i(D) = γ_* Dec^{i,m}(D), termwise per D-coefficient."""
    I = coda_members(I)
    m = len(I)
    if not I or not I <= set(range(1, integer_arg("n", n))) or m > n - 2:
        raise InvalidArgument("need a non-empty I inside 1..n-1 with |I| <= n-2")
    integer_arg("i", i, 1)
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
    out._add(top, make_decoration(leg_exp={H0: 1}), -((n - 1) * n * (n - 1) // 2))
    for r in range(2, n):
        coeff = (n - 1) * r * (r - 1) // 2
        for M in itertools.combinations(range(1, n + 1), r):
            t, _ = build_tree([sorted(amb - set(M), key=str), sorted(M)], [(0, 1)])
            out._add(t, make_decoration(), coeff)
    return out


def verify_closed_forms(n: int) -> VerificationReport:
    """Termwise closed form of Z(n,n-1,1), its vanishing, and the j-recursion."""
    integer_arg("n", n, 3)
    z = z_cycle(n, n - 1, 1)
    if z != closed_form_z_top(n):
        return VerificationReport("closed_forms", (n,), False, "termwise closed form")
    # its vanishing, then the j-recursion
    j_recursion = (
        (
            (j,),
            z_cycle(n, n - 1, j).plus(
                [(-Fraction(n - 1, n - 2), z_cycle(n, n - 2, j - 1)), (1 - n, z_cycle(n, n - 1, j - 1).mul_psi(H0))]
            ),
        )
        for j in range(2, n - 1)
    )
    return _report_first("closed_forms", (n,), itertools.chain([((), z)], j_recursion))
