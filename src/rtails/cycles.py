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
from typing import Optional

from .trees import (
    H0,
    InvalidArgument,
    build_tree,
    coda_path,
    decorations_of_degree,
    enumerate_trees0,
    make_decoration,
)
from .strata0 import (
    Class0,
    collide,
    dim_of,
    glue_push_gamma,
    glue_push_sigma0,
    pullback_forget,
    relabel_class,
    zero,
    zero_witness,
)
from .weights import coeff_c_im, coeff_c_im_truncated, coeff_d, rooted_factor, rooted_split


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


def _report(identity: str, params: tuple, diff: Class0) -> VerificationReport:
    w = zero_witness(diff)
    return VerificationReport(identity, params, w is None, w)


def ambient0(n: int) -> frozenset:
    return frozenset(range(1, n + 1)) | {H0}


_z_cache: dict = {}


def z_cycle(n: int, i: int, j: int, m: int = 1) -> Class0:
    """The degree-(n+m-2+j-i) cycle of the rooted D-polynomial."""
    if n < 2 or i < 1 or m < 1:
        raise InvalidArgument("z_cycle needs n >= 2, i >= 1, m >= 1")
    key = (n, i, j, m, False)
    if key not in _z_cache:
        _z_cache[key] = _combine_blocks(n, i, j, m, truncated=False)
    return _z_cache[key]


def z_truncated(n: int, i: int, j: int) -> Class0:
    """Z^t: the same sum restricted by the truncation property at the root."""
    key = (n, i, j, 1, True)
    if key not in _z_cache:
        _z_cache[key] = _combine_blocks(n, i, j, 1, truncated=True)
    return _z_cache[key]


def _combine_blocks(n: int, i: int, j: int, m: int, truncated: bool) -> Class0:
    """Z or Z^t as the sum of the shared blocks of its degree, each scaled by
    the half of the coefficient that reads i; frozen, since it is cached."""
    out = zero(ambient0(n))
    degree = n + m - 2 + j - i
    if 0 <= degree <= dim_of(out.ambient):
        for key, block in _z_blocks(n, m, degree).items():
            factor = rooted_factor(key, i, truncated)
            if factor:
                # every term lives in one block only, so nothing cancels
                out.terms.update(block.scale(factor).terms)
    return out.freeze()


_block_cache: dict = {}


def _z_blocks(n: int, m: int, degree: int) -> dict:
    """The support of Z^m(n, ·, ·) in one degree, grouped for every (i, j).

    Each (tree, decoration) is enumerated once and carries its sign times the
    i-free half of its coefficient (`weights.rooted_split`); the terms are
    grouped by the key that the half reading i depends on, one frozen
    `Class0` per key.  Z and Z^t of this degree share the blocks.
    """
    cache_key = (n, m, degree)
    if cache_key not in _block_cache:
        amb = ambient0(n)
        blocks: dict = {}
        for tree in enumerate_trees0(n):
            psi_budget = degree - tree.num_edges()
            if psi_budget < 0:
                continue
            sign = (-1) ** (1 + tree.num_edges())
            for dec in decorations_of_degree(tree, psi_budget, leg_bounds={1: m}):
                free, key = rooted_split(tree, dec, m)
                if free:
                    if key not in blocks:
                        blocks[key] = zero(amb)
                    blocks[key]._add(tree, dec, Fraction(sign * free))
        _block_cache[cache_key] = {key: block.freeze() for key, block in blocks.items()}
    return _block_cache[cache_key]


def _assemble_z(n: int, i: int, j: int, m: int, truncated: bool) -> Class0:
    """Z or Z^t term by term, one coefficient per (tree, decoration): the
    oracle of the grouped route."""
    amb = ambient0(n)
    degree = n + m - 2 + j - i
    out = zero(amb)
    if degree < 0 or degree > dim_of(amb):
        return out
    for tree in enumerate_trees0(n):
        psi_budget = degree - tree.num_edges()
        if psi_budget < 0:
            continue
        sign = (-1) ** (1 + tree.num_edges())
        for dec in decorations_of_degree(tree, psi_budget, leg_bounds={1: m}):
            if truncated:
                c = coeff_c_im_truncated(tree, dec, i, m)
            else:
                c = coeff_c_im(tree, dec, i, m)
            if c:
                out._add(tree, dec, Fraction(sign * c))
    return out


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


def e_cycle(n: int, I, i: int, j: int) -> Class0:
    """E_I(i,j): the coda cycle of degree n-1+j-i."""
    I = frozenset(I)
    if not I or not I <= set(range(1, n)):
        raise InvalidArgument("I must be a non-empty subset of 1..n-1")
    amb = ambient0(n)
    degree = n - 1 + j - i
    out = zero(amb)
    if degree < 0 or degree > dim_of(amb):
        return out
    for tree in enumerate_trees0(n):
        path = coda_path(tree, n, I)
        psi_budget = degree - tree.num_edges()
        # the one-vertex coda (empty path) carries no ψ
        if path is None or psi_budget < 0 or (not path and psi_budget):
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
    return _report(identity, (n, i, j), diff)


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
    return _report("dect", (n, i, j), diff)


def verify_decrec(n: int, i: int) -> VerificationReport:
    """The D-polynomial recursion, checked coefficientwise in D^{-1}."""
    if n < 3 or i < 1:
        raise InvalidArgument("verify_decrec needs n >= 3, i >= 1")
    for j in range(i - n + 1, i):
        diff = _plus_sigma0_terms(_recursion_lhs(n, i, j) - z_cycle(n, i, j), n, i, j, -i)
        w = zero_witness(diff)
        if w is not None:
            return VerificationReport("decrec", (n, i), False, (j, w))
    return VerificationReport("decrec", (n, i), True, None)


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
    """is_zero for Z(n,i,j), or for Z^t(n,i,j) when ``truncated``."""
    if truncated:
        return _report("vanishing_zt", (n, i, j), z_truncated(n, i, j))
    return _report("vanishing_z", (n, i, j), z_cycle(n, i, j))


def collide_first_legs(x: Class0, steps: int) -> Class0:
    """Collide legs 1 and 2, relabel down, repeated ``steps`` times."""
    for _ in range(steps):
        x = collide(x, 1, 2)
        mapping = {k: k - 1 for k in sorted(l for l in x.ambient if isinstance(l, int) and l >= 3)}
        x = relabel_class(x, mapping)
    return x


def verify_collide0(n: int, m_target: int) -> VerificationReport:
    """Colliding the first m points carries Z(n,i,j) onto Z^m(n-m+1,i,j)."""
    if not 1 <= m_target < n:
        raise InvalidArgument("need 1 <= m < n")
    n_small = n - m_target + 1
    for i in range(1, n):
        for j in range(i - n + 1, i):
            collided = collide_first_legs(z_cycle(n, i, j), m_target - 1)
            diff = collided - z_cycle(n_small, i, j, m_target)
            w = zero_witness(diff)
            if w is not None:
                return VerificationReport("collide0", (n, m_target), False, (i, j, w))
    return VerificationReport("collide0", (n, m_target), True, None)


def verify_ei_pushforward(n: int, I, i: int) -> VerificationReport:
    """E_I^i(D) = γ_* Dec^{i,m}(D), termwise per D-coefficient."""
    I = frozenset(I)
    m = len(I)
    if not I or not I <= set(range(1, n)) or m > n - 2:
        raise InvalidArgument("need a non-empty I inside 1..n-1 with |I| <= n-2")
    # degrees outside [0, dim] vanish on both sides, so this j-range is complete
    for j in range(i - n + 1, i):
        lhs = e_cycle(n, I, i, j)
        rhs = glue_push_gamma(z_cycle(n - m, i, j, m), I, n)
        if lhs == rhs:
            continue
        w = zero_witness(lhs - rhs)
        if w is not None:
            return VerificationReport("ei_pushforward", (n, tuple(sorted(I)), i), False, (j, w))
    return VerificationReport("ei_pushforward", (n, tuple(sorted(I)), i), True, None)


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
    w = zero_witness(z)
    if w is not None:
        return VerificationReport("closed_forms", (n,), False, w)
    for j in range(2, n - 1):
        diff = (
            z_cycle(n, n - 1, j)
            - z_cycle(n, n - 2, j - 1).scale(Fraction(n - 1, n - 2))
            - z_cycle(n, n - 1, j - 1).mul_psi(H0).scale(n - 1)
        )
        w = zero_witness(diff)
        if w is not None:
            return VerificationReport("closed_forms", (n,), False, (j, w))
    return VerificationReport("closed_forms", (n,), True, None)
