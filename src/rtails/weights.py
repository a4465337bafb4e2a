"""Weightings of decorated trees and their coefficient systems.

A weighting assigns a positive integer to every echelon index of a decorated
tree: heads carry weakly decreasing chains bounded by capacity - 1, tails
carry strictly increasing chains below the top value of their mate head, and
weighted legs carry strictly increasing chains below the leg weight.  The
coefficient of a decorated tree is the sum of the products of all values.

Three contexts share the machinery:

* plain: rational-tails graphs (genus root), optional leg multiplicities;
* i-rooted: rooted rational trees, the top value at h0 pinned to i, leg 1
  weighted m;
* i-coda: the i-rooted context restricted to decorated codas, with the head
  over the coda pinned to |I| and path heads capped one lower.

The chains attached to different edges never share a variable, so the sum
factorizes into independent per-edge blocks; `coeff_dp` evaluates the product
of block sums directly, while `enumerate_weightings` is the brute oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping, Optional

from .trees import (
    H0,
    Decoration,
    InvalidArgument,
    Tree,
    capacity,
    child_edges_of,
    coda_path,
)


@dataclass(frozen=True)
class CoeffReport:
    coefficient: Fraction
    weighting_count: int
    method: str


# ---------------------------------------------------------------------------
# chain sums: S_weak(d, B) sums products of weakly decreasing chains of length
# d with values in 1..B (the complete homogeneous polynomial h_d(1..B));
# S_strict is the elementary symmetric polynomial e_d(1..B).


@lru_cache(maxsize=None)
def weak_chain_sum(d: int, top: int) -> int:
    if d == 0:
        return 1
    if top <= 0:
        return 0
    return top * weak_chain_sum(d - 1, top) + weak_chain_sum(d, top - 1)


@lru_cache(maxsize=None)
def strict_chain_sum(d: int, top: int) -> int:
    if d == 0:
        return 1
    if top < d:
        return 0
    return top * strict_chain_sum(d - 1, top - 1) + strict_chain_sum(d, top - 1)


def weak_chain_count(d: int, top: int) -> int:
    """Weakly decreasing chains of length d in 1..top: multisets of size d."""
    return comb(max(top, 0) + d - 1, d) if d else 1


def strict_chain_count(d: int, top: int) -> int:
    """Strictly increasing chains of length d in 1..top: subsets of size d."""
    return comb(max(top, 0), d)


def _edge_block(cap: int, d_head: int, d_tail: int, top_fixed: Optional[int] = None):
    """Sum and count over one edge's coupled chains.

    The head chain is ``w0 >= w1 >= ... >= w_{d_head}`` with ``w0 <= cap``;
    the mate tail chain is strict below ``w0``.  ``top_fixed`` pins ``w0``.
    """
    total = 0
    count = 0
    tops = [top_fixed] if top_fixed is not None else range(1, cap + 1)
    for w0 in tops:
        if w0 < 1 or w0 > cap:
            continue
        total += w0 * weak_chain_sum(d_head, w0) * strict_chain_sum(d_tail, w0 - 1)
        count += weak_chain_count(d_head, w0) * strict_chain_count(d_tail, w0 - 1)
    return total, count


class _Spec:
    """Per-tree chain layout shared by the brute enumerator and the DP.

    ``i_edge`` names an edge whose block the DP evaluates with the h0 block,
    as the half that reads i (see `_i_half`); the i-rooted context passes the
    root edge that Z^t caps.  ``capacities`` are `_capacities` read in advance.
    """

    def __init__(
        self,
        tree: Tree,
        dec: Decoration,
        *,
        mults: Optional[Mapping] = None,
        i: Optional[int] = None,
        head_caps: Optional[Mapping] = None,
        head_fixed: Optional[Mapping] = None,
        h0_cap: Optional[int] = None,
        i_edge: Optional[int] = None,
        capacities: Optional[tuple] = None,
    ):
        self.tree = tree
        self.dec = dec
        self.mults = dict(mults or {})
        self.i = i
        self.i_edge = i_edge
        half = dec.half_dict()
        leg = dec.leg_dict()
        self.rooted = not tree.rt
        if i is not None and not self.rooted:
            raise InvalidArgument("i only applies to rooted rational trees")

        caps = dict(head_caps or {})
        fixed = dict(head_fixed or {})
        edge_caps, cap0 = _capacities(tree, self.mults) if capacities is None else capacities

        # edge blocks: (cap, d_head, d_tail, fixed_top)
        self.edges = []
        for eid, cap in enumerate(edge_caps):
            if eid in caps:
                cap = min(cap, caps[eid])
            self.edges.append((cap, half.get((eid, 1), 0), half.get((eid, 0), 0), fixed.get(eid)))

        # h0 block: (cap0, d_h0), the top pinned to i and a weak chain of length d_h0 below it
        self.h0 = None
        if self.rooted:
            if h0_cap is not None:
                cap0 = min(cap0, h0_cap)
            self.h0 = (cap0, leg.get(H0, 0))

        # leg blocks: strict chains below the leg weight (0 when too long)
        self.legs = []
        for l, e in leg.items():
            if l == H0 or not e:
                continue
            self.legs.append((l, self.mults.get(l, 1) - 1, e))
        self.legs.sort(key=lambda t: str(t[0]))

    def i_key(self) -> tuple:
        """What the half that reads i reads: (d_h0, cap0, and the
        (cap, d_head, d_tail) of ``i_edge``, or None)."""
        cap0, d0 = self.h0
        edge = None if self.i_edge is None else self.edges[self.i_edge][:3]
        return d0, cap0, edge


def _capacities(tree: Tree, mults: Mapping) -> tuple:
    """(capacity - 1 of every edge head in edge order, that of h0 or None),
    with the legs weighted by ``mults``."""
    edge_caps = tuple(capacity(tree, eid, mults) - 1 for eid in range(tree.num_edges()))
    return edge_caps, None if tree.rt else capacity(tree, H0, mults) - 1


@lru_cache(maxsize=None)
def _rooted_capacities(tree: Tree, m: int) -> tuple:
    """`_capacities` with leg 1 weighted m, read once per tree and m."""
    return _capacities(tree, {1: m})


def _chains_weak(d: int, top: int):
    for vals in itertools.combinations_with_replacement(range(1, top + 1), d):
        yield tuple(reversed(vals))


def _chains_strict(d: int, top: int):
    yield from itertools.combinations(range(1, top + 1), d)


def _enumerate(spec: _Spec):
    """All weightings as dicts keyed by echelon index (h, e)."""
    tree, dec = spec.tree, spec.dec
    out = [{}]

    def extend(options) -> None:
        nonlocal out
        options = list(options)
        out = [w | o for w in out for o in options]

    if spec.h0 is not None:
        (cap, d0), i = spec.h0, spec.i
        options = []
        if 1 <= i <= cap:
            for chain in _chains_weak(d0, i):
                options.append({(H0, e): v for e, v in enumerate((i,) + chain)})
        extend(options)

    for eid, (cap, d_head, d_tail, fixed) in enumerate(spec.edges):
        options = []
        tops = [fixed] if fixed is not None else range(1, cap + 1)
        for w0 in tops:
            if w0 is None or not (1 <= w0 <= cap):
                continue
            for hc in _chains_weak(d_head, w0):
                for tc in _chains_strict(d_tail, w0 - 1):
                    o = {((eid, 1), e): v for e, v in enumerate((w0,) + hc)}
                    o.update({((eid, 0), e + 1): v for e, v in enumerate(tc)})
                    options.append(o)
        extend(options)

    for l, bound, d in spec.legs:
        extend(
            {(l, e + 1): v for e, v in enumerate(chain)}
            for chain in _chains_strict(d, bound)
        )
    return out


def _i_half(key: tuple, i: int, cap: Optional[int] = None) -> tuple:
    """Sum and count of the blocks that read i, from ``key`` = `_Spec.i_key()`.

    The h0 block is i * h_{d0}(1..i), gated by 1 <= i <= cap0; the edge the
    key names (if any) is one more edge block, its cap lowered to ``cap``.
    """
    d0, cap0, edge = key
    if not 1 <= i <= cap0:
        return 0, 0
    total, count = i * weak_chain_sum(d0, i), weak_chain_count(d0, i)
    if edge is not None:
        e_cap, d_head, d_tail = edge
        t, c = _edge_block(e_cap if cap is None else min(e_cap, cap), d_head, d_tail)
        total *= t
        count *= c
    return total, count


def _free_half(spec: _Spec) -> tuple:
    """Sum and count of the blocks that do not read i: every edge but
    ``spec.i_edge``, and the legs."""
    total, count = 1, 1
    for eid, (cap, d_head, d_tail, fixed) in enumerate(spec.edges):
        if eid != spec.i_edge:
            t, c = _edge_block(cap, d_head, d_tail, fixed)
            total *= t
            count *= c
    for _, bound, d in spec.legs:
        total *= strict_chain_sum(d, bound)
        count *= strict_chain_count(d, bound)
    return total, count


def _dp(spec: _Spec):
    total, count = _free_half(spec)
    if spec.h0 is not None:
        t, c = _i_half(spec.i_key(), spec.i)
        total *= t
        count *= c
    return total, count


def weight_product(w: Mapping) -> int:
    prod = 1
    for v in w.values():
        prod *= v
    return prod


# ---------------------------------------------------------------------------
# public contexts


_EMPTY = object()


def _coda_spec(tree: Tree, dec: Decoration, i: int, I: frozenset):
    """Spec for the coda context, _EMPTY when the weighting set is empty.

    Raises when (tree, dec) is not a decorated coda for I.
    """
    if not I:
        raise InvalidArgument("I must be non-empty")
    labels = set(tree.all_legs()) - {H0}
    n = len(labels)
    if labels != set(range(1, n + 1)) or not I <= (labels - {n}):
        raise InvalidArgument("coda context expects legs 1..n and I inside 1..n-1")
    path = coda_path(tree, n, I)
    if path is None:
        raise InvalidArgument(f"not a coda for I = {sorted(I)}")
    if not path:
        # one-vertex coda (I = {1..n-1}): only with the trivial decoration
        if dec.degree() != 0:
            raise InvalidArgument("the one-vertex coda carries no decoration")
        # h0 plays the part of the coda head: its value i must equal |I|
        return _Spec(tree, dec, i=i) if i == len(I) else _EMPTY
    coda_edge = path[-1]
    if dec.half_exp((coda_edge, 1)):
        raise InvalidArgument("coda head must be undecorated")
    # predecessors of the coda head (h0 and the path heads above the coda)
    # are capped one below their capacity
    head_fixed = {coda_edge: len(I)}
    head_caps = {eid: capacity(tree, eid) - 2 for eid in path[:-1]}
    h0_cap = capacity(tree, H0) - 2
    return _Spec(tree, dec, i=i, head_caps=head_caps, head_fixed=head_fixed, h0_cap=h0_cap)


def _spec(tree: Tree, dec: Decoration, context: str, *, i=None, m: int = 1, I=None, mults=None, head_caps=None):
    """The chain layout of a context; _EMPTY when it has no weightings."""
    if context == "plain":
        if not tree.rt:
            raise InvalidArgument("rooted context needs i")
        return _Spec(tree, dec, mults=mults)
    if context == "i-rooted":
        if i is None:
            raise InvalidArgument("i-rooted context needs i")
        return _rooted_spec(tree, dec, m, i, head_caps)
    if context == "i-coda":
        if i is None or I is None:
            raise InvalidArgument("i-coda context needs i and I")
        return _coda_spec(tree, dec, i, frozenset(I))
    raise InvalidArgument(f"unknown context {context!r}")


def _evaluate(spec, method: str) -> tuple:
    """(weighting-product sum, weighting count) by the DP, or by listing them all."""
    if spec is _EMPTY:
        return 0, 0
    if method == "dp":
        return _dp(spec)
    ws = _enumerate(spec)
    return sum(weight_product(w) for w in ws), len(ws)


def enumerate_weightings(
    tree: Tree,
    dec: Decoration,
    *,
    context: str = "plain",
    i: Optional[int] = None,
    m: int = 1,
    I=None,
    mults: Optional[Mapping] = None,
) -> tuple:
    """The complete finite set of weightings in the requested context."""
    spec = _spec(tree, dec, context, i=i, m=m, I=I, mults=mults)
    return () if spec is _EMPTY else tuple(_enumerate(spec))


def coeff_c(tree: Tree, dec: Decoration, mults: Optional[Mapping] = None, method: str = "dp") -> int:
    """c_{Γ,ψ}: the weighting-product sum for a rational-tails graph."""
    if not tree.rt:
        raise InvalidArgument("coeff_c expects a rational-tails graph")
    return _evaluate(_spec(tree, dec, "plain", mults=mults), method)[0]


def coeff_c_im(tree: Tree, dec: Decoration, i: int, m: int, method: str = "dp") -> int:
    """c^{i,m}_{T,ψ} for a rooted rational tree; 0 outside the nonempty range."""
    if tree.rt:
        raise InvalidArgument("coeff_c_im expects a rooted rational tree")
    if i < 1 or m < 1:
        raise InvalidArgument("i and m must be >= 1")
    return _coeff_rooted(tree, dec, i, m, method)


def coeff_c_im_truncated(tree: Tree, dec: Decoration, i: int, m: int = 1, method: str = "dp") -> int:
    """The truncated-cycle variant of c^{i,m}: when h0, the leg n, and a tail
    share a trivalent root vertex, only weightings whose subtree head top is
    <= i are counted."""
    return _coeff_rooted(tree, dec, i, m, method, truncated=True)


def _truncated_edge(tree: Tree) -> Optional[int]:
    """The edge Z^t caps at i: the one child edge of a root vertex that
    carries exactly h0 and the last leg n; None on every other tree."""
    n = sum(map(len, tree.legs)) - 1
    kids = child_edges_of(tree, 0)
    return kids[0] if len(kids) == 1 and set(tree.legs[0]) == {H0, n} else None


def _rooted_spec(tree: Tree, dec: Decoration, m: int, i: Optional[int] = None, head_caps=None) -> _Spec:
    """The i-rooted layout; without i it serves `rooted_split`, which never reads i."""
    if tree.rt:
        raise InvalidArgument("the i-rooted context expects a rooted rational tree")
    return _Spec(
        tree,
        dec,
        mults={1: m},
        i=i,
        head_caps=head_caps,
        i_edge=_truncated_edge(tree),
        capacities=_rooted_capacities(tree, m),
    )


def rooted_split(tree: Tree, dec: Decoration, m: int = 1) -> tuple:
    """c^{i,m}_{T,ψ} split as ``free * rooted_factor(key, i, truncated)``.

    ``free`` is the product of the blocks that do not read i: every edge but
    the root edge Z^t caps, and the legs.  ``key`` is what the rest reads:
    the h0 ψ-exponent d0, the h0 cap cap0, and that root edge's
    (cap, d_head, d_tail), or None.
    """
    spec = _rooted_spec(tree, dec, m)
    return _free_half(spec)[0], spec.i_key()


def rooted_factor(key: tuple, i: int, truncated: bool = False) -> int:
    """The half of c^{i,m} that reads i, for a `rooted_split` key; with
    ``truncated`` the key's root edge is capped at i, as in Z^t."""
    return _i_half(key, i, i if truncated else None)[0]


def _coeff_rooted(tree: Tree, dec: Decoration, i: int, m: int, method: str, truncated: bool = False) -> int:
    n = sum(map(len, tree.legs)) - 1
    if i >= n - 1 + m or dec.leg_exp(1) >= m:
        return 0
    eid = _truncated_edge(tree)
    head_caps = {eid: i} if truncated and eid is not None else None
    return _evaluate(_spec(tree, dec, "i-rooted", i=i, m=m, head_caps=head_caps), method)[0]


def coeff_d(tree: Tree, dec: Decoration, i: int, I, method: str = "dp") -> Fraction:
    """d^i_{T,ψ} for a decorated coda: the weighting sum divided by |I|."""
    I = frozenset(I)
    d = Fraction(_evaluate(_spec(tree, dec, "i-coda", i=i, I=I), method)[0], len(I))
    if d.denominator != 1:
        raise ArithmeticError(f"d^i is not an integer: {d}")
    return d


def coeff_dp(tree: Tree, dec: Decoration, *, context: str = "plain", i=None, m: int = 1, I=None, mults=None) -> CoeffReport:
    """Chain-factorized evaluation; same value as the brute sum, method tag dp."""
    total, count = _evaluate(_spec(tree, dec, context, i=i, m=m, I=I, mults=mults), "dp")
    coeff = Fraction(total)
    if context == "i-coda":
        coeff /= len(frozenset(I))
    return CoeffReport(coeff, count, "dp")
