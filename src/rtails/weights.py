"""Weightings of decorated trees and their coefficient systems.

A weighting assigns a positive integer to every echelon index of a decorated
tree: heads carry weakly decreasing chains bounded by capacity - 1, tails
carry strictly increasing chains below the top value of their mate head, and
weighted legs carry strictly increasing chains below the leg weight.  The
coefficient of a decorated tree is the sum of the products of all values.

Three contexts share the machinery, and the inputs name the one in use:

* plain: a rational-tails graph (genus root), optional leg multiplicities;
* i-coda: a rooted rational tree given I, restricted to decorated codas,
  with the top value at h0 pinned to i, the head over the coda pinned to
  |I| and path heads capped one lower;
* i-rooted: any other rooted rational tree, the top value at h0 pinned to
  i, leg 1 weighted m.

The chains attached to different edges never share a variable, so a
context's layout is a plain list of independent blocks, every cap and pinned
top already applied:

* edge blocks ``(head, tail, cap, d_head, d_tail, top)``: the head chain
  ``w0 >= ... >= w_{d_head}`` with ``w0 <= cap`` (``w0 = top`` unless top is
  None) and the mate tail's strict chain below ``w0``; h0's block has no
  tail and its top is i;
* leg blocks ``(label, bound, d)``: a strict chain of length d in 1..bound.

`_layout` builds the layout of every context, refuses a parameter that its
context does not read, and applies i in one place, `_i_blocks`.  `_evaluate`
reads no i and knows no context: the DP multiplies the block sums, and the
brute oracle lists every weighting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Mapping, Optional

from .trees import (
    H0,
    Decoration,
    InvalidArgument,
    Tree,
    beyond_legs,
    capacity,
    child_edges_of,
    coda_members,
    coda_path,
    integer_arg,
)


@dataclass(frozen=True)
class CoeffReport:
    coefficient: int
    weighting_count: int


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


def _tops(cap: int, top: Optional[int]) -> range:
    """The values of a head's ``w0``: 1..cap, or ``top`` alone when it pins
    ``w0`` (nothing when it lies outside 1..cap)."""
    lo, hi = (1, cap) if top is None else (max(top, 1), min(top, cap))
    return range(lo, hi + 1)


def _edge_block(cap: int, d_head: int, d_tail: int, top: Optional[int]) -> tuple:
    """Sum and count over one edge block's coupled chains."""
    total = count = 0
    for w0 in _tops(cap, top):
        total += w0 * weak_chain_sum(d_head, w0) * strict_chain_sum(d_tail, w0 - 1)
        count += weak_chain_count(d_head, w0) * strict_chain_count(d_tail, w0 - 1)
    return total, count


def _chains_weak(d: int, top: int):
    for vals in itertools.combinations_with_replacement(range(1, top + 1), d):
        yield tuple(reversed(vals))


def _chains_strict(d: int, top: int):
    yield from itertools.combinations(range(1, top + 1), d)


def _listed(block):
    """The weightings of one block, as dicts keyed by echelon index (h, e)."""
    if len(block) == 3:
        label, bound, d = block
        for chain in _chains_strict(d, bound):
            yield {(label, e + 1): v for e, v in enumerate(chain)}
        return
    head, tail, cap, d_head, d_tail, top = block
    for w0 in _tops(cap, top):
        for hc in _chains_weak(d_head, w0):
            for tc in _chains_strict(d_tail, w0 - 1):
                o = {(head, e): v for e, v in enumerate((w0,) + hc)}
                o.update({(tail, e + 1): v for e, v in enumerate(tc)})
                yield o


def _weightings(layout) -> list:
    """Every weighting of a layout: one choice per block."""
    out = [{}]
    for block in layout:
        options = list(_listed(block))
        out = [w | o for w in out for o in options]
    return out


def weight_product(w: Mapping) -> int:
    return prod(w.values())


def _evaluate(layout, method: str) -> tuple:
    """(weighting-product sum, weighting count) of a layout, by the DP (the
    product of the block sums) or by listing every weighting."""
    if method == "dp":
        total = count = 1
        for block in layout:
            if len(block) == 3:
                _, bound, d = block
                t, c = strict_chain_sum(d, bound), strict_chain_count(d, bound)
            else:
                t, c = _edge_block(*block[2:])
            total *= t
            count *= c
        return total, count
    if method == "brute":
        ws = _weightings(layout)
        return sum(map(weight_product, ws)), len(ws)
    raise InvalidArgument(f"unknown method {method!r}: expected 'dp' or 'brute'")


# ---------------------------------------------------------------------------
# layouts


def _capacities(tree: Tree, mults: Optional[Mapping]) -> tuple:
    """`trees.capacity` - 1 of every edge head in edge order, with the legs
    weighted by ``mults``, which `_layout` or `_rooted` has checked."""
    weights = mults or {}
    return tuple(sum(weights.get(l, 1) for l in beyond_legs(tree, eid)) - 1 for eid in range(tree.num_edges()))


@lru_cache(maxsize=None)
def _rooted_frame(tree: Tree, m: int) -> tuple:
    """What a rooted tree's layout reads of the tree, once per tree and m:
    (`_capacities` and capacity - 1 of h0, with leg 1 weighted m, and the
    edge Z^t caps at i).  That edge is the one child edge of a root vertex
    that carries exactly h0 and the last leg n; None on every other tree."""
    cap0 = capacity(tree, H0, {1: m}) - 1
    n = sum(map(len, tree.legs)) - 1
    kids = child_edges_of(tree, 0)
    cut = kids[0] if len(kids) == 1 and set(tree.legs[0]) == {H0, n} else None
    return _capacities(tree, {1: m}), cap0, cut


def _blocks(dec: Decoration, edge_caps, mults: Optional[Mapping] = None, tops: Optional[Mapping] = None, skip=None) -> list:
    """The edge blocks of every edge but ``skip``, capped by ``edge_caps`` and
    pinned by ``tops``, then the leg blocks of every decorated leg but h0,
    bounded by its weight in ``mults`` minus one."""
    half = dec.half_dict()
    tops, mults = tops or {}, mults or {}
    blocks = [
        ((eid, 1), (eid, 0), cap, half.get((eid, 1), 0), half.get((eid, 0), 0), tops.get(eid))
        for eid, cap in enumerate(edge_caps)
        if eid != skip
    ]
    blocks += [(l, mults.get(l, 1) - 1, e) for l, e in dec.leg if l != H0 and e]
    return blocks


def _rooted(tree: Tree, dec: Decoration, m: int) -> tuple:
    """The i-rooted layout's blocks that do not read i, the `rooted_split`
    key of those that do, and the edge that key names; m is checked before
    the frame's cache is read."""
    caps, cap0, cut = _rooted_frame(tree, integer_arg("m", m, 1))
    edge = None if cut is None else (caps[cut], dec.half_exp((cut, 1)), dec.half_exp((cut, 0)))
    return _blocks(dec, caps, {1: m}, skip=cut), (dec.leg_exp(H0), cap0, edge), cut


def _coda(tree: Tree, dec: Decoration, I: frozenset) -> tuple:
    """The i-coda layout's blocks that do not read i, the key of those that
    do, and the second pin on h0's top (|I| on a one-vertex coda, else None).

    Raises when (tree, dec) is not a decorated coda for I.
    """
    caps, cap0, _ = _rooted_frame(tree, 1)
    if not I:
        raise InvalidArgument("I must be non-empty")
    labels = set(tree.all_legs()) - {H0}
    n = len(labels)
    if labels != set(range(1, n + 1)) or not I <= (labels - {n}):
        raise InvalidArgument("coda context expects legs 1..n and I inside 1..n-1")
    coda = coda_path(tree, n)
    if coda is None or coda[0] != I:
        raise InvalidArgument(f"not a coda for I = {sorted(I)}")
    path = coda[1]
    if not path:
        # one-vertex coda (I = {1..n-1}): only with the trivial decoration;
        # h0 plays the part of the coda head, so its top is pinned to |I| too
        if dec.degree() != 0:
            raise InvalidArgument("the one-vertex coda carries no decoration")
        return [], (0, cap0, None), len(I)
    coda_edge = path[-1]
    if dec.half_exp((coda_edge, 1)):
        raise InvalidArgument("coda head must be undecorated")
    # the coda head is pinned to |I|; its predecessors (h0 and the path heads
    # above the coda) are capped one below their capacity
    above = set(path[:-1])
    caps = [cap - (eid in above) for eid, cap in enumerate(caps)]
    return _blocks(dec, caps, tops={coda_edge: len(I)}), (dec.leg_exp(H0), cap0 - 1, None), None


def _i_blocks(key: tuple, i: int, truncated: bool = False, eid=None, pin: Optional[int] = None) -> list:
    """The blocks that read i, from a `rooted_split` key (d0, cap0, edge).

    h0's block is a weak chain of length d0 below its top, which is pinned
    to i (and to ``pin`` as well, when given) and gated by cap0.  ``edge`` =
    (cap, d_head, d_tail), if any, is one more edge block, the one labelled
    ``eid``, which Z^t (``truncated``) caps at i.
    """
    d0, cap0, edge = key
    blocks = [(H0, None, cap0 if pin in (None, i) else 0, d0, 0, i)]
    if edge is not None:
        cap, d_head, d_tail = edge
        blocks.append(((eid, 1), (eid, 0), min(cap, i) if truncated else cap, d_head, d_tail, None))
    return blocks


def _layout(tree: Tree, dec: Decoration, *, i=None, m=None, I=None, mults=None, truncated: bool = False) -> list:
    """The finished blocks of (tree, dec) in the context that the inputs name.

    A rational-tails graph is plain and reads ``mults``; a rooted tree is
    i-coda when ``I`` is given, and reads ``i`` and ``I``; any other rooted
    tree is i-rooted, and reads ``i``, ``m`` (default 1) and ``truncated``.
    A parameter that is given (not None, or True for ``truncated``) but not
    read is refused, and so is an i or a leg weight that is not an integer
    >= 1, a weight on no leg of the graph, and a bad ``I`` (`coda_members`).
    """
    if tree.rt:
        context, read = "plain", {"mults"}
    elif I is not None:
        context, read = "i-coda", {"i", "I"}
    else:
        context, read = "i-rooted", {"i", "m", "truncated"}
    for name, value in (("i", i), ("m", m), ("I", I), ("mults", mults), ("truncated", truncated or None)):
        if value is not None and name not in read:
            raise InvalidArgument(f"{name} is not read by the {context} coefficient")
    if context == "plain":
        legs = set().union(*tree.legs)
        for label, weight in (mults or {}).items():
            if label not in legs:
                raise InvalidArgument(f"leg weights go on legs of the graph, not {weight!r} on {label!r}")
            integer_arg(f"the weight of leg {label!r}", weight, 1)
        return _blocks(dec, _capacities(tree, mults), mults)
    if i is None:
        raise InvalidArgument(f"the {context} coefficient needs i")
    integer_arg("i", i, 1)
    if context == "i-rooted":
        blocks, key, eid = _rooted(tree, dec, 1 if m is None else m)
        return blocks + _i_blocks(key, i, truncated, eid)
    blocks, key, pin = _coda(tree, dec, coda_members(I))
    return blocks + _i_blocks(key, i, pin=pin)


# ---------------------------------------------------------------------------
# public contexts


def enumerate_weightings(tree: Tree, dec: Decoration, **params) -> tuple:
    """The complete finite set of weightings; ``params`` as for `coefficient`."""
    return tuple(_weightings(_layout(tree, dec, **params)))


def coeff_c(tree: Tree, dec: Decoration, mults: Optional[Mapping] = None, method: str = "dp") -> int:
    """c_{Γ,ψ}: the weighting-product sum for a rational-tails graph."""
    return _evaluate(_layout(tree, dec, mults=mults), method)[0]


def coeff_c_im(tree: Tree, dec: Decoration, i: int, m: int, method: str = "dp") -> int:
    """c^{i,m}_{T,ψ} for a rooted rational tree; 0 outside the nonempty range."""
    return _evaluate(_layout(tree, dec, i=i, m=m), method)[0]


def coeff_c_im_truncated(tree: Tree, dec: Decoration, i: int, m: int = 1, method: str = "dp") -> int:
    """The truncated-cycle variant of c^{i,m}: when h0, the leg n, and a tail
    share a trivalent root vertex, only weightings whose subtree head top is
    <= i are counted."""
    return _evaluate(_layout(tree, dec, i=i, m=m, truncated=True), method)[0]


def rooted_split(tree: Tree, dec: Decoration, m: int = 1) -> tuple:
    """c^{i,m}_{T,ψ} split as ``free * rooted_factor(key, i, truncated)``.

    ``free`` is the product of the blocks that do not read i: every edge but
    the root edge Z^t caps, and the legs.  ``key`` is what the rest reads:
    the h0 ψ-exponent d0, the h0 cap cap0, and that root edge's
    (cap, d_head, d_tail), or None.
    """
    blocks, key, _ = _rooted(tree, dec, m)
    return _evaluate(blocks, "dp")[0], key


def rooted_factor(key: tuple, i: int, truncated: bool = False) -> int:
    """The half of c^{i,m} that reads i, for a `rooted_split` key; with
    ``truncated`` the key's root edge is capped at i, as in Z^t."""
    return _evaluate(_i_blocks(key, integer_arg("i", i, 1), truncated), "dp")[0]


def coeff_d(tree: Tree, dec: Decoration, i: int, I, method: str = "dp") -> int:
    """d^i_{T,ψ} for a decorated coda: the weighting sum divided by |I|."""
    return coefficient(tree, dec, i=i, I=I, method=method).coefficient


def coefficient(tree: Tree, dec: Decoration, *, method: str = "dp", **params) -> CoeffReport:
    """c_{Γ,ψ}, c^{i,m} or d^i, whichever ``params`` (i, m, I, mults,
    truncated; see `_layout`) name, with its weighting count, by the DP or by
    listing every weighting.  d^i is the coda weighting sum divided by |I|,
    which leaves an integer, so every coefficient is an `int`.  I is read
    once, so any iterable serves."""
    I = params.get("I")
    if I is not None:
        I = params["I"] = coda_members(I)
    total, count = _evaluate(_layout(tree, dec, **params), method)
    coeff, rest = divmod(total, 1 if I is None else len(I))
    if rest:
        raise ArithmeticError(f"d^i is not an integer: {total}/{len(I)}")
    return CoeffReport(coeff, count)
