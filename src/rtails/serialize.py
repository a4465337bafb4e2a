"""JSON and latex-style text renderings of trees and classes.

The JSON tree schema lists vertices with genus (0 or "g") and legs, edges as
[head_vertex, tail_vertex] pairs, and decoration exponents keyed "E+"/"E-"
(edge index, head/tail side) and by leg label.  Classes wrap terms with exact
"p/q" coefficient strings.  Emission is canonical: parse(emit(x)) == x and two
emissions of equal objects are byte-identical.  Reading malformed input
(a missing key, a value of the wrong shape, a ψ-exponent that is not a
non-negative integer, a coefficient that is not a rational) raises
`InvalidArgument`.

The latex emitter renders graphs as adjacency lists with exponents, not
pictures: vertices with their legs, edges parent->child, ψ-exponents by slot,
and the factored root monomial for rational-tails terms.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .trees import H0, Decoration, InvalidArgument, Tree, build_tree, label_key
from .strata0 import Class0
from .rtclasses import RtClass


def _label_out(l):
    return l if isinstance(l, str) else int(l)


def _label_in(l):
    if isinstance(l, int):
        return l
    if isinstance(l, str) and l.lstrip("-").isdigit():
        return int(l)
    return l


def _reads_json(fn):
    """Report any failure to read a JSON blob as ``InvalidArgument``."""

    @functools.wraps(fn)
    def read(blob):
        try:
            return fn(blob)
        except InvalidArgument:
            raise
        except (KeyError, IndexError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidArgument(f"malformed JSON ({fn.__name__}): {exc!r}") from exc

    return read


def _exponent(e) -> int:
    if isinstance(e, bool) or not isinstance(e, int):
        raise InvalidArgument(f"exponent {e!r} is not an integer")
    if e < 0:
        raise InvalidArgument(f"negative exponent {e}")
    return e


def tree_to_json(tree: Tree, dec: Decoration = Decoration()) -> dict:
    vertices = []
    for v, legs in enumerate(tree.legs):
        genus = "g" if (tree.rt and v == 0) else 0
        vertices.append({"genus": genus, "legs": [_label_out(l) for l in legs]})
    edges = [[child, parent] for parent, child in tree.edges]
    exp_half = {}
    for (eid, side), e in dec.half:
        exp_half[f"{eid}{'+' if side == 1 else '-'}"] = e
    exp_leg = {str(_label_out(l)): e for l, e in dec.leg}
    return {"vertices": vertices, "edges": edges, "exp_half": exp_half, "exp_leg": exp_leg}


@_reads_json
def tree_from_json(blob: dict):
    vertices = blob["vertices"]
    legs_by_vertex = [[_label_in(l) for l in v.get("legs", [])] for v in vertices]
    rt_root = None
    for idx, v in enumerate(vertices):
        if v.get("genus", 0) != 0:
            if rt_root is not None:
                raise InvalidArgument("at most one positive-genus vertex")
            rt_root = idx
    pairs = []
    for head, tail in blob.get("edges", []):
        pairs.append((tail, head))
    half_exp = {}
    for key, e in blob.get("exp_half", {}).items():
        eid, sign = int(key[:-1]), key[-1]
        # JSON side refers to the pair as given: side 0 = tail, 1 = head
        if sign not in ("+", "-"):
            raise InvalidArgument(f"half-edge key {key!r} does not end in + or -")
        half_exp[(eid, 1 if sign == "+" else 0)] = _exponent(e)
    leg_exp = {_label_in(l): _exponent(e) for l, e in blob.get("exp_leg", {}).items()}
    return build_tree(legs_by_vertex, pairs, rt_root=rt_root, half_exp=half_exp, leg_exp=leg_exp)


def _term_to_json(key: tuple, coeff: Fraction) -> dict:
    """One term of a `Class0` (key: tree, decoration) or an `RtClass` (key: graph,
    decoration, factored monomial)."""
    tree, dec, *fact = key
    blob = tree_to_json(tree, dec)
    decoration = {"exp_half": blob.pop("exp_half"), "exp_leg": blob.pop("exp_leg")}
    term = {"tree": blob, "decoration": decoration, "coeff": str(coeff)}
    if fact:
        term["factored"] = _fact_out(*fact)
    return term


def _term_from_json(item: dict, factored: bool) -> tuple:
    """The ``_add`` arguments of one term, its factored monomial included when ``factored``."""
    tree_blob = dict(item["tree"])
    if "decoration" in item:
        tree_blob["exp_half"] = item["decoration"].get("exp_half", {})
        tree_blob["exp_leg"] = item["decoration"].get("exp_leg", {})
    tree, dec = tree_from_json(tree_blob)
    fact = (_fact_in(item.get("factored", {})),) if factored else ()
    return (tree, dec, *fact, Fraction(item["coeff"]))


def class0_to_json(x: Class0) -> dict:
    terms = [_term_to_json(key, coeff) for key, coeff in x.items()]
    ambient = sorted((_label_out(l) for l in x.ambient), key=lambda l: label_key(_label_in(l)))
    return {"ambient": [str(l) for l in ambient], "terms": terms}


@_reads_json
def class0_from_json(blob: dict) -> Class0:
    out = Class0(frozenset(_label_in(l) for l in blob["ambient"]))
    for item in blob["terms"]:
        out._add(*_term_from_json(item, factored=False))
    return out


def _fact_out(fact) -> dict:
    out = {}
    for (kind, payload), e in fact:
        if kind == "leg":
            out[f"leg:{_label_out(payload)}"] = e
        else:
            out["tail:" + ",".join(str(_label_out(l)) for l in payload)] = e
    return out


def _fact_in(blob: dict) -> dict:
    fact = {}
    for key, e in blob.items():
        kind, payload = key.split(":", 1)
        if kind == "leg":
            fact[("leg", _label_in(payload))] = _exponent(e)
        else:
            fact[("tail", tuple(sorted((_label_in(l) for l in payload.split(",")), key=label_key)))] = _exponent(e)
    return fact


def rtclass_to_json(x: RtClass, k="k") -> dict:
    terms = [_term_to_json(key, coeff) for key, coeff in x.items()]
    return {"k": k, "legs": sorted(_label_out(l) for l in x.ambient), "terms": terms}


@_reads_json
def rtclass_from_json(blob: dict) -> RtClass:
    out = RtClass(frozenset(_label_in(l) for l in blob["legs"]))
    for item in blob["terms"]:
        out._add(*_term_from_json(item, factored=True))
    return out


def dumps(blob: dict) -> str:
    return json.dumps(blob, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# latex-style text


def tree_to_latex(tree: Tree, dec: Decoration = Decoration()) -> str:
    verts = []
    for v, legs in enumerate(tree.legs):
        tag = "g" if (tree.rt and v == 0) else f"v_{v}"
        inner = ",".join(str(_label_out(l)) for l in legs)
        verts.append(f"{tag}\\{{{inner}\\}}")
    edges = ",".join(f"e_{i}:{p}\\to {c}" for i, (p, c) in enumerate(tree.edges))
    psis = []
    for (eid, side), e in dec.half:
        tag = f"\\psi_{{e_{eid}^{'+' if side == 1 else '-'}}}"
        psis.append(tag + (f"^{{{e}}}" if e > 1 else ""))
    for l, e in dec.leg:
        name = "h_0" if l == H0 else str(_label_out(l))
        psis.append(f"\\psi_{{{name}}}" + (f"^{{{e}}}" if e > 1 else ""))
    body = "[" + ";".join(verts) + (";" + edges if edges else "") + "]"
    return body + ("\\," + "".join(psis) if psis else "")


def _coeff_latex(c: Fraction, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    s = "" if mag == 1 else (str(mag.numerator) if mag.denominator == 1 else f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}")
    return f"{sign}{s}"


def class0_to_latex(x: Class0) -> str:
    if not x.terms:
        return "0"
    bits = []
    for idx, ((tree, dec), coeff) in enumerate(x.items()):
        bits.append(_coeff_latex(coeff, idx == 0) + "\\,\\xi_*" + tree_to_latex(tree, dec))
    return " ".join(bits)


def _fact_latex(fact, k="k") -> str:
    out = []
    for (kind, payload), e in fact:
        if kind == "leg":
            name = f"\\omega_{{{_label_out(payload)}}}"
        else:
            name = "\\omega_{(" + ",".join(str(_label_out(l)) for l in payload) + ")}"
        out.append(f"({k}\\,{name}-\\eta)" + (f"^{{{e}}}" if e != 1 else ""))
    return "".join(out)


def rtclass_to_latex(x: RtClass, k="k") -> str:
    if not x.terms:
        return "0"
    bits = []
    for idx, ((graph, dec, fact), coeff) in enumerate(x.items()):
        bits.append(
            _coeff_latex(coeff, idx == 0)
            + "\\,\\xi_*"
            + tree_to_latex(graph, dec)
            + _fact_latex(fact, k=k)
        )
    return " ".join(bits)
