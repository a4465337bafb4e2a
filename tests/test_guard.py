"""Every public entry refuses a size, index or exponent that is no `int`,
and a leg label that is neither an `int` (a bool is none) nor a `str`.

One guard, `trees.integer_arg`, makes the first check, and `trees.label_arg`
the second.  The signature walk covers the functions `rtails` exports,
`Class0.mul_psi` and the verifier that each `cli.TASKS` entry calls.  For
each parameter annotated ``int`` (or ``Optional[int]``) it calls the entry
with ``True``, with ``1.5`` and with its valid value as a float in that slot
(most lower bounds refuse the first two anyway), and the valid values of
`EXAMPLES` elsewhere.  It requires `InvalidArgument`, and that no
module-level cache grows: a dict of an `rtails` module, or the entries of an
`lru_cache`.  A bool would share the cache entries of 0 and 1, and a float
would miss every rule that reads it.
"""

from __future__ import annotations

import functools
import inspect
import re
import types
from typing import Optional

import pytest

import rtails
from rtails import H0, cli, cycles, rtclasses, serialize, strata0, trees, weights
from rtails.trees import InvalidArgument, build_tree, make_decoration

MODULES = (trees, weights, strata0, cycles, rtclasses, serialize, cli)
INT_ANNOTATIONS = ("int", "Optional[int]")
BAD = (True, 1.5)


def int_parameters(fn) -> list:
    return [name for name, p in inspect.signature(fn).parameters.items() if p.annotation in INT_ANNOTATIONS]


def cache_sizes(modules) -> dict:
    """``module.name`` -> size, for every module-level dict and `lru_cache` of ``modules``."""
    sizes = {}
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if hasattr(value, "cache_info"):
                sizes[f"{module.__name__}.{name}"] = value.cache_info().currsize
            elif isinstance(value, dict):
                sizes[f"{module.__name__}.{name}"] = len(value)
    return sizes


def leaks(fn, valid: dict, modules=MODULES) -> list:
    """``"parameter=value: outcome"`` for each int-annotated parameter of
    ``fn`` and each value of `BAD`, or its valid value as a float, in it,
    with ``valid`` elsewhere, that is not refused with `InvalidArgument` or
    that grows a cache of ``modules``."""
    out = []
    for name in int_parameters(fn):
        for bad in BAD + ((float(valid[name]),) if type(valid.get(name)) is int else ()):
            before = cache_sizes(modules)
            try:
                fn(**{**valid, name: bad})
                outcome = "returned"
            except InvalidArgument:
                outcome = "refused"
            except Exception as exc:
                outcome = f"raised {type(exc).__name__}"
            grown = sorted(cache for cache, size in cache_sizes(modules).items() if size != before.get(cache))
            if outcome != "refused" or grown:
                out.append(f"{name}={bad!r}: {outcome}" + "".join(f", grew {cache}" for cache in grown))
    return out


def scope() -> dict:
    """Name -> function: the exports of `rtails`, `Class0.mul_psi`, and the
    verifier that each `cli.TASKS` entry calls."""
    out = {name: f for name, f in vars(rtails).items() if not name.startswith("_") and callable(f) and not inspect.isclass(f)}
    out["Class0.mul_psi"] = strata0.Class0.mul_psi
    for entry in cli.TASKS.values():
        module, name = entry.__code__.co_names[:2]
        out[name] = getattr(getattr(cli, module), name)
    return out


def _rooted():
    return build_tree([[1, 2, 3, H0]], [])[0]


def _coda():
    return build_tree([[2, H0], [1, 3]], [(0, 1)])[0]


# entry -> its valid arguments, built when the entry is walked
EXAMPLES = {
    "Class0.mul_psi": lambda: dict(self=strata0.push_tree(_rooted()), leg=1, power=1),
    "build_tree": lambda: dict(legs_by_vertex=[[1, 2, 3]], edge_pairs=[], rt_root=0),
    "enumerate_decorations": lambda: dict(tree=_rooted(), degree_cap=1),
    "enumerate_rt_graphs": lambda: dict(n=1),
    "enumerate_trees0": lambda: dict(n=3),
    "coeff_c_im": lambda: dict(tree=_rooted(), dec=make_decoration(leg_exp={H0: 1}), i=2, m=1),
    "coeff_d": lambda: dict(tree=_coda(), dec=make_decoration(), i=1, I={1}),
    "glue_push_gamma": lambda: dict(x=rtclasses.f_class(2), I={1}, n=3),
    "glue_push_sigma0": lambda: dict(x=cycles.z_cycle(3, 2, 1), n=4),
    "dec_polynomial": lambda: dict(n=3, i=2, m=1),
    "e_cycle": lambda: dict(n=3, I={1}, i=1, j=0),
    "verify_closed_forms": lambda: dict(n=3),
    "verify_collide0": lambda: dict(n=3, m_target=1),
    "verify_decrec": lambda: dict(n=3, i=1),
    "verify_dect": lambda: dict(n=3, i=1, j=0),
    "verify_ei_pushforward": lambda: dict(n=3, I={1}, i=1),
    "verify_recursion_a": lambda: dict(n=3, i=1, j=0),
    "verify_recursion_all": lambda: dict(n=3, i=1, j=0),
    "verify_vanishing": lambda: dict(n_max=3),
    "verify_vanishing_cycle": lambda: dict(n=3, i=2, j=1),
    "z_cycle": lambda: dict(n=3, i=2, j=1, m=1),
    "z_truncated": lambda: dict(n=3, i=2, j=1),
    "e_class": lambda: dict(n=2, I={1}),
    "emit_relation": lambda: dict(g=1, n=2),
    "f_class": lambda: dict(n=1),
    "pushforward_phi": lambda: dict(x=rtclasses.f_class(1), k=1, g=1),
    "pushforward_point": lambda: dict(x=rtclasses.f_class_m((2,)), g=1),
    "verify_frec": lambda: dict(n=2),
    "verify_overdegree_drop": lambda: dict(n=1),
    "verify_logan": lambda: dict(g=2),
    "verify_heavy": lambda: dict(a=1),
}


def test_every_entry_with_an_int_parameter_has_an_example():
    assert sorted(name for name, fn in scope().items() if int_parameters(fn)) == sorted(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_an_entry_refuses_a_bool_or_a_float_before_any_cache(name):
    fn, valid = scope()[name], EXAMPLES[name]()
    fn(**valid)  # the example is valid, and its caches are warm: a refusal below is the bad slot's
    assert leaks(fn, valid) == []


def test_the_walk_catches_a_planted_leak():
    planted = types.ModuleType("planted")
    planted.table = {}

    @functools.lru_cache(maxsize=None)
    def checked_in_the_body(n: int) -> int:
        return trees.integer_arg("n", n, 1)  # a hit never reaches it

    def stores_first(n: int, label: str = "x") -> None:
        planted.table[len(planted.table)] = label
        trees.integer_arg("n", n)

    def unguarded(n: int, g: Optional[int] = None) -> range:
        return range(n)

    def guarded(n: int, label: str = "x") -> None:
        planted.table[trees.integer_arg("n", n)] = label

    planted.checked_in_the_body = checked_in_the_body
    checked_in_the_body(n=1)  # keyed as the walk calls it: by keyword, where True == 1 hits
    assert leaks(checked_in_the_body, {"n": 1}, [planted]) == ["n=True: returned", "n=1.0: returned"]
    assert leaks(stores_first, {"n": 1}, [planted]) == [
        "n=True: refused, grew planted.table",
        "n=1.5: refused, grew planted.table",
        "n=1.0: refused, grew planted.table",
    ]
    assert leaks(unguarded, {"n": 1}, [planted]) == [
        "n=True: returned",
        "n=1.5: raised TypeError",
        "n=1.0: raised TypeError",
        "g=True: returned",
        "g=1.5: returned",
    ]
    assert leaks(guarded, {"n": 1}, [planted]) == []


def test_the_probed_leaks_are_refused_before_any_cache():
    # each of these once answered a result or a TypeError
    rooted, coda, psi_h0, f1, heavy = _rooted(), _coda(), make_decoration(leg_exp={H0: 1}), rtclasses.f_class(1), rtclasses.f_class_m((2,))
    z = cycles.z_cycle(3, 2, 1)
    trees.enumerate_rt_graphs(1)
    for probe in (
        lambda: rtclasses.f_class(True),
        lambda: rtclasses.verify_logan(True),
        lambda: rtclasses.emit_relation(1.0, 2),
        lambda: rtclasses.pushforward_phi(f1, True, 1),
        lambda: trees.enumerate_rt_graphs(True),  # once the n = 1 family, cached once more
        lambda: weights.coeff_c_im(rooted, psi_h0, True, 1),
        lambda: weights.coeff_c_im(rooted, psi_h0, 1, True),
        lambda: rtclasses.e_class(3, [True]),
        lambda: trees.decorations_of_degree(rooted, 1.0),  # once ()
        lambda: cycles.verify_ei_pushforward(4, {1}, 1.5),
        lambda: cycles.verify_decrec(4.0, 1),
        lambda: cycles.verify_decrec(3, True),
        lambda: rtclasses.verify_frec(3.0),
        lambda: rtclasses.verify_frec(True),
        lambda: rtclasses.verify_overdegree_drop(2.0),
        lambda: trees.enumerate_trees0(3.0),
        lambda: trees.enumerate_decorations(rooted, 1.5),
        lambda: strata0.ambient0(2.5),
        lambda: strata0.glue_push_sigma0(z, 4.0),
        lambda: rtclasses.pushforward_point(heavy, 1.5),  # once blamed a "coefficient 1.0"
        lambda: trees.coda_path(coda, True),  # once the coda of leg 1
    ):
        before = cache_sizes(MODULES)
        with pytest.raises(InvalidArgument, match="must be an integer"):
            probe()
        assert cache_sizes(MODULES) == before


def test_a_coda_member_that_is_no_int_is_refused():
    # every coda reads legs 1..n-1, and True in set(range(1, n)) holds, so
    # e_class(3, [True]) once built a class
    coda, trivial = _coda(), make_decoration()
    for I in ([True], [1.0], (2, 1.5)):
        for refused in (
            lambda: rtclasses.e_class(3, I),
            lambda: cycles.e_cycle(3, I, 1, 0),
            lambda: trees.coda_mapping(3, I),
            lambda: weights.coefficient(coda, trivial, i=1, I=I),
        ):
            before = cache_sizes(MODULES)
            with pytest.raises(InvalidArgument, match=rf"^a member of I must be an integer, not {I[-1]!r}$"):
                refused()
            assert cache_sizes(MODULES) == before


def test_a_bool_leg_label_is_refused_before_any_cache():
    # True == 1, so each of these once took True for leg 1 (or added it)
    point, f2, f3 = strata0.push_tree(_rooted()), rtclasses.f_class(2), rtclasses.f_class(3)
    without_1 = strata0.push_tree(build_tree([[H0, 2, 3, 4]], [])[0])
    for probe in (
        lambda: point.mul_psi(True, 1),
        lambda: rtclasses.multiply_divisor(f2, True),
        lambda: strata0.collide(f3, True, 2),
        lambda: strata0.collide(f3, 2, True),
        lambda: make_decoration(leg_exp={True: 1}),
        lambda: strata0.pullback_forget(without_1, True),
        lambda: strata0.pushforward_forget(point, True),
    ):
        before = cache_sizes(MODULES)
        with pytest.raises(InvalidArgument, match=r"^a leg must be an integer or a string, not True$"):
            probe()
        assert cache_sizes(MODULES) == before
    assert trees.label_arg("a leg", H0) == H0 and trees.label_arg("a leg", 0) == 0
    for bad in (False, 1.0, None, (1,)):
        with pytest.raises(InvalidArgument, match=rf"^a leg must be an integer or a string, not {re.escape(repr(bad))}$"):
            trees.label_arg("a leg", bad)
