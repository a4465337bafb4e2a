"""Rational-tails classes: displays, colliding, recursion, pushforwards."""

from __future__ import annotations

import ast
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from rtails import cli, rtclasses, serialize, strata0, trees
from rtails.strata0 import dim_of, pair_term, push_tree, strata_family, term_degree
from rtails.trees import (
    H0,
    InvalidArgument,
    beyond_legs,
    build_tree,
    child_edges_of,
    enumerate_decorations,
    enumerate_rt_graphs,
    vertex_of_leg,
)
from rtails.weights import coeff_c
from rtails.rtclasses import (
    KPoly,
    PushedClass,
    RtClass,
    collide_rt,
    e_class,
    emit_relation,
    extract_tail,
    f_class,
    f_class_m,
    f_heavy_expanded,
    heavy_point_expansion,
    multiply_divisor,
    over_degree_terms,
    pullback_forget_rt,
    pushforward_phi,
    pushforward_point,
    rt_term_degree,
    verify_colliding_rt,
    verify_frec,
    verify_overdegree_drop,
    _fact_tuple,
    _leg_slot,
    _tail_slot,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def _root_only(n, fact, legexp=None):
    t, d = build_tree([list(range(1, n + 1))], [], rt_root=0, leg_exp=legexp or {})
    return t, d, _fact_tuple(fact)


def _coda_graph(n, coda_legs, half=None, legexp=None):
    root = [l for l in range(1, n + 1) if l not in coda_legs]
    t, d = build_tree([root, sorted(coda_legs)], [(0, 1)], rt_root=0, half_exp=half or {}, leg_exp=legexp or {})
    return t, d


def test_f_class_n1():
    x = f_class(1)
    t, d, f = _root_only(1, {_leg_slot(1): 1})
    assert x == RtClass({1}, {(t, d, f): Fraction(1)})


def test_f_class_n2():
    x = f_class(2)
    expected = RtClass({1, 2})
    t, d, f = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1})
    expected._add(t, d, f, 1)
    tc, dc = _coda_graph(2, {1, 2})
    expected._add(tc, dc, {_tail_slot({1, 2}): 1}, -1)
    assert x == expected


def test_f_class_n3_display():
    """The eight-term expansion with coefficients 1,-1,-3,-7,-2,-6,+3,+2."""
    x = f_class(3)
    expected = RtClass({1, 2, 3})
    # smooth term
    t, d, f = _root_only(3, {_leg_slot(l): 1 for l in (1, 2, 3)})
    expected._add(t, d, f, 1)
    # two-leg codas, over labelings
    for pair in itertools.combinations((1, 2, 3), 2):
        other = ({1, 2, 3} - set(pair)).pop()
        tc, dc = _coda_graph(3, set(pair))
        expected._add(tc, dc, {_tail_slot(pair): 1, _leg_slot(other): 1}, -1)
    # three-leg coda, the four decorations
    tc, dc = _coda_graph(3, {1, 2, 3})
    expected._add(tc, dc, {_tail_slot((1, 2, 3)): 2}, -3)
    tc, dc = _coda_graph(3, {1, 2, 3}, half={(0, 1): 1})
    expected._add(tc, dc, {_tail_slot((1, 2, 3)): 1}, -7)
    tc, dc = _coda_graph(3, {1, 2, 3}, half={(0, 0): 1})
    expected._add(tc, dc, {_tail_slot((1, 2, 3)): 1}, -2)
    tc, dc = _coda_graph(3, {1, 2, 3}, half={(0, 0): 1, (0, 1): 1})
    expected._add(tc, dc, {_tail_slot((1, 2, 3)): 0}, -6)
    # chains root - v(c) - w(a,b), over labelings
    for c in (1, 2, 3):
        rest = sorted({1, 2, 3} - {c})
        t, d = build_tree([[], [c], rest], [(0, 1), (1, 2)], rt_root=0)
        expected._add(t, d, {_tail_slot((1, 2, 3)): 1}, 3)
        t, d = build_tree([[], [c], rest], [(0, 1), (1, 2)], rt_root=0, half_exp={(0, 0): 1})
        expected._add(t, d, {_tail_slot((1, 2, 3)): 0}, 2)
    assert x == expected


def test_f_class_degree_invariant():
    for n in (1, 2, 3, 4):
        x = f_class(n)
        assert all(rt_term_degree(*key) == n for key in x.terms)
    x = f_class_m((2, 3))
    assert all(rt_term_degree(*key) == 5 for key in x.terms)


def test_e_class_matches_f2_coda_term():
    # the n=2 coda term of the display is exactly E_{{1}}
    e = e_class(2, {1})
    tc, dc = _coda_graph(2, {1, 2})
    assert e == RtClass({1, 2}, {(tc, dc, _fact_tuple({_tail_slot({1, 2}): 1})): Fraction(1)})
    # consistency: F_2 = (kω1-η)(kω2-η) - E_{{1}} termwise
    expected = RtClass({1, 2})
    t, d, f = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1})
    expected._add(t, d, f, 1)
    assert f_class(2) == expected - e


def test_e_class_full_coda():
    # γ_* of the one-heavy-leg class: (kω-η)^2 + ψ_{t0}(kω-η) on the coda
    e = e_class(3, {1, 2})
    for (graph, dec, fact), coeff in e.terms.items():
        assert set(graph.legs[1]) == {1, 2, 3}
    tc, dc = _coda_graph(3, {1, 2, 3})
    assert e.terms.get((tc, dc, _fact_tuple({_tail_slot((1, 2, 3)): 2}))) == Fraction(1)
    tc2, dc2 = _coda_graph(3, {1, 2, 3}, half={(0, 0): 1})
    assert e.terms.get((tc2, dc2, _fact_tuple({_tail_slot((1, 2, 3)): 1}))) == Fraction(1)
    assert len(e.terms) == 2


def test_e_class_refuses_a_repeated_coda_member():
    with pytest.raises(InvalidArgument, match="I repeats a member"):
        e_class(3, (1, 1))
    assert e_class(3, (1,)) == e_class(3, [1]) == e_class(3, {1})


def test_multiplicities_must_be_integers_at_least_one(monkeypatch):
    for mults in ((2.9,), (1.5, 1), (0, 2), (2, -1), ("2",)):
        with pytest.raises(InvalidArgument, match="a multiplicity must be an integer >= 1"):
            f_class_m(mults)
    with pytest.raises(InvalidArgument, match="the number of legs must be an integer >= 1, not 0"):
        f_class_m(())
    # the colliding check refuses them before it builds the unit class
    monkeypatch.setattr(rtclasses, "f_class", lambda n: pytest.fail("f_class was built"))
    for mults in ((1.5, 1), (0, 2), (2.0,)):
        with pytest.raises(InvalidArgument, match="a multiplicity must be an integer >= 1"):
            verify_colliding_rt(mults)


def test_a_bool_multiplicity_is_refused(monkeypatch):
    # True == 1, so a bool would share the cache entries of the integer weights
    monkeypatch.setattr(rtclasses, "_f_cache", {})
    monkeypatch.setattr(rtclasses, "_chain_cache", {})
    for mults in ((True, 1), (2, False), (True,)):
        with pytest.raises(InvalidArgument, match="a multiplicity must be an integer >= 1"):
            f_class_m(mults)
        with pytest.raises(InvalidArgument, match="a multiplicity must be an integer >= 1"):
            verify_colliding_rt(mults)
    assert rtclasses._f_cache == rtclasses._chain_cache == {}


def _colliding_loop(mults):
    """The unit class folded left to right until each leg meets its weight:
    the uncached route of the colliding check."""
    x = f_class(sum(mults))
    for pos, m in enumerate(mults, 1):
        for _ in range(m - 1):
            x = strata0.fold(x, pos)
    return x


def test_each_chain_state_equals_the_left_to_right_loop_and_is_frozen(monkeypatch):
    monkeypatch.setattr(rtclasses, "_chain_cache", {})
    for total in range(1, 6):
        for mults in cli._compositions(total):
            x = rtclasses._folded(mults)
            assert x.terms and x == _colliding_loop(mults), mults
            assert x is rtclasses._chain_cache.get(mults, f_class(total))  # the all-ones state is F
            with pytest.raises(TypeError):  # a cached state is frozen
                x._add(*next(iter(x.terms)), 1)


def _chain_states(mults):
    """The states that the left-to-right loop passes after each fold."""
    state = [1] * sum(mults)
    for pos, m in enumerate(mults):
        for _ in range(m - 1):
            state[pos : pos + 2] = [state[pos] + 1]
            yield tuple(state)


def _count_folds(tasks):
    """Calls to ``rtclasses.fold`` made running ``tasks`` in order in a new
    interpreter, and the sorted verdict lines."""
    code = (
        "import json\n"
        "from rtails import cli, rtclasses\n"
        "real, calls = rtclasses.fold, [0]\n"
        "def counting(*args):\n"
        "    calls[0] += 1\n"
        "    return real(*args)\n"
        "rtclasses.fold = counting\n"
        f"lines = sorted(cli.run_task(task).line() for task in {tasks!r})\n"
        "print(json.dumps([calls[0], lines]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout)


def test_collide_rt_folds_each_chain_state_once():
    # every composition of the grid shares the states on its way, whichever
    # one the grid asks first: 26 folds, where folding each from scratch took 49
    tasks = cli._grid("collide-rt", 0, 5)
    states = {state for _, (mults,) in tasks for state in _chain_states(mults)}
    forward, backward = _count_folds(tasks), _count_folds(tasks[::-1])
    assert forward == backward
    assert forward[0] == len(states) == 26
    assert sum(sum(mults) - len(mults) for _, (mults,) in tasks) == 49
    assert all(line.startswith("pass ") for line in forward[1])


def test_multiply_divisor_and_pullback():
    x = f_class(1)
    y = pullback_forget_rt(x, 2)
    # placements at the root and at no rational vertex (none exist), no corrections
    assert len(y.terms) == 1
    z = multiply_divisor(y, 2)
    t, d, f = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1})
    assert z == RtClass({1, 2}, {(t, d, f): Fraction(1)})


def test_pullback_counts_placements_on_coda_term():
    tc, dc = _coda_graph(2, {1, 2})
    x = RtClass({1, 2}, {(tc, dc, _fact_tuple({_tail_slot({1, 2}): 1})): Fraction(1)})
    y = pullback_forget_rt(x, 3)
    # undecorated term: a placement per vertex, no ψ corrections
    assert len(y.terms) == 2
    assert all(c == 1 for c in y.terms.values())


def test_collide_rt_cases():
    # trivalent rational vertex: contract with ψ-shift and sign
    tc, dc = _coda_graph(3, {1, 2})
    x = RtClass({1, 2, 3}, {(tc, dc, _fact_tuple({_tail_slot({1, 2}): 1, _leg_slot(3): 1})): Fraction(1)})
    y = collide_rt(x, 1, 2)
    t, d = build_tree([[1, 3]], [], rt_root=0, leg_exp={1: 1})
    assert y == RtClass({1, 3}, {(t, d, _fact_tuple({_leg_slot(1): 1, _leg_slot(3): 1})): Fraction(-1)})
    # root legs merge and their factored exponents add
    t2, d2, f2 = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1})
    y2 = collide_rt(RtClass({1, 2}, {(t2, d2, f2): Fraction(1)}), 1, 2)
    t1, d1 = build_tree([[1]], [], rt_root=0)
    assert y2 == RtClass({1}, {(t1, d1, _fact_tuple({_leg_slot(1): 2})): Fraction(1)})
    # ψ on a colliding root leg kills the term
    t3, d3, f3 = _root_only(2, {_leg_slot(1): 1, _leg_slot(2): 1}, legexp={1: 1})
    assert collide_rt(RtClass({1, 2}, {(t3, d3, f3): Fraction(1)}), 1, 2).terms == {}


def test_a_factored_slot_off_the_root_is_rejected():
    tc, dc = _coda_graph(3, {1, 2})
    RtClass({1, 2, 3}, {(tc, dc, _fact_tuple({_tail_slot({1, 2}): 1, _leg_slot(3): 1})): 1})
    for slot in (_leg_slot(1), _tail_slot({1, 3}), _tail_slot({1, 2, 3})):
        with pytest.raises(InvalidArgument):
            RtClass({1, 2, 3}, {(tc, dc, _fact_tuple({slot: 1})): 1})


def _term(legs_by_vertex, edges, fact, half=None, legexp=None):
    graph, dec = build_tree(legs_by_vertex, edges, rt_root=0, half_exp=half or {}, leg_exp=legexp or {})
    return graph, dec, _fact_tuple(fact)


def _one(*term_args, **term_kwargs):
    """The one-term class with coefficient 1 on ``_term(...)``."""
    graph, dec, fact = _term(*term_args, **term_kwargs)
    return RtClass(graph.all_legs(), {(graph, dec, fact): 1})


L, T = _leg_slot, _tail_slot

# case -> (the move, every term it must give with its coefficient)
FACT_MOVES = {
    "pullback: a decorated root leg split off becomes a two-leg tail key": (
        lambda: pullback_forget_rt(_one([[1, 2]], [], {L(1): 2, L(2): 1}, legexp={1: 1}), 3),
        {
            _term([[1, 2, 3]], [], {L(1): 2, L(2): 1}, legexp={1: 1}): 1,
            _term([[2], [1, 3]], [(0, 1)], {T((1, 3)): 2, L(2): 1}): -1,
        },
    ),
    "pullback: a tail key grows by the new leg": (
        lambda: pullback_forget_rt(_one([[1], [2, 3]], [(0, 1)], {L(1): 1, T((2, 3)): 2}), 4),
        {
            _term([[1, 4], [2, 3]], [(0, 1)], {L(1): 1, T((2, 3)): 2}): 1,
            _term([[1], [2, 3, 4]], [(0, 1)], {L(1): 1, T((2, 3, 4)): 2}): 1,
        },
    ),
    "collide: a collapsing tail {i, j} folds onto root leg i": (
        lambda: collide_rt(_one([[3], [1, 2]], [(0, 1)], {L(3): 1, T((1, 2)): 2}), 2, 1),
        {_term([[2, 3]], [], {L(2): 2, L(3): 1}, legexp={2: 1}): -1},
    ),
    "collide: root legs i and j merge and their exponents add": (
        lambda: collide_rt(_one([[1, 2, 3]], [], {L(1): 1, L(2): 2, L(3): 1}), 1, 2),
        {_term([[1, 3]], [], {L(1): 3, L(3): 1}): 1},
    ),
    "collide: a genus root of valence 3 merges and does not contract": (
        lambda: collide_rt(_one([[1, 2], [3, 4]], [(0, 1)], {L(1): 1, L(2): 1, T((3, 4)): 1}), 1, 2),
        {_term([[1], [3, 4]], [(0, 1)], {L(1): 2, T((3, 4)): 1}): 1},
    ),
    "collide: a tail key loses leg j": (
        lambda: collide_rt(_one([[1], [2, 3, 4]], [(0, 1)], {T((2, 3, 4)): 1}), 3, 2),
        {_term([[1], [3, 4]], [(0, 1)], {T((3, 4)): 1}): 1},
    ),
    "relabel: leg and tail keys are renamed": (
        lambda: rtclasses.relabel_rt(_one([[1], [2, 3]], [(0, 1)], {L(1): 1, T((2, 3)): 2}), {1: 3, 3: 1}),
        {_term([[3], [1, 2]], [(0, 1)], {L(3): 1, T((1, 2)): 2}): 1},
    ),
    "e_class: the node's root slot becomes the coda tail": (
        lambda: e_class(3, {1}),
        {
            _term([[2], [1, 3]], [(0, 1)], {L(2): 1, T((1, 3)): 1}): 1,
            _term([[], [2], [1, 3]], [(0, 1), (1, 2)], {T((1, 2, 3)): 1}): -1,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(FACT_MOVES))
def test_the_factored_monomial_follows_its_legs(case):
    move, expected = FACT_MOVES[case]
    assert move().terms == expected


def test_rt_move_names_are_the_strata0_moves():
    assert collide_rt is strata0.collide and pullback_forget_rt is strata0.pullback_forget
    assert rtclasses.relabel_rt is strata0.relabel_class
    # the aliases are kept only because the benchmark tracer wraps them by
    # name; once its LAYERS names none of them, they can be deleted
    source = (Path(__file__).resolve().parent.parent / "bench" / "tracer.py").read_text()
    (layers,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    named = {name for spec in layers.values() for name in spec.get("rtclasses", ())}
    assert {"collide_rt", "pullback_forget_rt", "relabel_rt"} <= named, "LAYERS dropped an alias: delete it from rtclasses"


def _relabel_two_pass(x, mapping):
    """`relabel_rt` as it was before `relabel_class` served both class types:
    one `_moved` pass whose terms each enter through `RtClass._add`."""
    rename = trees.renaming(x.ambient, True, mapping)
    image = lambda graph, dec: [(1, *trees.relabel(graph, dec, rename))]  # noqa: E731
    return strata0._moved(x, trees.relabel_legs(x.ambient, mapping), image, mapping)


def test_relabel_class_on_rt_classes_equals_the_moved_route():
    classes = [f_class(n) for n in range(1, 6)]
    classes += [e_class(n, I) for n in range(2, 6) for r in range(1, n) for I in itertools.combinations(range(1, n), r)]
    for x in classes:
        legs = sorted(x.ambient)
        shift = {l: l + 1 for l in legs}
        swap = {legs[0]: legs[-1], legs[-1]: legs[0]}
        cycle = dict(zip(legs, legs[1:] + legs[:1]))
        for mapping in (shift, swap, cycle):
            got, oracle = strata0.relabel_class(x, mapping), _relabel_two_pass(x, mapping)
            assert type(got) is RtClass and got.ambient == oracle.ambient, (x, mapping)
            assert got.terms == oracle.terms and got.terms, (x, mapping)


def test_rational_tails_classes_refuse_a_graph_with_no_genus_vertex():
    # the mirror of `test_genus0_classes_refuse_rational_tails_graphs`:
    # pulling back along h0 turns every rational-tails graph into a rooted tree
    point, dec = build_tree([[1, 2, 3]], [])
    blob = {"k": "k", "legs": [1, 2, 3], "terms": serialize.class0_to_json(push_tree(point))["terms"]}
    overloaded = build_tree([[1, 2, 3]], [], leg_exp={1: 1})  # refused, not dropped as a zero term
    for refused in (
        lambda: strata0.pullback_forget(f_class(2), H0),
        lambda: RtClass({1, 2, 3}, {(point, dec, ()): 1}),
        lambda: RtClass({1, 2, 3}, {(*overloaded, ()): 1}),
        lambda: serialize.rtclass_from_json(blob),
    ):
        with pytest.raises(InvalidArgument, match="needs a genus vertex"):
            refused()


def test_fold_equals_collide_then_relabel_on_f_classes():
    for n in range(2, 6):
        x = f_class(n)
        for leg in range(1, n):
            y = collide_rt(x, leg, leg + 1)
            oracle = rtclasses.relabel_rt(y, {l: l - 1 for l in y.ambient if l > leg + 1})
            folded = strata0.fold(x, leg)
            assert folded == oracle and folded.terms, (n, leg)
            assert folded.ambient == frozenset(range(1, n))


def _e_class_two_pass(n, I):
    """`e_class` as it was built before `glue_push_gamma` served it: relabel
    the heavy class by `coda_mapping`, then graft the coda at the node."""
    base = f_class_m((len(I),) + (1,) * (n - len(I) - 1))
    relabelled = rtclasses.relabel_rt(base, trees.coda_mapping(n, I))
    graft = lambda graph, dec: [(1, *trees.graft(graph, dec, trees.NODE, set(I) | {n}))]  # noqa: E731
    return strata0._moved(relabelled, range(1, n + 1), graft, {trees.NODE: n})


def test_e_class_equals_relabel_then_graft_for_every_coda():
    for n in range(2, 6):
        for r in range(1, n):
            for I in itertools.combinations(range(1, n), r):
                e = e_class(n, I)
                assert e == _e_class_two_pass(n, I) and e.terms, (n, I)


def test_e_class_refuses_a_bad_coda_before_building_its_base(monkeypatch):
    monkeypatch.setattr(rtclasses, "f_class_m", lambda mults: pytest.fail("the base class was built"))
    for I in ((), (3,), (0, 1)):
        with pytest.raises(InvalidArgument, match="non-empty subset"):
            e_class(3, I)


def test_the_shared_moves_keep_every_refusal_for_both_class_types():
    # the coda gluing needs {1..n-|I|} on an RtClass and also h0 on a Class0
    assert strata0.glue_push_gamma(f_class(2), {1}, 3) == e_class(3, {1})
    for x, n in ((f_class(3), 3), (f_class(1), 3), (push_tree(build_tree([[1, 2, 3]], [])[0]), 4)):
        with pytest.raises(InvalidArgument, match="wrong space for this coda"):
            strata0.glue_push_gamma(x, {1}, n)
    for move, match in (
        (lambda: collide_rt(f_class(3), 1, 1), "with itself"),
        (lambda: collide_rt(f_class(3), 1, 4), "sit in the ambient"),
        (lambda: strata0.fold(f_class(3), 3), "sit in the ambient"),
        # `fold` renumbers the integer legs above its leg; h0 once raised TypeError
        (lambda: strata0.fold(f_class(3), H0), "the leg of a chain step must be an integer, not 'h0'"),
        (lambda: strata0.fold(push_tree(build_tree([[H0, 1, 2, 3]], [])[0]), H0), "the leg of a chain step must be an integer"),
        (lambda: pullback_forget_rt(f_class(3), 2), "already present"),
    ):
        with pytest.raises(InvalidArgument, match=match):
            move()


def test_a_chain_step_and_a_coda_gluing_build_one_class(monkeypatch):
    # warm caches: the unit and heavy classes are built before counting
    assert verify_colliding_rt((2, 2)).witness == "termwise"
    e_class(3, {1})
    built = []
    real = RtClass.__init__

    def counting(self, *args):
        built.append(len(args[0]))
        real(self, *args)

    monkeypatch.setattr(RtClass, "__init__", counting)
    monkeypatch.setattr(rtclasses, "_chain_cache", {})  # the chain states are folded again
    assert verify_colliding_rt((2, 2)).passed
    assert built == [3, 2]  # one class per chain step
    e_class(3, {1})
    assert built == [3, 2, 3]


def test_colliding_rt_small():
    for mults in [(2,), (2, 1), (1, 2), (1, 1, 1), (3,), (2, 2)]:
        rep = verify_colliding_rt(mults)
        assert rep.passed, rep.line()
        assert rep.witness == "termwise"


def test_frec_small():
    assert verify_frec(2).passed
    assert verify_frec(3).passed


def test_frec_n5_with_formal_drops():
    # at n = 5 both sides involve graph-formula classes whose negative-exponent
    # profiles were verified to vanish and dropped; the recursion still closes
    assert verify_frec(5).passed


def test_overdegree_drop_small():
    for n in (1, 2, 3):
        assert not over_degree_terms(n).terms
    assert verify_overdegree_drop(4).passed


def test_heavy_point_identities():
    for a in range(1, 7):
        assert f_heavy_expanded(a) == heavy_point_expansion(a)
    # the factored-form coefficients are the elementary symmetric values
    x = f_class_m((3,))
    t, d, f = _root_only(1, {_leg_slot(1): 3})
    assert x.terms[(t, d, f)] == 1
    t, d, f = _root_only(1, {_leg_slot(1): 2}, legexp={1: 1})
    assert x.terms[(t, d, f)] == 3  # e_1(1,2)
    t, d, f = _root_only(1, {_leg_slot(1): 1}, legexp={1: 2})
    assert x.terms[(t, d, f)] == 2  # e_2(1,2)


def test_pushforward_point_formulas():
    # a = 2: k(k+1) κ1 - (2k+1)(2g-2) η  (κ0 evaluated with numeric g)
    out = pushforward_point(f_class_m((2,)), g=None)
    expected = PushedClass()
    expected._add(("kappa", 1, "eta", 0), KPoly({2: 1, 1: 1}))
    expected._add(("kappa", 0, "eta", 1), KPoly({1: -2, 0: -1}))
    assert out == expected
    # the general e_b-formula for a <= 5
    for a in range(1, 6):
        out = pushforward_point(f_class_m((a,)), g=None)
        expected = PushedClass()
        # Σ_b (-1)^{a-b} e_b(k..k+a-1) κ_{b-1} η^{a-b}
        poly = {0: KPoly.const(1)}
        for off in range(a):
            newp: dict = {}
            for deg, c in poly.items():
                for dd, mult in ((1, KPoly({1: 1, 0: off})), (0, KPoly.const(1))):
                    key = deg + dd
                    newp[key] = newp.get(key, KPoly()) + (c * mult if dd else c)
            poly = newp
        # poly[b] = e_{...}: ∏(x + (k+off)) coefficients; e_b = coeff of x^{a-b}
        for b in range(1, a + 1):
            e_b = poly[b]
            coeff = e_b * KPoly.const((-1) ** (a - b))
            expected._add(("kappa", b - 1, "eta", a - b), coeff)
        assert out == expected


def test_pushforward_point_kappa0_numeric():
    out = pushforward_point(f_class_m((1,)), g=3)
    expected = PushedClass()
    expected._add(("eta", 0), KPoly({1: 4}))  # k κ0 = k(2g-2)
    assert out == expected
    assert out.terms[("eta", 0)] == KPoly({1: 4})
    assert ("eta", 1) not in out.terms  # -η picks up no ψ and dies
    # the root has positive genus: κ0 = 2g - 2 is never below 0
    for g in (0, -4):
        with pytest.raises(InvalidArgument):
            pushforward_point(f_class_m((1,)), g=g)


def test_pushforward_phi_heavy_double_zero():
    # φ_* F^2_{2,(2)} = φ_*(η^2) = 1 with rank (2k-1)(g-1) = 3
    out = pushforward_phi(f_class_m((2,)), k=2, g=2)
    t, d = build_tree([[1]], [], rt_root=0)
    assert out == PushedClass({(t, d, (), ()): KPoly.const(1)})
    # a genus or a k below 1 is refused, not read as a bundle of rank <= 0
    for k, g in ((1, 0), (1, -1), (2, 0), (0, 2), ("k", 2)):
        with pytest.raises(InvalidArgument):
            pushforward_phi(f_class(2), k=k, g=g)


def _logan_expected(g):
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
    return expected


def test_pushforward_phi_logan():
    for g in (2, 3):
        out = pushforward_phi(f_class(g), k=1, g=g)
        assert out == _logan_expected(g)


def test_emit_relation_regimes():
    x = emit_relation(2, 3)
    assert x.terms
    with pytest.raises(InvalidArgument):
        emit_relation(2, 2)
    # the root has positive genus, so n > 2g - 2 alone admits no g < 1
    for g, n in ((0, 2), (-5, 1)):
        with pytest.raises(InvalidArgument):
            emit_relation(g, n)


# ---------------------------------------------------------------------------
# the graph formula per weighted shape: the per-graph listing is the oracle


def _formula_terms_per_graph(weights, cap, keep=None):
    """The graph-formula terms with every graph decorated and weighed on its
    own: the oracle of the per-shape listing."""
    for graph in enumerate_rt_graphs(len(weights)):
        budget = cap(graph)
        if budget < 0:
            continue
        sign = (-1) ** graph.num_edges()
        for dec in enumerate_decorations(graph, budget, weights):
            if keep is not None and not keep(graph, dec):
                continue
            c = coeff_c(graph, dec, weights)
            if c:
                yield graph, dec, rtclasses._fact_for(graph, dec, weights), sign * c


def _formula_mismatches(max_total):
    """The multiplicities of total <= ``max_total`` whose graph-formula terms,
    in order, differ from the per-graph oracle's, lazily."""
    for total in range(1, max_total + 1):

        def cap(graph):
            return total - graph.num_edges()

        for mults in cli._compositions(total):
            weights = {l: w for l, w in enumerate(mults, 1)}
            if list(rtclasses._formula_terms(weights, cap)) != list(_formula_terms_per_graph(weights, cap)):
                yield mults


def test_the_shape_listing_equals_the_per_graph_oracle(monkeypatch):
    # the same terms in the same order, so `_add` and `_profile_witness` see
    # what a per-graph listing gives them
    assert next(_formula_mismatches(6), None) is None
    shared = {n: list(over_degree_terms(n).terms.items()) for n in range(1, 6)}
    monkeypatch.setattr(rtclasses, "_formula_terms", _formula_terms_per_graph)
    assert {n: list(over_degree_terms(n).terms.items()) for n in range(1, 6)} == shared
    assert shared[5]


def test_graphs_of_one_weighted_shape_share_decorations_coefficients_and_exponents():
    # by position: a leg's (vertex, index), a factored exponent's root slot
    def positional(graph, dec):
        where = {l: (v, k) for v, legs in enumerate(graph.legs) for k, l in enumerate(legs)}
        return dec.half, sorted((where[l], e) for l, e in dec.leg)

    def weighed(graph, dec, weights):
        fact = rtclasses._fact_for(graph, dec, weights)
        return coeff_c(graph, dec, weights), [fact[key] for key in rtclasses._root_slot_order(graph)]

    graphs = 0
    for total in range(1, 6):
        for mults in cli._compositions(total):
            weights = {l: w for l, w in enumerate(mults, 1)}
            firsts = {}
            for graph in enumerate_rt_graphs(len(mults)):
                first = firsts.setdefault(rtclasses._weighted_shape(graph, weights), graph)
                budget = total - graph.num_edges()
                if first is graph or budget < 0:
                    continue
                decs = enumerate_decorations(graph, budget, weights)
                first_decs = enumerate_decorations(first, budget, weights)
                assert sorted(positional(graph, d) for d in decs) == sorted(positional(first, d) for d in first_decs)
                by_position = {repr(positional(first, d)): weighed(first, d, weights) for d in first_decs}
                for dec in decs:
                    assert weighed(graph, dec, weights) == by_position[repr(positional(graph, dec))]
                graphs += 1
            if mults == (1,) * 5:
                assert (len(firsts), len(enumerate_rt_graphs(5))) == (28, 472)
    assert graphs > 500


def test_a_shape_key_blind_to_leg_weights_fails_the_oracle(monkeypatch):
    # per-vertex leg counts alone let legs of different weights share their
    # decorations, coefficients and factored exponents
    right = f_class_m((1, 1, 2))
    monkeypatch.setattr(rtclasses, "_weighted_shape", lambda graph, _weights: (graph.edges, tuple(map(len, graph.legs))))
    monkeypatch.setattr(rtclasses, "_f_cache", {})
    assert next(_formula_mismatches(4)) == (1, 1, 2)
    assert f_class_m((1, 1, 2)) != right


def _all_codim_is_zero(profile, bucket):
    """The tensor zero test pairing every tuple of strata of every codimension."""
    bucket = {k: c for k, c in bucket.items() if c}
    ambients = [frozenset(legs) | {H0} for legs, _, _ in profile[1]]
    families = [[S for c in range(len(amb) - 2) for S in strata_family(amb, c)] for amb in ambients]
    for strata in itertools.product(*families):
        total = Fraction(0)
        for contents, coeff in bucket.items():
            prod = coeff
            for (tree, dec), S, amb in zip(contents, strata, ambients):
                prod *= pair_term(tree, dec, S, amb)
            total += prod
        if total:
            return False
    return True


def _two_tail_buckets():
    """A vanishing bucket over two tails {1,2,3} and {4,5,6}, and perturbations of it.

    On each tail's M_{0,4} ψ_1 (resp. ψ_4) is the class of a boundary point, so
    ψ - D vanishes in degree 1 and ψ⊗ψ - D⊗D in bidegree (1, 1).
    """
    def tail(legs, psi=False, split=False):
        if split:
            return build_tree([[H0, legs[0]], list(legs[1:])], [(0, 1)])
        return build_tree([[H0, *legs]], [], leg_exp={legs[0]: 1} if psi else {})

    a, b = (1, 2, 3), (4, 5, 6)
    point = tail(a), tail(b)
    psi = tail(a, psi=True), tail(b, psi=True)
    div = tail(a, split=True), tail(b, split=True)
    vanishing = {
        (psi[0], point[1]): Fraction(1),
        (div[0], point[1]): Fraction(-1),
        (point[0], psi[1]): Fraction(2),
        (point[0], div[1]): Fraction(-2),
        (psi[0], psi[1]): Fraction(1, 3),
        (div[0], div[1]): Fraction(-1, 3),
    }
    profile = ((), ((a, 0, 0), (b, 0, 0)))
    perturbed = [
        {**vanishing, (point[0], point[1]): Fraction(5)},
        {**vanishing, (div[0], div[1]): Fraction(-1, 2)},
        {**vanishing, (div[0], point[1]): Fraction(-3, 7)},
    ]
    return profile, vanishing, perturbed


def test_tensor_zero_test_matches_the_all_codimension_oracle(monkeypatch):
    seen = []
    real = rtclasses._tensor_is_zero

    def recording(profile, bucket, supports):
        seen.append((profile, dict(bucket)))
        return real(profile, bucket, supports)

    monkeypatch.setattr(rtclasses, "_tensor_is_zero", recording)
    for n in (2, 3, 4):
        assert verify_frec(n).passed
    monkeypatch.undo()
    assert seen
    nonvanishing = 0
    for profile, bucket in seen:
        assert real(profile, bucket, {}) == _all_codim_is_zero(profile, bucket) is True
        # one more copy of a term's tail content: vanishing or not, both tests agree
        contents, coeff = next((k, c) for k, c in bucket.items() if c)
        bumped = {**bucket, contents: coeff + 1}
        verdict = real(profile, bumped, {})
        assert verdict == _all_codim_is_zero(profile, bumped)
        nonvanishing += not verdict
    assert nonvanishing
    profile, vanishing, perturbed = _two_tail_buckets()
    assert real(profile, vanishing, {}) and _all_codim_is_zero(profile, vanishing)
    for bucket in perturbed:
        assert not real(profile, bucket, {}) and not _all_codim_is_zero(profile, bucket)


def _product_loop_is_zero(profile, bucket):
    """The tensor zero test summing every term over every tuple of strata of
    its multidegree: the oracle of the sum over the tails' supports."""
    bucket = {k: c for k, c in bucket.items() if c}
    if not bucket:
        return True
    ambients = [frozenset(legs) | {H0} for legs, _, _ in profile[1]]
    common = lcm(*(c.denominator for c in bucket.values()))
    by_degree = {}
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


def _cancelling_buckets():
    """Two buckets over a tail on M_{0,4} and a tail on M_{0,5}, each ψ of the
    small tail's first leg times D_{pq} - D_{pr} on the big tail {p, q, r, s},
    with the big tail second and then first.

    D_{pq} - D_{pr} is not zero (its pairing with D_{pq} is -1), but its
    pairings with all ten boundary divisors sum to zero, since swapping q
    and r fixes their sum: the sum runs per tuple of strata, not per stratum
    of one tail.
    """
    out = []
    for small, big in (((1, 2, 3), (4, 5, 6, 7)), ((5, 6, 7), (1, 2, 3, 4))):
        p, q, r, s = big
        psi = build_tree([[H0, *small]], [], leg_exp={small[0]: 1})
        d_pq = build_tree([[H0, r, s], [p, q]], [(0, 1)])
        d_pr = build_tree([[H0, q, s], [p, r]], [(0, 1)])
        profile = ((), tuple((legs, 0, 0) for legs in sorted([small, big])))
        contents = (lambda d: (d, psi)) if big < small else (lambda d: (psi, d))
        out.append((profile, {contents(d_pq): Fraction(1), contents(d_pr): Fraction(-1)}))
    return out


def test_the_support_sum_equals_the_product_loop_oracle(monkeypatch):
    # every root profile of verify_frec(n)'s diff, of its lhs and of f_class(n),
    # n <= 5, as is and with one of its first three entries bumped by one
    seen, diffs = [], {}
    real = rtclasses._profile_witness
    monkeypatch.setattr(rtclasses, "_profile_witness", lambda x: seen.append(x) or real(x))
    for n in range(2, 6):
        assert verify_frec(n).passed
        diffs[n] = seen[-1]  # its last zero test is the diff's
    monkeypatch.undo()
    verdicts, tails = [], 0
    for n in range(2, 6):
        f = f_class(n)
        for x in (diffs[n], diffs[n] + f, f):
            for profile, bucket in rtclasses._profile_groups(x).items():
                tails = max(tails, len(profile[1]))
                for key in [None, *list(bucket)[:3]]:
                    bumped = bucket if key is None else {**bucket, key: bucket[key] + 1}
                    verdicts.append(rtclasses._tensor_is_zero(profile, bumped, {}))
                    assert verdicts[-1] == _product_loop_is_zero(profile, bumped), (n, profile, key)
    assert len(verdicts) == 1328 and verdicts.count(False) == 1164 and tails >= 2
    profile, vanishing, perturbed = _two_tail_buckets()
    assert rtclasses._tensor_is_zero(profile, vanishing, {}) and _product_loop_is_zero(profile, vanishing)
    for bucket in perturbed:
        assert not rtclasses._tensor_is_zero(profile, bucket, {}) and not _product_loop_is_zero(profile, bucket)
    for profile, bucket in _cancelling_buckets():
        assert not rtclasses._tensor_is_zero(profile, bucket, {}) and not _product_loop_is_zero(profile, bucket)


def test_the_tensor_zero_test_pairs_each_tail_with_its_laminar_strata_once(monkeypatch):
    # each distinct content is paired once with each stratum of its family
    # that no split of it crosses; D_{45} crosses D_{46} on M_{0,5}
    for profile, bucket in [_two_tail_buckets()[:2], *_cancelling_buckets()]:
        calls = []
        monkeypatch.setattr(rtclasses, "pair_term", lambda *args: calls.append(args) or pair_term(*args))
        rtclasses._tensor_is_zero(profile, bucket, {})
        ambients = [frozenset(legs) | {H0} for legs, _, _ in profile[1]]
        pairs = {
            (tree, dec, S, amb)
            for contents in bucket
            for (tree, dec), amb in zip(contents, ambients)
            for S in strata_family(amb, dim_of(amb) - term_degree(tree, dec))
        }
        laminar = {pair for pair in pairs if not trees.split_bits(pair[0])[1] & trees.split_bits(pair[2])[0]}
        assert sorted(map(repr, calls)) == sorted(map(repr, laminar))
    assert len(laminar) < len(pairs)


def test_the_profiles_of_one_class_share_their_tails_supports(monkeypatch):
    # a tail's support is its (tree, dec)'s alone, so one `_profile_witness`
    # call pairs each tail content with each of its laminar strata once
    calls = []
    monkeypatch.setattr(rtclasses, "pair_term", lambda *args: calls[-1].append(args) or pair_term(*args))
    real = rtclasses._profile_witness
    monkeypatch.setattr(rtclasses, "_profile_witness", lambda x: calls.append([]) or real(x))
    for n in range(2, 6):
        assert verify_frec(n).passed
    assert all(len(c) == len(set(c)) for c in calls)
    assert max(map(len, calls)) > 1000


def _tail_rebuilt(graph, dec, root_edge):
    """The tail below ``root_edge`` by `build_tree`, decoration and all."""
    region = [e for e in range(graph.num_edges()) if beyond_legs(graph, e) <= beyond_legs(graph, root_edge)]
    inner = [e for e in region if e != root_edge]
    verts = sorted({graph.edges[e][1] for e in region})
    vmap = {v: idx for idx, v in enumerate(verts)}
    legs_by = [list(graph.legs[v]) for v in verts]
    legs_by[vmap[graph.edges[root_edge][1]]].append(H0)
    pairs = [(vmap[graph.edges[e][0]], vmap[graph.edges[e][1]]) for e in inner]
    half = {(inner.index(eid), side): ex for (eid, side), ex in dec.half if eid in inner}
    legexp = {l: e for l, e in dec.leg if vertex_of_leg(graph, l) in verts}
    legexp[H0] = dec.half_exp((root_edge, 1))
    return build_tree(legs_by, pairs, half_exp=half, leg_exp=legexp)


def test_extract_tail_equals_the_build_tree_route(monkeypatch):
    # every tail of every rational-tails graph with n <= 5, under every
    # decoration up to degree 2: one plan per (graph, root edge), each tail
    # tree canonicalised once, and a repeat canonicalises nothing
    cases = [
        (graph, dec, e)
        for n in range(1, 6)
        for graph in enumerate_rt_graphs(n)
        for dec in enumerate_decorations(graph, 2, leg_bounds={l: 3 for l in graph.all_legs()})
        for e in child_edges_of(graph, 0)
    ]
    want = [_tail_rebuilt(graph, dec, e) for graph, dec, e in cases]
    monkeypatch.setattr(trees, "_laminar_trees", {})
    rtclasses._tail_plan.cache_clear()
    assert [extract_tail(graph, dec, e) for graph, dec, e in cases] == want
    assert rtclasses._tail_plan.cache_info().misses == len({(graph, e) for graph, _, e in cases})
    assert len(trees._laminar_trees) == len({tree for tree, _ in want})
    assert [extract_tail(graph, dec, e) for graph, dec, e in cases] == want
    assert len(trees._laminar_trees) == len({tree for tree, _ in want}) and len(cases) > 5000


def test_rt_sums_copy_checked_terms(monkeypatch):
    x, y = f_class(3), e_class(3, {1})
    calls = []
    real = rtclasses.overloaded

    def counting(graph, dec):
        calls.append(graph)
        return real(graph, dec)

    monkeypatch.setattr(rtclasses, "overloaded", counting)
    total = x + y
    assert (total - y) == x and x.scale(2) - x == x
    assert x.plus([(2, y), (-1, x), (-2, y)]) == RtClass(x.ambient)
    assert calls == []
    RtClass(x.ambient, x.terms)  # a new class checks each term it is given
    assert len(calls) == len(x.terms)


def test_formal_sums_of_another_space_or_type_are_refused():
    with pytest.raises(InvalidArgument):
        f_class(2) + f_class(3)
    with pytest.raises(InvalidArgument):
        f_class(2) - e_class(3, {1})
    point = push_tree(build_tree([[H0, 1, 2]], [])[0])
    with pytest.raises(InvalidArgument):
        point + push_tree(build_tree([[H0, 1, 2, 3]], [])[0])
    with pytest.raises(InvalidArgument):
        point + RtClass(point.ambient)
    with pytest.raises(InvalidArgument):
        KPoly.const(1) + PushedClass()
    with pytest.raises(InvalidArgument):
        PushedClass() - KPoly.const(1)
    # each summand of one `plus` is checked, the later ones too
    with pytest.raises(InvalidArgument):
        f_class(2).plus([(1, f_class(2)), (1, f_class(3))])


def test_plus_is_the_chain_of_sums():
    x, ys = f_class(3), [e_class(3, I) for I in ({1}, {2}, {1, 2})]
    factors = [Fraction(-1), 2, Fraction(3, 2)]
    chained = x
    for factor, y in zip(factors, ys):
        chained = chained + y.scale(factor)
    assert x.plus(zip(factors, ys)) == chained
    assert x.plus([(0, ys[0])]) == x and x.plus([]) == x
    # a sum is a new class: a frozen summand stays as it was
    assert f_class(3).plus([(-1, x)]) == RtClass(x.ambient) and f_class(3) == x


def test_a_power_of_k_must_be_an_integer_at_least_zero():
    # `int(d)` once turned k^1.5 into k
    for power in (1.5, Fraction(1), -1, True, "1"):
        with pytest.raises(InvalidArgument, match="power of k"):
            KPoly({power: 1})
    assert KPoly({2: 1, 0: 3}).terms == {2: 1, 0: 3}


def test_relabel_rt_refuses_a_merging_mapping():
    # the empty class once became RtClass(n=2); a class with terms was refused
    for x in (RtClass({1, 2, 3}), f_class(3)):
        with pytest.raises(InvalidArgument, match="duplicate leg labels"):
            rtclasses.relabel_rt(x, {1: 2})
    assert rtclasses.relabel_rt(RtClass({1, 2, 3}), {1: 4}).ambient == frozenset({2, 3, 4})


def test_inexact_coefficients_are_refused():
    x = f_class(2)
    key = next(iter(x.terms))
    for refused in (
        lambda: x.scale(0.1),
        lambda: RtClass(x.ambient, {key: 0.5}),
        lambda: KPoly({0: 0.5}),
        lambda: KPoly.const(1) * 0.5,
    ):
        with pytest.raises(InvalidArgument):
            refused()
    assert RtClass(x.ambient, {key: Fraction(1, 2)}) == RtClass(x.ambient, {key: 1}).scale(Fraction(1, 2))
    assert KPoly({0: 2}) == KPoly.const(Fraction(2))


def test_kpoly_and_pushed_class_cancellation_drops_keys():
    p = KPoly({2: 1, 1: 3, 0: Fraction(1, 2)})
    q = p + KPoly({1: -3})
    assert q.terms == {2: 1, 0: Fraction(1, 2)}
    assert (p - p).terms == {} and not (p - p)
    assert (p * KPoly({1: 1, 0: -1})).terms == {3: 1, 2: 2, 1: Fraction(-5, 2), 0: Fraction(-1, 2)}
    assert repr(-q) == "-k^2 - 1/2"
    x = PushedClass({("eta", 0): p, ("eta", 1): 2})
    x._add(("eta", 0), KPoly({2: -1, 1: -3, 0: Fraction(-1, 2)}))
    assert x.terms == {("eta", 1): KPoly.const(2)}
    x._add(("eta", 1), -2)
    assert x.terms == {} and x == PushedClass()
    assert (heavy_point_expansion(3) - f_heavy_expanded(3)).terms == {}


def test_cached_f_classes_equal_fresh_ones(monkeypatch):
    monkeypatch.setattr(rtclasses, "_f_cache", {})
    assert verify_frec(3).passed
    assert verify_colliding_rt((2, 1)).passed
    cached = dict(rtclasses._f_cache)
    assert set(cached) >= {(1, 1), (1, 1, 1), (2, 1)}
    assert all(f_class_m(mults) is x for mults, x in cached.items())
    for x in cached.values():
        key = next(iter(x.terms))
        with pytest.raises(TypeError):  # cached classes are frozen
            x._add(*key, 1)
        (x + x)._add(*key, 1)  # a sum is a fresh class
    for mults, x in cached.items():
        monkeypatch.setattr(rtclasses, "_f_cache", {})
        assert f_class_m(mults) == x


# ---------------------------------------------------------------------------
# failure paths: one extra term in an input class makes a verifier fail, and
# its witness is that term's root profile


def _add_smooth_term(monkeypatch, name, args, n):
    """Make ``rtclasses.<name>(*args)`` return its class plus (kω_1 - η)^2 on the
    smooth graph with legs 1..n; returns that term's root profile."""
    t, d, f = _root_only(n, {_leg_slot(1): 2})
    extra = RtClass(range(1, n + 1), {(t, d, f): 1})
    real = getattr(rtclasses, name)
    monkeypatch.setattr(rtclasses, name, lambda *a: real(*a) + extra if a == args else real(*a))
    return rtclasses.root_profile(t, d, f)[0]


def test_frec_failure_names_the_root_profile(monkeypatch):
    profile = _add_smooth_term(monkeypatch, "f_class", (2,), 2)
    rep = verify_frec(2)
    assert (rep.passed, rep.witness) == (False, profile)


def test_colliding_rt_failure_names_the_root_profile(monkeypatch):
    # the collided class no longer equals the heavy one termwise, so the
    # per-profile test runs and finds the extra term
    profile = _add_smooth_term(monkeypatch, "f_class_m", ((2,),), 1)
    rep = verify_colliding_rt((2,))
    assert (rep.passed, rep.witness) == (False, profile)


def test_overdegree_drop_failure_names_the_root_profile(monkeypatch):
    profile = _add_smooth_term(monkeypatch, "over_degree_terms", (2,), 2)
    rep = verify_overdegree_drop(2)
    assert (rep.passed, rep.witness) == (False, profile)


def test_a_fold_normalises_each_moved_monomial_once(monkeypatch):
    x = f_class(4)
    counts = {"fact": 0, "images": 0}
    real_fact, real_follow = rtclasses._fact_tuple, RtClass._follow

    def counting_fact(fact):
        counts["fact"] += 1
        return real_fact(fact)

    def counting_follow(fact, graph, image):
        counts["images"] += 1
        return real_follow(fact, graph, image)

    monkeypatch.setattr(rtclasses, "_fact_tuple", counting_fact)
    monkeypatch.setattr(RtClass, "_follow", staticmethod(counting_follow))
    folded = strata0.fold(x, 1)
    assert folded.terms and counts["images"] > 0
    assert counts["fact"] <= counts["images"]


def test_the_graph_formula_normalises_each_monomial_once(monkeypatch):
    # f_class_m once normalised each monomial for its degree check and again in `_add`
    counts = {"fact": 0, "terms": 0}
    real_fact, real_terms = rtclasses._fact_tuple, rtclasses._formula_terms

    def counting_fact(fact):
        counts["fact"] += 1
        return real_fact(fact)

    def counting_terms(*args):
        for term in real_terms(*args):
            counts["terms"] += 1
            yield term

    monkeypatch.setattr(rtclasses, "_f_cache", {})
    monkeypatch.setattr(rtclasses, "_fact_tuple", counting_fact)
    monkeypatch.setattr(rtclasses, "_formula_terms", counting_terms)
    assert rtclasses.f_class_m((2, 1, 1)).terms
    assert counts["fact"] == counts["terms"] > 0
