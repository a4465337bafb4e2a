"""Source hygiene: no `rtails` module imports a name from a sibling and never
uses it, no private module-level name is left unread, every public function
of `trees` is read, every parameter is read, only `trees` derives the
ψ-budget and crossing tables, only `FormalSum` writes a sum's ``terms`` and
its record of summands, no module divides with ``/``, and only the guard
`trees.integer_arg` tests ``type(…) is int`` (the allow-list names the sites
that are no size check).

The benchmark tracer rebinds functions in every `rtails` namespace by
identity, so a stale ``from .x import f`` is not harmless noise there.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rtails"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_sibling_imports(source: str) -> list:
    """The names bound by a relative ``from ... import`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "from .trees import a, b as c, d\nfrom os import e\nc(d.x)\n"
    assert unused_sibling_imports(source) == ["a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_sibling_imports(path):
    assert unused_sibling_imports(path.read_text()) == []


# the ψ-budget and crossing tables are derived in `trees` alone, from these
STRATUM_TABLE_INPUTS = ("valence", "_subsets_as_masks")


def stratum_table_inputs(source: str) -> list:
    """The names of ``STRATUM_TABLE_INPUTS`` that ``source`` imports or reads."""
    tree = ast.parse(source)
    names = _reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return sorted(names.intersection(STRATUM_TABLE_INPUTS))


def test_the_check_sees_a_stratum_table_input():
    source = "from .trees import valence as v, splits\nfrom . import trees\ntrees._subsets_as_masks(3, 2, 2)\n"
    assert stratum_table_inputs(source) == ["_subsets_as_masks", "valence"]
    assert stratum_table_inputs("valence = 3\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "trees.py"], ids=lambda p: p.name)
def test_only_trees_derives_the_stratum_tables(path):
    assert stratum_table_inputs(path.read_text()) == []


def _reads(node) -> set:
    """The names and attributes ``node`` reads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _defines(node) -> list:
    """The names a module-level statement defines (imports excluded)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def unread_private_names(modules: dict, readers=()) -> list:
    """``module.name`` for each module-level ``_name`` in ``modules`` that no
    statement reads, in ``modules`` or ``readers``, outside its own definition."""
    statements = [(mod, node) for mod, source in modules.items() for node in ast.parse(source).body]
    statements += [(None, node) for source in readers for node in ast.parse(source).body]
    reads = [_reads(node) for _, node in statements]
    return sorted(
        f"{mod}.{name}"
        for k, (mod, node) in enumerate(statements)
        if mod is not None
        for name in _defines(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != k)
    )


def test_the_check_sees_an_unread_private_name():
    source = (
        "_used = 1\n_unread: int = 2\n__dunder__ = 3\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _by_tests():\n    pass\n"
        "def f():\n    return _used\n"
    )
    assert unread_private_names({"m": source}, ["m._by_tests()\n"]) == ["m._recursive", "m._unread"]


def test_every_private_name_is_read():
    readers = [p.read_text() for folder in ("tests", "bench") for p in sorted((ROOT / folder).glob("*.py"))]
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(modules, readers) == []


def unread_public_names(source: str, readers=()) -> list:
    """Each public module-level ``def`` or ``class`` of ``source`` that no
    statement reads, in ``source`` outside its own definition or in
    ``readers``; importing a name is not reading it, reading its alias is."""
    body = ast.parse(source).body
    reads = [_reads(node) for node in body]
    for reader in map(ast.parse, readers):
        names = _reads(reader)
        for node in ast.walk(reader):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names if alias.asname in names)
        reads.append(names)
    return sorted(
        node.name
        for k, node in enumerate(body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in r for j, r in enumerate(reads) if j != k)
    )


def test_the_check_sees_an_unread_public_name():
    source = (
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Exported:\n    pass\n"
        "def _private():\n    pass\n"
        "def by_sibling():\n    return used()\n"
    )
    sibling = "from .trees import Exported, by_sibling as b\nb()\n"
    assert unread_public_names(source, [sibling]) == ["Exported", "recursive"]


def test_every_trees_function_is_read():
    # each move of the foundation layer has one entry; `__init__`'s
    # re-exports are imports, not reads
    readers = [p.read_text() for p in MODULES if p.name != "trees.py"]
    assert unread_public_names((SRC / "trees.py").read_text(), readers) == []


def unread_parameters(source: str) -> list:
    """``function.parameter`` (``lambda@line.parameter`` for a lambda) for each
    parameter of a ``def`` or ``lambda`` that its body never reads; a name
    starting with ``_`` says it is unread on purpose and is exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [p for p in (args.vararg, args.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", f"lambda@{node.lineno}")
        out += [f"{name}.{p.arg}" for p in params if not p.arg.startswith("_") and p.arg not in read]
    return sorted(out)


def test_the_check_sees_an_unread_parameter():
    source = (
        "def f(k, g, n, *rest, _spare=0, **opts):\n"
        "    def inner(m):\n        return n + m\n"
        "    return inner(len(opts)).k\n"
        "table = {'a': lambda max_n, _: max_n, 'b': lambda *_: 0, 'c': lambda x: 1}\n"
    )
    assert unread_parameters(source) == ["f.g", "f.k", "f.rest", "lambda@5.x"]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


# the dict and list methods that change a ``terms`` or a record in place
TERMS_MUTATORS = ("update", "pop", "popitem", "setdefault", "clear", "append", "extend")
# the slots of a sum that only `FormalSum` writes: its terms, and the record
# of its frozen summands, which would pair the wrong class if it went stale
SUM_SLOTS = ("terms", "_summands")


def _is_terms(node, slots=("terms",)) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in slots


def _starts_a_sum(node: ast.Assign) -> bool:
    """Whether ``node`` is ``self.terms = {}``."""
    target = node.targets[0]
    return (
        len(node.targets) == 1
        and _is_terms(target)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        and isinstance(node.value, ast.Dict)
        and not node.value.keys
    )


def terms_writers(source: str) -> list:
    """The lines of statements outside ``class FormalSum`` that write a
    ``terms`` or ``_summands`` attribute (`SUM_SLOTS`): assign or delete it
    or one of its items, or call a method of ``TERMS_MUTATORS`` on it.
    ``self.terms = {}`` in an ``__init__`` starts a sum and is allowed."""
    lines = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "FormalSum":
                continue
            if function == "__init__" and isinstance(child, ast.Assign) and _starts_a_sum(child):
                continue
            stored = isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del))
            if (
                (stored and _is_terms(child, SUM_SLOTS))
                or (stored and isinstance(child, ast.Subscript) and _is_terms(child.value, SUM_SLOTS))
                or (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in TERMS_MUTATORS
                    and _is_terms(child.func.value, SUM_SLOTS)
                )
            ):
                lines.append(child.lineno)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), None)
    return sorted(lines)


def test_the_check_sees_a_terms_writer():
    source = (
        "class FormalSum:\n"
        "    def _put(self, key, coeff):\n"
        "        self.terms[key] = coeff\n"
        "        self._summands = None\n"
        "class Sum(FormalSum):\n"
        "    def __init__(self):\n"
        "        self.terms = {}\n"
        "    def f(self, x, key):\n"
        "        x.terms = dict(self.terms)\n"
        "        x.terms[key] = 1\n"
        "        x.terms[key] += 1\n"
        "        del x.terms[key]\n"
        "        x.terms.update({})\n"
        "        return x.terms.get(key), self.terms[key], x._summands\n"
        "def g(blocks, key):\n"
        "    blocks[key].terms = {}\n"
        "    blocks[key].terms.setdefault(key, 1)\n"
        "    for k in list(blocks[key].terms):\n"
        "        blocks[key].terms.pop(k)\n"
        "def __init__(self):\n"
        "    self.terms = {1: 2}\n"
        "    self._summands = []\n"
        "def h(x, y):\n"
        "    x._summands = [(1, y)]\n"
        "    x._summands[0] = (2, y)\n"
        "    x._summands.append((1, y))\n"
        "    del x._summands\n"
        "    return getattr(x, '_summands', None)\n"
    )
    assert terms_writers(source) == [9, 10, 11, 12, 13, 16, 17, 19, 21, 22, 24, 25, 26, 27]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_formal_sum_writes_terms(path):
    # `FormalSum._put` and `FormalSum.plus` are the writers: a term goes in
    # checked, and a cancelled key goes out; `plus` records its frozen
    # summands, and `_put` drops the record
    assert terms_writers(path.read_text()) == []


def true_divisions(source: str) -> list:
    """The lines of ``source`` that divide with ``/`` or ``/=``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_the_check_sees_a_true_division():
    source = "a = 1 / 2\nb = a // 2\nb /= 3\nc = f'{a / b}'\nd = '1/2'\ne = Fraction(1, 2)\n"
    assert true_divisions(source) == [1, 3, 4]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_true_division(path):
    # a coefficient stays an `int` while it is one, so ``c / k`` would make
    # a float of it: an exact quotient is ``//`` or a `Fraction`
    assert true_divisions(path.read_text()) == []


# the sites besides the guard that test ``type(…) is int``, none a size check:
# a coefficient is an `int` or a `Fraction`, and JSON reads a coefficient and
# a genus
INT_TYPE_TESTS_ALLOWED = ("trees.integer_arg", "strata0.exact", "serialize._term_from_json", "serialize.tree_from_json")


def _names(node) -> set:
    """``"type"`` for a call of ``type``, ``"int"`` for the name ``int``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type":
        return {"type"}
    return {"int"} if isinstance(node, ast.Name) and node.id == "int" else set()


def int_type_tests(source: str, module: str) -> list:
    """``module.function:line`` for each ``type(…) is int`` or ``type(…) is
    not int`` in ``source``, by the innermost function around it, outside
    ``INT_TYPE_TESTS_ALLOWED``."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Compare):
                sides = list(zip([child.left, *child.comparators], child.comparators))
                for op, (a, b) in zip(child.ops, sides):
                    site = f"{module}.{inner}"
                    if isinstance(op, (ast.Is, ast.IsNot)) and _names(a) | _names(b) == {"type", "int"} and site not in INT_TYPE_TESTS_ALLOWED:
                        out.append(f"{site}:{child.lineno}")
            visit(child, inner)

    visit(ast.parse(source), None)
    return out


def test_the_check_sees_an_int_type_test():
    source = (
        "def integer_arg(v):\n    return type(v) is int\n"
        "def f(v, w):\n"
        "    if type(v) is not int:\n        pass\n"
        "    ok = int is type(w)\n"
        "    return isinstance(v, int) and type(v) is type(w) and type(v) is bool\n"
        "class K:\n    def m(self, d):\n        return [type(d) is int for _ in ()]\n"
    )
    assert int_type_tests(source, "trees") == ["trees.f:4", "trees.f:6", "trees.m:10"]
    assert int_type_tests(source, "other") == ["other.integer_arg:2", "other.f:4", "other.f:6", "other.m:10"]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_only_the_guard_tests_for_an_int(path):
    # a size, index or exponent is checked by `trees.integer_arg` alone, so
    # that hand-written checks, and the bool and float leaks they left, do not come back
    assert int_type_tests(path.read_text(), path.stem) == []
