"""src/bqtru holds only code that src/bqtru calls.

A module-level function or class, or a method or property of a class, that
only tests call is a reference path and belongs in tests/oracles.py.  A
name counts as called when src/bqtru loads it, as a name or as an
attribute, outside its own definition; an import does not count.  A class
method counts as called only through its class (Class.name), because its
name alone may be another class's method of the same name.  No two classes
in src/bqtru define the same non-dunder method or property name, since a
load of such a name could not tell which of the two it calls.

Every module in src/bqtru and tests loads each name it imports; a name
listed in the module's __all__ counts as loaded.
"""

import ast
import collections
import pathlib

import bqtru

SRC = pathlib.Path(bqtru.__file__).parent
TESTS = pathlib.Path(__file__).parent

# kept without a caller, each for the open ROADMAP item that will call it
AWAITING_CALLER = {
    # item 1: its gate draws codec messages through the Monte-Carlo estimator
    "monte_carlo_failure_rate",
    # item 2: the fold maps give the 4n-dimensional images of the attack lattice
    "fold_to_univariate",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _methods(cls):
    """Non-dunder methods and properties of a class definition."""
    return [node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _is_classmethod(fn):
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list)


def _loaded(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
            if isinstance(sub.value, ast.Name):
                yield f"{sub.value.id}.{sub.attr}"


def _uncalled(trees, exempt=frozenset()):
    """Qualified names of the definitions that nothing in src loads."""
    loads = collections.Counter()
    for tree in trees.values():
        loads.update(_loaded(tree))
    dead = []
    for module, tree in trees.items():
        for d in _definitions(tree):
            candidates = [(d, d.name, d.name)]
            if isinstance(d, ast.ClassDef):
                candidates += [(m, f"{d.name}.{m.name}" if _is_classmethod(m) else m.name,
                                f"{d.name}.{m.name}") for m in _methods(d)]
            for node, key, qualified in candidates:
                if node.name in exempt:
                    continue
                if loads[key] - collections.Counter(_loaded(node))[key] <= 0:
                    dead.append(f"{module}.{qualified}")
    return dead


def test_every_definition_has_a_caller_in_src():
    trees = _trees()
    # the package's public API, and the univariate NTRU baseline the
    # operation-count comparison is made against
    exempt = set(bqtru.__all__) | AWAITING_CALLER
    exempt |= {d.name for d in _definitions(trees["ntru"]) if not d.name.startswith("_")}
    assert _uncalled(trees, exempt) == []


def test_guard_sees_methods():
    tree = ast.parse(
        "class A:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n"
        "    def used(self):\n"
        "        return self.unused\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "class B:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return A.make()\n"
        "def f():\n"
        "    return B().used()\n")
    # A.make is called through its class, B.make's name alone does not
    # count, and a method calling itself is not a caller
    assert _uncalled({"m": tree}) == ["m.A.size", "m.B.make", "m.f"]


def _shared_method_names(trees):
    """{name: [Class, ...]} for each non-dunder method or property name that
    more than one class in src defines."""
    owners = collections.defaultdict(list)
    for tree in trees.values():
        for d in _definitions(tree):
            if isinstance(d, ast.ClassDef):
                for m in _methods(d):
                    owners[m.name].append(d.name)
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


def test_method_names_are_unique_across_classes():
    # the caller count sees attribute names only, so a load of a name that
    # two classes define would count as a call of both
    assert _shared_method_names(_trees()) == {}


def test_shared_name_guard_sees_pairs():
    tree = ast.parse(
        "class A:\n"
        "    def with_modulus(self):\n"
        "        return self\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "class B:\n"
        "    @property\n"
        "    def with_modulus(self):\n"
        "        return self\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def own(self):\n"
        "        return self\n")
    # dunders are shared by design
    assert _shared_method_names({"m": tree}) == {"with_modulus": ["A", "B"]}


def test_exemptions_name_definitions():
    defined = {d.name for tree in _trees().values() for d in _definitions(tree)}
    assert AWAITING_CALLER <= defined


def _unused_imports(tree):
    """Names the module imports but never loads, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_import_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[f"{path.parent.name}/{path.name}"] = names
    assert unused == {}


def test_import_guard_sees_unused_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import comb, gcd, isqrt\n"
        "from .ring import RingElem\n"
        "__all__ = ['gcd']\n"
        "def f(x: np.ndarray):\n"
        "    comb = 1\n"
        "    return x.isqrt(os.sep)\n")
    # a store or an attribute of the same name is not a load of the import
    assert _unused_imports(tree) == ["comb", "isqrt", "RingElem"]
