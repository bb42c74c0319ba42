"""src/bqtru holds only code that src/bqtru calls.

A module-level function or class, or a method or property of a class, that
only tests call is a reference path and belongs in tests/oracles.py.  A
name counts as called when src/bqtru loads it, as a name or as an
attribute, outside its own definition; an import does not count.  A class
method counts as called only through its class (Class.name), because its
name alone may be another class's method of the same name.
"""

import ast
import collections
import pathlib

import bqtru

SRC = pathlib.Path(bqtru.__file__).parent

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


def test_exemptions_name_definitions():
    defined = {d.name for tree in _trees().values() for d in _definitions(tree)}
    assert AWAITING_CALLER <= defined
