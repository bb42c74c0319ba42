"""src/bqtru holds only code that src/bqtru calls.

A module-level function or class that only tests call is a reference path
and belongs in tests/oracles.py.  A name counts as called when some other
top-level statement of src/bqtru loads it, as a name or as an attribute;
its own definition and an import do not count.
"""

import ast
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


def _loaded(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_every_definition_has_a_caller_in_src():
    trees = _trees()
    used = set()
    for tree in trees.values():
        for node in tree.body:
            names = set(_loaded(node))
            if node in _definitions(tree):
                names.discard(node.name)
            used |= names
    # the package's public API, and the univariate NTRU baseline the
    # operation-count comparison is made against
    exempt = set(bqtru.__all__) | AWAITING_CALLER
    exempt |= {d.name for d in _definitions(trees["ntru"]) if not d.name.startswith("_")}
    dead = [f"{module}.{d.name}" for module, tree in trees.items()
            for d in _definitions(tree) if d.name not in used | exempt]
    assert dead == []


def test_exemptions_name_definitions():
    defined = {d.name for tree in _trees().values() for d in _definitions(tree)}
    assert AWAITING_CALLER <= defined
