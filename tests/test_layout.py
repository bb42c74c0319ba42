"""src/bqtru holds only code that src/bqtru calls.

A module-level function or class, or a method or property of a class, that
only tests call is a reference path and belongs in tests/oracles.py.  A
name counts as called when src/bqtru loads it, as a name or as an
attribute, outside its own definition; an import does not count.  A class
method counts as called only through its class (Class.name), because its
name alone may be another class's method of the same name.  No two classes
in src/bqtru define the same non-dunder method or property name, since a
load of such a name could not tell which of the two it calls.

Every definition in tests/oracles.py is loaded by a test module, or by
an oracle that one loads.

Every module in src/bqtru and tests loads each name it imports; a name
listed in the module's __all__ counts as loaded.

Every defaulted parameter of a function or method in src/bqtru is set by
some call in src/bqtru, by keyword or by position; a call of a class sets
its __init__'s.  A parameter that every caller leaves at its default is a
constant.

Every attribute a class in src/bqtru stores, a dataclass field or a
self.<name> its methods assign, is loaded as .<name> somewhere in
src/bqtru: a field nothing reads is state built for no caller.

No module in src/bqtru reads an environment variable: its inputs are
arguments and files.

No module in src/bqtru calls a library sampler (random's sample,
shuffle, choice and choices, numpy's permutation): ring.signed_ternary
draws over getrandbits itself, so a seed pins every draw a key file
depends on, and that one sampler is tested against random.Random.sample.
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
    # item 8: bench times the univariate NTRU baseline against the scheme
    "NtruParams", "ntru_keygen", "ntru_encrypt", "ntru_decrypt", "ntru_public_key_bits",
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
    # the package's public API is called from outside
    assert _uncalled(_trees(), set(bqtru.__all__) | AWAITING_CALLER) == []


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


# classes whose stored fields are kept without a reader in src, each for
# the open ROADMAP item that will read them
AWAITING_READER = {
    # item 12: `analyze --trials` prints the Monte-Carlo estimate's fields
    "MonteCarloResult",
}


def _stored_fields(cls):
    """The attributes a class definition stores: its annotated class-body
    names (dataclass fields) and each self.<name> its methods assign."""
    fields = [node.target.id for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    for sub in ast.walk(cls):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
            fields.append(sub.attr)
    return list(dict.fromkeys(fields))


def _unread_fields(trees, exempt=frozenset()):
    """Class.field for each stored attribute that no tree loads as .field."""
    loads = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return [f"{d.name}.{field}" for tree in trees.values() for d in _definitions(tree)
            if isinstance(d, ast.ClassDef) and d.name not in exempt
            for field in _stored_fields(d) if field not in loads]


def test_every_stored_attribute_is_read():
    # a field nothing reads is state every instance builds for no caller
    trees = _trees()
    classes = {d.name for tree in trees.values() for d in _definitions(tree)}
    assert AWAITING_READER <= classes
    assert _unread_fields(trees, AWAITING_READER) == []


def test_field_guard_sees_unread():
    tree = ast.parse(
        "@dataclass\n"
        "class A:\n"
        "    read: int\n"
        "    unread: int\n"
        "class B:\n"
        "    def __init__(self, a):\n"
        "        self.a = a\n"
        "        self.cache = None\n"
        "        self.cache = a.read\n"
        "    def get(self):\n"
        "        return self.a\n"
        "class C:\n"
        "    kept: int\n"
        "def f(b):\n"
        "    b.cache2 = 1\n"
        "    return b.get()\n")
    # a store is not a read, a field stored twice is named once, a store
    # outside a class's own methods is no field of it, and exempt classes
    # are skipped
    assert _unread_fields({"m": tree}) == ["A.unread", "B.cache", "C.kept"]
    assert _unread_fields({"m": tree}, {"C"}) == ["A.unread", "B.cache"]


def _unreached_oracles(oracles, tests):
    """Names of the definitions in the oracles tree that no test tree loads,
    directly or through the oracles it loads, in source order."""
    defs = {d.name: d for d in _definitions(oracles)}
    todo = [name for tree in tests for name in _loaded(tree) if name in defs]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [sub for sub in _loaded(defs[name]) if sub in defs]
    return [name for name in defs if name not in reached]


def test_every_oracle_is_used():
    tests = [ast.parse(path.read_text(), str(path)) for path in sorted(TESTS.glob("test_*.py"))]
    oracles = ast.parse((TESTS / "oracles.py").read_text())
    assert _unreached_oracles(oracles, tests) == []


def test_oracle_guard_sees_unused():
    oracles = ast.parse(
        "class Failure(Exception):\n"
        "    pass\n"
        "def helper():\n"
        "    return 1\n"
        "def checked():\n"
        "    return helper()\n"
        "def chain():\n"
        "    return unused_twin()\n"
        "def unused_twin():\n"
        "    return chain()\n"
        "def dead():\n"
        "    raise Failure\n")
    tests = [ast.parse("from oracles import checked, dead\n"
                       "def test_a():\n"
                       "    assert checked()\n")]
    # an import is not a use, and oracles that only load each other are dead
    assert _unreached_oracles(oracles, tests) == ["Failure", "chain", "unused_twin", "dead"]


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


def _called_outside(trees, names):
    """The names in names that some tree loads outside the definitions of names."""
    loads = collections.Counter()
    for tree in trees.values():
        loads.update(_loaded(tree))
        for d in _definitions(tree):
            if d.name in names:
                loads.subtract(_loaded(d))
    return {name for name in names if loads[name] > 0}


def test_exemptions_name_definitions():
    # an entry whose item gave it a caller, or deleted it, is stale; the
    # NTRU baseline's functions take NtruParams, and no caller takes them
    trees = _trees()
    defined = {d.name for tree in trees.values() for d in _definitions(tree)}
    assert AWAITING_CALLER <= defined
    assert _called_outside(trees, AWAITING_CALLER) == set()


def test_exemption_guard_sees_callers():
    tree = ast.parse(
        "class P:\n"
        "    pass\n"
        "def waiting(p: P):\n"
        "    return waiting(p)\n"
        "def other(p: P):\n"
        "    return p\n"
        "def called():\n"
        "    return 1\n"
        "def run():\n"
        "    return called()\n")
    # a load inside a waiting definition, its own or another's, is no caller
    assert _called_outside({"m": tree}, {"P", "waiting", "other", "called"}) == {"called"}
    assert _called_outside({"m": tree}, {"P", "waiting"}) == {"P"}


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


# defaulted parameters kept without a caller in src that sets them, by
# function or method name
UNSET_DEFAULTS = {
    # perfbench and the tests drive main with their own arguments and sink
    "main": {"argv", "out"},
    # ROADMAP item 9 passes a given Phi, and tests compare against one
    "encrypt": {"phi"},
}


def _defaulted(fn, bound: int):
    """(name, index among the positional arguments a call passes, or None
    for keyword-only) of each defaulted parameter of fn, whose first bound
    parameters the call does not pass."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    found = [(a.arg, i - bound) for i, a in enumerate(pos) if i >= first]
    return found + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if d is not None]


def _callables(tree):
    """(name a call uses, qualified name, definition, parameters the call
    does not pass) of each function and method; a class call names __init__."""
    for d in _definitions(tree):
        if isinstance(d, ast.ClassDef):
            for m in d.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(x, ast.Name) and x.id == "staticmethod"
                                 for x in m.decorator_list)
                    yield (d.name if m.name == "__init__" else m.name,
                           f"{d.name}.{m.name}", m, 0 if static else 1)
        else:
            yield d.name, d.name, d, 0


def _calls(tree):
    """(callee name, call) of each call in a module, an imported alias
    mapped back to the imported name."""
    alias = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names if a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is not None:
                yield alias.get(name, name), node


def _sets(call, name: str, index) -> bool:
    """Whether call passes the parameter name, at positional index index."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(
        isinstance(a, ast.Starred) for a in call.args))


def _unset_defaults(trees, exempt=frozenset(), kept=None):
    """module.function(parameter) for each defaulted parameter that no call
    in trees, outside the function's own body, sets; functions named in
    exempt and the parameters kept names for a function are skipped."""
    kept = kept or {}
    calls = [c for tree in trees.values() for c in _calls(tree)]
    unset = []
    for module, tree in trees.items():
        for key, qualified, fn, bound in _callables(tree):
            if fn.name in exempt or key in exempt:
                continue
            own = {id(node) for node in ast.walk(fn)}
            for name, index in _defaulted(fn, bound):
                if name in kept.get(fn.name, ()):
                    continue
                if not any(callee == key and id(call) not in own and _sets(call, name, index)
                           for callee, call in calls):
                    unset.append(f"{module}.{qualified}({name})")
    return unset


def test_every_default_is_set_in_src():
    # a parameter no caller sets is a constant with the cost of an option
    assert _unset_defaults(_trees(), AWAITING_CALLER, UNSET_DEFAULTS) == []


def test_default_guard_sees_unset():
    tree = ast.parse(
        "from .m import f as g\n"
        "class A:\n"
        "    def __init__(self, x, y=1, *, z=2):\n"
        "        self.x = x\n"
        "    def step(self, k=0, m=0):\n"
        "        return self.step(m=1)\n"
        "    @staticmethod\n"
        "    def make(a=0):\n"
        "        return A(a, z=a)\n"
        "def f(a, b=0, c=0, *, d=0):\n"
        "    return A.make(1).step(k=a)\n"
        "def h(v=0):\n"
        "    return g(1, *v)\n")
    # A(a, z=a) sets z, not y; step's own call of itself does not count; a
    # static method's first parameter is passed; an alias is its function,
    # and a starred argument passes every position but no keyword
    assert _unset_defaults({"m": tree}) == [
        "m.A.__init__(y)", "m.A.step(m)", "m.f(d)", "m.h(v)"]
    assert _unset_defaults({"m": tree}, {"h"}, {"step": {"m"}}) == [
        "m.A.__init__(y)", "m.f(d)"]


def test_default_exemptions_name_parameters():
    params = {fn.name: {name for name, _ in _defaulted(fn, 0)}
              for tree in _trees().values() for _, _, fn, _ in _callables(tree)}
    for fn, names in UNSET_DEFAULTS.items():
        assert names <= params[fn]


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """The os environment reads in a module, as os.<name>, in source order."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ENVIRONMENT_READS):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names
                      if a.name in ENVIRONMENT_READS]
    return [name for _, name in sorted(found)]


def test_src_reads_no_environment_variable():
    # a variable set in the shell would change what a command writes, a
    # key file among it, without showing on its command line
    reads = {module: _environment_reads(tree) for module, tree in _trees().items()}
    assert {module: names for module, names in reads.items() if names} == {}


def test_environment_guard_sees_reads():
    tree = ast.parse(
        "import os\n"
        "from os import getenv, path\n"
        "a = os.environ.get('A')\n"
        "b = os.getenv('B')\n"
        "c = os.path.join('x')\n")
    assert _environment_reads(tree) == ["os.getenv", "os.environ", "os.getenv"]


LIBRARY_SAMPLERS = {"sample", "shuffle", "choice", "choices", "permutation"}


def _sampler_calls(tree):
    """The calls of a library sampler in a module, as .<name>, in source order."""
    found = [(node.lineno, node.col_offset, f".{node.func.attr}") for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in LIBRARY_SAMPLERS]
    return [name for _, _, name in sorted(found)]


def test_src_draws_through_one_sampler():
    # a draw outside ring's own sampler would tie what a seed derives to
    # the library's private code
    calls = {module: _sampler_calls(tree) for module, tree in _trees().items()}
    assert {module: names for module, names in calls.items() if names} == {}


def test_sampler_guard_sees_calls():
    tree = ast.parse(
        "import random\n"
        "import numpy as np\n"
        "def f(rng, xs):\n"
        "    rng.shuffle(xs)\n"
        "    a = np.random.default_rng(1).permutation(5)\n"
        "    return rng.sample(range(9), 2), random.choice(xs), rng.choices(xs), rng.getrandbits\n")
    assert _sampler_calls(tree) == [".shuffle", ".permutation", ".sample", ".choice", ".choices"]
