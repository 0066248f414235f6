"""Dead-code guard: no module-level import that a package or test module
never uses, no local name that a function there assigns and never reads
(local names starting with an underscore are exempt), no parameter of a
public function or method of the package that its body never reads, and no
public module-level function or class, and no public method, property,
annotated field or instance attribute of a package class, without a reader
outside the module tests."""

import ast
import importlib.util
import inspect
import pathlib
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinlab"
MODULES = sorted(SRC.glob("*.py"))
# test_acceptance.py is exempt: the acceptance suite is kept as it is, its
# unused `wilson_interval` import included
TESTS = sorted(p for p in (ROOT / "tests").glob("*.py")
               if p.name != "test_acceptance.py")

def _loaded(tree) -> set:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(tree) -> list:
    used = _loaded(tree)
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    out.append(name)
    return out


def _own_stores(func) -> set:
    """Names the function itself binds by assignment, outside nested
    functions, lambdas and classes."""
    out = set()
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread_locals(tree) -> list:
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {name for n in ast.walk(func)
                    if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        dead = _own_stores(func) - _loaded(func) - declared
        out += [f"{func.name}: {name}" for name in sorted(dead)
                if not name.startswith("_")]
    return out


def unread_parameters(tree) -> list:
    """Parameters of public functions and methods that their body never
    reads, as "function: name"; self, cls and names starting with an
    underscore are exempt."""
    out = []
    for func in ast.walk(tree):
        if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                or func.name.startswith("_")):
            continue
        a = func.args
        params = [p for p in (*a.posonlyargs, *a.args, a.vararg,
                              *a.kwonlyargs, a.kwarg) if p is not None]
        read = set().union(*map(_loaded, func.body))
        out += [f"{func.name}: {p.arg}" for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")]
    return out


def references(tree, strings=False) -> Counter:
    """How often the tree loads each name, reads it as an attribute or
    imports it; with `strings`, also its string constants, since the
    benchmark patches functions by attribute name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def uncalled_names(modules: dict, outside) -> list:
    """Public module-level functions and classes of `modules` (name -> tree)
    that no package module references outside the definition itself and
    that `outside` does not name either, as "module.name"."""
    total = sum((references(t) for t in modules.values()), Counter())
    out = []
    for name, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in outside
                    and total[node.name] == references(node)[node.name]):
                out.append(f"{name}.{node.name}")
    return sorted(out)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_local_assigned_and_never_read(path):
    assert unread_locals(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(ast.parse(path.read_text())) == []


def test_guard_catches_dead_code():
    tree = ast.parse(
        "import os\n"
        "from math import pi, tau\n"
        "def f(x):\n"
        "    a, b = x\n"
        "    unused = 1\n"
        "    return a + pi\n")
    assert unused_imports(tree) == ["os", "tau"]
    assert unread_locals(tree) == ["f: b", "f: unused"]


def test_parameter_guard_catches_dead_code():
    tree = ast.parse(
        "def f(a, b, *args, c=1, _d=2, **kw):\n"
        "    def inner(x):\n"
        "        return a + kw['y']\n"
        "    return inner\n"
        "def _private(unused): pass\n"
        "class C:\n"
        "    def m(self, used, default=None):\n"
        "        return used\n"
        "    @classmethod\n"
        "    def k(cls, z):\n"
        "        return lambda: z\n")
    assert unread_parameters(tree) == [
        "f: b", "f: args", "f: c", "inner: x", "m: default"]


def attribute_reads(tree, strings=False) -> Counter:
    """How often the tree reads each attribute name (an ast.Attribute in a
    Load context); a read of `self.<attr>` counts under ("self", attr)
    instead, since it reaches only the class it sits in.  With `strings`,
    also its string constants, since the benchmark patches members by name.
    Constructor keywords and attribute stores are writes and do not count."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            own = isinstance(node.value, ast.Name) and node.value.id == "self"
            out[("self", node.attr) if own else node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def class_members(cls):
    """(name, definition) for each method, property and annotated field of
    the class, and for each attribute that one of its methods stores on
    `self`, with that store as its definition."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
            for store in ast.walk(node):
                if (isinstance(store, ast.Attribute) and isinstance(store.ctx, ast.Store)
                        and isinstance(store.value, ast.Name) and store.value.id == "self"):
                    yield store.attr, store
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def unread_members(modules: dict, outside: Counter) -> list:
    """Public methods, properties, annotated fields and instance attributes
    of the classes of `modules` (name -> tree) that no attribute read of a
    package module reaches outside the member's own definition, and that
    `outside` does not read either, as "module.Class.member".  A read of
    `self.member` reaches the member only from inside its own class."""
    total = sum((attribute_reads(t) for t in modules.values()), outside)
    out = set()
    for name, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            own = attribute_reads(cls)
            for member, node in class_members(cls):
                mine, key = attribute_reads(node), ("self", member)
                if (not member.startswith("_") and total[member] == mine[member]
                        and own[key] == mine[key]):
                    out.add(f"{name}.{cls.name}.{member}")
    return sorted(out)


def test_every_public_name_has_a_caller():
    # callers: the package itself, the benchmark and the acceptance suite;
    # a name that only its module tests reach is dead code
    outside = references(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in sorted((ROOT / "spinbench").glob("*.py")):
        outside |= references(ast.parse(path.read_text()), strings=True)
    modules = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    assert uncalled_names(modules, outside) == []


def test_caller_guard_catches_dead_code():
    modules = {
        "a": ast.parse("def used(): pass\n"
                       "def recursive(n): return recursive(n - 1)\n"
                       "def patched(): pass\n"
                       "class Helper: pass\n"
                       "def _private(): pass\n"),
        "b": ast.parse("from .a import used\n"
                       "def main(): return used() + _helper()\n"
                       "def _helper(): return a.Helper\n"),
    }
    assert uncalled_names(modules, {"patched", "main"}) == ["a.recursive"]
    assert uncalled_names(modules, set()) == ["a.patched", "a.recursive", "b.main"]


def test_every_public_member_has_a_reader():
    # readers as for module names; a field that only its constructor call
    # writes is an input echo, a member that only module tests read is dead
    # code.
    outside = attribute_reads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in sorted((ROOT / "spinbench").glob("*.py")):
        outside += attribute_reads(ast.parse(path.read_text()), strings=True)
    modules = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    assert unread_members(modules, outside) == []


def test_member_guard_catches_dead_code():
    modules = {
        "a": ast.parse("@dataclass\n"
                       "class R:\n"
                       "    used: int\n"
                       "    written: int\n"
                       "    _private: int\n"
                       "    def recursive(self): return self.recursive()\n"
                       "    @property\n"
                       "    def prop(self): return self.used\n"
                       "    def patched(self): pass\n"
                       "    def __len__(self): return 0\n"
                       "    def __post_init__(self):\n"
                       "        self.cached = self.used\n"
                       "        self.dead, self._hidden = 0, 0\n"
                       "    def reset(self): self.dead = 1\n"
                       # Tile reads its own size; that read does not reach Box's
                       "class Box:\n"
                       "    def __init__(self): self.size = 0\n"
                       "class Tile:\n"
                       "    def __init__(self): self.size = 0\n"
                       "    def area(self): return self.size ** 2\n"),
        "b": ast.parse("def make():\n"
                       "    r = a.R(used=1, written=2)\n"
                       "    r.written = 3\n"
                       "    r.reset()\n"
                       "    return r, r.cached, a.Tile().area()\n"),
    }
    assert unread_members(modules, Counter()) == [
        "a.Box.size", "a.R.dead", "a.R.patched", "a.R.prop", "a.R.recursive",
        "a.R.written"]
    assert unread_members(modules, Counter(["patched", "prop", "dead"])) == [
        "a.Box.size", "a.R.recursive", "a.R.written"]


def _spinlab_attributes() -> dict:
    """(owner, attribute) -> value for every loaded spinlab module and
    every class those modules define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "spinlab" and not name.startswith("spinlab."):
            continue
        for attr, value in vars(mod).items():
            out[name, attr] = value
            if inspect.isclass(value) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[f"{name}.{attr}", key] = member
    return out


def test_benchmark_hooks_install_and_restore():
    # the benchmark patches spinlab by attribute name; a rename breaks its
    # traced runs, so install both hook layers here and take them off again
    spec = importlib.util.spec_from_file_location(
        "spinbench_tracing", ROOT / "spinbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for path in MODULES:
        if path.stem != "__init__":
            importlib.import_module(f"spinlab.{path.stem}")

    before = _spinlab_attributes()
    capture, tracer = tracing.Capture(), tracing.Tracer()
    capture.install()
    tracer.install()
    try:
        during = _spinlab_attributes()
        patched = {k for k in before if during[k] is not before[k]}
        assert ("spinlab.interaction", "decompose") in patched
        assert ("spinlab.interaction", "verify_condition_51") in patched
        assert ("spinlab.interaction.PairPotential", "__call__") in patched
        assert ("spinlab.longrange_walk.WalkKernel", "char_function") in patched
    finally:
        tracer.uninstall()
        capture.uninstall()
    after = _spinlab_attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


# The package's settable values may only fall: a change that adds one has
# to raise this bound in plain sight.
SETTABLE_VALUES_MAX = 450


def test_settable_values_do_not_grow():
    spec = importlib.util.spec_from_file_location(
        "settable_values", ROOT / "tools" / "settable_values.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    total = sum(sum(tool.count(ast.parse(path.read_text())))
                for path in tool.SRC.glob("*.py"))
    assert total <= SETTABLE_VALUES_MAX
