"""Every name the package and its tests import is read somewhere, every
private name a package module defines is read in that module, no package
module reaches into another's private names or imports scipy, and every
error class is one that some caller catches by name."""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def wrapped_names() -> dict:
    """The names the benchmark's tracer wraps, by the module it wraps them at:
    `WRAP_POINTS` of perfbench/tracing.py, read as test_traced_view reads it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = defaultdict(set)
    for module_name, attribute, _, _ in tracing.WRAP_POINTS:
        wrapped[module_name].add(attribute.split(".")[0])
    return wrapped


def unused_imports(source: str, wrapped=frozenset()) -> list[str]:
    """Imported names never read as a plain name, in order of appearance.

    Exempt: `__future__` imports, names listed in `__all__`, star imports, and
    names in `wrapped` on an import whose lines carry `# noqa: F401`; those
    stay bound only for the benchmark's tracer to wrap.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name == "*" or name in read or name in exported:
                continue
            if not (noqa and name in wrapped):
                unused.append(name)
    return unused


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from math import pi, tau  # noqa: F401\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == ["osp", "pi", "tau", "dumps"]
    # Only a wrapped name on a `# noqa: F401` line is exempt.
    assert unused_imports(source, {"pi", "dumps"}) == ["osp", "tau", "dumps"]


def test_no_unused_imports_in_src_or_tests():
    wrapped = wrapped_names()
    found = {}
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        # src/impulselab/experiments.py is the module impulselab.experiments.
        module = ".".join(path.relative_to(ROOT).with_suffix("").parts[1:])
        names = unused_imports(path.read_text(encoding="utf-8"), wrapped[module])
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def unused_private_definitions(source: str) -> list[str]:
    """Private names a module defines and never reads, in order of definition.

    Covers module-level functions, classes and assignments whose names start
    with one underscore, such methods of the module's classes, and every
    method but the dunders of a class whose name starts with one. A function
    or class counts as read where its name is loaded; a method where an
    attribute of that name is loaded.
    """
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attributes = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, names, private(node.name)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(name.id, names, private(name.id)) for target in targets
                        for name in ast.walk(target) if isinstance(name, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [(item.name, attributes, private(item.name) or (
                            private(node.name) and not item.name.startswith("__")))
                        for item in node.body if isinstance(item, ast.FunctionDef)]
    return [name for name, read, checked in defined if checked and name not in read]


def test_unused_private_definitions_finds_what_is_never_read():
    source = ("_USED, _UNUSED = 1, 2\n"
              "_LIMIT: int = 3\n"
              "__version__ = '1'\n"
              "def _helper():\n"
              "    return _USED + _LIMIT\n"
              "def _orphan():\n"
              "    return _helper()\n"
              "class _Table:\n"
              "    def __init__(self):\n"
              "        self._rows = self._load()\n"
              "    def _load(self):\n"
              "        return []\n"
              "    def _stale(self):\n"
              "        return _Table\n"
              "    def rows(self):\n"
              "        return self._rows\n"
              "    def reload(self):\n"
              "        return self.rows()\n"
              "class Table:\n"
              "    def reload(self):\n"
              "        return []\n")
    # A private class's public-named methods are private too; a public
    # class's are not.
    assert unused_private_definitions(source) == ["_UNUSED", "_orphan", "_stale", "reload"]


def test_no_unused_private_definitions_in_src():
    found = {}
    for path in sorted(ROOT.glob("src/impulselab/**/*.py")):
        names = unused_private_definitions(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def private_sibling_imports(source: str) -> list[str]:
    """Underscore-prefixed names a package module imports from a sibling.

    Covers relative imports and imports from `impulselab`, at any depth of the
    tree. Dunder names are not private; a private module such as `_text` may
    be imported from, as long as the names taken are public.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "impulselab":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(alias.name)
    return found


def test_private_sibling_imports_finds_private_names():
    source = ("from ._text import format_float\n"
              "from .stochastic import NoiseParams, _check_dt\n"
              "from impulselab.cadlag import _Grid\n"
              "from os.path import _joinrealpath\n"
              "from . import __version__\n"
              "def f():\n"
              "    from ..system import _rk4_step\n")
    assert private_sibling_imports(source) == ["_check_dt", "_Grid", "_rk4_step"]


def test_no_module_imports_a_private_name_from_a_sibling():
    found = {}
    for path in sorted(ROOT.glob("src/impulselab/**/*.py")):
        names = private_sibling_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def scipy_imports(source: str) -> list[int]:
    """Line numbers of the imports of scipy or a scipy module, at any depth of
    the tree, in order of appearance."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "scipy" for module in modules):
            found.append(node.lineno)
    return sorted(found)


def test_scipy_imports_finds_every_form():
    source = ("import numpy as np, scipy.special\n"
              "from scipy import integrate\n"
              "from . import scipy\n"
              "import scipyx\n"
              "def fit():\n"
              "    from scipy.interpolate import PchipInterpolator\n"
              "    import scipy as sp\n")
    assert scipy_imports(source) == [1, 2, 6, 7]


def test_no_module_imports_scipy():
    """The package runs on numpy alone; scipy is a test dependency."""
    found = {}
    for path in sorted(ROOT.glob("src/impulselab/**/*.py")):
        lines = scipy_imports(path.read_text(encoding="utf-8"))
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert found == {}


def drawing_functions(source: str) -> list[str]:
    """Functions that build a `Philox` generator or call `standard_normal`,
    by their innermost enclosing function, in order of appearance; a draw
    outside any function counts as `<module>`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("Philox", "standard_normal") and owner not in found:
                    found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_drawing_functions_finds_every_draw():
    source = ("import numpy as np\n"
              "from numpy.random import Philox\n"
              "def _seeded(seq):\n"
              "    return np.random.Generator(Philox(seq))\n"
              "def _quiet():\n"
              "    return np.zeros(3)\n"
              "class Record:\n"
              "    def noise(self, rng):\n"
              "        def fill(out):\n"
              "            rng.standard_normal(out=out)\n"
              "        return fill\n"
              "NOISE = np.random.default_rng(0).standard_normal(4)\n")
    assert drawing_functions(source) == ["_seeded", "fill", "<module>"]


def test_the_seed_convention_draws_in_one_function():
    """Every draw goes through stochastic._draw_block, so a new noise source
    for the step loop cannot bypass the convention's stream order."""
    found = {}
    for path in sorted(ROOT.glob("src/impulselab/**/*.py")):
        names = drawing_functions(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {"src/impulselab/stochastic.py": ["_draw_block"]}


def unread_parameters(source: str) -> list[str]:
    """`function:parameter` for every parameter of a function or lambda that
    its body never reads as a plain name. A nested
    function's reads count for the functions around it; defaults and
    decorators are not the body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for statement in body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        owner = getattr(node, "name", "<lambda>")
        found += [f"{owner}:{param.arg}" for param in params
                  if param is not None and param.arg not in read]
    return found


def test_unread_parameters_finds_every_idle_knob():
    source = ("def scale(x, factor, *rest, unit=1.0, **extra):\n"
              "    return x * unit\n"
              "def outer(a, b=len):\n"
              "    def inner(c):\n"
              "        return a\n"
              "    return inner\n"
              "class Box:\n"
              "    def size(self):\n"
              "        return 0\n"
              "square = lambda v, w: v * v\n")
    assert sorted(unread_parameters(source)) == ["<lambda>:w", "inner:c", "outer:b",
                                                 "scale:extra", "scale:factor", "scale:rest",
                                                 "size:self"]


def test_every_parameter_is_read():
    """Each knob does something: no function or lambda in the package takes a
    parameter it ignores."""
    found = {}
    for path in sorted(ROOT.glob("src/impulselab/**/*.py")):
        names = unread_parameters(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def uncaught_error_classes(sources) -> list[str]:
    """Subclasses of `ImpulseLabError`, direct or not, that the modules in
    `sources` define and none of their `except` clauses names, in order of
    definition."""
    trees = [ast.parse(source) for source in sources]
    classes = [(node.name, {base.id for base in node.bases if isinstance(base, ast.Name)})
               for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    family = {"ImpulseLabError"}
    while grown := {name for name, bases in classes if bases & family} - family:
        family |= grown
    caught = {getattr(name, "id", None) or getattr(name, "attr", None)
              for tree in trees for handler in ast.walk(tree)
              if isinstance(handler, ast.ExceptHandler) and handler.type is not None
              for name in ast.walk(handler.type)}
    return [name for name, bases in classes if bases & family and name not in caught]


def test_uncaught_error_classes_finds_what_no_handler_names():
    errors = ("class ImpulseLabError(Exception): pass\n"
              "class GuardError(TableError): pass\n"
              "class ConfigError(ImpulseLabError): pass\n"
              "class TableError(ConfigError): pass\n"
              "class DataError(ImpulseLabError): pass\n"
              "class Unrelated(Exception): pass\n")
    caller = ("try:\n    run()\nexcept (errors.ConfigError, OSError):\n    pass\n"
              "except DataError as exc:\n    raise GuardError(str(exc))\n"
              "except Unrelated:\n    pass\n")
    # A subclass defined before its base still counts.
    assert uncaught_error_classes([errors, caller]) == ["GuardError", "TableError"]


def test_every_error_class_is_caught_by_name():
    """An error class marks a decision some caller makes on its type; one that
    no `except` clause in the package names is one no caller tells apart."""
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(ROOT.glob("src/impulselab/**/*.py"))]
    assert uncaught_error_classes(sources) == []
