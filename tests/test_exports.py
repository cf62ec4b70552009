"""Every public name a module declares resolves, so a deletion cannot leave a stale export, and
every function, class and method in ``src/`` is reached from a CLI run, so code that only the
tests call lives in ``tests/helpers.py``."""

import ast
import importlib
import pkgutil
import shutil
from pathlib import Path

import pytest

import mvstoch

MODULES = sorted(m.name for m in pkgutil.iter_modules(mvstoch.__path__))


def test_seven_modules():
    assert MODULES == ["cli", "dominated", "drivers", "grid", "integrands", "mvintegral",
                       "volterra"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mvstoch.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from mvstoch.{name} import *", namespace)  # a stale __all__ entry raises here
    assert set(getattr(importlib.import_module(f"mvstoch.{name}"), "__all__", ())) <= set(namespace)


SRC = Path(mvstoch.__file__).parent
LAYERS = SRC.parents[1] / "bench" / "layers.py"


def annotated_class(node) -> str | None:
    """The class name an annotation names: ``C``, ``"C"`` or ``C | None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [n for n in (node.left, node.right)
                 if not (isinstance(n, ast.Constant) and n.value is None)]
        node = sides[0] if len(sides) == 1 else None
    return node.id if isinstance(node, ast.Name) else None


def read_names(nodes, classes: dict, owner: str | None = None) -> tuple[set, set, set]:
    """The names read under ``nodes``, annotations left out: each bare name, and each
    ``name.attr`` also as the pair (name, attr); every attribute name read on a receiver of
    unknown class; and (class, attr) for each read on one of known class.  A receiver's class is
    known when it is a method's first parameter (``owner``, the class the nodes sit in) or a
    parameter annotated with a name that ``classes`` resolves to a package class, in the
    function that declares it and the functions nested in it."""
    names, attrs, typed = set(), set(), set()
    stack = [(node, {}, owner) for node in nodes]
    while stack:
        node, scope, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            scope = {**scope, **{a.arg: classes.get(annotated_class(a.annotation)) for a in args}}
            if owner is not None and args and "staticmethod" not in [
                    getattr(d, "id", None) for d in node.decorator_list]:  # self, or cls
                scope[args[0].arg] = owner
            owner = None  # a function nested in a method is no method
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            receiver = scope.get(node.value.id) if isinstance(node.value, ast.Name) else None
            if receiver is None:
                attrs.add(node.attr)
            else:
                typed.add((receiver, node.attr))
            if isinstance(node.value, ast.Name):
                names.add((node.value.id, node.attr))
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                stack += [(v, scope, owner) for v in (value if isinstance(value, list) else [value])
                          if isinstance(v, ast.AST)]
    return names, attrs, typed


def unreached(src: Path = SRC) -> list[str]:
    """Every function, class and method of the package in ``src`` that a CLI run does not
    reach, as ``module.name`` or ``module.Class.method``, read from the sources with ``ast``.

    The walk starts from ``cli.main``, the ``cli.RUNNERS`` and ``cli.RUNNER_KEYS`` tables and
    the functions that ``bench/layers.py`` traces (its ``TARGETS``).  A reached function, or a
    module-level assignment, reaches the names its body reads: in its own module, through a
    relative import, or as ``module_alias.name``.  A reached class reaches its dunder methods.
    A method is reached by a read ``x.name`` in reached code: of its own class only when x is
    ``self`` in that class or a parameter annotated with it, and of every reached class that
    defines the name when x's class is not known so."""
    top, methods, imported = {}, {}, {}  # keyed by (module, name bound there)
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[module, node.name] = node
            if isinstance(node, ast.ClassDef):
                methods[module, node.name] = {f.name: f for f in node.body
                                              if isinstance(f, ast.FunctionDef)}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                top.update({(module, n.id): node for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)})
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:  # ``from .source import name``, or ``from . import source``
                    imported[module, a.asname or a.name] = (
                        (node.module, a.name) if node.module else (a.name, None))

    def resolve(module, name):
        """(module, name) of the package definition that ``name`` is bound to in ``module``."""
        while (module, name) in imported and imported[module, name][1] is not None:
            module, name = imported[module, name]
        return module, name

    # per module, the names that resolve to a package class
    classes = {}
    for module in {m for m, _ in top} | {m for m, _ in imported}:
        bound = {n for m, n in top if m == module} | {n for m, n in imported if m == module}
        classes[module] = {n: resolve(module, n) for n in bound if resolve(module, n) in methods}
    reached, attrs, typed, todo = set(), set(), set(), []

    def reach(module, key, nodes, owner=None):
        if (module, key) not in reached:
            reached.add((module, key))
            todo.append((module, nodes, owner))

    def reach_name(module, name):
        if (module, name) in imported:
            source, name = imported[module, name]
            if name is not None:
                reach_name(source, name)
        elif isinstance(node := top.get((module, name)), ast.ClassDef):
            reach(module, name, node.decorator_list + node.bases
                  + [n for n in node.body if not isinstance(n, ast.FunctionDef)])
            for method in methods[module, name]:
                if method.startswith("__") and method.endswith("__"):
                    reach_method(module, name, method)
        elif node is not None:
            reach(module, name, [node])

    def reach_method(module, cls, name):
        reach(module, f"{cls}.{name}", [methods[module, cls][name]], (module, cls))

    for name in ("main", "RUNNERS", "RUNNER_KEYS"):
        reach_name("cli", name)
    targets = next(ast.literal_eval(n.value) for n in ast.parse(LAYERS.read_text()).body
                   if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                        for t in n.targets))
    for module, names in targets.items():
        for dotted in names:
            reach_name(module, dotted.split(".")[0])
            if "." in dotted:
                reach_method(module, *dotted.split("."))
    while todo:
        module, nodes, owner = todo.pop()
        names, read, known = read_names(nodes, classes.get(module, {}), owner)
        attrs |= read
        typed |= known
        for name in names:
            if isinstance(name, str):
                reach_name(module, name)
                continue
            source, attr = imported.get((module, name[0]), (None, ""))
            if attr is None:  # name[0] is a module alias
                reach_name(source, name[1])
        if not todo:  # every reached name is walked: now the methods read by attribute
            for (module, cls), attr in typed:
                if attr in methods[module, cls]:
                    reach_method(module, cls, attr)
            for (module, cls), named in methods.items():
                if (module, cls) in reached:
                    for name in attrs.intersection(named):
                        reach_method(module, cls, name)
    defined = [(m, n) for (m, n), node in top.items()
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [(m, f"{cls}.{name}") for (m, cls), named in methods.items() for name in named]
    return sorted(f"{m}.{n}" for m, n in defined if (m, n) not in reached)


def test_src_holds_only_what_a_cli_run_reaches():
    # a name that only the tests call belongs in tests/helpers.py
    assert unreached() == []


def test_a_dead_method_sharing_a_live_name_is_reported(tmp_path):
    # every read of ``.rows`` in the package is ``self.rows`` in ``MeasureProcess`` or ``phi.rows``
    # on a parameter annotated ``MeasureProcess``, so a ``rows`` property planted on another
    # reached class is read by nothing; reaching methods by attribute name alone missed it
    src = tmp_path / "mvstoch"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    drivers = src / "drivers.py"
    text = drivers.read_text()
    body = text.index("\n\n\n", text.index("class PredictablePath:"))
    drivers.write_text(text[:body] + "\n\n    @property\n    def rows(self) -> int:\n"
                       "        return 0" + text[body:])
    assert unreached() == []
    assert unreached(src) == ["drivers.PredictablePath.rows"]
