"""Every public name a module declares resolves, so a deletion cannot leave a stale export, and
every function, class and method in ``src/`` is reached from a CLI run, so code that only the
tests call lives in ``tests/helpers.py``."""

import ast
import importlib
import pkgutil
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


def read_names(nodes) -> tuple[set, set]:
    """The names read under ``nodes``, annotations left out: each bare name, and each
    ``name.attr`` also as the pair (name, attr); and every attribute name read."""
    names, attrs, stack = set(), set(), list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add((node.value.id, node.attr))
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                stack += [v for v in (value if isinstance(value, list) else [value])
                          if isinstance(v, ast.AST)]
    return names, attrs


def unreached() -> list[str]:
    """Every function, class and method of ``src/mvstoch`` that a CLI run does not reach, as
    ``module.name`` or ``module.Class.method``, read from the sources with ``ast``.

    The walk starts from ``cli.main``, the ``cli.RUNNERS`` and ``cli.RUNNER_KEYS`` tables and
    the functions that ``bench/layers.py`` traces (its ``TARGETS``).  A reached function, or a
    module-level assignment, reaches the names its body reads: in its own module, through a
    relative import, or as ``module_alias.name``.  A reached class reaches its dunder methods,
    and its other methods by attribute name: one that any reached code reads as ``x.name``."""
    top, methods, imported = {}, {}, {}  # keyed by (module, name bound there)
    for path in sorted(SRC.glob("*.py")):
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
    reached, attrs, todo = set(), set(), []

    def reach(module, key, nodes):
        if (module, key) not in reached:
            reached.add((module, key))
            todo.append((module, nodes))

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
        reach(module, f"{cls}.{name}", [methods[module, cls][name]])

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
        module, nodes = todo.pop()
        names, read = read_names(nodes)
        attrs |= read
        for name in names:
            if isinstance(name, str):
                reach_name(module, name)
                continue
            source, attr = imported.get((module, name[0]), (None, ""))
            if attr is None:  # name[0] is a module alias
                reach_name(source, name[1])
        if not todo:  # every reached name is walked: now the methods read by attribute
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
