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


#: The kind of a numpy value or a scalar: nothing read on it is a package method, and what is
#: read on it, indexed from it or computed from it is again such a value.
FOREIGN = ("", "numpy or scalar")
SCALARS = {"int", "float", "bool", "str"}
ITEMS = {"list", "Sequence", "Iterator", "Iterable"}


def annotated_class(node, classes: dict):
    """The kind an annotation names, through ``classes`` (names to package classes): the class
    of ``C``, ``"C"`` or ``C | None``; FOREIGN for ``np.ndarray`` and a scalar; ("items", kind)
    for a list, sequence or iterator of a kind, or a ``tuple[kind, ...]``; ("tuple", kinds) for
    a ``tuple[A, B]``; else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [n for n in (node.left, node.right)
                 if not (isinstance(n, ast.Constant) and n.value is None)]
        node = sides[0] if len(sides) == 1 else None
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np":
        return FOREIGN
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in ITEMS | {"tuple"}:
        items = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        kinds = [annotated_class(n, classes) for n in items if not isinstance(n, ast.Constant)]
        if node.value.id == "tuple" and len(kinds) == len(items):
            return "tuple", tuple(kinds)
        return ("items", kinds[0]) if len(kinds) == 1 and kinds[0] is not None else None
    if not isinstance(node, ast.Name):
        return None
    return FOREIGN if node.id in SCALARS else classes.get(node.id)


SCOPES = (ast.FunctionDef, ast.Lambda, ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def own_nodes(body):
    """The nodes under ``body`` outside any nested function, class or comprehension."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        stack += [n for n in ast.iter_child_nodes(node) if not isinstance(n, SCOPES)]


def bound_names(node) -> set:
    """The names read or bound under ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def targets(target) -> set:
    """The names an assignment to ``target`` binds: none for ``x[i]`` or ``x.a``."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(targets, target.elts))
    return targets(target.value) if isinstance(target, ast.Starred) else set()


def part(kind, item):
    """The kind of item ``item`` of a value of ``kind``: an index into a tuple, or "items"."""
    if kind == FOREIGN:
        return FOREIGN
    if not isinstance(kind, tuple) or kind[0] not in ("items", "tuple"):
        return None
    if kind[0] == "items":
        return kind[1]
    return kind[1][item] if isinstance(item, int) and item < len(kind[1]) else None


def on_numpy(node) -> bool:
    """Whether ``node`` is ``np`` or an attribute chain on it."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "np"


class Types:
    """What the package's annotations tell of an expression's kind, in one module.

    A parameter is of its annotation's kind; a local, of the one kind of every value its
    function assigns it (a loop variable, of its iterable's items); a class called is of that
    class; a call of a function or method, of its return annotation's (an item of a tuple one,
    when unpacked); a field (a class-level annotation, or an attribute ``__init__`` sets to a
    value of one kind) or a property read on a receiver of known class, of its kind; an item of
    a list or sequence, of its items' kind.  numpy values and scalars are FOREIGN.  A package
    class is a (module, name) key of ``methods``; None is unknown."""

    def __init__(self, module: str, classes: dict, fields: dict, returns: dict, resolve,
                 modules: dict):
        self.module, self.classes, self.fields, self.returns = module, classes, fields, returns
        self.resolve = resolve  # (module, name bound there) -> (module, name) of its definition
        self.modules = modules  # module alias -> module, in this module

    def of(self, node, scope: dict):
        """The kind of ``node``, or None."""
        if isinstance(node, ast.Name):  # an instance, or a class itself
            return scope.get(node.id, self.classes.get(self.module, {}).get(node.id))
        if on_numpy(node):
            return FOREIGN
        if isinstance(node, ast.Attribute):
            owner = self.of(node.value, scope)
            return FOREIGN if owner == FOREIGN else self.fields.get(owner, {}).get(node.attr)
        if isinstance(node, ast.Subscript):
            owner, index = self.of(node.value, scope), node.slice
            if isinstance(index, ast.Constant) or (isinstance(index, ast.UnaryOp)
                                                  and isinstance(index.operand, ast.Constant)):
                return part(owner, ast.literal_eval(index))
            return FOREIGN if owner == FOREIGN else None
        if isinstance(node, ast.IfExp):
            kinds = {self.of(node.body, scope), self.of(node.orelse, scope)}
            return kinds.pop() if len(kinds) == 1 else None
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare)):
            operands = [node.left, node.right] if isinstance(node, ast.BinOp) else (
                [node.operand] if isinstance(node, ast.UnaryOp) else [node.left, *node.comparators])
            return FOREIGN if FOREIGN in [self.of(n, scope) for n in operands] else None
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if on_numpy(func):
            return FOREIGN
        if isinstance(func, ast.Name) and func.id in ("list", "tuple", "sorted") and node.args:
            items = part(self.of(node.args[0], scope), "items")
            return None if items is None else ("items", items)
        if isinstance(func, ast.Name):
            key = self.resolve(self.module, func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in self.modules:  # module_alias.name
            key = self.resolve(self.modules[func.value.id], func.attr)
        elif isinstance(func, ast.Attribute):
            owner = self.of(func.value, scope)
            if owner == FOREIGN:
                return FOREIGN
            key = (owner, func.attr)
        else:
            return None
        return key if key in self.fields else self.returns.get(key)  # a class called, or a call

    def scope(self, fn, scope: dict, owner: tuple | None = None) -> dict:
        """``scope`` inside function ``fn``: its parameters (the first of a method of class
        ``owner`` is of that class) and its locals typed, as far as the annotations tell, and
        every other name it binds unknown."""
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        classes = self.classes.get(self.module, {})
        params = {a.arg: annotated_class(a.annotation, classes) for a in args}
        params.update({a.arg: None for a in (fn.args.vararg, fn.args.kwarg) if a})
        if owner is not None and args and "staticmethod" not in [
                getattr(d, "id", None) for d in fn.decorator_list]:  # self, or cls
            params[args[0].arg] = owner
        values, other = {}, set()  # name: [(value, item of it, or None)]

        def bind(target, value, item=None):
            if isinstance(target, ast.Name):
                values.setdefault(target.id, []).append((value, item))
            elif isinstance(target, ast.Tuple) and item is None:
                for i, e in enumerate(target.elts):
                    bind(e, value, i)
            elif isinstance(target, ast.Tuple) and item == "items":  # for a, b in pairs
                for i, e in enumerate(target.elts):
                    bind(e, value, ("items", i))
            else:
                other.update(targets(target))

        body = fn.body if isinstance(fn.body, list) else [fn.body]
        for node in own_nodes(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind(target, node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                values.setdefault(node.target.id, []).append((node.annotation, "annotation"))
            elif isinstance(node, ast.For):
                bind(node.target, node.iter, "items")
            elif isinstance(node, ast.AugAssign):  # x += y: of the kind of x + y
                bind(node.target, ast.BinOp(node.target, node.op, node.value))
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
                other |= targets(node.target)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                other |= targets(node.optional_vars)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                other.add(node.name)

        def kind(value, item, local):
            if item == "annotation":
                return annotated_class(value, classes)
            if isinstance(value, ast.Tuple) and isinstance(item, int):  # a, b = x, y
                return self.of(value.elts[item], local) if item < len(value.elts) else None
            if isinstance(item, tuple):  # ("items", i)
                return part(part(self.of(value, local), "items"), item[1])
            return self.of(value, local) if item is None else part(self.of(value, local), item)

        def kinds(name, vs, local, settled):
            """The kinds of ``name``'s values; unless ``settled``, a value read from the name
            itself (``m = m[None]``) adds none while it is unknown."""
            out = {params[name]} if name in params else set()
            for v, i in vs:
                k = kind(v, i, local)
                if k is not None or settled or name not in bound_names(v):
                    out.add(k)
            return out

        local = {**scope, **{name: None for name in values}, **params}
        for _ in range(len(values) + 1):  # each pass types at least one more name, or none
            typed = {name: ks.pop() if len(ks := kinds(name, vs, local, False)) == 1 else None
                     for name, vs in values.items() if name not in other}
            if all(local[name] == k for name, k in typed.items()):
                break
            local.update(typed)
        for name, vs in values.items():  # then every value must agree
            if len(kinds(name, vs, local, True)) != 1:
                local[name] = None
        local.update({name: None for name in other})
        return local

    def comprehension(self, node, scope: dict) -> dict:
        """``scope`` inside a comprehension: a plain target is of its iterable's items."""
        scope = dict(scope)
        for g in node.generators:
            kinds = {n: None for n in targets(g.target)}
            if isinstance(g.target, ast.Name):
                kinds[g.target.id] = part(self.of(g.iter, scope), "items")
            scope.update(kinds)
        return scope


def read_names(nodes, types: Types, owner: tuple | None = None) -> tuple[set, set, set]:
    """The names read under ``nodes``, annotations left out: each bare name, and each
    ``name.attr`` also as the pair (name, attr); every attribute name read on a receiver of
    unknown class; and (class, attr) for each read on one of known class (``Types``: a method's
    first parameter is of ``owner``, the class the nodes sit in)."""
    names, attrs, typed = set(), set(), set()
    stack = [(node, {}, owner) for node in nodes]
    while stack:
        node, scope, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            scope = types.scope(node, scope, owner if isinstance(node, ast.FunctionDef) else None)
            owner = None  # a function nested in a method is no method
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            scope = types.comprehension(node, scope)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            receiver = types.of(node.value, scope)
            if receiver is None:
                attrs.add(node.attr)
            elif receiver != FOREIGN:
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
    A method is reached by a read ``x.name`` in reached code: of x's class only when the
    annotations tell it (``Types``: ``self``, an annotated parameter, a local assigned from a
    call, a field chain such as ``S.timegrid.n_steps``), of no class when x is a numpy value or
    a scalar, and of every reached class that defines the name when x's kind is not known."""
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
    # what the annotations tell: each class's fields and properties, and what functions and
    # methods return
    fields, returns, inits = {key: {} for key in methods}, {}, []
    for (module, name), node in top.items():
        if isinstance(node, ast.FunctionDef) and node.returns is not None:
            returns[module, name] = annotated_class(node.returns, classes[module])
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    fields[module, name][item.target.id] = annotated_class(item.annotation,
                                                                           classes[module])
                elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    inits.append((module, name, item))
                elif isinstance(item, ast.FunctionDef) and item.returns is not None:
                    kind = annotated_class(item.returns, classes[module])
                    if {"property", "cached_property"} & {getattr(d, "id", getattr(d, "attr", None))
                                                          for d in item.decorator_list}:
                        fields[module, name][item.name] = kind
                    else:
                        returns[(module, name), item.name] = kind
    aliases = {}  # per module, its module aliases
    for (module, alias), (source, name) in imported.items():
        if name is None:
            aliases.setdefault(module, {})[alias] = source
    for module, name, init in inits:  # ``self.x = value`` in __init__, of one class each time
        types = Types(module, classes, fields, returns, resolve, aliases.get(module, {}))
        scope, kinds = types.scope(init, {}), {}
        for node in own_nodes(init.body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) \
                            == init.args.args[0].arg:
                        kind = (annotated_class(node.annotation, classes[module])
                                if isinstance(node, ast.AnnAssign) else types.of(node.value, scope))
                        kinds.setdefault(target.attr, set()).add(kind)
        fields[module, name].update({a: k.pop() if len(k) == 1 else None for a, k in kinds.items()
                                     if a not in fields[module, name]})
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
        types = Types(module, classes, fields, returns, resolve, aliases.get(module, {}))
        names, read, known = read_names(nodes, types, owner)
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
                if attr in methods.get((module, cls), ()):
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


def plant(tmp_path, module: str, cls: str, name: str) -> Path:
    """A copy of the package with a dead ``name`` property planted on ``module.cls``."""
    src = tmp_path / "mvstoch"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / f"{module}.py"
    text = path.read_text()
    body = text.index("\n\n\n", text.index(f"class {cls}"))
    path.write_text(text[:body] + f"\n\n    @property\n    def {name}(self) -> int:\n"
                    "        return 0" + text[body:])
    return src


def test_a_dead_method_sharing_a_live_name_is_reported(tmp_path):
    # every read of ``.rows`` in the package is ``self.rows`` in ``MeasureProcess``, on a
    # ``MeasureProcess`` parameter or local, or ``S.view`` for a driver, so a ``rows`` property
    # planted on another reached class is read by nothing; reaching methods by attribute name
    # alone missed it
    assert unreached() == []
    assert unreached(plant(tmp_path, "drivers", "PredictablePath", "rows")) == [
        "drivers.PredictablePath.rows"]


# names that package classes define and that were read only through receivers whose class
# the walk could not tell: field chains (``S.timegrid.n_steps``, ``phi.grid.n_atoms``), locals
# (``kernel = vol.make_kernel(...)``, ``terms = list(terms)``), loop variables and numpy values
PLANTED = ["d", "n_steps", "shape", "is_random", "times", "dt", "size", "n_atoms", "weights"]


@pytest.mark.parametrize("module, cls, name", [
    *[("drivers", "PredictablePath", name) for name in PLANTED],
    *[("grid", "CompactGrid", name) for name in PLANTED if name != "n_atoms"]])
def test_a_dead_property_read_through_a_typed_receiver_is_reported(tmp_path, module, cls, name):
    assert unreached(plant(tmp_path, module, cls, name)) == [f"{module}.{cls}.{name}"]
