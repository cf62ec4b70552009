"""The benchmark's layer tracer (bench/layers.py) binds package functions by
name, and its counters read their arguments by parameter name; a rename in
the package should fail here, not only in a traced run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module, dotted: str) -> bool:
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_every_traced_target_resolves():
    targets = load_layers().TARGETS
    missing = [f"mvstoch.{module}.{name}" for module, names in targets.items()
               for name in names if not resolves(importlib.import_module(f"mvstoch.{module}"), name)]
    assert not missing, missing


def counter_reads() -> dict[str, set[str]]:
    """For every COUNTERS entry, the ``a["name"]`` keys its function reads
    from the bound arguments (its second parameter), parsed from the source."""
    tree = ast.parse(LAYERS.read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    counters = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "COUNTERS" for t in node.targets))
    reads = {}
    for key, value in zip(counters.keys, counters.values):
        fn = functions[value.id]
        bound = fn.args.args[1].arg
        reads[key.value] = {node.slice.value for node in ast.walk(fn)
                            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                            and node.value.id == bound and isinstance(node.slice, ast.Constant)}
    return reads


def test_every_counter_reads_parameters_of_its_target():
    reads = counter_reads()
    assert reads and all(reads.values())
    unbound = []
    for key, names in reads.items():
        module, dotted = key.split(".", 1)
        target = importlib.import_module(f"mvstoch.{module}")
        for part in dotted.split("."):
            target = getattr(target, part)
        params = inspect.signature(getattr(target, "__func__", target)).parameters
        unbound += [f"{key}: {name}" for name in sorted(names - set(params))]
    assert not unbound, unbound
