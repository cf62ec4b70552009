"""The benchmark's layer tracer (bench/layers.py) binds package functions by
name; a rename in the package should fail here, not silently in a traced run."""

import importlib
import importlib.util
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

