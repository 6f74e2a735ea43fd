"""The benchmark tracer wraps package classes and methods by name; a refactor
that drops one of them must fail here, not only in the benchmark smoke test."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_exists():
    layertrace = load_layertrace()
    for layer in layertrace.LAYERS:
        importlib.import_module(f"monograded.{layer}")
    for layer, classes in layertrace.METHODS.items():
        module = importlib.import_module(f"monograded.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name, None)
            assert isinstance(cls, type), f"monograded.{layer}.{cls_name}"
            for attr in methods:
                # the tracer reads vars(cls)[attr]: defined on the class itself
                assert attr in vars(cls), f"monograded.{layer}.{cls_name}.{attr}"
