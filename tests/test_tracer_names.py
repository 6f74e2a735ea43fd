"""The benchmark tracer wraps package classes and methods by name, and its
per-op checks call semigroup functions by name; a refactor that drops one of
them must fail here, not only in the benchmark smoke test.  The benchmark's
files are read, never changed."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"
CHECKS = PERFBENCH / "checks.py"


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


def semigroup_names_in_checks() -> set[str]:
    """Attributes that checks.py reads from `pkg.semigroup`, directly or
    through a local name bound to it (`sg = pkg.semigroup`)."""
    tree = ast.parse(CHECKS.read_text())
    aliases = {
        target.id
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute) and node.value.attr == "semigroup"
        for target in node.targets if isinstance(target, ast.Name)
    }
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


def test_every_semigroup_name_the_benchmark_calls_exists():
    semigroup = importlib.import_module("monograded.semigroup")
    called = semigroup_names_in_checks()
    assert {"NumericalSemigroup", "SemigroupIdeal", "colon_sg"} <= called
    counted = {name.split(".", 1)[1] for name in load_layertrace().COUNTED_CALLS
               if name.startswith("semigroup.")}
    assert {"ideal_product_sg", "rr_sg"} <= counted
    for name in sorted(called | counted):
        assert callable(getattr(semigroup, name, None)), f"monograded.semigroup.{name}"
