"""The benchmark tracer wraps package classes and methods by name, and the
benchmark's runner, per-op checks and smoke test call package functions and
read instance attributes by name; a refactor that drops one of them must fail
here, not only in the benchmark smoke test.  The benchmark's files are read,
never changed."""

import ast
import importlib
import importlib.util
from pathlib import Path

from monograded.hilbert import hilbert_data_from_series, hilbert_series
from monograded.monomials import MonomialIdeal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"
CHECKS = PERFBENCH / "checks.py"
# Files that reach the package through a `pkg.<layer>.<name>` chain; `pkg` is
# spelled `pkg`, `self.pkg`, `PKG` or `monograded` there.
PACKAGE_READERS = (CHECKS, PERFBENCH / "run.py", PERFBENCH / "test_smoke.py")


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


def layer_names_in_benchmark() -> set[tuple[str, str]]:
    """(layer, name) for every `pkg.<layer>.<name>` chain in the benchmark."""
    layers = set(load_layertrace().LAYERS)
    found = set()
    for path in PACKAGE_READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and node.value.attr in layers):
                continue
            base = node.value.value
            if (isinstance(base, ast.Name) and base.id in ("pkg", "PKG", "monograded")
                    or isinstance(base, ast.Attribute) and base.attr == "pkg"):
                found.add((node.value.attr, node.attr))
    return found


def test_every_layer_name_the_benchmark_reads_exists():
    names = layer_names_in_benchmark()
    assert {
        ("hilbert", "hilbert_series"), ("hilbert", "hilbert_data_from_series"),
        ("monomials", "MonomialIdeal"), ("bounds", "corpus_monomial"),
        ("bounds", "random_m_primary_ideal"), ("filtration", "power_cache"),
    } <= names
    for layer, name in sorted(names):
        module = importlib.import_module(f"monograded.{layer}")
        assert hasattr(module, name), f"monograded.{layer}.{name}"


def test_instance_attributes_the_benchmark_reads_exist():
    # test_smoke.py reads `g.exps` for g in `ideal.gens`; checks.py reads
    # `.dim` and `.polynomial_value(n)` of `hilbert_data_from_series(series)`
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert sorted(g.exps for g in ideal.gens) == [(1, 1), (2, 0)]
    data = hilbert_data_from_series(hilbert_series(ideal))
    assert data.dim == 1 and data.polynomial_value(5) == 1  # y^5 alone
