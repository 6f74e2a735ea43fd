"""Every invariant the package computes is an integer, and so is every
intermediate value: no module of the package may import `fractions`.  Every
cache the package keeps is bounded."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monograded"


def fractions_imports(path: Path) -> list[int]:
    """Line numbers of the `import fractions` and `from fractions import ...`
    statements in one module."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "fractions" or name.startswith("fractions.") for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_fractions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {path.name: fractions_imports(path) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}



def test_every_cache_is_bounded():
    modules = sorted(PACKAGE.glob("*.py"))
    caches = {}
    for path in modules:
        module = importlib.import_module(f"monograded.{path.stem}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)):
                caches[f"{module.__name__}.{name}"] = obj.cache_info().maxsize
    assert "monograded.cohomology._class_dims" in caches
    assert {name: size for name, size in caches.items() if size is None} == {}
