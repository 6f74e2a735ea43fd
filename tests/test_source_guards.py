"""Every invariant the package computes is an integer, and so is every
intermediate value: no module of the package may import `fractions`."""

import ast
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

