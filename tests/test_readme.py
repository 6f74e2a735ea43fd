"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert namespace["series"].reduced_numerator == [1, 2]
    table = namespace["table"]
    assert (table.a_invariant, table.depth, table.eg_invariant) == (0, 1, 1)
    assert namespace["r"] == 2 and len(namespace["trials"]) == 3
    assert namespace["is_cm"] is False
    assert (namespace["r_sg"], namespace["principal"]) == (2, 4)
