"""The README's library example and command lines run against the current
API and CLI."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from monograded import cli

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


def command_lines() -> list[list[str]]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("monograded ")]


@pytest.mark.parametrize("argv", command_lines(), ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_line_exits_0(argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
