"""scripts/code_lines.py counts the lines that are not docstrings,
comments or blank."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# 8 code lines: the import, the 3 lines of the constant's string, the
# class line, the def line and the 2 lines of the return. Docstrings of
# the module, the class and the function, comments (a trailing one
# included) and blank lines do not count.
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line
TEXT = """a string that is not a docstring
counts on each
of its lines"""


class Box:
    "One-line class docstring."

    def area(self, side):
        """Function docstring."""
        # the side squared
        return (side
                * side)
'''


def test_counts_code_lines_of_a_fixture_module(tmp_path, capsys):
    assert code_lines.code_lines(FIXTURE) == 8
    for tree, extra in (("a", ""), ("b", "x = 1\n")):
        package = tmp_path / tree / "src" / "l1gp"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(FIXTURE + extra)
    (tmp_path / "b" / "src" / "l1gp" / "new.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "mod.py       8       9      +1",
        "new.py       -       0      +0",
        "total        8       9      +1",
    ]
