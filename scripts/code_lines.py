#!/usr/bin/env python3
"""Count the code lines of each ``src/l1gp`` module of one or two trees.

Usage::

    python3 scripts/code_lines.py TREE [TREE]

Each tree is the root of a checkout. A code line is a line that holds
some token other than a comment, and that is not only part of a
docstring: blank lines, comment lines and the lines of module, class and
function docstrings do not count, while every line of any other string
does. One row is printed per module (the union of both trees' modules,
``-`` where a tree has none) and a total row; with two trees a last
column gives the change from the first to the second. Standard library
only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "l1gp"

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(tree: ast.AST) -> list[tuple[tuple, tuple]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    spans = docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(
                start <= tok.start and tok.end <= end for start, end in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_tree(root: Path) -> dict[str, int]:
    """Module file name -> code lines, for each module of the tree's package."""
    package = root / PACKAGE
    if not package.is_dir():
        raise SystemExit(f"{root}: no {PACKAGE} directory")
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def table(counts: list[dict[str, int]]) -> list[str]:
    """The printed rows: one per module and the total."""
    names = sorted(set().union(*counts))
    rows = [(name, [c.get(name) for c in counts]) for name in names]
    rows.append(("total", [sum(c.values()) for c in counts]))
    width = max(len(name) for name, _ in rows)
    out = []
    for name, values in rows:
        cells = [f"{'-' if v is None else v:>6}" for v in values]
        if len(values) == 2:
            cells.append(f"{(values[1] or 0) - (values[0] or 0):>+6}")
        out.append(f"{name:<{width}}  " + "  ".join(cells))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("at most two trees")
    for line in table([count_tree(tree) for tree in args.trees]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
