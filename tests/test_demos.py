"""The demos keep up with the package: every ``l1gp`` name they read exists,
and the quick one runs to the end."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import l1gp

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def l1gp_references(tree: ast.AST) -> list:
    """``(module, name)`` for each ``l1gp.<module>.<name>`` the code reads,
    through ``from l1gp import <module>`` or ``from l1gp.<module> import
    <name>``."""
    aliases, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "l1gp":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("l1gp."):
            refs += [(node.module[len("l1gp."):], a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.append((aliases[node.value.id], node.attr))
    return refs


def test_there_are_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_every_l1gp_name_a_demo_reads_resolves(demo):
    refs = l1gp_references(ast.parse((ROOT / "demos" / demo).read_text()))
    assert refs, f"{demo} reads nothing from l1gp"
    missing = sorted(
        f"l1gp.{module}.{name}" for module, name in set(refs)
        if not hasattr(importlib.import_module(f"l1gp.{module}"), name)
    )
    assert not missing


def test_bound_coverage_demo_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(l1gp.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / "bound_coverage.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "violations" in out.stdout
