"""Rules that every module of the package keeps."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "toric3").glob("*.py"))


def test_modules_found():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert(path):
    """Internal failures raise a Toric3Error subclass: ``python -O``
    strips assert statements, and the CLI turns only Toric3Error into
    exit code 1."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
        or (isinstance(node, ast.Attribute) and node.attr == "AssertionError")
    ]
    assert not bad, f"{path.name}: assert or AssertionError at lines {bad}"
