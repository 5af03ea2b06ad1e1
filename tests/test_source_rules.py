"""Rules that every module of the package keeps."""

import ast
import builtins
from pathlib import Path

import pytest

BUILTIN_EXCEPTIONS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_builtin_exception_raised(path):
    """Errors raise a Toric3Error subclass, never a builtin exception
    class such as ValueError: the CLI turns only Toric3Error into an
    exit code, anything else into a traceback."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                bad.append((node.lineno, exc.id))
    assert not bad, f"{path.name}: builtin exception raised at {bad}"
