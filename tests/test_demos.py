"""The demos take seconds to minutes each, so the suite does not run them.
It checks instead that every name they import from lcunorm still exists."""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(path):
    imports = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lcunorm"
    ]
    assert imports, f"{path.name} imports nothing from lcunorm"
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{path.name}: {node.module} has no {', '.join(missing)}"
