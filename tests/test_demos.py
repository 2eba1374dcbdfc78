"""The demos take seconds to minutes each, so the suite does not run them.
It checks instead that every name they, and the README's python examples,
import from lcunorm still exists."""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _source(path):
    """A demo's code, or the README's ```python blocks joined."""
    text = path.read_text()
    if path.suffix == ".md":
        return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return text


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_imports_exist(path):
    imports = [
        node
        for node in ast.walk(ast.parse(_source(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lcunorm"
    ]
    assert imports, f"{path.name} imports nothing from lcunorm"
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{path.name}: {node.module} has no {', '.join(missing)}"
