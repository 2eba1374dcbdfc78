"""Every demo runs to completion in a fresh interpreter (a few seconds
each), and every name that the demos and the README's python examples
import from lcunorm exists."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    # computed cold: the demos store nothing in a user's cache directory
    env = {k: v for k, v in os.environ.items() if k != "LCUNORM_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
