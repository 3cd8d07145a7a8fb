"""The demos import only names the package still has.

Running the demos takes seconds, so this reads each one's imports
instead: every ``from surrank... import name`` must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def surrank_imports(path: Path):
    """(module, name) for each name a file imports from the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "surrank":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "surrank")


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    imports = list(surrank_imports(path))
    assert imports
    missing = []
    for module, name in imports:
        found = importlib.import_module(module)
        if name is not None and not hasattr(found, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names surrank no longer has: {missing}"
