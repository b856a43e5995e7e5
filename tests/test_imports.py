"""No module in src/ringqpe keeps a module-level import it never uses.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import at module level (or under a module-level `if`,
such as `if TYPE_CHECKING:`) must be read somewhere in that module.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "ringqpe")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def _module_imports(body):
    for node in body:
        if isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def unused_imports(source: str) -> list:
    """Names that the module-level imports of `source` bind but it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - used)


def test_every_module_is_checked():
    assert {"cli.py", "ring.py", "__init__.py"} <= {os.path.basename(p) for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_uses_its_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport shutil\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .errors import ResolutionError\n"
        "def f(x: float) -> float:\n    return math.sqrt(x) + len(os.sep)\n"
    )
    assert unused_imports(source) == ["ResolutionError", "shutil"]
