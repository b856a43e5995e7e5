"""No module in src/ringqpe keeps a module-level import or name it never uses.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import at module level (or under a module-level `if`,
such as `if TYPE_CHECKING:`) must be read somewhere in that module, and a
module-level function, class or constant must be read by some module in
src/ringqpe or be exported through the package's _EXPORTS table.
"""

import ast
import glob
import os

import pytest

from ringqpe import _EXPORTS

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "ringqpe")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def _module_level(body):
    for node in body:
        if isinstance(node, ast.If):
            yield from _module_level(node.body + node.orelse)
        else:
            yield node


def _module_imports(body):
    for node in _module_level(body):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def _defined_names(body):
    """Functions, classes and assigned names at module level."""
    for node in _module_level(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _read_names(tree) -> set:
    """Names the module reads: its own names, another module's attributes
    (`ring.RETURN_TIME`) and the names it imports from a sibling."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


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


def unread_names(sources: dict, exported) -> list:
    """`module.name` of each module-level name in `sources` (module name to
    source) that no module reads and `exported` does not list; dunders are
    left to the interpreter."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _defined_names(tree.body)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in read and name not in exported)


def test_every_module_level_name_is_read_or_exported():
    sources = {}
    for path in MODULES:
        with open(path) as fh:
            sources[os.path.basename(path)[:-3]] = fh.read()
    assert unread_names(sources, _EXPORTS) == []


def test_an_unread_name_is_found():
    sources = {
        "a": "X, _Y = 1, 2\n__version__ = '0'\ndef f():\n    return _Y\n"
             "class Kept:\n    pass\ndef _helper():\n    pass\n",
        "b": "from .a import f\nimport a\nZ: int = f() + a.X\n",
    }
    assert unread_names(sources, {"Kept"}) == ["a._helper", "b.Z"]


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport shutil\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .errors import ResolutionError\n"
        "def f(x: float) -> float:\n    return math.sqrt(x) + len(os.sep)\n"
    )
    assert unused_imports(source) == ["ResolutionError", "shutil"]
