"""No dead code in ``src/remotable``, checked on the source with ``ast``.

Every name a module imports is used in that module (the package's
``__init__`` counts its ``__all__`` as use), and every module-level private
name (``_name``) is referenced somewhere in the package, its own module
included.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "remotable"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used(tree):
    """Names read in ``tree``: loads, attribute names and ``__all__`` entries."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def _imported(tree):
    """(bound name, line) for every import in ``tree``, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _private_definitions(tree):
    """(name, line) of each private function, class or variable defined at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used_by_its_module(path):
    tree = _tree(path)
    used = _used(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused


def test_every_private_module_name_is_referenced():
    trees = {path: _tree(path) for path in MODULES}
    used = set().union(*map(_used, trees.values()))
    unreferenced = [f"{path.name}:{line} {name}" for path, tree in trees.items()
                    for name, line in _private_definitions(tree) if name not in used]
    assert not unreferenced
