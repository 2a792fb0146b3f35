"""No dead code in ``src/remotable``, checked on the source with ``ast``.

Every name a module imports is used in that module (the package's
``__init__`` counts its ``__all__`` as use), every module-level private
name (``_name``) is referenced somewhere in the package, its own module
included, and every private attribute a method assigns (``self._name = ...``)
is read somewhere in the package.
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


def _private_self_attributes(tree):
    """(name, line) of each ``self._name`` a method assigns."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for attribute in ast.walk(target):
                    if (isinstance(attribute, ast.Attribute)
                            and isinstance(attribute.value, ast.Name)
                            and attribute.value.id == "self"
                            and attribute.attr.startswith("_")
                            and not attribute.attr.startswith("__")):
                        yield attribute.attr, node.lineno


def _read_attributes(tree):
    """Attribute names read in ``tree``: loads, deletes and augmented assignments."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            read.add(node.target.attr)
    return read


def test_every_private_attribute_is_read():
    trees = {path: _tree(path) for path in MODULES}
    read = set().union(*map(_read_attributes, trees.values()))
    unread = [f"{path.name}:{line} self.{name}" for path, tree in trees.items()
              for name, line in _private_self_attributes(tree) if name not in read]
    assert not unread
