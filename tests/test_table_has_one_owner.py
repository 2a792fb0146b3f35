"""Only ``model.HostTable`` names the table's storage, checked with ``ast``.

A host table's entries, counters and name bindings are slots in the list,
``array`` columns and dict that ``HostTable.__init__`` declares (the
attributes it annotates as a ``list``, ``array`` or ``dict``).
Every other module, and every other class of ``model.py``, reaches them only
through the table's methods, so how an entry is stored is decided in one
place.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "remotable"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _host_table(tree):
    (table,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "HostTable"]
    return table


STORAGE_TYPES = ("dict[", "list[", "array[")


def _storage():
    """The attributes ``HostTable.__init__`` declares as dicts, lists or arrays."""
    (init,) = [node for node in _host_table(_tree(PACKAGE / "model.py")).body
               if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    return {node.target.attr for node in ast.walk(init)
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Attribute)
            and ast.unparse(node.annotation).startswith(STORAGE_TYPES)}


def test_host_table_declares_its_storage():
    # the check below passes vacuously if the storage is renamed away
    assert {"_values", "_serializations", "_gets", "_names"} <= _storage()


def test_only_host_table_names_its_storage():
    storage = _storage()
    strays = []
    for path in MODULES:
        tree = _tree(path)
        owned = set()
        if path.name == "model.py":
            table = _host_table(tree)
            owned = set(range(table.lineno, table.end_lineno + 1))
        strays += [f"{path.name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in storage
                   and node.lineno not in owned]
    assert not strays
