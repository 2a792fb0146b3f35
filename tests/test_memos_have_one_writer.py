"""Only ``protocol._remember`` changes the codec's memos, checked with ``ast``.

The memos are the module-level dicts ``protocol.py`` declares with a
``dict[...]`` annotation. Every other line of the module only reads them
(``.get``, ``in``) or hands one to ``_remember``: none stores into, deletes
from, clears, updates, ``setdefault``s or pops a memo, or binds it to another
name. So the one byte budget, the one lock and the charge of each entry are
kept in one place.
"""
import ast
from pathlib import Path

PROTOCOL = Path(__file__).resolve().parents[1] / "src" / "remotable" / "protocol.py"
MUTATORS = {"clear", "update", "setdefault", "pop", "popitem", "__setitem__", "__delitem__"}
HELPER = "_remember"


def _tree():
    return ast.parse(PROTOCOL.read_text(), filename=str(PROTOCOL))


def _memos(tree):
    return {node.target.id for node in tree.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and ast.unparse(node.annotation).startswith("dict[")}


def _names_memo(node, memos):
    return isinstance(node, ast.Name) and node.id in memos


def _writes(tree, memos):
    """(line, what) for each change to a memo, or alias of one, outside the helper."""
    (helper,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == HELPER]
    owned = set(range(helper.lineno, helper.end_lineno + 1))
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in owned:
            continue
        if (isinstance(node, ast.Subscript) and _names_memo(node.value, memos)
                and not isinstance(node.ctx, ast.Load)):
            yield node.lineno, f"{ast.unparse(node)} stored or deleted"
        elif (isinstance(node, ast.Attribute) and _names_memo(node.value, memos)
                and node.attr in MUTATORS):
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and _names_memo(
                node.value, memos):
            yield node.lineno, f"{ast.unparse(node.value)} bound to another name"
        elif isinstance(node, ast.Global) and memos & set(node.names):
            yield node.lineno, "global " + ", ".join(node.names)


def test_protocol_declares_three_memos():
    # the check below passes vacuously if the memos are renamed away
    assert _memos(_tree()) == {"_ENDPOINTS", "_TEXTS", "_PIPELINES"}


def test_only_the_insert_helper_changes_a_memo():
    tree = _tree()
    assert list(_writes(tree, _memos(tree))) == []


def test_an_inline_clear_is_caught():
    # the check names the kind of change a memo once made for itself
    source = PROTOCOL.read_text()
    first = source.count("\n") + 1
    tree = ast.parse(source + (
        "\ndef _stray(key, value):\n"
        "    if len(_ENDPOINTS) >= 256:\n"
        "        _ENDPOINTS.clear()\n"
        "    _ENDPOINTS[key] = value\n"
    ))
    assert [what for line, what in sorted(_writes(tree, _memos(tree))) if line > first] == [
        "_ENDPOINTS.clear", "_ENDPOINTS[key] stored or deleted",
    ]
