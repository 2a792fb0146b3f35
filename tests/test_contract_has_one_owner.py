"""Only ``shipping.evaluate`` raises ``ContractViolationError``, checked with ``ast``.

The result contract of a shipped pipeline is decided in one place: each stage
gets the captures its registration names, every stage but the last yields a
PlainValue, and the last yields a PlainValue for a Map and a RemoteValue for
a FlatMap. In ``src/remotable`` every ``raise ContractViolationError`` sits
inside the module-level ``evaluate`` of ``shipping.py``; the host hands the
kind it needs to ``evaluate`` and checks nothing itself.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "remotable"
MODULES = sorted(PACKAGE.glob("*.py"))
ERROR = "ContractViolationError"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _raises(tree):
    """The line of each ``raise`` of ContractViolationError, called or bare."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
        if name == ERROR:
            yield node.lineno


def _evaluate(tree):
    (function,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "evaluate"]
    return function


def test_only_evaluate_raises_a_contract_violation():
    owned = _evaluate(_tree(PACKAGE / "shipping.py"))
    owned_lines = range(owned.lineno, owned.end_lineno + 1)
    strays = []
    for path in MODULES:
        strays += [f"{path.name}:{line}" for line in _raises(_tree(path))
                   if path.name != "shipping.py" or line not in owned_lines]
    assert not strays


def test_evaluate_is_where_the_contract_is_checked():
    # the check above passes vacuously if the raises are renamed away
    assert list(_raises(_evaluate(_tree(PACKAGE / "shipping.py"))))
