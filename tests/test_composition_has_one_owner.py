"""Only ``shipping`` decides what a stage may hold, checked with ``ast``.

The copy rule of an inline capture lives in ``shipping.py``: no other module
of ``src/remotable`` names ``_own`` or ``_MUTABLE``, so a capture built by
``Node.stage``, by ``InlineValue`` or ``Stage`` directly, or by a body gets
the same copy. The fn-id rule lives in ``shipping._check_fn_id``: it is the
only place that raises a ``ValueError`` about an fn id, so ``Stage``,
``Node.stage``, ``FnRegistry.register`` and ``lift`` refuse the same ids with
the same text.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "remotable"
MODULES = sorted(PACKAGE.glob("*.py"))
COPY_RULE = {"_own", "_MUTABLE"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _copy_rule_names(tree):
    """The line of each use, import or definition of a copy-rule name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in COPY_RULE:
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in COPY_RULE:
            yield node.lineno
        elif isinstance(node, ast.alias) and node.name in COPY_RULE:
            yield node.lineno
        elif isinstance(node, ast.FunctionDef) and node.name in COPY_RULE:
            yield node.lineno


def _fn_id_refusals(tree):
    """The line of each ``raise ValueError(...)`` whose own text is about an fn id."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"):
            continue
        texts = [part.value for arg in node.exc.args for part in ast.walk(arg)
                 if isinstance(part, ast.Constant) and isinstance(part.value, str)]
        if any("fn_id" in text or "fn id" in text for text in texts):
            yield node.lineno


def _check_fn_id(tree):
    (function,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_check_fn_id"]
    return function


def test_only_shipping_names_the_copy_rule():
    strays = []
    for path in MODULES:
        if path.name != "shipping.py":
            strays += [f"{path.name}:{line}" for line in _copy_rule_names(_tree(path))]
    assert not strays


def test_only_check_fn_id_refuses_an_fn_id():
    owned = _check_fn_id(_tree(PACKAGE / "shipping.py"))
    owned_lines = range(owned.lineno, owned.end_lineno + 1)
    strays = []
    for path in MODULES:
        strays += [f"{path.name}:{line}" for line in _fn_id_refusals(_tree(path))
                   if path.name != "shipping.py" or line not in owned_lines]
    assert not strays


def test_the_checks_above_see_what_they_look_for():
    # both pass vacuously if the names or the raise are renamed away
    shipping = _tree(PACKAGE / "shipping.py")
    assert len(set(_copy_rule_names(shipping))) >= 2
    assert {node.name for node in shipping.body if isinstance(node, ast.FunctionDef)} >= {"_own"}
    assert {target.id for node in shipping.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)} >= {"_MUTABLE"}
    assert list(_fn_id_refusals(_check_fn_id(shipping)))
