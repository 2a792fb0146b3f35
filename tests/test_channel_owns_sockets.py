"""Only ``transport.Channel`` reads, writes or shuts down a connection, checked with ``ast``.

In ``src/remotable`` a connected socket is written (``sendall``), read
(``recv``, ``read_frame``) and shut down only inside the ``Channel`` class,
so what a connection carries is decided in one place on both ends of it.
``read_frame`` and ``_recv_chunks`` are Channel's helpers. A socket's
``shutdown`` is told apart from other ``shutdown`` methods by its one ``how``
argument. A listening socket is not a connection, so ``TcpHostServer`` shuts
its ``_listener`` down itself.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "remotable"
MODULES = sorted(PACKAGE.glob("*.py"))
SOCKET_IO = {"sendall", "recv", "read_frame"}
OWNERS = {"Channel", "read_frame", "_recv_chunks"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _owner_lines(tree):
    """The lines of the module-level classes and functions allowed to touch a socket."""
    lines = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in OWNERS:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _socket_calls(tree):
    """(name, line) of each call that reads, writes or shuts down a socket."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "read_frame":
            yield func.id, node.lineno
        elif isinstance(func, ast.Attribute):
            if func.attr in SOCKET_IO:
                yield func.attr, node.lineno
            elif (func.attr == "shutdown" and len(node.args) == 1
                  and ast.unparse(func.value) != "self._listener"):
                yield func.attr, node.lineno


def test_only_channel_touches_a_connection_socket():
    strays = []
    for path in MODULES:
        tree = _tree(path)
        owned = _owner_lines(tree)
        strays += [f"{path.name}:{line} {name}" for name, line in _socket_calls(tree)
                   if line not in owned]
    assert not strays


def test_channel_is_where_a_connection_is_touched():
    # the check above passes vacuously if the calls are renamed away
    tree = _tree(PACKAGE / "transport.py")
    (channel,) = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Channel"]
    assert {name for name, _ in _socket_calls(channel)} == {"sendall", "read_frame", "shutdown"}
