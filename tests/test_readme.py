"""The README's Python examples, run as written.

Every fenced ``python`` block runs in order in one namespace, as a reader
pasting them into one session would, and every node they create is closed.
"""
import contextlib
import io
import pathlib
import re

from remotable import Node

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for block in blocks:
                exec(compile(block, str(README), "exec"), namespace)
    finally:
        for value in namespace.values():
            if isinstance(value, Node):
                value.close()
