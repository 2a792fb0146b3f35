"""List the lines of ``src/remotable`` that a pytest run never executes.

Usage, from the repository root::

    python tools/linecov.py [pytest arguments...]

pytest runs in this process, with its arguments passed through, under a
stdlib line tracer (``sys.settrace`` and ``threading.settrace``). Then every
executable line of ``src/remotable/*.py``, as the compiled code objects'
``co_lines`` name them, that never ran is printed as ``path:line: source``.
The exit status is pytest's.

Only this process is traced: a line that runs only in a child process, such
as a ``serve`` process a CLI test starts, is listed as never run. Tracing
every line makes a run about 2 to 2.5 times as long as the plain suite (63 to
70 s against 31 s for the whole suite on one machine).
"""
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "remotable"


def _executable(code: types.CodeType) -> set:
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # 0 and None name no source line
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _executable(const)
    return lines


def main(args: list) -> int:
    # import the package from this tree, here and in any child process
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    paths = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in paths}

    def trace_calls(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the call's own line, which sends no line event

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name, path in paths.items():
        source = path.read_text()
        text = source.splitlines()
        shown = path.relative_to(ROOT)
        for line in sorted(_executable(compile(source, name, "exec")) - ran[name]):
            print(f"{shown}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
