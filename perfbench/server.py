"""Launch ``remotable serve`` for the benchmark, optionally traced.

Usage: python3 perfbench/server.py --parent PID [--trace-out FILE] -- serve ARGS...

The server runs the same path as the ``remotable`` command: this script only
puts the checkout's ``src`` first on the import path, ties its life to the
benchmark process, installs the tracing wrappers when asked, and then calls
``remotable.cli.main``. It inherits the benchmark's CPU pinning. On SIGINT
the serve loop returns and the spans are written to FILE.
"""
from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    """Ask the kernel to kill this process when the benchmark process exits."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent:  # the parent exited before the request took effect
        sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=int, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    _die_with_parent(args.parent)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from remotable import cli

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = cli.main(serve_args)
    if tracer is not None:
        tracer.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
