"""Command-line front: a host daemon, a one-shot client, and a scripted demo.

Exit codes: 0 success, 2 usage, 3-9 remote error codes (error code + 2),
10 transport failure.
"""
from __future__ import annotations

import argparse
import os
import random
import re
import subprocess
import sys
import threading
from typing import Any, Callable, Iterable, Optional

from .errors import RemoteError, TransportError
from .funcs import canonical_text
from .model import EndpointAddr, ObjectId, RemoteRefDescriptor
from .node import Node, RemoteHandle
from .adapters import DeferredHandle
from .protocol import DEFAULT_PORT

USAGE_EXIT = 2
TRANSPORT_EXIT = 10

_HANDLE_RE = re.compile(r"^remote\[endpoint=(\S+) id=([0-9a-f]{16}):([0-9]+)\]$")


class UsageError(Exception):
    pass


def _parse_endpoint(text: str) -> EndpointAddr:
    try:
        return EndpointAddr.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_handle_text(node: Node, text: str) -> Optional[RemoteHandle]:
    """Turn a printed handle rendering back into a live handle, if it is one."""
    match = _HANDLE_RE.match(text)
    if match is None:
        return None
    endpoint, incarnation, serial = match.groups()
    try:
        object_id = ObjectId(int(incarnation, 16), int(serial))
    except ValueError as exc:
        raise UsageError(f"bad handle {text!r}: {exc}") from None
    return node._materialize(RemoteRefDescriptor(_parse_endpoint(endpoint), object_id))


def _resolve_target(node: Node, connect: EndpointAddr, target: str) -> RemoteHandle:
    """A target is a printed handle, a bare bound name, or host:port/name."""
    handle = _parse_handle_text(node, target)
    if handle is not None:
        return handle
    if "/" in target:
        where, _, name = target.partition("/")
        return node.lookup(_parse_endpoint(where), name)
    return node.lookup(connect, target)


def _parse_capture(node: Node, text: str) -> Any:
    handle = _parse_handle_text(node, text)
    if handle is not None:
        return handle
    if text == "true":
        return True
    if text == "false":
        return False
    if re.fullmatch(r"-?[0-9]+", text):
        return int(text)
    if re.fullmatch(r"-?[0-9]+\.[0-9]+", text):
        return float(text)
    return text


def _construct_binding(node: Node, binding: str) -> tuple[str, Any]:
    name, sep, ctor = binding.partition("=")
    if not sep or not name or "/" in name:
        raise UsageError(f"bad --bind {binding!r}: expected name=int:<n>|text:<s>|token")
    if ctor == "token":
        return name, node.new_token()
    if ctor.startswith("int:"):
        try:
            return name, int(ctor[4:])
        except ValueError:
            raise UsageError(f"bad --bind {binding!r}: {ctor[4:]!r} is not an integer") from None
    if ctor.startswith("text:"):
        return name, ctor[5:]
    raise UsageError(f"bad --bind {binding!r}: unknown constructor {ctor!r}")


# -- serve --------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    # parsed by hand: 0 means "pick a port", which descriptors never carry
    host, sep, port = args.listen.rpartition(":")
    if not sep or not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise UsageError(f"bad --listen {args.listen!r}: expected host:port")
    rng = random.Random(args.seed) if args.seed is not None else None
    node = Node.tcp(
        host,
        int(port),
        locality_replacement=args.locality,
        rng=rng,
    )
    try:
        try:
            for binding in args.bind or []:
                name, value = _construct_binding(node, binding)
                node.rebind(name, value)
                print(f"{name} bound in registry", flush=True)
            print(f"serving on {node.endpoint}", flush=True)
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        return 0
    finally:
        node.close()


# -- client -------------------------------------------------------------------


def cmd_client(args: argparse.Namespace) -> int:
    connect = _parse_endpoint(args.connect)
    node = Node.tcp("127.0.0.1", 0)
    try:
        if args.action == "lookup":
            print(node.lookup(connect, args.name))
        elif args.action == "map":
            handle = _resolve_target(node, connect, args.target)
            captures = [_parse_capture(node, c) for c in args.captures]
            try:
                stage = node.stage(args.fn, *captures)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            print(handle.map(stage))
        elif args.action == "get":
            handle = _resolve_target(node, connect, args.target)
            print(canonical_text(handle.get()))
        elif args.action == "stats":
            handle = _resolve_target(node, connect, args.target)
            serializations, gets = handle.stats()
            print(f"serializations={serializations} gets={gets}")
        return 0
    finally:
        node.close()


# -- demo ---------------------------------------------------------------------

_DEMO_BINDINGS_MAIN = [
    "obj=token", "a=token", "b=token", "ra=int:5", "rb=int:7", "d=int:5",
]
_DEMO_BINDINGS_OFF = ["ra=int:5", "rb=int:7"]


class _Emitter:
    """Prints (experiment, key, value) records in the form asked for."""

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def emit(self, experiment: str, key: str, value: Any) -> None:
        text = canonical_text(value) if not isinstance(value, str) else value
        if self.mode == "records":
            print(f"{experiment}\t{key}\t{text}", flush=True)
        else:
            print(f"[{experiment}] {key} = {text}", flush=True)


class _ChildServer:
    """A `serve` process spawned for the distributed demo run."""

    def __init__(self, bindings: Iterable[str], locality: bool, seed: Optional[int]):
        cmd = [sys.executable, "-m", "remotable", "serve", "--listen", "127.0.0.1:0"]
        if not locality:
            cmd.append("--no-locality")
        if seed is not None:
            cmd.extend(["--seed", str(seed)])
        for binding in bindings:
            cmd.extend(["--bind", binding])
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        self.endpoint = self._await_endpoint()

    def _await_endpoint(self) -> EndpointAddr:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith("serving on "):
                return EndpointAddr.parse(line[len("serving on "):].strip())
        raise TransportError("demo server process exited before serving")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _demo_session(client: Node, server: EndpointAddr, emit: Callable, fail: Callable) -> None:
    obj = client.lookup(server, "obj")
    text_handle = obj.map(client.stage("to_text"))
    rendering = repr(text_handle)
    looks_like_ref = bool(_HANDLE_RE.match(rendering)) and "token" not in rendering
    emit("session", "unforced_is_ref", looks_like_ref)
    if not looks_like_ref:
        fail("session", f"unforced handle printed as {rendering!r}")
    forced = text_handle.get()
    emit("session", "str_get", forced)
    if not re.fullmatch(r"token#\d+", forced):
        fail("session", f"forced text was {forced!r}")


def _demo_compose(client: Node, server: EndpointAddr, emit: Callable, fail: Callable) -> None:
    ra = client.lookup(server, "a")
    rb = client.lookup(server, "b")
    rc = ra.flat_map(client.stage("pair_equals_outer", rb))
    value = rc.get()
    emit("compose", "rc_get", value)
    if value is not False:
        fail("compose", f"two-object composition forced to {value!r}, wanted false")


def _demo_locality(
    client: Node, server: EndpointAddr, emit: Callable, fail: Callable, flavor: str
) -> None:
    ra = client.lookup(server, "ra")
    rb = client.lookup(server, "rb")
    rc = ra.flat_map(client.stage("pair_equals_outer", rb))
    serializations, _gets = ra.stats()
    emit("locality", f"{flavor}_serializations", serializations)
    value = rc.get()
    emit("locality", f"{flavor}_rc", value)
    if flavor == "on" and serializations != 0:
        fail("locality", f"replacement on: ra serialized {serializations} times, wanted 0")
    if flavor == "off" and serializations < 1:
        fail("locality", "replacement off: ra was never serialized, wanted >= 1")
    if value is not False:
        fail("locality", f"{flavor}: rc forced to {value!r}, wanted false")


def _demo_deferred(client: Node, server: EndpointAddr, emit: Callable, fail: Callable) -> None:
    stages = [
        client.stage("inc"),
        client.stage("mul", 3),
        client.stage("add", 10),
        client.stage("inc"),
        client.stage("mul", 2),
    ]
    handle = client.lookup(server, "d")

    before = client.transport.request_frames
    eager = handle
    for stage in stages:
        eager = eager.map(stage)
    eager_value = eager.get()
    eager_frames = client.transport.request_frames - before
    emit("deferred", "eager_value", eager_value)
    emit("deferred", "eager_frames", eager_frames)

    before = client.transport.request_frames
    deferred = DeferredHandle.wrap(handle)
    for stage in stages:
        deferred = deferred.map(stage)
    deferred_value = deferred.get()
    deferred_frames = client.transport.request_frames - before
    emit("deferred", "deferred_value", deferred_value)
    emit("deferred", "deferred_frames", deferred_frames)

    if eager_value != deferred_value:
        fail("deferred", f"values diverge: eager {eager_value!r}, deferred {deferred_value!r}")
    if eager_frames != len(stages) + 1:  # n maps + one get
        fail("deferred", f"eager used {eager_frames} frames, wanted {len(stages) + 1}")
    if deferred_frames != 2:
        fail("deferred", f"deferred used {deferred_frames} frames, wanted 2")


def cmd_demo(args: argparse.Namespace) -> int:
    from .transport import LoopbackNetwork

    emitter = _Emitter(args.output)
    failures: list[str] = []

    def fail(experiment: str, detail: str) -> None:
        failures.append(f"{experiment}: {detail}")

    closers: list[Callable[[], None]] = []
    try:
        if args.distributed:
            seed = args.seed
            main_srv = _ChildServer(_DEMO_BINDINGS_MAIN, locality=True,
                                    seed=None if seed is None else seed + 1)
            closers.append(main_srv.stop)
            off_srv = _ChildServer(_DEMO_BINDINGS_OFF, locality=False,
                                   seed=None if seed is None else seed + 2)
            closers.append(off_srv.stop)
            client = Node.tcp("127.0.0.1", 0,
                              rng=None if seed is None else random.Random(seed))
            closers.append(client.close)
            main_ep, off_ep = main_srv.endpoint, off_srv.endpoint
        else:
            rng = random.Random(args.seed) if args.seed is not None else None
            network = LoopbackNetwork()
            main_node = Node.loopback(network, rng=rng)
            closers.append(main_node.close)
            off_node = Node.loopback(network, locality_replacement=False, rng=rng)
            closers.append(off_node.close)
            client = Node.loopback(network, rng=rng)
            closers.append(client.close)
            for node, bindings in ((main_node, _DEMO_BINDINGS_MAIN),
                                   (off_node, _DEMO_BINDINGS_OFF)):
                for binding in bindings:
                    name, value = _construct_binding(node, binding)
                    node.rebind(name, value)
            main_ep, off_ep = main_node.endpoint, off_node.endpoint

        _demo_session(client, main_ep, emitter.emit, fail)
        _demo_compose(client, main_ep, emitter.emit, fail)
        _demo_locality(client, main_ep, emitter.emit, fail, "on")
        _demo_locality(client, off_ep, emitter.emit, fail, "off")
        _demo_deferred(client, main_ep, emitter.emit, fail)
    finally:
        for close in reversed(closers):
            try:
                close()
            except Exception:
                pass

    if failures:
        for failure in failures:
            print(f"demo: experiment {failure}", file=sys.stderr)
        return 1
    return 0


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remotable",
        description="Host service and client for remotely hosted values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a host")
    serve.add_argument("--listen", default=f"127.0.0.1:{DEFAULT_PORT}",
                       help="host:port to listen on (port 0 picks one)")
    serve.add_argument("--bind", action="append", metavar="NAME=CTOR",
                       help="bind NAME to int:<n>, text:<s>, or token")
    serve.add_argument("--locality", action=argparse.BooleanOptionalAction,
                       default=True, help="resolve home references in-process")
    serve.add_argument("--seed", type=int, default=None)
    serve.set_defaults(func=cmd_serve)

    client = sub.add_parser("client", help="talk to a host")
    client.add_argument("--connect", default=f"127.0.0.1:{DEFAULT_PORT}")
    actions = client.add_subparsers(dest="action", required=True)
    lookup = actions.add_parser("lookup")
    lookup.add_argument("name")
    map_p = actions.add_parser("map")
    map_p.add_argument("target", help="bound name, host:port/name, or printed handle")
    map_p.add_argument("fn")
    map_p.add_argument("captures", nargs="*")
    get_p = actions.add_parser("get")
    get_p.add_argument("target")
    stats_p = actions.add_parser("stats")
    stats_p.add_argument("target")
    client.set_defaults(func=cmd_client)

    demo = sub.add_parser("demo", help="run the scripted experiments")
    demo.add_argument("--seed", type=int, default=None)
    demo.add_argument("--distributed", action="store_true",
                      help="spawn real server processes and use TCP")
    demo.add_argument("--output", choices=("human", "records"), default="human")
    demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except RemoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(exc.code) + 2
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return TRANSPORT_EXIT
    except BrokenPipeError:
        # Reader went away mid-output (e.g. piped into head). Point stdout at
        # devnull so the interpreter's exit flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
