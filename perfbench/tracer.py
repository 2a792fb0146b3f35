"""Span recording for the traced benchmark run, installed from outside the library.

Wrappers are put around the public functions of each ``remotable`` layer. A
module-level function is replaced on every ``remotable.*`` module that bound it
by name (``transport`` and ``host`` import ``encode_message`` directly, ``host``
imports ``evaluate``), because patching only the defining module would leave
those call sites untimed and the layer would silently read zero. Methods are
replaced on their class.

Each span records its name, start, end, parent span and op id, plus one integer
``n`` whose meaning depends on the span (bytes, stages, callers in flight, an
error code). Spans live in column arrays until the run ends; the server process
writes its tracer out with :meth:`Tracer.dump` and the benchmark reads it back.
Times come from ``time.monotonic``, which on Linux is CLOCK_MONOTONIC and so
comparable between the benchmark and the server process it started.
"""
from __future__ import annotations

import array
import functools
import pickle
import sys
import threading
from time import monotonic as now
from typing import Any, Callable, Optional

LAYERS = ("protocol", "transport", "host", "shipping", "model", "node", "adapters")
KINDS = ("int_list", "float_list", "text_list", "blob")

_VALUE_KIND = {0x01: "int_list", 0x02: "float_list", 0x04: "text_list"}


def value_kind(value: Any) -> str:
    if isinstance(value, (bytes, bytearray)):
        return "blob"
    if isinstance(value, list) and value:
        first = value[0]
        if isinstance(first, bool):
            return "scalar"
        if isinstance(first, int):
            return "int_list"
        if isinstance(first, float):
            return "float_list"
        if isinstance(first, str):
            return "text_list"
    return "scalar"


def payload_kind(data: bytes) -> str:
    """Kind of an encoded rv1 value, read from its tag bytes."""
    if data[:1] == b"\x05":
        return "blob"
    if data[:1] == b"\x06" and len(data) > 5:
        return _VALUE_KIND.get(data[5], "scalar")
    return "scalar"


class Tracer:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.n = array.array("q")
        self.tables: list[Any] = []
        self._table_ids: set[int] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._inflight: dict[tuple[int, Any], int] = {}

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> int:
        return getattr(self._local, "op", 0)

    def set_op(self, op_id: int) -> None:
        self._local.op = op_id

    def _name_id(self, name: str) -> int:
        found = self._name_index.get(name)
        if found is None:
            found = self._name_index[name] = len(self.names)
            self.names.append(name)
        return found

    def begin(self, name: str) -> int:
        stack = self._stack()
        op_id = self.current_op()
        with self._lock:
            index = len(self.start)
            self.name.append(self._name_id(name))
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(op_id)
            self.n.append(0)
            self.end.append(0.0)
            self.start.append(now())
        stack.append(index)
        return index

    def finish(self, index: int, n: int = 0, rename: Optional[str] = None) -> None:
        self.end[index] = now()
        self.n[index] = n
        if rename is not None:
            with self._lock:
                self.name[index] = self._name_id(rename)
        self._stack().pop()

    def run_in_op(self, op_id: int, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` on this thread under ``op_id`` (executor hand-off)."""
        previous = self.current_op()
        self.set_op(op_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self.set_op(previous)

    def track_table(self, table: Any) -> None:
        with self._lock:
            if id(table) not in self._table_ids:
                self._table_ids.add(id(table))
                self.tables.append(table)

    def enter_call(self, key: tuple[int, Any]) -> int:
        with self._lock:
            count = self._inflight.get(key, 0) + 1
            self._inflight[key] = count
            return count

    def leave_call(self, key: tuple[int, Any]) -> None:
        with self._lock:
            self._inflight[key] -= 1

    # -- persistence ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Spans plus the sizes of every host table seen, as plain data."""
        with self._lock:
            tables = list(self.tables)
            data = {
                "names": list(self.names),
                "name": self.name.tobytes(),
                "start": self.start.tobytes(),
                "end": self.end.tobytes(),
                "parent": self.parent.tobytes(),
                "op": self.op.tobytes(),
                "n": self.n.tobytes(),
            }
        # len() goes through the wrapped HostTable.__len__, so call it unlocked
        data["table_entries"] = sum(len(table) for table in tables)
        return data

    def dump(self, path: str) -> None:
        with open(path, "wb") as out:
            pickle.dump(self.snapshot(), out)


class Spans:
    """Read-only columns of a snapshot, with self times computed once."""

    def __init__(self, data: dict) -> None:
        self.names = data["names"]
        self.table_entries = data["table_entries"]
        cols = {}
        for key, code in (("name", "i"), ("start", "d"), ("end", "d"),
                          ("parent", "i"), ("op", "i"), ("n", "q")):
            col = array.array(code)
            col.frombytes(data[key])
            cols[key] = col
        self.name, self.start, self.end = cols["name"], cols["start"], cols["end"]
        self.parent, self.op, self.n = cols["parent"], cols["op"], cols["n"]
        count = len(self.start)
        self.dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(count)]

    @classmethod
    def load(cls, path: str) -> "Spans":
        with open(path, "rb") as src:
            return cls(pickle.load(src))

    def select(self, keep: Callable[[int], bool]) -> list[int]:
        return [i for i in range(len(self.start)) if keep(i)]


# -- wrapper installation --------------------------------------------------------


def _span_wrapper(
    tracer: Tracer,
    fn: Callable,
    name_of: Callable[[tuple], str],
    finish_of: Optional[Callable[[tuple, Any], tuple[int, Optional[str]]]] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(name_of(args))
        n, rename = 0, None
        try:
            result = fn(*args, **kwargs)
            if finish_of is not None:
                n, rename = finish_of(args, result)
            return result
        finally:
            tracer.finish(index, n, rename)

    return wrapper


class _OpCarryingExecutor:
    """Executor view whose submitted work runs under the submitter's op id."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def submit(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        op_id = self._tracer.current_op()
        return self._inner.submit(self._tracer.run_in_op, op_id, fn, *args, **kwargs)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every timed layer entry point; returns a function that undoes it."""
    from remotable import adapters, host, model, node, protocol, shipping, transport

    undo: list[Callable[[], None]] = []

    def patch_function(module: Any, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "remotable" or mod_name.startswith("remotable.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    undo.append(functools.partial(setattr, mod, name, original))
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no binding of {module.__name__}.{attr} found to wrap")

    def patch_attr(owner: type, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        undo.append(functools.partial(setattr, owner, attr, original))

    def wrap_method(owner: type, attr: str, name_of, finish_of=None) -> None:
        patch_attr(owner, attr, _span_wrapper(tracer, owner.__dict__[attr], name_of, finish_of))

    # protocol: value codec and message codec plus framing
    patch_function(protocol, "encode_value", lambda fn: _span_wrapper(
        tracer, fn, lambda a: "protocol.encode_value." + value_kind(a[0]),
        lambda a, r: (len(r.data), None)))
    patch_function(protocol, "decode_value", lambda fn: _span_wrapper(
        tracer, fn, lambda a: "protocol.decode_value." + payload_kind(a[0].data),
        lambda a, r: (len(a[0].data), None)))
    patch_function(protocol, "encode_message", lambda fn: _span_wrapper(
        tracer, fn, lambda a: "protocol.encode_message", lambda a, r: (len(r), None)))
    patch_function(protocol, "decode_message", lambda fn: _span_wrapper(
        tracer, fn, lambda a: "protocol.decode_message",
        lambda a, r: (0, "protocol.decode_message.partial") if r is None else (r[1], None)))

    # transport: one span per call, named by request variant; n = callers in
    # call() for the same transport and endpoint, counted at entry
    def wrap_call(owner: type) -> None:
        original = owner.__dict__["call"]

        @functools.wraps(original)
        def call(self: Any, endpoint: Any, message: Any) -> Any:
            key = (id(self), endpoint)
            inflight = tracer.enter_call(key)
            index = tracer.begin("transport.call." + type(message).__name__)
            try:
                return original(self, endpoint, message)
            finally:
                tracer.finish(index, inflight)
                tracer.leave_call(key)

        patch_attr(owner, "call", call)

    wrap_call(transport.LoopbackTransport)
    wrap_call(transport.TcpTransport)

    # host: dispatch by variant (n = error code of a RespError reply, else 0),
    # loopback frame handling, and the per-connection receive loop of a TCP host
    wrap_method(host.Host, "dispatch", lambda a: "host.dispatch." + type(a[1]).__name__,
                lambda a, r: (getattr(r, "code", 0), None))
    wrap_method(host.Host, "handle_frame", lambda a: "host.handle_frame")
    wrap_method(host._ConnectionHandler, "handle", lambda a: "host.connection")

    # shipping: pipeline evaluation, n = stages
    patch_function(shipping, "evaluate", lambda fn: _span_wrapper(
        tracer, fn, lambda a: "shipping.evaluate", lambda a, r: (len(a[1].stages), None)))

    # model: table export (which also registers the table) and len(table)
    export = model.HostTable.__dict__["export"]

    @functools.wraps(export)
    def table_export(self: Any, value: Any) -> Any:
        tracer.track_table(self)
        index = tracer.begin("model.export")
        try:
            return export(self, value)
        finally:
            tracer.finish(index)

    patch_attr(model.HostTable, "export", table_export)
    wrap_method(model.HostTable, "__len__", lambda a: "model.len")

    # node: the client operations; n = 1 when the handle is local (asked
    # through the public is_local property, which is itself counted)
    is_local = node.RemoteHandle.__dict__["is_local"]
    patch_attr(node.RemoteHandle, "is_local", property(
        _span_wrapper(tracer, is_local.fget, lambda a: "node.is_local")))
    for attr in ("map", "flat_map", "get"):
        wrap_method(node.Node, attr, lambda a, attr=attr: "node." + attr,
                    lambda a, r: (1 if a[1].is_local else 0, None))
    wrap_method(node.Node, "export_to", lambda a: "node.export_to")
    executor = node.Node.__dict__["executor"]
    patch_attr(node.Node, "executor", property(
        lambda self: _OpCarryingExecutor(executor.fget(self), tracer)))

    # adapters: n = stages shipped by a deferred get
    for attr in ("map", "flat_map", "get"):
        wrap_method(adapters.AsyncHandle, attr, lambda a, attr=attr: "adapters.async." + attr)
    wrap_method(adapters.DeferredHandle, "map", lambda a: "adapters.deferred.map")
    wrap_method(adapters.DeferredHandle, "get", lambda a: "adapters.deferred.get",
                lambda a, r: (len(a[0].pipeline.stages), None))

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall
