"""The serving side: dispatch protocol requests against a host table.

A Host keeps no state of its own: it turns each request variant into the
matching operation on its ``HostTable``, which owns the entries, their
counters and the name bindings, or into an evaluation. ``Host.dispatch`` is
its only request entry: the owning node's requests to itself reach it
directly, and every frame reaches it through ``Host.handle_frame``, which the
loopback fabric calls with each frame it delivers and the TCP server below
with each frame it reads with ``transport.read_frame``. So a frame gets the
same reply on either transport.

Request handling rules: every request gets exactly one response; request-level
failures answer RespError and leave the connection usable; protocol-level
failures (garbage bytes, unknown tags) answer RespError and then drop that
connection, without disturbing other clients.
"""
from __future__ import annotations

import socket
import socketserver
import threading
from typing import Any, Callable, Optional, Union

from .errors import ContractViolationError, ErrorCode, ProtocolError, RemoteError, TransportError
from .model import EndpointAddr, Encoded, HostTable, ObjectId, RemoteRefDescriptor
from .protocol import (
    CODEC_RV1,
    Export,
    FlatMap,
    Get,
    Lookup,
    Map,
    Message,
    Rebind,
    RespAck,
    RespDescriptor,
    RespError,
    RespStats,
    RespValue,
    Stats,
    ValuePayload,
    check_value,
    decode_frame,
    encode_message,
    encode_value,
)
from .shipping import FnRegistry, PlainValue, RemoteValue, evaluate
from .transport import read_frame


class Host:
    """Executes requests against one host table and function registry.

    The table holds every piece of host-side state; a Host holds none.

    ``context_factory(subject_id, subject_value)`` supplies the evaluation
    context handed to shipped function bodies; it is the hook through which
    nested remote calls and locality replacement reach the client API.
    """

    def __init__(
        self,
        table: HostTable,
        registry: FnRegistry,
        context_factory: Callable[[ObjectId, Any], Any],
    ) -> None:
        self.table = table
        self.registry = registry
        self._context_factory = context_factory

    def dispatch(self, message: Message) -> Message:
        """Run one request and build its response. Never raises.

        Every request that reaches this host enters here: loopback frames, TCP
        frames and the node's own requests alike, so a failure gets the same
        typed reply wherever the request came from.
        """
        try:
            if isinstance(message, (Map, FlatMap)):
                return RespDescriptor(self._pipeline(message))
            if isinstance(message, Get):
                # the one place forcing requires a codec, unless the entry
                # still holds the bytes its Export brought; a failed encode
                # counts nothing
                entry = self.table.require(message.target)
                data = entry.encoded
                if data is None:
                    payload = encode_value(entry.value)
                else:
                    payload = ValuePayload(CODEC_RV1, data)
                self.table.count(message.target, 1, 1)
                return RespValue(payload)
            if isinstance(message, Rebind):
                self.table.rebind(message.name, message.descriptor)
                return RespAck()
            if isinstance(message, Lookup):
                return RespDescriptor(self.table.lookup(message.name))
            if isinstance(message, Export):
                # checked, not built: the table keeps the bytes as sent
                check_value(message.payload)
                return RespDescriptor(self.table.export(Encoded(message.payload.data)))
            if isinstance(message, Stats):
                return RespStats(*self.table.count(message.target))
            return RespError(
                int(ErrorCode.PROTOCOL_ERROR),
                f"{type(message).__name__} is not a request",
            )
        except RemoteError as exc:
            return _error_reply(exc.code, str(exc))
        except Exception as exc:  # defensive: a request must never kill the host
            return _error_reply(ErrorCode.EXECUTION_ERROR, f"internal error: {exc}")

    def _pipeline(self, request: Union[Map, FlatMap]) -> RemoteRefDescriptor:
        """Apply a shipped function to the target's value under the variant's contract.

        The subject is handed to the function without serialization. A Map's
        function must yield a plain value, which is exported at this host, so a
        map result always lives at the target's home endpoint. A FlatMap's
        function places its result itself: the descriptor it yields is passed
        through as-is, possibly naming a third host.
        """
        subject = self.table.require(request.target).value
        ctx = self._context_factory(request.target, subject)
        result = evaluate(self.registry, request.fn, subject, ctx)
        if isinstance(request, Map):
            if not isinstance(result, PlainValue):
                raise ContractViolationError(
                    "map function must yield a plain value, got a remote reference"
                )
            return self.table.export(result.value)
        if not isinstance(result, RemoteValue):
            raise ContractViolationError(
                "flat_map function must yield a remote reference, got a plain value"
            )
        return result.descriptor

    def handle_frame(self, frame: bytes) -> bytes:
        """Decode one complete request frame and return the response frame."""
        try:
            response = self.dispatch(decode_frame(frame))
        except ProtocolError as exc:
            response = _error_reply(ErrorCode.PROTOCOL_ERROR, str(exc))
        return encode_message(response)


def _error_reply(code: ErrorCode, text: str) -> RespError:
    """A RespError whose text always encodes.

    Exception text is arbitrary: lone surrogates are escaped and text beyond
    the 65535 bytes a name field holds is cut, so the reply itself cannot fail.
    """
    data = text.encode("utf-8", "backslashreplace")[:0xFFFF]
    return RespError(int(code), data.decode("utf-8", "ignore"))


# A reply frame whose body starts with these two bytes (the RespError tag and
# the code) answers PROTOCOL_ERROR, after which its connection is closed.
_PROTOCOL_ERROR_HEAD = encode_message(_error_reply(ErrorCode.PROTOCOL_ERROR, ""))[4:6]


class _HostTCPServer(socketserver.ThreadingTCPServer):
    """Keeps its open connections, so that closing it ends them too.

    ``socketserver`` ends each connection with ``shutdown_request``: SHUT_WR,
    so the peer reads every reply, then ``close_request``.
    """

    daemon_threads = True
    allow_reuse_address = True
    remotable_host: Host

    def __init__(self, address: tuple[str, int]) -> None:
        super().__init__(address, _ConnectionHandler)
        self.connections: Optional[set[socket.socket]] = set()  # None once closed
        self.connections_lock = threading.Lock()

    def verify_request(self, request: Any, client_address: Any) -> bool:
        with self.connections_lock:
            if self.connections is None:
                return False  # closed: refused, then ended by shutdown_request
            self.connections.add(request)
        return True

    def close_request(self, request: Any) -> None:
        with self.connections_lock:
            if self.connections is not None:
                self.connections.discard(request)
        super().close_request(request)

    def close_connections(self) -> None:
        """Refuse new connections and wake each open one's handler, which then ends it."""
        with self.connections_lock:
            connections, self.connections = self.connections or set(), None
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already ended it


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """Per-connection loop: whole frames in, each answered by ``Host.handle_frame``.

    Replies go out in request order. The connection closes after a
    PROTOCOL_ERROR reply, when the peer closes it, or when a read or write
    fails.
    """

    def handle(self) -> None:
        server: _HostTCPServer = self.server  # type: ignore[assignment]
        host = server.remotable_host
        conn = self.request
        try:
            while True:
                reply = host.handle_frame(read_frame(conn))
                conn.sendall(reply)
                if reply[4:6] == _PROTOCOL_ERROR_HEAD:
                    return
        except (OSError, TransportError):
            return


class TcpHostServer:
    """Listening TCP front of one Host; binds eagerly, serves on a daemon thread.

    Binding to port 0 picks an ephemeral port; ``endpoint`` reports the actual
    address, which is what goes into the host table and all descriptors.
    """

    def __init__(self, bind_host: str, bind_port: int):
        self._server = _HostTCPServer((bind_host, bind_port))
        actual_host, actual_port = self._server.server_address[:2]
        self.endpoint = EndpointAddr(bind_host if bind_host else str(actual_host), actual_port)
        self._thread: Optional[threading.Thread] = None

    def start(self, host: Host) -> None:
        self._server.remotable_host = host
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"remotable-serve-{self.endpoint}",
            daemon=True,
        )
        self._thread.start()

    def shutdown(self) -> None:
        """Stop listening and end every open connection; calls in them then fail."""
        self._server.close_connections()
        try:
            # wakes serve_forever's select now rather than at its next poll
            self._server.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # serve_forever then stops at its next poll, 0.5 s at most
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
