"""The serving side: dispatch protocol requests against a host table.

A Host keeps no state of its own: it turns each request variant into the
matching operation on its node's ``HostTable``, which owns the entries, their
counters and the name bindings, or into an evaluation: a Map or FlatMap runs
through ``shipping.evaluate`` under a ``HostContext`` on that node, and
``evaluate`` alone checks the result contract. ``Host.dispatch`` is
its only request entry: the owning node's requests to itself reach it
directly, and every frame reaches it through ``Host.handle_frame``, which the
loopback fabric calls with each frame it delivers and the TCP server below
with each frame a client's ``transport.Channel`` reads. So a frame gets the
same reply on either transport.

Request handling rules: every request gets exactly one response; request-level
failures answer RespError and leave the connection usable; protocol-level
failures (garbage bytes, unknown tags) answer RespError and then drop that
connection, without disturbing other clients.
"""
from __future__ import annotations

import socket
import threading
import time
from typing import Any, Optional, Union

from .errors import ErrorCode, ProtocolError, RemoteError, TransportError
from .model import EndpointAddr, Encoded, HostTable, RemoteRefDescriptor
from .protocol import (
    Export,
    FlatMap,
    Get,
    Lookup,
    Map,
    Message,
    Rebind,
    RespError,
    Stats,
    _new_resp_ack,
    _new_resp_descriptor,
    _new_resp_error,
    _new_resp_stats,
    _new_resp_value,
    check_value,
    decode_frame,
    encode_message,
    encode_value,
)
from .shipping import FnRegistry, HostContext, PlainValue, RemoteValue, evaluate
from .transport import Channel


class Host:
    """Executes requests against the host table and function registry of one node.

    The table holds every piece of host-side state; a Host holds none. A
    shipped body runs under a ``HostContext`` on ``node``, through which
    nested remote calls and locality replacement reach the client API.
    """

    def __init__(self, node: Any) -> None:
        self.node = node
        self.table: HostTable = node.table
        self.registry: FnRegistry = node.registry

    def dispatch(self, message: Message) -> Message:
        """Run one request and build its response. Never raises.

        Every request that reaches this host enters here: loopback frames, TCP
        frames and the node's own requests alike, so a failure gets the same
        typed reply wherever the request came from.
        """
        try:
            if isinstance(message, (Map, FlatMap)):
                return _new_resp_descriptor(self._pipeline(message))
            if isinstance(message, Get):
                # the one place forcing requires a codec, unless the entry
                # still holds the payload its Export brought; a failed encode
                # counts nothing
                hosted = self.table.hosted(message.target)
                payload = hosted.payload if type(hosted) is Encoded else encode_value(hosted)
                self.table.count(message.target, 1, 1)
                return _new_resp_value(payload)
            if isinstance(message, Rebind):
                self.table.rebind(message.name, message.descriptor)
                return _new_resp_ack()
            if isinstance(message, Lookup):
                return _new_resp_descriptor(self.table.lookup(message.name))
            if isinstance(message, Export):
                # checked, not built: the table keeps the payload as sent
                check_value(message.payload)
                return _new_resp_descriptor(self.table.export(Encoded(message.payload)))
            if isinstance(message, Stats):
                return _new_resp_stats(*self.table.count(message.target))
            return _new_resp_error(
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
        function yields a plain value, which is exported at this host, so a
        map result always lives at the target's home endpoint. A FlatMap's
        function places its result itself: the descriptor it yields is passed
        through as-is, possibly naming a third host. ``evaluate`` checks which
        of the two the last stage yielded.
        """
        subject = self.table.value(request.target)
        ctx = HostContext(self.node, request.target, subject)
        if isinstance(request, Map):
            result = evaluate(self.registry, request.fn, subject, ctx, PlainValue)
            return self.table.export(result.value)
        return evaluate(self.registry, request.fn, subject, ctx, RemoteValue).descriptor

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
    return _new_resp_error(int(code), data.decode("utf-8", "ignore"))


# A reply frame whose body starts with these two bytes (the RespError tag and
# the code) answers PROTOCOL_ERROR, after which its connection is closed.
_PROTOCOL_ERROR_HEAD = encode_message(_error_reply(ErrorCode.PROTOCOL_ERROR, ""))[4:6]


class _ConnectionHandler:
    """Per-connection loop: whole frames in, each answered by ``Host.handle_frame``.

    Replies go out in request order, and each is let go once it is sent, so
    a connection waiting for its next request holds none. The connection
    ends after a PROTOCOL_ERROR reply, when the peer closes it, or when a
    read or write fails: SHUT_WR, so the peer still reads every reply, then
    close.
    """

    def __init__(self, server: "TcpHostServer", host: Host, channel: Channel) -> None:
        self.server = server
        self.host = host
        self.channel = channel

    def handle(self) -> None:
        channel = self.channel
        try:
            while True:
                reply = self.host.handle_frame(channel.read())
                channel.send(reply)
                if reply[4:6] == _PROTOCOL_ERROR_HEAD:
                    return
                del reply  # an idle connection holds no reply while it waits
        except (OSError, TransportError):
            return
        finally:
            self.server._forget(channel)
            channel.close(socket.SHUT_WR)


class TcpHostServer:
    """Listening TCP front of one Host; binds eagerly, accepts on a daemon thread.

    Binding to port 0 picks an ephemeral port; ``endpoint`` reports the actual
    address, which is what goes into the host table and all descriptors. An
    address it cannot listen on raises TransportError. Each
    accepted connection is a Channel served on its own daemon thread; the
    server keeps the open ones, so that shutting it down ends them too.
    """

    def __init__(self, bind_host: str, bind_port: int):
        try:
            self._listener = socket.create_server((bind_host, bind_port))
        except (OSError, OverflowError) as exc:  # in use, not resolvable, not ours, no such port
            raise TransportError(f"cannot listen on {bind_host}:{bind_port}: {exc}") from exc
        actual_host, actual_port = self._listener.getsockname()[:2]
        self.endpoint = EndpointAddr(bind_host if bind_host else str(actual_host), actual_port)
        self._channels: Optional[set[Channel]] = set()  # None once shut down
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    def start(self, host: Host) -> None:
        self._thread = threading.Thread(
            target=self._accept,
            args=(host,),
            name=f"remotable-serve-{self.endpoint}",
            daemon=True,
        )
        self._thread.start()

    def _accept(self, host: Host) -> None:
        while self._channels is not None:
            try:
                channel = Channel(self._listener.accept()[0])
            except OSError:
                # shut down, or a failed accept; while open, pause 50 ms so an
                # accept that keeps failing (no free descriptor, say) cannot spin
                if self._channels is not None:
                    time.sleep(0.05)
                continue
            with self._lock:
                if self._channels is None:
                    channel.close()
                    return
                self._channels.add(channel)
            handler = _ConnectionHandler(self, host, channel)
            threading.Thread(target=handler.handle, daemon=True).start()

    def _forget(self, channel: Channel) -> None:
        with self._lock:
            if self._channels is not None:
                self._channels.discard(channel)

    def shutdown(self) -> None:
        """Stop listening and end every open connection; calls in them then fail."""
        with self._lock:
            channels, self._channels = self._channels or set(), None
        for channel in channels:
            channel.close()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept at once
        except OSError:
            pass
        self._listener.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
