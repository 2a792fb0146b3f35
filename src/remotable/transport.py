"""Request/response transports between nodes.

A transport delivers one encoded request frame to an endpoint and returns the
endpoint's single response frame. Both implementations move real protocol
bytes, so the codec is exercised identically whether traffic stays in process
or crosses TCP. A ``Channel`` is one connected TCP socket, at either end: the
TCP client keeps one per endpoint and a TCP host one per client, and only a
Channel writes, reads (with ``read_frame``) or shuts down its socket.

The loopback transport routes frames between nodes registered in one
LoopbackNetwork. Every transport counts its outbound request frames by message
variant, which is how the deferred-application economy is measured. A closed
transport refuses every call, and a TransportError raised by a call names the
endpoint it was addressed to.
"""
from __future__ import annotations

import socket
import threading
from collections import Counter
from typing import Callable

from .errors import TransportError
from .model import EndpointAddr
from .protocol import Message, decode_frame, encode_message

_CONNECT_TIMEOUT_S = 10.0
# A body longer than this is read a chunk at a time, so that what the client
# allocates follows the bytes that arrive, not the size a header claims.
_RECV_CHUNK = 1 << 20
# recv flags as plain ints: OR-ing the IntFlag members on each call runs
# enum's Python __or__.
_WAITALL = int(socket.MSG_WAITALL)
_PEEK_WAITALL = int(socket.MSG_PEEK | socket.MSG_WAITALL)


class Transport:
    """One logical call: ship a request frame, wait for the response frame."""

    def __init__(self) -> None:
        self.frame_counts: Counter[str] = Counter()
        self._count_lock = threading.Lock()
        self._closed = False

    def _count(self, message: Message) -> None:
        with self._count_lock:
            self.frame_counts[type(message).__name__] += 1

    @property
    def request_frames(self) -> int:
        with self._count_lock:
            return sum(self.frame_counts.values())

    def call(self, endpoint: EndpointAddr, message: Message) -> Message:
        raise NotImplementedError

    def close(self) -> None:
        self._closed = True

    def check_open(self, endpoint: EndpointAddr) -> None:
        """Raise the TransportError of a refused call to ``endpoint`` once closed."""
        if self._closed:
            raise _refused(endpoint)


def _refused(endpoint: EndpointAddr) -> TransportError:
    return TransportError(f"transport closed: no call to {endpoint}", endpoint)


class LoopbackNetwork:
    """An in-process fabric of hosts addressed by synthetic endpoints."""

    def __init__(self) -> None:
        self._dispatchers: dict[EndpointAddr, Callable[[bytes], bytes]] = {}
        self._next_port = 1
        self._lock = threading.Lock()

    def allocate_endpoint(self) -> EndpointAddr:
        with self._lock:
            port = self._next_port
            self._next_port += 1
        return EndpointAddr("loop", port)

    def attach(self, endpoint: EndpointAddr, dispatcher: Callable[[bytes], bytes]) -> None:
        with self._lock:
            if endpoint in self._dispatchers:
                raise ValueError(f"endpoint already attached: {endpoint}")
            self._dispatchers[endpoint] = dispatcher

    def detach(self, endpoint: EndpointAddr) -> None:
        with self._lock:
            self._dispatchers.pop(endpoint, None)

    def deliver(self, endpoint: EndpointAddr, frame: bytes) -> bytes:
        # one dict read needs no lock: endpoints hash and compare by identity,
        # so the read runs no Python code and sees attach/detach whole
        dispatcher = self._dispatchers.get(endpoint)
        if dispatcher is None:
            raise TransportError(f"no host attached at {endpoint}", endpoint)
        return dispatcher(frame)


class LoopbackTransport(Transport):
    """Frame delivery inside one process, silently re-entrant and deadlock-free."""

    def __init__(self, network: LoopbackNetwork) -> None:
        super().__init__()
        self.network = network

    def call(self, endpoint: EndpointAddr, message: Message) -> Message:
        self.check_open(endpoint)
        frame = encode_message(message)
        self._count(message)
        return decode_frame(self.network.deliver(endpoint, frame))


def _recv_chunks(sock: socket.socket, count: int) -> list[bytes]:
    """Receive exactly ``count`` bytes, as the chunks they arrived in.

    MSG_WAITALL lets a blocking socket fill a whole chunk in one call; the
    loop finishes reads it cuts short (a socket with a timeout, a signal).
    ``recv`` allocates its whole size before any byte arrives, so no call
    asks for more than _RECV_CHUNK.
    """
    chunks = []
    while count:
        chunk = sock.recv(min(count, _RECV_CHUNK), _WAITALL)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return chunks


def read_frame(sock: socket.socket) -> bytes:
    """Read one whole frame: the 4-byte length prefix, then the body it declares.

    The prefix is peeked first, so the whole frame is received in chunks of
    at most _RECV_CHUNK and joined once; a frame that fits one chunk is one
    recv, whose bytes the join returns as they are. A prefix that has not all
    arrived (a closed peer, a socket with a timeout) is read before its body.
    Raises TransportError when the peer closes before the frame is whole.
    """
    peeked = sock.recv(4, _PEEK_WAITALL)
    if len(peeked) == 4:
        return b"".join(_recv_chunks(sock, 4 + int.from_bytes(peeked, "big")))
    header = _recv_chunks(sock, 4)
    body_len = int.from_bytes(b"".join(header), "big")
    # one copy joins the header and the body's chunks
    return b"".join(header + _recv_chunks(sock, body_len))


class Channel:
    """One connected socket and the lock that its callers take for a call.

    Nagle's algorithm is off at both ends, so the last segment of a frame,
    a large reply's tail included, goes out without waiting for an ACK.
    """

    __slots__ = ("sock", "lock")

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.lock = threading.Lock()

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def read(self) -> bytes:
        return read_frame(self.sock)

    def close(self, how: int = socket.SHUT_RDWR) -> None:
        """Shut the socket down, which wakes a call blocked on it, then close it."""
        try:
            self.sock.shutdown(how)
        except OSError:
            pass  # the peer already reset it, or it is closed
        self.sock.close()


class TcpTransport(Transport):
    """One Channel per endpoint, with calls serialized on it (no pool)."""

    def __init__(self) -> None:
        super().__init__()
        self._channels: dict[EndpointAddr, Channel] = {}
        self._lock = threading.Lock()

    def _channel(self, endpoint: EndpointAddr) -> Channel:
        channel = self._channels.get(endpoint)
        if channel is not None:
            return channel
        try:
            sock = socket.create_connection(
                (endpoint.host, endpoint.port), timeout=_CONNECT_TIMEOUT_S
            )
        except OSError as exc:
            raise TransportError(f"cannot connect to {endpoint}: {exc}", endpoint) from exc
        sock.settimeout(None)
        fresh = Channel(sock)
        with self._lock:
            channel = None if self._closed else self._channels.setdefault(endpoint, fresh)
        if channel is not fresh:
            fresh.close()  # another caller's channel won, or the transport was closed
            if channel is None:
                raise _refused(endpoint)
        return channel

    def call(self, endpoint: EndpointAddr, message: Message) -> Message:
        self.check_open(endpoint)
        frame = encode_message(message)
        channel = self._channel(endpoint)
        with channel.lock:
            self._count(message)
            try:
                channel.send(frame)
                response = channel.read()
            except (OSError, TransportError) as exc:
                with self._lock:
                    if self._channels.get(endpoint) is channel:
                        del self._channels[endpoint]
                channel.close()
                raise TransportError(f"call to {endpoint} failed: {exc}", endpoint) from exc
        return decode_frame(response)

    def close(self) -> None:
        """Refuse every later call and end every open channel."""
        with self._lock:
            self._closed = True
            channels, self._channels = list(self._channels.values()), {}
        for channel in channels:
            channel.close()
