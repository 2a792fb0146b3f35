"""Request/response transports between nodes.

A transport delivers one encoded request frame to an endpoint and returns the
endpoint's single response frame. Both implementations move real protocol
bytes, so the codec is exercised identically whether traffic stays in process
or crosses TCP. ``read_frame`` is the one reader of frames off a socket: the
TCP client reads its replies with it and a TCP host its requests.

The loopback transport routes frames between nodes registered in one
LoopbackNetwork, with an optional injected per-call delay for latency
experiments. Every transport counts its outbound request frames by message
variant, which is how the deferred-application economy is measured. A closed
transport refuses every call, and a TransportError raised by a call names the
endpoint it was addressed to.
"""
from __future__ import annotations

import socket
import threading
import time
from collections import Counter
from typing import Callable

from .errors import TransportError
from .model import EndpointAddr
from .protocol import Message, decode_frame, encode_message

_CONNECT_TIMEOUT_S = 10.0
# A body longer than this is read a chunk at a time, so that what the client
# allocates follows the bytes that arrive, not the size a header claims.
_RECV_CHUNK = 1 << 20


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
        with self._lock:
            dispatcher = self._dispatchers.get(endpoint)
        if dispatcher is None:
            raise TransportError(f"no host attached at {endpoint}", endpoint)
        return dispatcher(frame)


class LoopbackTransport(Transport):
    """Frame delivery inside one process, silently re-entrant and deadlock-free."""

    def __init__(self, network: LoopbackNetwork, delay: float = 0.0) -> None:
        super().__init__()
        self.network = network
        self.delay = delay

    def call(self, endpoint: EndpointAddr, message: Message) -> Message:
        if self._closed:
            raise _refused(endpoint)
        frame = encode_message(message)
        self._count(message)
        if self.delay > 0:
            time.sleep(self.delay)
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
        chunk = sock.recv(min(count, _RECV_CHUNK), socket.MSG_WAITALL)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return chunks


def read_frame(sock: socket.socket) -> bytes:
    """Read one whole frame: the 4-byte length prefix, then the body it declares.

    Raises TransportError when the peer closes before the frame is whole.
    """
    header = _recv_chunks(sock, 4)
    body_len = int.from_bytes(b"".join(header), "big")
    # one copy joins the header and the body's chunks
    return b"".join(header + _recv_chunks(sock, body_len))


class TcpTransport(Transport):
    """One TCP connection per endpoint, with calls serialized on it (no pool)."""

    def __init__(self) -> None:
        super().__init__()
        self._connections: dict[EndpointAddr, socket.socket] = {}
        self._locks: dict[EndpointAddr, threading.Lock] = {}
        self._pool_lock = threading.Lock()

    def _lock_for(self, endpoint: EndpointAddr) -> threading.Lock:
        with self._pool_lock:
            lock = self._locks.get(endpoint)
            if lock is None:
                lock = self._locks[endpoint] = threading.Lock()
            return lock

    def _connection(self, endpoint: EndpointAddr) -> socket.socket:
        conn = self._connections.get(endpoint)
        if conn is not None:
            return conn
        try:
            conn = socket.create_connection(
                (endpoint.host, endpoint.port), timeout=_CONNECT_TIMEOUT_S
            )
        except OSError as exc:
            raise TransportError(f"cannot connect to {endpoint}: {exc}", endpoint) from exc
        conn.settimeout(None)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._pool_lock:
            if not self._closed:
                self._connections[endpoint] = conn
                return conn
        conn.close()  # the transport was closed while this one connected
        raise _refused(endpoint)

    def _drop(self, endpoint: EndpointAddr, conn: socket.socket) -> None:
        """Forget ``conn`` if it is still the endpoint's connection, and end it.

        Shutting it down first wakes a call blocked reading it; a bare close
        would leave that call waiting on a silent peer.
        """
        with self._pool_lock:
            if self._connections.get(endpoint) is conn:
                del self._connections[endpoint]
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer already reset it, or it never connected
        conn.close()

    def call(self, endpoint: EndpointAddr, message: Message) -> Message:
        if self._closed:
            raise _refused(endpoint)
        frame = encode_message(message)
        with self._lock_for(endpoint):
            conn = self._connection(endpoint)
            self._count(message)
            try:
                conn.sendall(frame)
                response = read_frame(conn)
            except (OSError, TransportError) as exc:
                self._drop(endpoint, conn)
                raise TransportError(f"call to {endpoint} failed: {exc}", endpoint) from exc
        return decode_frame(response)

    def close(self) -> None:
        """Refuse every later call and end every open connection."""
        with self._pool_lock:
            self._closed = True
            connections = list(self._connections.items())
        for endpoint, conn in connections:
            self._drop(endpoint, conn)
