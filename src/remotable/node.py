"""A node: one peer that both hosts values and invokes operations on others.

Every node owns a host table, a function registry, and a transport. Handles
(`RemoteHandle`) are the client-side face of hosted values: composing with
``map``/``flat_map`` ships a named function to the value's home, while ``get``
forces the value back across the wire. A request addressed to this very node
is answered in process by its own ``Host.dispatch``: zero frames, zero
serialization, and the same typed errors as over the wire. With locality
replacement switched off, self-addressed requests take the full network path
instead (that switch exists so the difference is measurable). A handle bound
to a local table entry stays in process either way: ``map``/``flat_map`` on
it go to ``Host.dispatch`` and ``get`` hands over the value itself.

A node's ``Host`` runs each shipped body under a ``shipping.HostContext``,
which reaches the node only through ``_materialize``, ``apply`` and
``new_token``.
"""
from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Union

from .errors import ProtocolError, error_for_code
from .funcs import Token, default_registry
from .host import Host, TcpHostServer
from .model import EndpointAddr, HostTable, ObjectId, RemoteRefDescriptor
from .protocol import (
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
    _new_flat_map,
    _new_map,
    decode_value,
    encode_value,
)
from .shipping import (
    FnRegistry,
    InlineValue,
    RemoteRef,
    ShippedFn,
    Stage,
    _check_fn_id,
    _new_inline,
    _new_pipeline,
    _new_ref,
    _new_stage,
)
from .transport import LoopbackNetwork, LoopbackTransport, TcpTransport, Transport

_ASYNC_WORKERS = 8  # threads behind Node.executor, which runs AsyncHandle steps
# capture types that Node.stage inlines at once, exact types only
_SCALARS = frozenset((int, float, str, bool, bytes))


class RemoteHandle:
    """Client-side reference to a value hosted somewhere.

    ``_local`` is set when the value was hosted here by ``apply`` or its
    descriptor resolved to this node's table (locality replacement);
    ``map``/``flat_map`` on such a handle are answered in process and ``get``
    hands over the table's value itself.
    """

    __slots__ = ("descriptor", "_node", "_local")

    def __init__(self, descriptor: RemoteRefDescriptor, node: "Node", local: bool) -> None:
        self.descriptor = descriptor
        self._node = node
        self._local = local

    @property
    def is_local(self) -> bool:
        return self._local

    def map(self, fn: Union[Stage, ShippedFn]) -> "RemoteHandle":
        return self._node.map(self, fn)

    def flat_map(self, fn: Union[Stage, ShippedFn]) -> "RemoteHandle":
        return self._node.flat_map(self, fn)

    def get(self) -> Any:
        return self._node.get(self)

    def stats(self) -> tuple[int, int]:
        return self._node.stats(self)

    def __repr__(self) -> str:
        return f"remote[endpoint={self.descriptor.endpoint} id={self.descriptor.id}]"


class Node:
    """One process-local peer: host table + registry + transport + server glue."""

    def __init__(
        self,
        endpoint: EndpointAddr,
        transport: Transport,
        *,
        registry: Optional[FnRegistry] = None,
        locality_replacement: bool = True,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.endpoint = endpoint
        self.transport = transport
        self.registry = registry if registry is not None else default_registry()
        self.locality_replacement = locality_replacement
        self.table = HostTable(endpoint, (rng or random).getrandbits(64))
        self.host = Host(self)
        self._token_lock = threading.Lock()
        self._next_token_serial = 1
        # built here, ended by close; its threads start on first use
        self._executor = ThreadPoolExecutor(
            max_workers=_ASYNC_WORKERS, thread_name_prefix=f"remotable-{endpoint.port}"
        )
        self._server: Optional[TcpHostServer] = None
        self._loopback: Optional[LoopbackNetwork] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def tcp(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: Optional[FnRegistry] = None,
        locality_replacement: bool = True,
        rng: Optional[random.Random] = None,
    ) -> "Node":
        """Start a serving node on ``host:port`` (port 0 picks a free port)."""
        server = TcpHostServer(host, port)
        node = cls(
            server.endpoint,
            TcpTransport(),
            registry=registry,
            locality_replacement=locality_replacement,
            rng=rng,
        )
        server.start(node.host)
        node._server = server
        return node

    @classmethod
    def loopback(
        cls,
        network: LoopbackNetwork,
        *,
        registry: Optional[FnRegistry] = None,
        locality_replacement: bool = True,
        rng: Optional[random.Random] = None,
    ) -> "Node":
        """Join an in-process fabric; frames are real bytes, delivery is a call."""
        endpoint = network.allocate_endpoint()
        node = cls(
            endpoint,
            LoopbackTransport(network),
            registry=registry,
            locality_replacement=locality_replacement,
            rng=rng,
        )
        network.attach(endpoint, node.host.handle_frame)
        node._loopback = network
        return node

    def close(self) -> None:
        """Refuse every later call, then stop serving and end the worker pool.

        The transport closes first, so a call of this node's that waits on a
        peer fails with its own TransportError naming that peer, whatever the
        peer answers meanwhile. A request this node would answer itself is
        refused the same way, naming this node's endpoint. ``get`` on a local
        handle sends no request, so it still hands over the value. A second
        close does nothing more.
        """
        self.transport.close()
        if self._server is not None:
            self._server.shutdown()
            self._server = None
        if self._loopback is not None:
            self._loopback.detach(self.endpoint)
            self._loopback = None
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "Node":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _materialize(self, descriptor: RemoteRefDescriptor) -> RemoteHandle:
        local = self.locality_replacement and self.table.is_home(descriptor)
        return RemoteHandle(descriptor, self, local)

    def _call(
        self, endpoint: EndpointAddr, request: Message, reply_type: type, local: bool = False
    ) -> Any:
        """Answer ``request`` at ``endpoint`` with a ``reply_type``, in process if here.

        ``local`` marks a request about a value bound to a local table entry,
        answered here even with locality replacement off. Once the node is
        closed, a request is refused with TransportError on either path. A
        sent Map/FlatMap charges one serialization to each capture marked as
        a copy of a value hosted here once answered, whatever the answer; a
        request that could not be encoded charges nothing.
        """
        if local or (endpoint == self.endpoint and self.locality_replacement):
            self.transport.check_open(endpoint)  # closed, it refuses in process too
            return _expect(request, self.host.dispatch(request), reply_type)
        reply = self.transport.call(endpoint, request)
        if isinstance(request, (Map, FlatMap)):
            for stage in request.fn.stages:
                for capture in stage.captures:
                    if isinstance(capture, InlineValue) and capture.origin is not None:
                        self.table.count(capture.origin, 1)
        return _expect(request, reply, reply_type)

    @property
    def executor(self) -> ThreadPoolExecutor:
        return self._executor

    # -- building blocks ----------------------------------------------------

    def new_token(self) -> Token:
        with self._token_lock:
            serial = self._next_token_serial
            self._next_token_serial += 1
        return Token(serial)

    def stage(self, fn_id: str, *captures: Any) -> Stage:
        """Build one pipeline stage; handles become references, the rest inlines.

        The fn id is checked first, as ``Stage`` checks it. Arity is then
        pre-checked when the function is registered here too, which catches
        typos before anything goes on the wire. An int, float, str, bool or
        bytes capture is inlined before any other type is tested. The
        captures and the stage are built from these checked fields, not
        through their constructors.
        """
        _check_fn_id(fn_id)
        converted = tuple([
            _new_inline(capture, None, False) if type(capture) in _SCALARS
            else _new_ref(capture.descriptor) if isinstance(capture, RemoteHandle)
            else _new_ref(capture) if isinstance(capture, RemoteRefDescriptor)
            else capture if isinstance(capture, (InlineValue, RemoteRef))
            else _new_inline(capture, None, False)
            for capture in captures
        ])
        registration = self.registry.get(fn_id)
        if registration is not None and registration.capture_arity != len(captures):
            raise ValueError(
                f"{fn_id} takes {registration.capture_arity} capture(s), got {len(captures)}"
            )
        return _new_stage(fn_id, converted)

    # -- value placement ----------------------------------------------------

    def apply(self, value: Any) -> RemoteHandle:
        """Host a value here and hand back its (always-local) handle."""
        return RemoteHandle(self.table.export(value), self, True)

    def export_to(self, endpoint: EndpointAddr, value: Any) -> RemoteHandle:
        """Serialize a value and host it at another endpoint."""
        if endpoint == self.endpoint:
            return self.apply(value)
        reply = self._call(endpoint, Export(encode_value(value)), RespDescriptor)
        return self._materialize(reply.descriptor)

    def rebind(self, name: str, value: Any) -> RemoteHandle:
        """Bind a name (locally unless given a handle hosted elsewhere)."""
        if isinstance(value, RemoteHandle):
            handle = value
        else:
            handle = self.apply(value)
        descriptor = handle.descriptor
        self._call(descriptor.endpoint, Rebind(name, descriptor), RespAck)
        return handle

    def lookup(self, endpoint: EndpointAddr, name: str) -> RemoteHandle:
        reply = self._call(endpoint, Lookup(name), RespDescriptor)
        return self._materialize(reply.descriptor)

    # -- the remote operations ------------------------------------------------

    def map(self, handle: RemoteHandle, fn: Union[Stage, ShippedFn]) -> RemoteHandle:
        return self._ship(_new_map, handle, fn)

    def flat_map(self, handle: RemoteHandle, fn: Union[Stage, ShippedFn]) -> RemoteHandle:
        return self._ship(_new_flat_map, handle, fn)

    def _ship(
        self,
        new_request: Callable[[ObjectId, ShippedFn], Union[Map, FlatMap]],
        handle: RemoteHandle,
        fn: Union[Stage, ShippedFn],
    ) -> RemoteHandle:
        """Run ``fn`` at the handle's home as the request ``new_request`` builds.

        The pipeline and the request are built around their constructors
        (see ``model._builder``): a one-stage pipeline is never empty, and a
        request checks nothing.
        """
        if isinstance(fn, Stage):
            fn = _new_pipeline((fn,))
        request = new_request(handle.descriptor.id, fn)
        reply = self._call(handle.descriptor.endpoint, request, RespDescriptor, handle._local)
        return self._materialize(reply.descriptor)

    def get(self, handle: RemoteHandle) -> Any:
        if handle._local:
            # co-located force: hand the value over, nothing crosses a codec
            return self.table.value(handle.descriptor.id)
        reply = self._call(handle.descriptor.endpoint, Get(handle.descriptor.id), RespValue)
        return decode_value(reply.payload)

    def stats(self, handle: RemoteHandle) -> tuple[int, int]:
        reply = self._call(handle.descriptor.endpoint, Stats(handle.descriptor.id), RespStats)
        return (reply.serialization_count, reply.get_count)


def _expect(request: Message, reply: Message, reply_type: type) -> Any:
    """Return ``reply`` if it is the ``reply_type`` answer to ``request``.

    A RespError becomes its typed exception; any other variant is a peer that
    broke the protocol.
    """
    if isinstance(reply, reply_type):
        return reply
    if isinstance(reply, RespError):
        raise error_for_code(reply.code, reply.text)
    raise ProtocolError(f"{type(request).__name__} answered with {type(reply).__name__}")
