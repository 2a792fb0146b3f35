"""Identity, addressing, and hosting of remote values.

A process that hosts values owns one :class:`HostTable`, the only store of
its host-side state: the hosted values and their serialization/get counters,
each entry a slot in flat columns indexed by serial rather than an object of
its own, and the names bound to them. Exporting a value stores it under a fresh
:class:`ObjectId` and hands back a portable :class:`RemoteRefDescriptor` that
any process can use to address it. The descriptor is the only thing that ever
crosses the wire; the value itself stays home until somebody forces it.

Object ids embed a random per-process incarnation so that references into a
restarted host miss the table instead of silently hitting a different value.

The package's records (ids, descriptors, pipeline parts, messages) are frozen
dataclasses with ``__slots__``: no instance has a ``__dict__``, and assigning
or deleting any attribute raises ``FrozenInstanceError`` (``_frozen``).
Code that has already checked a record's fields builds it with the class's
builder (``_builder``), which sets each slot directly, and a constructor
that keeps a tuple of a given iterable stores it with ``_hold_tuple``; this
module alone sets slots or creates instances around their constructors.
"""
from __future__ import annotations

import operator
import threading
import weakref
from array import array
from dataclasses import FrozenInstanceError, dataclass, fields
from typing import TYPE_CHECKING, Any, Callable

from .errors import NotFoundError, UnknownObjectError

if TYPE_CHECKING:
    from .protocol import ValuePayload  # protocol imports model

MAX_PORT = 65535
_MAX_SERIAL = 2**64 - 1

_new = object.__new__
_set = object.__setattr__


def _builder(cls: type) -> Callable[..., Any]:
    """A function taking the values of slotted record ``cls``'s fields in order
    and returning an instance that holds them.

    It runs neither ``__init__`` nor ``__post_init__``, so it is for values the
    caller has already checked: each slot is set through its member
    descriptor. This is the one way in the package to build a record around
    its constructor.
    """
    setters = [cls.__dict__[field.name].__set__ for field in fields(cls)]
    if not setters:
        return lambda: _new(cls)
    if len(setters) == 1:
        (set_a,) = setters

        def build(a: Any) -> Any:
            instance = _new(cls)
            set_a(instance, a)
            return instance
    elif len(setters) == 2:
        set_a, set_b = setters

        def build(a: Any, b: Any) -> Any:
            instance = _new(cls)
            set_a(instance, a)
            set_b(instance, b)
            return instance
    elif len(setters) == 3:
        set_a, set_b, set_c = setters

        def build(a: Any, b: Any, c: Any) -> Any:
            instance = _new(cls)
            set_a(instance, a)
            set_b(instance, b)
            set_c(instance, c)
            return instance
    else:
        raise TypeError(f"no builder for {len(setters)} fields")
    return build


def _hold_tuple(record: Any, name: str) -> None:
    """Replace the iterable in slotted record ``record``'s field ``name`` with a
    tuple of it, for a ``__post_init__`` that takes any iterable."""
    _set(record, name, tuple(getattr(record, name)))


def _refuse_set(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls: type) -> type:
    """Refuse every assignment and deletion on a ``dataclass(frozen=True,
    slots=True)`` class with FrozenInstanceError.

    Before CPython 3.12 the methods such a class is given raise TypeError for
    a name that is not a field: they call ``super()`` on the class that
    ``slots=True`` replaced.
    """
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls


class EndpointAddr:
    """A host:port pair; ``parse`` takes only the canonical text that ``str`` renders.

    Endpoints are interned: there is one object per host:port pair while any
    is alive, and building one again (by the constructor, ``parse``, a decoded
    descriptor, ``copy``, ``deepcopy`` or a pickle round trip) gives that very
    object. So ``==`` and ``hash`` are the identity ones inherited from
    ``object``, and run no Python code where endpoints are compared or used as
    keys: ``Node._call``, ``HostTable.is_home``, the loopback fabric's
    dispatcher dict, a TCP client's channels and the codec's endpoint memos.
    The intern table holds its endpoints weakly, so it keeps only those that
    something else still holds. A port is an int; a bool or another int
    subclass is kept as the plain int it equals, so ``EndpointAddr("loop",
    True)`` is ``EndpointAddr("loop", 1)`` and renders ``loop:1``. Instances
    are frozen.
    """

    __slots__ = ("host", "port", "__weakref__")
    host: str
    port: int

    def __new__(cls, host: str, port: int) -> "EndpointAddr":
        if type(host) is not str or type(port) is not int:
            host, port = _plain(host, port)
        key = (host, port)
        with _INTERN_LOCK:
            endpoint = _INTERNED.get(key)
            if endpoint is None:
                if host.split() != [host] or ":" in host:  # empty or has whitespace
                    raise ValueError(f"bad endpoint host: {host!r}")
                if not 1 <= port <= MAX_PORT:
                    raise ValueError(f"bad endpoint port: {port}")
                endpoint = _new(cls)
                _set(endpoint, "host", host)
                _set(endpoint, "port", port)
                _INTERNED[key] = endpoint
        return endpoint

    @classmethod
    def parse(cls, text: str) -> "EndpointAddr":
        host, sep, port = text.rpartition(":")
        if not sep or not (port.isascii() and port.isdigit()) or port.startswith("0"):
            raise ValueError(f"expected host:port, got {text!r}")
        return cls(host, int(port))

    __setattr__ = _refuse_set
    __delattr__ = _refuse_delete

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle rebuild through the constructor, which interns
        return EndpointAddr, (self.host, self.port)

    def __repr__(self) -> str:
        return f"EndpointAddr(host={self.host!r}, port={self.port!r})"

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


# host:port -> its one live EndpointAddr
_INTERNED: "weakref.WeakValueDictionary[tuple[str, int], EndpointAddr]" = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


def _plain(host: Any, port: Any) -> tuple[str, int]:
    """``host`` and ``port`` as an exact str and int, the intern table's key."""
    if not isinstance(host, str):
        raise ValueError(f"bad endpoint host: {host!r}")
    try:
        port = operator.index(port)
    except TypeError:
        raise ValueError(f"bad endpoint port: {port!r}") from None
    return str.__str__(host), port


@_frozen
@dataclass(frozen=True, slots=True)
class ObjectId:
    """Per-process unique value identity: random incarnation + monotone serial."""

    incarnation: int
    serial: int

    def __post_init__(self) -> None:
        if not 0 <= self.incarnation <= _MAX_SERIAL:
            raise ValueError("incarnation out of unsigned 64-bit range")
        if not 1 <= self.serial <= _MAX_SERIAL:
            raise ValueError("serial must be in 1..2^64-1")

    def __str__(self) -> str:
        return f"{self.incarnation:016x}:{self.serial}"


@_frozen
@dataclass(frozen=True, slots=True)
class RemoteRefDescriptor:
    """Portable address of a hosted value: where it lives and which entry it is."""

    endpoint: EndpointAddr
    id: ObjectId


# Builders of the two records from checked fields (see _builder)
_new_id = _builder(ObjectId)
_new_descriptor = _builder(RemoteRefDescriptor)


class Encoded:
    """A checked ``ValuePayload`` handed to ``HostTable.export``, to be hosted as it is.

    Internal to the host side: ``Host.dispatch`` wraps a validated Export
    payload in it, so the table keeps the payload, codec id and bytes, and
    not a decoded copy. A body that returns a ``ValuePayload`` is hosted as
    that object, never as unchecked bytes.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: ValuePayload) -> None:
        self.payload = payload


def _unknown(object_id: ObjectId) -> UnknownObjectError:
    return UnknownObjectError(f"no hosted value under id {object_id}")


class HostTable:
    """Per-process host-side state: hosted values, their counters and the names bound to them.

    Each entry is a slot in flat columns indexed by ``serial - _first``, not
    an object of its own: ``_values`` is a list holding the value, or, for
    an Export, the ``Encoded`` that keeps its payload until the first
    ``value`` read decodes it, and ``_serializations`` and ``_gets`` are
    ``array("Q")`` columns of its counters. An entry thus costs a list slot
    and 16 bytes of counters, with no key, hash slot or tuple, and a table
    of any size adds no object for the cyclic garbage collector to walk
    beyond what its values bring. ``_first`` is the serial of ``_values[0]``
    (1 unless set otherwise); the next serial is ``_first + len(_values)``.
    ``serializations`` grows exactly when the value's bytes are sent for the
    wire, whether encoded then or kept from the Export; local handoffs never
    touch it. ``gets`` grows once per remote force. Only this class names
    its storage (a tier-1 ``ast`` check).

    Also serves as the locality-replacement cache: a descriptor whose endpoint
    and incarnation match this table is home (``is_home``), and its value is
    read in process, with zero serialization. ``rebind`` and ``lookup``
    answer the requests they are named after. Every operation takes the one
    lock once, so each is safe under concurrent request handlers; only the
    first ``value`` read of kept bytes takes it again, to store what it
    decoded.

    Entries and bindings are addressed by serial alone: every lookup first
    checks that the id's incarnation is this table's, so an id of another
    incarnation misses as if its serial were unknown, and a serial below
    ``_first`` or past the last entry misses too, never wrapping round.
    """

    def __init__(self, self_endpoint: EndpointAddr, incarnation: int) -> None:
        ObjectId(incarnation, 1)  # refuses an incarnation out of range, once for every id
        self.self_endpoint = self_endpoint
        self.incarnation = incarnation
        self._first = 1
        self._values: list[Any] = []
        self._serializations: array[int] = array("Q")
        self._gets: array[int] = array("Q")
        self._names: dict[str, int] = {}
        self._lock = threading.Lock()
        self._decode_lock = threading.Lock()

    def export(self, value: Any) -> RemoteRefDescriptor:
        """Store a value under a fresh id. The value need not be serializable.

        Serials strictly increase and are never reused. An ``Encoded`` value
        is stored as its bytes, decoded on first read. The id and descriptor
        are built by their builders: the incarnation was checked once, and
        the serial is in range here.
        """
        with self._lock:
            serial = self._first + len(self._values)
            if serial > _MAX_SERIAL:
                raise OverflowError("object id serial space exhausted")
            self._values.append(value)
            self._serializations.append(0)
            self._gets.append(0)
        return self._descriptor(serial)

    def is_home(self, descriptor: RemoteRefDescriptor) -> bool:
        """Whether the descriptor names a value hosted in this very table.

        Resolution never serializes anything; a miss is a normal result and the
        caller falls back to remote invocation.
        """
        if descriptor.endpoint != self.self_endpoint:
            return False
        with self._lock:
            return self._slot(descriptor.id) >= 0

    def hosted(self, object_id: ObjectId) -> Any:
        """The entry as stored: its value, or the ``Encoded`` that keeps an Export's payload.

        A Get sends a kept payload as it is; anything else goes through
        ``value``, which decodes kept bytes once for every reader.
        """
        with self._lock:
            index = self._slot(object_id)
            if index >= 0:
                return self._values[index]
        raise _unknown(object_id)

    def value(self, object_id: ObjectId) -> Any:
        """The entry's value; kept bytes are decoded on the first read, and only then.

        The decode runs under a lock of its own, not the table's, and the
        object it yields replaces the bytes: every reader gets that same
        object, and a body that mutates it cannot leave stale bytes for a
        later Get. Decoding holds the interpreter lock throughout, so the
        lock serializes no work that could otherwise overlap.
        """
        hosted = self.hosted(object_id)
        if type(hosted) is not Encoded:
            return hosted
        from . import protocol  # protocol imports model

        with self._decode_lock:
            with self._lock:
                current = self._values[object_id.serial - self._first]
            if current is hosted:
                current = protocol.decode_value(hosted.payload)
                with self._lock:
                    self._values[object_id.serial - self._first] = current
        return current

    def count(self, object_id: ObjectId, serializations: int = 0, gets: int = 0) -> tuple[int, int]:
        """Add to the entry's counters; returns them as (serializations, gets)."""
        with self._lock:
            index = self._slot(object_id)
            if index < 0:
                raise _unknown(object_id)
            if not (serializations or gets):
                return self._serializations[index], self._gets[index]
            counted = self._serializations[index] + serializations, self._gets[index] + gets
            self._serializations[index], self._gets[index] = counted
            return counted

    def rebind(self, name: str, descriptor: RemoteRefDescriptor) -> None:
        """Bind ``name`` to a value hosted here; a foreign or unknown one is refused."""
        with self._lock:
            if descriptor.endpoint != self.self_endpoint or self._slot(descriptor.id) < 0:
                raise UnknownObjectError(
                    f"no hosted value under id {descriptor.id} at {descriptor.endpoint}"
                )
            self._names[name] = descriptor.id.serial

    def lookup(self, name: str) -> RemoteRefDescriptor:
        with self._lock:
            serial = self._names.get(name)
        if serial is None:
            raise NotFoundError(f"no binding named {name!r}")
        return self._descriptor(serial)

    def _descriptor(self, serial: int) -> RemoteRefDescriptor:
        return _new_descriptor(self.self_endpoint, _new_id(self.incarnation, serial))

    def _slot(self, object_id: ObjectId) -> int:
        """The column index of the entry under ``object_id``, or -1 on a miss; the caller holds the lock.

        Past the last entry the list's own IndexError is caught: that reads
        5-8% faster per lookup than comparing to ``len()`` (``BENCH_22.json``).
        """
        index = object_id.serial - self._first
        if index >= 0 and object_id.incarnation == self.incarnation:
            try:
                self._values[index]
                return index
            except IndexError:
                pass
        return -1

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)
