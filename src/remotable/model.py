"""Identity, addressing, and hosting of remote values.

A process that hosts values owns one :class:`HostTable`. Exporting a value
stores it under a fresh :class:`ObjectId` and hands back a portable
:class:`RemoteRefDescriptor` that any process can use to address it. The
descriptor is the only thing that ever crosses the wire; the value itself
stays home until somebody forces it.

Object ids embed a random per-process incarnation so that references into a
restarted host miss the table instead of silently hitting a different value.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from .errors import UnknownObjectError

MAX_PORT = 65535
_MAX_SERIAL = 2**64 - 1


@dataclass(frozen=True)
class EndpointAddr:
    """A host:port pair; ``parse`` takes only the canonical text that ``str`` renders."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if self.host.split() != [self.host] or ":" in self.host:  # empty or has whitespace
            raise ValueError(f"bad endpoint host: {self.host!r}")
        if not 1 <= self.port <= MAX_PORT:
            raise ValueError(f"bad endpoint port: {self.port}")

    @classmethod
    def parse(cls, text: str) -> "EndpointAddr":
        host, sep, port = text.rpartition(":")
        if not sep or not (port.isascii() and port.isdigit()) or port.startswith("0"):
            raise ValueError(f"expected host:port, got {text!r}")
        return cls(host, int(port))

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RemoteRefDescriptor:
    """Portable address of a hosted value: where it lives and which entry it is."""

    endpoint: EndpointAddr
    id: ObjectId


@dataclass
class HostedValue:
    """A table entry: the value plus wire-traffic counters.

    ``serialization_count`` increments exactly when the value's bytes are
    produced for the wire; local handoffs never touch it. ``get_count``
    increments once per remote force.
    """

    value: Any
    serialization_count: int = 0
    get_count: int = 0


class HostTable:
    """Per-process map from object id to hosted value.

    Also serves as the locality-replacement cache: a descriptor whose endpoint
    and incarnation match this table resolves straight to its entry, with zero
    serialization. All operations are safe under concurrent request handlers.
    """

    def __init__(self, self_endpoint: EndpointAddr, incarnation: int) -> None:
        self.self_endpoint = self_endpoint
        self.incarnation = incarnation
        self._entries: dict[ObjectId, HostedValue] = {}
        self._next_serial = 1
        self._lock = threading.Lock()

    def new_object_id(self) -> ObjectId:
        """Issue a fresh id; serials strictly increase and are never reused."""
        with self._lock:
            serial = self._next_serial
            if serial > _MAX_SERIAL:
                raise OverflowError("object id serial space exhausted")
            self._next_serial += 1
        return ObjectId(self.incarnation, serial)

    def export(self, value: Any) -> RemoteRefDescriptor:
        """Store a value under a fresh id. The value need not be serializable."""
        object_id = self.new_object_id()
        with self._lock:
            self._entries[object_id] = HostedValue(value)
        return RemoteRefDescriptor(self.self_endpoint, object_id)

    def resolve_local(self, descriptor: RemoteRefDescriptor) -> Optional[HostedValue]:
        """Return the entry itself when the descriptor is home, else None.

        Resolution never serializes anything; a miss is a normal result and the
        caller falls back to remote invocation.
        """
        if descriptor.endpoint != self.self_endpoint:
            return None
        return self.entry(descriptor.id)

    def entry(self, object_id: ObjectId) -> Optional[HostedValue]:
        with self._lock:
            return self._entries.get(object_id)

    def require(self, object_id: ObjectId) -> HostedValue:
        found = self.entry(object_id)
        if found is None:
            raise UnknownObjectError(f"no hosted value under id {object_id}")
        return found

    def record_serialization(self, object_id: ObjectId) -> int:
        """Count one wire serialization of the entry's value; returns the new count."""
        with self._lock:
            found = self._entries.get(object_id)
            if found is None:
                raise UnknownObjectError(
                    f"record_serialization on unknown id {object_id}"
                )
            found.serialization_count += 1
            return found.serialization_count

    def record_get(self, object_id: ObjectId) -> None:
        """Count one remote force of the entry's value."""
        with self._lock:
            found = self._entries.get(object_id)
            if found is None:
                raise UnknownObjectError(f"record_get on unknown id {object_id}")
            found.get_count += 1

    def stats(self, object_id: ObjectId) -> tuple[int, int]:
        with self._lock:
            found = self._entries.get(object_id)
            if found is None:
                raise UnknownObjectError(f"stats on unknown id {object_id}")
            return found.serialization_count, found.get_count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
