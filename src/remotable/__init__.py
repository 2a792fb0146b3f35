"""Remote values with monadic composition.

Values live in per-host object tables; clients hold handles and ship named
operations to the value's home with map/flat_map, forcing results back only
with get. See the README for the full tour.
"""
from .adapters import AsyncHandle, DeferredHandle
from .errors import (
    ContractViolationError,
    ErrorCode,
    ExecutionError,
    NotFoundError,
    NotSerializableError,
    ProtocolError,
    RemoteError,
    TransportError,
    UnknownFunctionError,
    UnknownObjectError,
)
from .funcs import Token, canonical_text, default_registry, register_default_functions
from .host import Host, TcpHostServer
from .model import EndpointAddr, HostTable, ObjectId, RemoteRefDescriptor
from .node import Node, RemoteHandle
from .protocol import DEFAULT_PORT, decode_message, decode_value, encode_message, encode_value
from .shipping import (
    FnRegistry,
    HostContext,
    InlineValue,
    PlainValue,
    RemoteRef,
    RemoteValue,
    ShippedFn,
    Stage,
    evaluate,
)
from .transport import LoopbackNetwork, LoopbackTransport, TcpTransport

__version__ = "0.1.0"

__all__ = [
    "AsyncHandle",
    "ContractViolationError",
    "DeferredHandle",
    "DEFAULT_PORT",
    "EndpointAddr",
    "ErrorCode",
    "ExecutionError",
    "FnRegistry",
    "Host",
    "HostContext",
    "HostTable",
    "InlineValue",
    "LoopbackNetwork",
    "LoopbackTransport",
    "Node",
    "NotFoundError",
    "NotSerializableError",
    "ObjectId",
    "PlainValue",
    "ProtocolError",
    "RemoteError",
    "RemoteHandle",
    "RemoteRef",
    "RemoteRefDescriptor",
    "RemoteValue",
    "ShippedFn",
    "Stage",
    "TcpHostServer",
    "TcpTransport",
    "Token",
    "TransportError",
    "UnknownFunctionError",
    "UnknownObjectError",
    "canonical_text",
    "decode_message",
    "decode_value",
    "default_registry",
    "encode_message",
    "encode_value",
    "evaluate",
    "register_default_functions",
]
