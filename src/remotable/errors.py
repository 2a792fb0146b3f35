"""Error codes and exception types shared by the wire protocol and the client API.

Every failure a host can report crosses the wire as a ``RespError`` carrying one
of the stable numeric codes below. On the client side the code is turned back
into the matching exception type, so callers catch the same class whether the
operation failed locally or three hops away.
"""
from __future__ import annotations

from enum import IntEnum


class ErrorCode(IntEnum):
    """Stable wire-level error identifiers. Numeric values are frozen protocol."""

    NOT_FOUND = 1
    UNKNOWN_OBJECT = 2
    UNKNOWN_FUNCTION = 3
    NOT_SERIALIZABLE = 4
    CONTRACT_VIOLATION = 5
    EXECUTION_ERROR = 6
    PROTOCOL_ERROR = 7


class RemoteError(Exception):
    """Base for failures that map onto a wire error code.

    Subclasses pin ``code``; hosts serialize ``(code, str(exc))`` and clients
    re-raise the subclass registered for that code.
    """

    code: ErrorCode = ErrorCode.EXECUTION_ERROR


class NotFoundError(RemoteError):
    """No binding registered under the requested name."""

    code = ErrorCode.NOT_FOUND


class UnknownObjectError(RemoteError):
    """The target object id is not present in the host table."""

    code = ErrorCode.UNKNOWN_OBJECT


class UnknownFunctionError(RemoteError):
    """A shipped stage names a function id absent from the registry."""

    code = ErrorCode.UNKNOWN_FUNCTION


class NotSerializableError(RemoteError):
    """The value has no codec binding, so its bytes cannot be produced."""

    code = ErrorCode.NOT_SERIALIZABLE


class ContractViolationError(RemoteError):
    """A shipped function returned the wrong result kind for its position."""

    code = ErrorCode.CONTRACT_VIOLATION


class ExecutionError(RemoteError):
    """A shipped function body raised; carries a textual cause."""

    code = ErrorCode.EXECUTION_ERROR


class ProtocolError(RemoteError):
    """Malformed frames, unknown tags, or undecodable payload bytes."""

    code = ErrorCode.PROTOCOL_ERROR


class TransportError(Exception):
    """Connection-level failure (refused, reset, closed mid-frame). Not a wire code.

    ``endpoint`` is the peer that a failed call was addressed to, when the
    failure is a call's; transports name it in the text too.
    """

    def __init__(self, text: str, endpoint: object = None) -> None:
        super().__init__(text)
        self.endpoint = endpoint


_ERRORS_BY_CODE: dict[int, type[RemoteError]] = {c.code: c for c in RemoteError.__subclasses__()}


def error_for_code(code: int, text: str) -> RemoteError:
    """Rebuild the typed exception for a wire error code."""
    try:
        cls = _ERRORS_BY_CODE[code]
    except KeyError:
        return ProtocolError(f"unknown error code {code}: {text}")
    return cls(text)
