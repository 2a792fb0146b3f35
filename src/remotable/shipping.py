"""Portable function pipelines: what actually gets shipped to a value's host.

True closure serialization is runtime-specific (and downloaded code is a
security liability), so shipped computation is expressed as stages naming
pre-registered functions plus explicit captures. Client and host processes
that intend to interoperate register the same function ids at startup.

A capture is either an inline value or a reference to another hosted value.
Inline captures hold a Python object in process, their own copy of a list or
bytearray (``_own``) however they were built; the protocol codec only
encodes them when the stage is actually shipped to another endpoint, which is
also the one point where serializability is checked. A body is handed its
own copy again, whichever path its request took. Reference captures resolve
at the executing host: home references become direct local handles (zero
serialization), foreign ones become remote handles.

A registered function takes one of two calling conventions. A full body is
called as ``body(subject, captures, ctx)`` and returns a PlainValue or a
RemoteValue. A function joined through ``FnRegistry.lift`` is existing code,
and ``evaluate`` calls it as it is, ``f(subject, *captures)``, with no
wrapper: its return value is the stage's plain value, passed on unboxed and
boxed in a PlainValue only when a Map's last stage yields it.

This module alone decides what a stage may hold (``_check_fn_id``, the copy
rule of ``InlineValue``) and how a pipeline runs at its host: a body's
``ctx`` is always a ``HostContext``, and ``evaluate`` is the one check of the
result contract (a Map's last stage yields a PlainValue, a FlatMap's a
RemoteValue). It imports neither ``node`` nor ``host``.
"""
from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from .errors import (
    ContractViolationError,
    ExecutionError,
    RemoteError,
    TransportError,
    UnknownFunctionError,
)
from .model import MAX_LIST_DEPTH, ObjectId, RemoteRefDescriptor, _builder, _frozen, _hold


@_frozen
@dataclass(frozen=True, slots=True)
class InlineValue:
    """A capture carried by value.

    A list or bytearray ``value`` is held as its own copy (``_own``); only
    the builder ``_new_inline``, for a scalar or a value just decoded, skips it.
    ``origin`` names the hosted value this capture copies, when it was built
    by ``HostContext.subject_capture``; the shipping node then charges one
    serialization to that value. It is not encoded, and it takes no part in
    equality.
    """

    value: Any
    origin: Optional[ObjectId] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.value, _MUTABLE):
            _hold(self, "value", _own)


@_frozen
@dataclass(frozen=True, slots=True)
class RemoteRef:
    """A capture carried by reference to a hosted value."""

    descriptor: RemoteRefDescriptor


Capture = Union[InlineValue, RemoteRef]


def _check_fn_id(fn_id: Any) -> None:
    """The one fn-id check: the wire's rule, non-empty text with a UTF-8 encoding."""
    try:  # str.isascii refuses a non-str with TypeError; an ASCII id is never encoded
        if (str.isascii(fn_id) or fn_id.encode("utf-8")) and fn_id:
            return
    except (TypeError, UnicodeEncodeError):
        pass
    raise ValueError(f"stage fn_id must be non-empty text with a UTF-8 encoding, got {fn_id!r}")


@_frozen
@dataclass(frozen=True, slots=True)
class Stage:
    """One shipped function application: registry key plus ordered captures.

    ``captures`` is kept as a tuple whatever iterable it is given, so a
    caller's list cannot change the stage after it is built.
    """

    fn_id: str
    captures: tuple[Capture, ...] = ()

    def __post_init__(self) -> None:
        _check_fn_id(self.fn_id)
        if type(self.captures) is not tuple:
            _hold(self, "captures", tuple)
        for capture in self.captures:
            if not isinstance(capture, (InlineValue, RemoteRef)):
                raise ValueError(f"stage capture must be an InlineValue or a RemoteRef, got {capture!r}")


@_frozen
@dataclass(frozen=True, slots=True)
class ShippedFn:
    """A non-empty pipeline of stages, applied left to right.

    A single stage is a plain shipped function; longer pipelines arise from
    deferred accumulation, where many composition steps are applied in one
    remote call. ``stages`` is kept as a tuple whatever iterable it is given.
    """

    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        if type(self.stages) is not tuple:
            _hold(self, "stages", tuple)
        if not self.stages:
            raise ValueError("pipeline must contain at least one stage")


def _not_a_pipeline(fn: Any) -> TypeError:
    """The error for an ``fn`` to map that is neither a Stage nor a ShippedFn."""
    return TypeError(f"fn must be a Stage or a ShippedFn, got {type(fn).__name__}")


# Builders of the pipeline records from checked fields (see model._builder)
_new_inline = _builder(InlineValue)
_new_ref = _builder(RemoteRef)
_new_stage = _builder(Stage)
_new_pipeline = _builder(ShippedFn)


@_frozen
@dataclass(frozen=True, slots=True)
class PlainValue:
    """Result of a map-position function: an ordinary value to re-host."""

    value: Any


_new_plain = _builder(PlainValue)


@_frozen
@dataclass(frozen=True, slots=True)
class RemoteValue:
    """Result of a flatMap-position function: an already-hosted value."""

    descriptor: RemoteRefDescriptor


FnResult = Union[PlainValue, RemoteValue]


class HostContext:
    """What a function body may do at the executing host: the ``ctx`` it is handed.

    ``resolve_ref`` materializes a reference capture (applying locality
    replacement when the reference is home); the returned handle supports
    nested map/flat_map/get calls, which is what lets a shipped function
    itself operate on a captured remote value.

    ``subject_capture`` wraps a value as an inline capture. When the value is
    the hosted subject itself, the capture is marked with the subject's id,
    and shipping it to another endpoint counts one serialization of the
    subject. A body that sends its subject along by value must build that
    capture here, or the subject's counter misses the copy.

    ``apply`` hosts a value at this node and ``new_token`` mints a token; the
    node is reached only through these and ``resolve_ref``.
    """

    __slots__ = ("node", "subject_id", "subject_value")

    def __init__(self, node: Any, subject_id: ObjectId, subject_value: Any) -> None:
        self.node = node
        self.subject_id = subject_id
        self.subject_value = subject_value

    def resolve_ref(self, descriptor: RemoteRefDescriptor):
        return self.node._materialize(descriptor)

    def subject_capture(self, value: Any) -> InlineValue:
        origin = self.subject_id if value is self.subject_value else None
        return InlineValue(value, origin)

    def apply(self, value: Any):
        return self.node.apply(value)

    def new_token(self):
        return self.node.new_token()


# body(subject, resolved_captures, ctx) -> FnResult
FnBody = Callable[[Any, list, HostContext], FnResult]


@_frozen
@dataclass(frozen=True, slots=True)
class _Registration:
    """A registered body and the calling convention it takes.

    ``lifted`` marks a function joined through ``FnRegistry.lift``: ``body``
    is that function itself, called as ``body(subject, *captures)``, and
    its return value is the plain value. Otherwise ``body`` is a full
    ``FnBody``, called as ``body(subject, captures, ctx)``.
    """

    capture_arity: int
    body: Callable[..., Any]
    lifted: bool = False


class FnRegistry:
    """Write-once map from function id to (capture arity, native body).

    Populated at startup and read-only afterwards; concurrent evaluation is
    safe provided registered bodies tolerate concurrent invocation.
    """

    def __init__(self) -> None:
        self._entries: dict[str, _Registration] = {}
        self._lock = threading.Lock()
        # the registration under an fn id, or None: the dict's own get
        self.get: Callable[[str], Optional[_Registration]] = self._entries.get

    def register(self, fn_id: str, arity: int, body: FnBody) -> None:
        """Register ``body`` under ``fn_id``; refuses what no Stage could call."""
        self._add(fn_id, arity, body, False)

    def lift(self, fn_id: str, f: Callable[..., Any]) -> None:
        """Register an existing ``f(subject, *captures)``, unchanged, in map position.

        The captures are f's required positional parameters after the subject.
        ``evaluate`` calls f itself, and what f returns is the stage's plain
        value. Refused, registering nothing: ``*args``, ``**kwargs``, a
        required keyword-only parameter, no positional parameter, no signature.
        """
        try:
            arity = _lift_arity(f)
        except (TypeError, ValueError) as exc:  # not callable, or no signature
            raise ValueError(f"cannot lift {fn_id!r}: {exc}") from None
        self._add(fn_id, arity, f, True)

    def _add(self, fn_id: str, arity: int, body: Callable[..., Any], lifted: bool) -> None:
        """Register ``body`` under ``fn_id`` in the calling convention ``lifted`` names."""
        _check_fn_id(fn_id)
        if isinstance(arity, bool) or not isinstance(arity, int) or arity < 0:
            raise ValueError(f"capture arity must be a non-negative int, got {arity!r}")
        with self._lock:
            if fn_id in self._entries:
                raise ValueError(f"function id already registered: {fn_id!r}")
            self._entries[fn_id] = _Registration(arity, body, lifted)

    def _add_all(self, other: "FnRegistry") -> None:
        """Add every registration of ``other``, the same objects, or none if an id is taken."""
        with self._lock:
            for fn_id in other._entries:
                if fn_id in self._entries:
                    raise ValueError(f"function id already registered: {fn_id!r}")
            self._entries.update(other._entries)


def _lift_arity(f: Callable[..., Any]) -> int:
    """The capture arity of ``f(subject, *captures)``.

    Raises TypeError or ValueError where ``FnRegistry.lift`` refuses ``f``.
    """
    required = []  # one flag per positional parameter: does it lack a default?
    for param in inspect.signature(f).parameters.values():
        if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
            required.append(param.default is param.empty)
        elif param.kind is not param.KEYWORD_ONLY or param.default is param.empty:
            raise ValueError(f"parameter {str(param)!r} is variadic or keyword-only")
    if not required:
        raise ValueError("no positional parameter for the subject")
    return sum(required[1:])


def resolve_captures(captures: tuple[Capture, ...], ctx: HostContext) -> list:
    """Materialize capture arguments for a body about to run.

    An inline list or bytearray capture yields its own copy (``_own``),
    whatever path its request took, so a body never changes a ``Stage`` or
    what a later application of it receives; any other value is passed as it
    is. Copying is not serializing: no counter moves. Reference captures go through the context, which substitutes the
    local entry for home references (unless locality replacement is
    disabled) and a wire-backed handle otherwise. Home resolution performs
    zero serialization.
    """
    return [(_own(capture.value) if isinstance(capture.value, _MUTABLE) else capture.value)
            if isinstance(capture, InlineValue) else ctx.resolve_ref(capture.descriptor)
            for capture in captures]


# what a body could change in a capture; anything else reaches it as it is
_MUTABLE = (list, bytearray)


def _own(value: Any, depth: int = 0) -> Any:
    """A list or bytearray as rv1 decodes it: a list copied all the way down, a bytearray as ``bytes``.

    The copy stops MAX_LIST_DEPTH lists deep, where rv1 stops: a list nested
    deeper, or one that holds itself, fails when it is encoded, not here.
    """
    if isinstance(value, list):
        if depth == MAX_LIST_DEPTH:
            return value
        return [_own(item, depth + 1) if isinstance(item, _MUTABLE) else item for item in value]
    return bytes(value)


def evaluate(
    registry: FnRegistry, pipeline: ShippedFn, subject: Any, ctx: HostContext, final: type
) -> FnResult:
    """Apply a pipeline to a subject, left to right, and return the last result.

    Every stage but the last must produce a plain value, which feeds the next
    stage's subject. The last stage must produce a ``final``: a PlainValue
    for a Map, a RemoteValue for a FlatMap; this is the one check of the
    result contract, and its ContractViolationError names the stage. A lifted
    function is called as ``f(subject, *captures)`` and its return value is
    the plain value itself, boxed in a PlainValue only at the last stage.
    Bodies raising anything other than a wire-mapped error are folded into
    ExecutionError with a textual cause; a TransportError, a nested call's
    lost peer, gets the fixed prefix ``<fn_id>: lost peer <endpoint>:``.
    """
    value = subject
    registration_of = registry.get
    last = len(pipeline.stages) - 1
    for position, stage in enumerate(pipeline.stages):
        fn_id = stage.fn_id
        registration = registration_of(fn_id)
        if registration is None:
            raise UnknownFunctionError(fn_id)
        captures = stage.captures
        if len(captures) != registration.capture_arity:
            raise ContractViolationError(
                f"{fn_id!r} takes {registration.capture_arity} captures, got {len(captures)}"
            )
        args = resolve_captures(captures, ctx) if captures else []
        lifted = registration.lifted
        try:
            result = registration.body(value, *args) if lifted else registration.body(value, args, ctx)
        except RemoteError:
            raise
        except TransportError as exc:
            raise ExecutionError(f"{fn_id}: lost peer {exc.endpoint}: {exc}") from exc
        except Exception as exc:
            raise ExecutionError(f"{fn_id}: {exc}") from exc
        if position == last:
            if lifted:
                result = _new_plain(result)
            if not isinstance(result, final):
                raise ContractViolationError(
                    f"{fn_id!r} returned {type(result).__name__}, not a {final.__name__}"
                )
            return result
        if lifted:
            value = result
        elif isinstance(result, PlainValue):
            value = result.value
        else:
            raise ContractViolationError(f"intermediate stage {fn_id!r} must yield a plain value")
    raise AssertionError("unreachable: pipeline is non-empty")
