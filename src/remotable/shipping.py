"""Portable function pipelines: what actually gets shipped to a value's host.

True closure serialization is runtime-specific (and downloaded code is a
security liability), so shipped computation is expressed as stages naming
pre-registered functions plus explicit captures. Client and host processes
that intend to interoperate register the same function ids at startup.

A capture is either an inline value or a reference to another hosted value.
Inline captures hold the live Python object in process; the protocol codec
only encodes them when the stage is actually shipped to another endpoint,
which is also the one point where serializability is checked. Reference
captures resolve at the executing host: home references become direct local
handles (zero serialization), foreign ones become remote handles.
"""
from __future__ import annotations

import functools
import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, Union

from .errors import ContractViolationError, ExecutionError, RemoteError, UnknownFunctionError
from .model import ObjectId, RemoteRefDescriptor


@dataclass(frozen=True)
class InlineValue:
    """A capture carried by value.

    ``origin`` names the hosted value this capture copies, when it was built
    by ``EvalContext.subject_capture``; the shipping node then charges one
    serialization to that value. It stays in process: it is never encoded and
    takes no part in equality.
    """

    value: Any
    origin: Optional[ObjectId] = field(default=None, compare=False)


@dataclass(frozen=True)
class RemoteRef:
    """A capture carried by reference to a hosted value."""

    descriptor: RemoteRefDescriptor


Capture = Union[InlineValue, RemoteRef]


@dataclass(frozen=True)
class Stage:
    """One shipped function application: registry key plus ordered captures."""

    fn_id: str
    captures: tuple[Capture, ...] = ()

    def __post_init__(self) -> None:
        if not self.fn_id:
            raise ValueError("stage fn_id must be non-empty")


@dataclass(frozen=True)
class ShippedFn:
    """A non-empty pipeline of stages, applied left to right.

    A single stage is a plain shipped function; longer pipelines arise from
    deferred accumulation, where many composition steps are applied in one
    remote call.
    """

    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("pipeline must contain at least one stage")

    @classmethod
    def single(cls, stage: Stage) -> "ShippedFn":
        return cls((stage,))


def compose(pipeline: ShippedFn, stage: Stage) -> ShippedFn:
    """Append a stage; the input pipeline is unchanged (value semantics)."""
    return ShippedFn(pipeline.stages + (stage,))


@dataclass(frozen=True)
class PlainValue:
    """Result of a map-position function: an ordinary value to re-host."""

    value: Any


@dataclass(frozen=True)
class RemoteValue:
    """Result of a flatMap-position function: an already-hosted value."""

    descriptor: RemoteRefDescriptor


FnResult = Union[PlainValue, RemoteValue]

# body(subject, resolved_captures, ctx) -> FnResult
FnBody = Callable[[Any, list, "EvalContext"], FnResult]


class EvalContext(Protocol):
    """What a function body may do at the executing host.

    ``resolve_ref`` materializes a reference capture (applying locality
    replacement when the reference is home); the returned handle supports
    nested map/flat_map/get calls, which is what lets a shipped function
    itself operate on a captured remote value.

    ``subject_capture`` wraps a value as an inline capture. When the value is
    the hosted subject itself, the capture is marked with the subject's id,
    and shipping it to another endpoint counts one serialization of the
    subject. A body that sends its subject along by value must build that
    capture here, or the subject's counter misses the copy.
    """

    def resolve_ref(self, descriptor: RemoteRefDescriptor): ...

    def subject_capture(self, value: Any) -> InlineValue: ...

    def apply(self, value: Any): ...

    def new_token(self): ...


@dataclass(frozen=True)
class _Registration:
    capture_arity: int
    body: FnBody


class FnRegistry:
    """Write-once map from function id to (capture arity, native body).

    Populated at startup and read-only afterwards; concurrent evaluation is
    safe provided registered bodies tolerate concurrent invocation.
    """

    def __init__(self) -> None:
        self._entries: dict[str, _Registration] = {}
        self._lock = threading.Lock()

    def register(self, fn_id: str, arity: int, body: FnBody) -> None:
        if not fn_id:
            raise ValueError("fn_id must be non-empty")
        if arity < 0:
            raise ValueError("capture arity must be non-negative")
        with self._lock:
            if fn_id in self._entries:
                raise ValueError(f"function id already registered: {fn_id!r}")
            self._entries[fn_id] = _Registration(arity, body)

    def lift(self, fn_id: str, f: Callable[..., Any]) -> None:
        """Register an existing ``f(subject, *captures)``, unchanged, in map position.

        The captures are f's required positional parameters after the subject.
        Refused, registering nothing: ``*args``, ``**kwargs``, a required
        keyword-only parameter, no positional parameter, no signature, an
        unhashable callable.
        """
        try:
            arity = _capture_arity(f)
        except (TypeError, ValueError) as exc:  # no signature, or f is not hashable
            raise ValueError(f"cannot lift {fn_id!r}: {exc}") from None
        self.register(fn_id, arity, lambda subject, args, ctx: PlainValue(f(subject, *args)))

    def lookup(self, fn_id: str) -> _Registration:
        found = self._entries.get(fn_id)
        if found is None:
            raise UnknownFunctionError(fn_id)
        return found

    def arity(self, fn_id: str) -> int:
        return self.lookup(fn_id).capture_arity

    def __contains__(self, fn_id: str) -> bool:
        return fn_id in self._entries


# Every node lifts the stock set when it is built, and reading a builtin's
# signature takes about 0.1 ms, so each callable's arity is worked out once.
@functools.lru_cache(maxsize=256)
def _capture_arity(f: Callable[..., Any]) -> int:
    required = []  # one flag per positional parameter: does it lack a default?
    for param in inspect.signature(f).parameters.values():
        if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
            required.append(param.default is param.empty)
        elif param.kind is not param.KEYWORD_ONLY or param.default is param.empty:
            raise ValueError(f"parameter {str(param)!r} is variadic or keyword-only")
    if not required:
        raise ValueError("no positional parameter for the subject")
    return sum(required[1:])


def resolve_captures(captures: tuple[Capture, ...], ctx: EvalContext) -> list:
    """Materialize capture arguments for a body about to run.

    Inline captures yield their value directly; reference captures go through
    the context, which substitutes the local entry for home references (unless
    locality replacement is disabled) and a wire-backed handle otherwise. Home
    resolution performs zero serialization.
    """
    resolved = []
    for index, capture in enumerate(captures):
        if isinstance(capture, InlineValue):
            resolved.append(capture.value)
        elif isinstance(capture, RemoteRef):
            resolved.append(ctx.resolve_ref(capture.descriptor))
        else:
            raise ContractViolationError(f"capture {index}: unknown capture kind")
    return resolved


def evaluate(registry: FnRegistry, pipeline: ShippedFn, subject: Any, ctx: EvalContext) -> FnResult:
    """Apply a pipeline to a subject, left to right.

    Every stage but the last must produce a plain value, which feeds the next
    stage's subject. The final stage's result is returned as-is; whether it
    must be plain or remote is the caller's (map vs flatMap) contract. Bodies
    raising anything other than a wire-mapped error are folded into
    ExecutionError with a textual cause.
    """
    value = subject
    last = len(pipeline.stages) - 1
    for position, stage in enumerate(pipeline.stages):
        registration = registry.lookup(stage.fn_id)
        if len(stage.captures) != registration.capture_arity:
            raise ContractViolationError(
                f"{stage.fn_id!r} takes {registration.capture_arity} captures, "
                f"got {len(stage.captures)}"
            )
        args = resolve_captures(stage.captures, ctx)
        try:
            result = registration.body(value, args, ctx)
        except RemoteError:
            raise
        except Exception as exc:
            raise ExecutionError(f"{stage.fn_id}: {exc}") from exc
        if position == last:
            if not isinstance(result, (PlainValue, RemoteValue)):
                raise ContractViolationError(
                    f"{stage.fn_id!r} returned {type(result).__name__}, not a result kind"
                )
            return result
        if not isinstance(result, PlainValue):
            raise ContractViolationError(
                f"intermediate stage {stage.fn_id!r} must yield a plain value"
            )
        value = result.value
    raise AssertionError("unreachable: pipeline is non-empty")
