"""Standard registered functions shared by every node, plus the opaque token type.

Interoperating processes must register the same function ids, so the defaults
below are installed on every node at startup. Anything beyond them is the
application's business: register once per process before serving traffic.
Map-position functions are plain callables registered unchanged with
``FnRegistry.lift``; the rest need the evaluation context, so they keep the
full ``(subject, args, ctx)`` body.

Tokens stand in for arbitrary application objects with no codec binding. They
can be hosted, mapped over, and compared, but forcing one across the wire
fails, which is exactly the boundary the serialization counters instrument.
"""
from __future__ import annotations

import operator
from typing import Any

from .shipping import FnRegistry, InlineValue, PlainValue, RemoteValue, Stage


class Token:
    """An opaque, deliberately non-serializable value with identity equality."""

    __slots__ = ("serial",)

    def __init__(self, serial: int) -> None:
        self.serial = serial

    def __repr__(self) -> str:
        return f"Token({self.serial})"


def canonical_text(value: Any) -> str:
    """Stable diagnostic rendering used by the to_text function."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Token):
        return f"token#{value.serial}"
    if isinstance(value, list):
        return "[" + ", ".join(canonical_text(v) for v in value) + "]"
    return f"<{type(value).__name__}>"


# Integer pipelines encoded as flat [opcode, operand] pairs so they fit in a
# single inline list capture. Used by the Kleisli-style functions below and by
# tests as the local evaluation oracle.
OP_INC = 0
OP_MUL = 1
OP_ADD = 2


def run_int_pipeline(ops: list, x: int) -> int:
    if len(ops) % 2 != 0:
        raise ValueError("int pipeline must be [opcode, operand] pairs")
    value = x
    for i in range(0, len(ops), 2):
        opcode, operand = ops[i], ops[i + 1]
        if opcode == OP_INC:
            value = value + 1
        elif opcode == OP_MUL:
            value = value * operand
        elif opcode == OP_ADD:
            value = value + operand
        else:
            raise ValueError(f"unknown int pipeline opcode {opcode}")
    return value


# module-level, so every node lifts the same callables and each arity is read once
_LIFTED = (
    ("identity", lambda x: x),
    ("inc", lambda x: x + 1),
    ("add", operator.add),
    ("mul", operator.mul),
    ("to_text", canonical_text),
    ("pair_equals_inner", lambda second, first: first == second),
    ("mk_pair_equals", lambda subject, other: subject == other.get()),
)


def register_default_functions(registry: FnRegistry) -> None:
    """Install the shared function set every node registers at startup."""
    for fn_id, f in _LIFTED:
        registry.lift(fn_id, f)

    def new_token(subject, args, ctx):
        return PlainValue(ctx.new_token())

    def pure(subject, args, ctx):
        # flatMap-position identity: re-host the subject at the executing node.
        return RemoteValue(ctx.apply(subject).descriptor)

    def const_ref(subject, args, ctx):
        # Pass a captured reference through unchanged, wherever it lives.
        return RemoteValue(args[0].descriptor)

    def pair_equals_outer(subject, args, ctx):
        # The two-object composition: operate on this subject and a captured
        # reference by shipping an inner comparison to the reference's host.
        other = args[0]
        inner = Stage("pair_equals_inner", (ctx.subject_capture(subject),))
        return RemoteValue(other.map(inner).descriptor)

    def kleisli_int(subject, args, ctx):
        return RemoteValue(ctx.apply(run_int_pipeline(args[0], subject)).descriptor)

    def kleisli_int_then(subject, args, ctx):
        # x -> f(x) flat_mapped with g, the composite arrow of two int pipelines.
        first = ctx.apply(run_int_pipeline(args[0], subject))
        second = first.flat_map(Stage("kleisli_int", (InlineValue(args[1]),)))
        return RemoteValue(second.descriptor)

    registry.register("new_token", 0, new_token)
    registry.register("pure", 0, pure)
    registry.register("const_ref", 1, const_ref)
    registry.register("pair_equals_outer", 1, pair_equals_outer)
    registry.register("kleisli_int", 1, kleisli_int)
    registry.register("kleisli_int_then", 2, kleisli_int_then)


def default_registry() -> FnRegistry:
    registry = FnRegistry()
    register_default_functions(registry)
    return registry
