import collections
import fractions
import operator

import pytest
from hypothesis import given, strategies as st

from remotable import (
    ContractViolationError,
    EndpointAddr,
    ExecutionError,
    FnRegistry,
    InlineValue,
    ObjectId,
    PlainValue,
    RemoteRef,
    RemoteRefDescriptor,
    RemoteValue,
    ShippedFn,
    Stage,
    UnknownFunctionError,
    compose,
    default_registry,
    evaluate,
)
from remotable.shipping import resolve_captures

from helpers import run_int_pipeline, stages_for_ops


class _StubCtx:
    """Minimal evaluation context: resolves refs to themselves, mints nothing."""

    def resolve_ref(self, descriptor):
        return ("resolved", descriptor)

    def apply(self, value):
        raise AssertionError("not used here")

    def new_token(self):
        raise AssertionError("not used here")


def _pipeline(*stages):
    return ShippedFn(tuple(stages))


def test_registry_is_write_once():
    registry = FnRegistry()
    registry.register("f", 0, lambda s, a, c: PlainValue(s))
    with pytest.raises(ValueError):
        registry.register("f", 1, lambda s, a, c: PlainValue(s))


def test_registry_unknown_lookup():
    registry = FnRegistry()
    with pytest.raises(UnknownFunctionError):
        registry.lookup("missing")
    assert "missing" not in registry


def test_stock_arities_are_pinned():
    registry = default_registry()
    arities = {
        "identity": 0,
        "inc": 0,
        "add": 1,
        "mul": 1,
        "to_text": 0,
        "new_token": 0,
        "pure": 0,
        "const_ref": 1,
        "pair_equals_inner": 1,
        "pair_equals_outer": 1,
        "mk_pair_equals": 1,
        "kleisli_int": 1,
        "kleisli_int_then": 2,
    }
    assert {fn_id: registry.arity(fn_id) for fn_id in arities} == arities


def _optional_keyword(subject, *, scale=1):
    return subject * scale


@pytest.mark.parametrize(
    "f, arity",
    [
        (lambda x: x, 0),
        (operator.add, 1),
        (lambda x, y, z: x + y + z, 2),
        (fractions.Fraction.limit_denominator, 0),  # a defaulted parameter is no capture
        (dict.get, 1),
        (collections.Counter.total, 0),
        (lambda x=0: x, 0),  # the subject may fill a defaulted parameter
        (_optional_keyword, 0),
        ({"a": 1}.get, 0),  # bound: the subject is the key
    ],
)
def test_lift_reads_the_arity_from_the_signature(f, arity):
    registry = FnRegistry()
    registry.lift("f", f)
    assert registry.arity("f") == arity


def _variadic(subject, *rest):
    return subject


def _keywords(subject, **options):
    return subject


def _required_keyword(subject, *, scale):
    return subject * scale


def _no_parameters():
    return 1


class _Unhashable:
    __hash__ = None

    def __call__(self, subject):
        return subject


@pytest.mark.parametrize(
    "f",
    [_variadic, _keywords, _required_keyword, _no_parameters, str, max, 5, _Unhashable()],
    ids=["*args", "**kwargs", "keyword-only", "no-positional", "str", "max", "int", "unhashable"],
)
def test_lift_refuses_what_its_signature_cannot_say(f):
    registry = FnRegistry()
    with pytest.raises(ValueError, match="'refused'"):
        registry.lift("refused", f)
    assert "refused" not in registry
    registry.lift("refused", lambda x: x)  # nothing was left behind under the id


def test_lift_is_write_once_like_register():
    registry = FnRegistry()
    registry.lift("f", lambda x: x)
    with pytest.raises(ValueError):
        registry.lift("f", lambda x: x + 1)
    assert evaluate(registry, _pipeline(Stage("f")), 5, _StubCtx()) == PlainValue(5)


def test_lifted_function_gets_subject_then_captures():
    registry = FnRegistry()
    registry.lift("sub", operator.sub)
    pipeline = _pipeline(Stage("sub", (InlineValue(3),)))
    assert evaluate(registry, pipeline, 10, _StubCtx()) == PlainValue(7)


def test_stage_requires_fn_id():
    with pytest.raises(ValueError):
        Stage("")


def test_pipeline_requires_stages():
    with pytest.raises(ValueError):
        ShippedFn(())


def test_compose_appends_without_mutating():
    p1 = ShippedFn.single(Stage("inc"))
    p2 = compose(p1, Stage("mul", (InlineValue(3),)))
    assert [s.fn_id for s in p1.stages] == ["inc"]
    assert [s.fn_id for s in p2.stages] == ["inc", "mul"]


def test_compose_batches_like_repeated_appends():
    s1, s2 = Stage("inc"), Stage("add", (InlineValue(2),))
    one_by_one = compose(compose(ShippedFn.single(Stage("identity")), s1), s2)
    batched = ShippedFn((Stage("identity"), s1, s2))
    assert one_by_one == batched


def test_resolve_captures_mixes_inline_and_refs():
    descriptor = RemoteRefDescriptor(EndpointAddr("h", 1), ObjectId(1, 1))
    resolved = resolve_captures((InlineValue(7), RemoteRef(descriptor)), _StubCtx())
    assert resolved == [7, ("resolved", descriptor)]


def test_evaluate_single_stage():
    result = evaluate(default_registry(), _pipeline(Stage("inc")), 5, _StubCtx())
    assert result == PlainValue(6)


def test_evaluate_chains_left_to_right():
    pipeline = _pipeline(Stage("inc"), Stage("mul", (InlineValue(3),)))
    assert evaluate(default_registry(), pipeline, 5, _StubCtx()) == PlainValue(18)


def test_evaluate_unknown_fn_names_it():
    with pytest.raises(UnknownFunctionError, match="nope"):
        evaluate(default_registry(), _pipeline(Stage("nope")), 5, _StubCtx())


def test_evaluate_checks_capture_arity():
    pipeline = _pipeline(Stage("inc", (InlineValue(1),)))  # inc takes no captures
    with pytest.raises(ContractViolationError):
        evaluate(default_registry(), pipeline, 5, _StubCtx())


def test_intermediate_stage_must_stay_plain():
    registry = FnRegistry()
    descriptor = RemoteRefDescriptor(EndpointAddr("h", 1), ObjectId(1, 1))
    registry.register("jump", 0, lambda s, a, c: RemoteValue(descriptor))
    registry.register("inc", 0, lambda s, a, c: PlainValue(s + 1))
    with pytest.raises(ContractViolationError):
        evaluate(registry, _pipeline(Stage("jump"), Stage("inc")), 5, _StubCtx())


def test_final_stage_may_yield_remote():
    registry = FnRegistry()
    descriptor = RemoteRefDescriptor(EndpointAddr("h", 1), ObjectId(1, 1))
    registry.register("jump", 0, lambda s, a, c: RemoteValue(descriptor))
    result = evaluate(registry, _pipeline(Stage("jump")), 5, _StubCtx())
    assert result == RemoteValue(descriptor)


def test_body_exception_becomes_execution_error():
    registry = FnRegistry()
    registry.register("boom", 0, lambda s, a, c: 1 // 0)
    with pytest.raises(ExecutionError, match="boom"):
        evaluate(registry, _pipeline(Stage("boom")), 5, _StubCtx())


def test_body_returning_bare_value_is_a_contract_violation():
    registry = FnRegistry()
    registry.register("bare", 0, lambda s, a, c: s + 1)  # forgot the wrapper
    with pytest.raises(ContractViolationError):
        evaluate(registry, _pipeline(Stage("bare")), 5, _StubCtx())


# Randomized pipelines against the eager oracle.

ops_lists = st.lists(
    st.tuples(st.sampled_from([0, 1, 2]), st.integers(min_value=-9, max_value=9)),
    min_size=1,
    max_size=6,
).map(lambda pairs: [n for pair in pairs for n in pair])


@given(ops_lists, st.integers(min_value=-1000, max_value=1000))
def test_pipeline_matches_eager_oracle(ops, x):
    pipeline = ShippedFn(tuple(stages_for_ops(ops)))
    result = evaluate(default_registry(), pipeline, x, _StubCtx())
    assert result == PlainValue(run_int_pipeline(ops, x))


@given(ops_lists, ops_lists, st.integers(min_value=-1000, max_value=1000))
def test_concatenated_pipeline_equals_sequential_evaluation(ops1, ops2, x):
    registry = default_registry()
    joined = ShippedFn(tuple(stages_for_ops(ops1) + stages_for_ops(ops2)))
    first = evaluate(registry, ShippedFn(tuple(stages_for_ops(ops1))), x, _StubCtx())
    assert isinstance(first, PlainValue)
    second = evaluate(registry, ShippedFn(tuple(stages_for_ops(ops2))), first.value, _StubCtx())
    assert evaluate(registry, joined, x, _StubCtx()) == second
