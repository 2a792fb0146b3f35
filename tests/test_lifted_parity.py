"""A lifted function behaves exactly as the same function registered as a full body.

``evaluate`` calls a lifted function as ``f(subject, *captures)`` and keeps its
plain value unboxed between stages. Here two servers answer the same requests:
one registers the stock functions and a user function through ``lift``, the
other registers each of them as the full body
``lambda s, a, ctx: PlainValue(f(s, *a))``. On both transports they must give
equal results and equal error texts: a lifted stage in the middle and at the
end of a Map, a lifted last stage of a FlatMap, a function that raises, a
nested call that loses its peer, and a wrong capture count.
"""
import operator

import pytest

from remotable import (
    ContractViolationError,
    ExecutionError,
    FnRegistry,
    InlineValue,
    LoopbackNetwork,
    Node,
    PlainValue,
    ShippedFn,
    Stage,
)
from remotable.funcs import _STOCK, register_default_functions

USER = ("div", operator.truediv)  # raises ZeroDivisionError on a 0 capture


def _lifted_registry():
    registry = FnRegistry()
    register_default_functions(registry)
    registry.lift(*USER)
    return registry


def _full_body(f):
    return lambda s, a, ctx: PlainValue(f(s, *a))


def _full_body_registry():
    registry = FnRegistry()
    for fn_id, arity, body, lifted in _STOCK:
        registry.register(fn_id, arity, _full_body(body) if lifted else body)
    registry.register(USER[0], 1, _full_body(USER[1]))
    return registry


@pytest.fixture(params=["loopback", "tcp"])
def nodes(request):
    """A client, a server of each registry, and a third node that is closed."""
    if request.param == "loopback":
        network = LoopbackNetwork()
        make = lambda registry=None: Node.loopback(network, registry=registry)
    else:
        make = lambda registry=None: Node.tcp(registry=registry)
    made = [make(_lifted_registry()), make(_lifted_registry()), make(_full_body_registry()), make()]
    client, lifted, full, gone = made
    yield client, lifted, full, gone
    for node in made:
        node.close()


def _outcome(run):
    try:
        return "ok", run()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _same_on_both(client, lifted, full, request):
    """``request(client, handle)`` run against a 12 hosted at each server, with equal outcomes."""
    outcomes = [_outcome(lambda: request(client, client.export_to(server.endpoint, 12)))
                for server in (lifted, full)]
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def test_the_two_servers_use_the_two_calling_conventions(nodes):
    _, lifted, full, _ = nodes
    for fn_id in ("inc", "add", "mk_pair_equals", "div"):
        assert lifted.registry.get(fn_id).lifted and not full.registry.get(fn_id).lifted


@pytest.mark.parametrize("stages, value", [
    ((("add", 3), ("div", 5)), 3.0),           # lifted at an intermediate and the last stage
    ((("div", 4), ("add", 1)), 4.0),
    ((("inc",), ("to_text",)), "13"),
    ((("new_token",), ("identity",), ("to_text",)), "token#1"),  # full body, then lifted
])
def test_a_map_gives_the_same_value(nodes, stages, value):
    client, lifted, full, _ = nodes
    fn = ShippedFn(tuple(client.stage(*stage) for stage in stages))
    assert _same_on_both(client, lifted, full, lambda c, h: c.map(h, fn).get()) == ("ok", value)


def test_a_flat_map_whose_last_stage_is_lifted_is_refused_alike(nodes):
    client, lifted, full, _ = nodes
    fn = ShippedFn((client.stage("add", 1), client.stage("inc")))
    assert _same_on_both(client, lifted, full, lambda c, h: c.flat_map(h, fn)) == (
        ContractViolationError.__name__, "'inc' returned PlainValue, not a RemoteValue")
    # a lifted stage before a flat_map body is fine on both
    fn = ShippedFn((client.stage("add", 1), client.stage("pure")))
    assert _same_on_both(client, lifted, full, lambda c, h: c.flat_map(h, fn).get()) == ("ok", 13)


@pytest.mark.parametrize("position", [0, 1])
def test_a_function_that_raises_names_its_fn_id_alike(nodes, position):
    client, lifted, full, _ = nodes
    stages = [client.stage("inc"), client.stage("inc")]
    stages[position] = client.stage("div", 0)
    outcome = _same_on_both(client, lifted, full, lambda c, h: c.map(h, ShippedFn(tuple(stages))))
    assert outcome == (ExecutionError.__name__, "div: division by zero")


def test_a_nested_call_that_loses_its_peer_gets_the_same_prefix(nodes):
    client, lifted, full, gone = nodes
    other = client.export_to(gone.endpoint, 12)
    gone.close()
    fn = ShippedFn((client.stage("inc"), client.stage("mk_pair_equals", other)))
    kind, text = _same_on_both(client, lifted, full, lambda c, h: c.map(h, fn))
    assert kind == ExecutionError.__name__
    assert text.startswith(f"mk_pair_equals: lost peer {gone.endpoint}: ")


@pytest.mark.parametrize("wrong, text", [
    (Stage("add"), "'add' takes 1 captures, got 0"),
    (Stage("inc", (InlineValue(1), InlineValue(2))), "'inc' takes 0 captures, got 2"),
])
def test_a_wrong_capture_count_is_refused_alike(nodes, wrong, text):
    client, lifted, full, _ = nodes
    fn = ShippedFn((Stage("inc"), wrong))
    assert _same_on_both(client, lifted, full, lambda c, h: c.map(h, fn)) == (
        ContractViolationError.__name__, text)
