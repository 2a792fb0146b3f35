"""Nested calls between nodes, and what closing the nodes does to one that hangs.

Two shapes of nested call are answered on loopback but wait for good on TCP,
where a node holds one connection and one lock per endpoint for a whole call:

- X flat_maps a value hosted at Y; the body at Y flat_maps a value hosted at
  X; the body at X then maps a value hosted at Y, on the connection X's outer
  call still holds;
- a node with locality replacement off sends a request to itself whose body
  sends it another one.

The TCP cases are strict xfails, so they flip when the transport stops
holding its endpoint for a whole call. Whatever the transport, closing the
nodes must end such a call with a typed error, not leave it blocked; a body
whose nested call lost its peer says which peer it lost.
"""
import threading
from functools import partial

import pytest

from remotable import (
    ExecutionError,
    LoopbackNetwork,
    Node,
    RemoteError,
    RemoteRef,
    RemoteValue,
    Stage,
    TransportError,
    default_registry,
)

RETURNS_S = 2.0


def _bounce(subject, args, ctx):
    # flat_map the first reference with a body that maps the second one
    there, back = args
    inner = Stage("pair_equals_outer", (RemoteRef(back.descriptor),))
    return RemoteValue(there.flat_map(inner).descriptor)


def _registry():
    registry = default_registry()
    registry.register("bounce", 2, _bounce)
    return registry


def _nodes(kind, count, locality=True):
    make = partial(Node.loopback, LoopbackNetwork()) if kind == "loopback" else Node.tcp
    return [make(registry=_registry(), locality_replacement=locality) for _ in range(count)]


def _x_y_x_y(kind):
    """Two nodes and the X→Y→X→Y call between them, not yet run."""
    x, y = _nodes(kind, 2)
    a = x.export_to(y.endpoint, 1)
    c = x.apply(5)
    d = x.export_to(y.endpoint, 5)
    return [x, y], lambda: a.flat_map(x.stage("bounce", c, d)).get()


def _self_call(kind):
    """One locality-off node and a call to itself whose body calls it again."""
    (node,) = _nodes(kind, 1, locality=False)
    node.rebind("a", 5)
    node.rebind("b", 7)
    a = node.lookup(node.endpoint, "a")
    b = node.lookup(node.endpoint, "b")
    return [node], lambda: a.flat_map(node.stage("pair_equals_outer", b)).get()


SHAPES = {"x_y_x_y": (_x_y_x_y, True), "self_call": (_self_call, False)}


def _start(call):
    """Run ``call`` on a daemon thread; returns the thread and its outcome dict."""
    out = {}

    def run():
        try:
            out["value"] = call()
        except Exception as exc:  # the test inspects it
            out["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    return worker, out


def _close(nodes):
    for node in nodes:
        node.close()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_nested_call_returns_on_loopback(shape):
    make, expected = SHAPES[shape]
    nodes, call = make("loopback")
    try:
        worker, out = _start(call)
        worker.join(RETURNS_S)
        assert not worker.is_alive(), f"{shape} hung on loopback"
        assert out == {"value": expected}
    finally:
        _close(nodes)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.xfail(strict=True, reason="a TCP node holds one connection and lock per endpoint "
                                       "for a whole call, so the nested call waits on itself")
def test_nested_call_returns_on_tcp_as_loopback_does(shape):
    make, expected = SHAPES[shape]
    nodes, call = make("tcp")
    try:
        worker, out = _start(call)
        worker.join(RETURNS_S)
        assert not worker.is_alive(), f"{shape} did not return within {RETURNS_S} s on TCP"
        assert out == {"value": expected}
    finally:
        _close(nodes)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_closing_the_nodes_ends_a_blocked_nested_call(shape):
    make, _ = SHAPES[shape]
    nodes, call = make("tcp")
    try:
        worker, out = _start(call)
        worker.join(0.3)
        assert worker.is_alive(), "the call returned before the close; nothing blocked to end"
    finally:
        _close(nodes)
    worker.join(RETURNS_S)
    assert not worker.is_alive(), f"{shape} still blocked {RETURNS_S} s after closing the nodes"
    assert isinstance(out.get("error"), (RemoteError, TransportError)), out
    if shape == "x_y_x_y":
        # Closing X closes its transport before its server, so X's outer call
        # fails on its own channel to Y, naming Y, before the body at Y can
        # answer that it lost X
        x, y = nodes
        error = out["error"]
        assert isinstance(error, TransportError), out
        assert error.endpoint == y.endpoint, out


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_a_body_whose_nested_call_loses_its_peer_names_that_peer(kind):
    # X flat_maps a value at Y whose body calls Z, which is closed by then
    x, y, z = _nodes(kind, 3)
    try:
        a = x.export_to(y.endpoint, 1)
        gone = x.export_to(z.endpoint, 5)
        back = x.export_to(y.endpoint, 5)
        z.close()
        with pytest.raises(ExecutionError) as caught:
            a.flat_map(x.stage("bounce", gone, back)).get()
        assert str(caught.value).startswith(f"bounce: lost peer {z.endpoint}: "), caught.value
    finally:
        _close([x, y, z])
