import math
import operator
import random
import re
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from remotable import (
    ContractViolationError,
    DeferredHandle,
    ErrorCode,
    ExecutionError,
    FnRegistry,
    InlineValue,
    LoopbackNetwork,
    Node,
    NotFoundError,
    NotSerializableError,
    ObjectId,
    PlainValue,
    ProtocolError,
    RemoteError,
    RemoteRefDescriptor,
    RemoteValue,
    ShippedFn,
    Stage,
    TransportError,
    UnknownFunctionError,
    UnknownObjectError,
    default_registry,
    encode_message,
)
from remotable.protocol import Lookup, RespAck, RespError, RespStats, decode_frame

from helpers import random_ops, run_int_pipeline, stages_for_ops

HANDLE_SHAPE = re.compile(r"^remote\[endpoint=[^ ]+:\d+ id=[0-9a-f]{16}:\d+\]$")


@pytest.fixture
def solo():
    node = Node.loopback(LoopbackNetwork())
    yield node
    node.close()


# -- local short-circuits -------------------------------------------------------


def test_apply_then_get_is_free(solo):
    handle = solo.apply(5)
    assert handle.is_local
    assert handle.get() == 5
    assert solo.transport.request_frames == 0
    assert handle.stats() == (0, 0)


def test_local_map_costs_no_frames(solo):
    handle = solo.apply(5).map(solo.stage("inc"))
    assert handle.get() == 6
    assert solo.transport.request_frames == 0


def test_local_flat_map_costs_no_frames(solo):
    handle = solo.apply(5).flat_map(solo.stage("pure"))
    assert handle.get() == 5
    assert solo.transport.request_frames == 0


def test_opaque_value_maps_locally(solo):
    token = solo.new_token()
    text = solo.apply(token).map(solo.stage("to_text")).get()
    assert text == f"token#{token.serial}"


def test_lookup_at_own_endpoint_resolves_locally(solo):
    solo.rebind("n", 7)
    handle = solo.lookup(solo.endpoint, "n")
    assert handle.is_local
    assert handle.get() == 7


def test_token_serials_count_up(solo):
    assert [solo.new_token().serial for _ in range(3)] == [1, 2, 3]


# -- handle rendering -----------------------------------------------------------


def test_repr_shows_address_not_value(solo):
    handle = solo.apply("secret contents")
    rendering = repr(handle)
    assert HANDLE_SHAPE.match(rendering)
    assert "secret" not in rendering


def test_repr_embeds_endpoint_and_id(loop_pair):
    server, client = loop_pair
    server.rebind("x", 9)
    handle = client.lookup(server.endpoint, "x")
    assert str(server.endpoint) in repr(handle)
    assert str(handle.descriptor.id) in repr(handle)


# -- remote dispatch ------------------------------------------------------------


def test_map_result_lives_at_the_subject_home(loop_pair):
    server, client = loop_pair
    subject = client.export_to(server.endpoint, 42)
    result = subject.map(client.stage("to_text"))
    assert result.descriptor.endpoint == server.endpoint
    assert not result.is_local
    assert result.get() == "42"


def test_flat_map_may_land_on_a_third_host():
    network = LoopbackNetwork()
    a, b, client = (Node.loopback(network) for _ in range(3))
    try:
        at_b = client.export_to(b.endpoint, 99)
        subject = client.export_to(a.endpoint, 0)
        result = subject.flat_map(client.stage("const_ref", at_b))
        assert result.descriptor.endpoint == b.endpoint
        assert result.get() == 99
    finally:
        client.close()
        b.close()
        a.close()


def test_detach_racing_many_delivers_gives_only_replies_or_no_host():
    # deliver reads the fabric's dispatcher dict without its lock; a read that
    # meets a detach, or a re-attach, must see the dict before or after it
    network = LoopbackNetwork()
    server = Node.loopback(network)
    endpoint, dispatcher = server.endpoint, server.host.handle_frame
    frame = encode_message(Lookup("ghost"))
    seen: list[Counter] = []
    unexpected = []
    running = threading.Event()

    def deliver():
        counts = Counter()
        seen.append(counts)
        for _ in range(3000):
            try:
                reply = decode_frame(network.deliver(endpoint, frame))
            except TransportError as exc:
                if str(exc) != f"no host attached at {endpoint}" or exc.endpoint is not endpoint:
                    unexpected.append(exc)
                counts["no host"] += 1
            except Exception as exc:  # reported below, so any other class fails the test
                unexpected.append(exc)
            else:
                if not (isinstance(reply, RespError) and reply.code == ErrorCode.NOT_FOUND):
                    unexpected.append(reply)
                counts["reply"] += 1
            running.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=deliver) for _ in range(4)]
        for thread in threads:
            thread.start()
        running.wait(timeout=10)
        while any(thread.is_alive() for thread in threads):
            network.detach(endpoint)
            time.sleep(0.001)
            network.attach(endpoint, dispatcher)
            time.sleep(0.001)
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        server.close()
    assert unexpected == []
    total = sum(seen, Counter())
    assert total["reply"] and total["no host"]
    assert total["reply"] + total["no host"] == 4 * 3000


def test_lookup_then_map_then_get(loop_pair):
    server, client = loop_pair
    server.rebind("obj", server.new_token())
    text = client.lookup(server.endpoint, "obj").map(client.stage("to_text")).get()
    assert text == "token#1"


def test_rebind_can_name_a_value_hosted_elsewhere(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    client.rebind("shared", handle)  # Rebind travels to the value's home
    assert client.lookup(server.endpoint, "shared").get() == 5


def test_desugared_two_object_composition_matches_local_compute(loop_pair):
    server, client = loop_pair
    ra = client.export_to(server.endpoint, 5)
    rb = client.export_to(server.endpoint, 7)
    composed = ra.flat_map(client.stage("pair_equals_outer", rb)).get()
    assert composed == (ra.get() == rb.get())


def test_map_position_comparison_forces_the_other_operand():
    network = LoopbackNetwork()
    left, right, client = (Node.loopback(network) for _ in range(3))
    try:
        ra = client.export_to(left.endpoint, 5)
        rb = client.export_to(right.endpoint, 5)
        rc = client.export_to(right.endpoint, 7)
        # mk_pair_equals pulls the captured reference to the subject's host,
        # so it works whenever that operand can cross the wire...
        assert ra.map(client.stage("mk_pair_equals", rb)).get() is True
        assert ra.map(client.stage("mk_pair_equals", rc)).get() is False
        # ...and fails for opaque values, unlike the outer form, which stays
        # shipping-free when both operands share a host.
        left.rebind("tok_a", left.new_token())
        left.rebind("tok_b", left.new_token())
        right.rebind("tok_c", right.new_token())
        ta = client.lookup(left.endpoint, "tok_a")
        tb = client.lookup(left.endpoint, "tok_b")
        tc = client.lookup(right.endpoint, "tok_c")
        with pytest.raises(NotSerializableError):
            ta.map(client.stage("mk_pair_equals", tc)).get()
        assert ta.flat_map(client.stage("pair_equals_outer", tb)).get() is False
    finally:
        client.close()
        right.close()
        left.close()


def test_stage_arity_is_prechecked_for_registered_fns(solo):
    with pytest.raises(ValueError):
        solo.stage("inc", 3)
    with pytest.raises(ValueError):
        solo.stage("add")


def test_unregistered_fn_ships_and_fails_at_the_host(loop_pair):
    server, client = loop_pair
    subject = client.export_to(server.endpoint, 5)
    from remotable import Stage

    with pytest.raises(UnknownFunctionError, match="mystery"):
        subject.map(Stage("mystery"))


@pytest.mark.parametrize("fn_id", [5, b"f", ["f"]], ids=["int", "bytes", "list"])
@pytest.mark.parametrize("kind", ["loopback", "tcp", "local"])
def test_stage_whose_fn_id_is_not_text_is_refused_before_any_frame(kind, fn_id):
    # shipped, such a stage would fail as ProtocolError at a peer but as
    # UnknownFunctionError at a local host; refused when built, it fails alike
    server, client = _pair("tcp" if kind == "tcp" else "loopback")
    caller = server if kind == "local" else client
    try:
        handle = caller.export_to(server.endpoint, 5)
        sent = caller.transport.frame_counts.copy()
        for build in (Stage, caller.stage):
            with pytest.raises(ValueError, match="^stage fn_id must be non-empty text"):
                caller.map(handle, build(fn_id))
        assert caller.transport.frame_counts == sent
    finally:
        client.close()
        server.close()


def test_typed_errors_cross_the_wire(loop_pair):
    server, client = loop_pair
    with pytest.raises(NotFoundError):
        client.lookup(server.endpoint, "ghost")
    dangling = client._materialize(
        RemoteRefDescriptor(server.endpoint, ObjectId(1234, 1))
    )
    with pytest.raises(UnknownObjectError):
        dangling.get()
    subject = client.export_to(server.endpoint, 5)
    with pytest.raises(ContractViolationError):
        subject.flat_map(client.stage("inc"))  # plain result in flat_map position


def test_remote_get_of_opaque_token_fails_only_at_get(loop_pair):
    server, client = loop_pair
    server.rebind("tok", server.new_token())
    handle = client.lookup(server.endpoint, "tok")
    mapped = handle.map(client.stage("identity"))  # fine: value stays home
    with pytest.raises(NotSerializableError):
        mapped.get()
    assert mapped.map(client.stage("to_text")).get() == "token#1"


def test_tcp_get_of_lone_surrogate_is_typed_and_the_connection_keeps_serving(tcp_pair):
    server, client = tcp_pair
    server.rebind("bad", ["a", "\ud800"])
    server.rebind("good", "ok")
    handle = client.lookup(server.endpoint, "bad")
    with pytest.raises(NotSerializableError):
        handle.get()
    channel = client.transport._channels[server.endpoint]
    assert client.lookup(server.endpoint, "good").get() == "ok"
    assert client.transport._channels[server.endpoint] is channel


def test_export_of_lone_surrogate_fails_before_the_wire(loop_pair):
    server, client = loop_pair
    frames_before = client.transport.request_frames
    with pytest.raises(NotSerializableError):
        client.export_to(server.endpoint, "\ud800")
    assert client.transport.request_frames == frames_before


# -- locality switch --------------------------------------------------------------


def test_home_descriptor_takes_the_wire_when_replacement_is_off():
    network = LoopbackNetwork()
    node = Node.loopback(network, locality_replacement=False)
    try:
        descriptor = node.table.export(5)
        handle = node._materialize(descriptor)
        assert not handle.is_local
        assert handle.map(node.stage("inc")).get() == 6
        assert node.transport.request_frames > 0
    finally:
        node.close()


def test_apply_stays_local_even_without_replacement():
    # apply hands out the entry it just created; the switch governs arriving
    # descriptors, not the creation path
    node = Node.loopback(LoopbackNetwork(), locality_replacement=False)
    try:
        handle = node.apply(3)
        assert handle.is_local
        assert handle.get() == 3
        assert node.transport.request_frames == 0
    finally:
        node.close()


def test_stale_incarnation_is_a_miss_not_a_wrong_value(loop_pair):
    server, client = loop_pair
    descriptor = server.table.export(1)
    wrong = RemoteRefDescriptor(
        server.endpoint,
        ObjectId((descriptor.id.incarnation + 1) % 2**64, descriptor.id.serial),
    )
    with pytest.raises(UnknownObjectError):
        client._materialize(wrong).get()


@pytest.mark.parametrize("pair", ["loop_pair", "tcp_pair"])
def test_an_id_of_another_incarnation_misses_on_every_request(request, pair):
    server, client = request.getfixturevalue(pair)
    live = client.export_to(server.endpoint, 5)
    foreign_id = ObjectId((live.descriptor.id.incarnation + 1) % 2**64, live.descriptor.id.serial)
    foreign = RemoteRefDescriptor(server.endpoint, foreign_id)
    assert not server.table.is_home(foreign)
    handle = client._materialize(foreign)
    missing = re.escape(f"no hosted value under id {foreign_id}")
    for request_of in [
        handle.get,  # Get
        lambda: handle.map(client.stage("inc")),  # Map
        lambda: handle.flat_map(client.stage("pure")),  # FlatMap
        handle.stats,  # Stats
    ]:
        with pytest.raises(UnknownObjectError, match=f"^{missing}$"):
            request_of()
    with pytest.raises(UnknownObjectError, match=f"^{missing} at {re.escape(str(server.endpoint))}$"):
        client.rebind("n", handle)
    assert live.get() == 5
    assert live.stats() == (1, 1)


def _append_one(subject, args, ctx):
    args[0].append([1])
    args[0][0].append(1)
    return PlainValue(f"{len(args[0])} {len(args[0][0])} {type(args[1]).__name__}")


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_a_body_that_mutates_its_list_capture_gets_a_fresh_list_each_time(kind):
    registry = default_registry()
    registry.register("append_one", 2, _append_one)
    network = LoopbackNetwork()
    make = partial(Node.loopback, network) if kind == "loopback" else Node.tcp
    server = make(registry=registry)
    nodes = [server] + [make(registry=registry, locality_replacement=on) for on in (True, False)]
    try:
        for client in nodes[1:]:
            held = client.apply(0)
            subjects = {
                "remote": client.export_to(server.endpoint, 0),
                "local": held,  # answered in process, locality replacement on or off
                "own endpoint": client._materialize(held.descriptor),  # over the wire when off
            }
            for where, subject in subjects.items():
                stage = client.stage("append_one", [[7], [8]], bytearray(b"ab"))
                # the same stage applied twice; a bytearray capture arrives as bytes
                assert [subject.map(stage).get() for _ in range(2)] == ["3 2 bytes"] * 2, where
                assert stage.captures[0].value == [[7], [8]], where
            assert held.stats() == (0, 0)  # a copy is not a serialization
    finally:
        for node in reversed(nodes):
            node.close()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_a_closed_node_refuses_every_call_and_opens_no_connection(kind):
    make = partial(Node.loopback, LoopbackNetwork()) if kind == "loopback" else Node.tcp
    server, client = make(), make()
    try:
        handle = client.export_to(server.endpoint, 5)
        client.close()
        calls = [
            handle.get,
            lambda: handle.map(client.stage("inc")),
            lambda: handle.flat_map(client.stage("pure")),
            handle.stats,
            lambda: client.rebind("n", handle),
            lambda: client.lookup(server.endpoint, "n"),
            lambda: client.export_to(server.endpoint, 6),
        ]
        refused = f"^transport closed: no call to {re.escape(str(server.endpoint))}$"
        for call in calls:
            with pytest.raises(TransportError, match=refused) as caught:
                call()
            assert caught.value.endpoint == server.endpoint
        assert client.transport.frame_counts == Counter({"Export": 1})
        if kind == "tcp":
            assert client.transport._channels == {}
    finally:
        client.close()
        server.close()



@pytest.mark.parametrize("locality_replacement", [True, False])
@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_a_closed_node_answers_no_request_in_process(kind, locality_replacement):
    make = partial(Node.loopback, LoopbackNetwork()) if kind == "loopback" else Node.tcp
    node = make(locality_replacement=locality_replacement)
    try:
        handle = node.apply(5)
        node.close()
        entries = len(node.table)
        calls = [
            lambda: handle.map(node.stage("inc")),
            lambda: handle.flat_map(node.stage("pure")),
            lambda: node.rebind("n", handle),
            handle.stats,
            lambda: node.lookup(node.endpoint, "x"),
        ]
        refused = f"^transport closed: no call to {re.escape(str(node.endpoint))}$"
        for call in calls:
            with pytest.raises(TransportError, match=refused) as caught:
                call()
            assert caught.value.endpoint == node.endpoint
        assert len(node.table) == entries  # the map hosted nothing
        assert handle.get() == 5  # a local get sends no request
        assert node.transport.frame_counts == Counter()
    finally:
        node.close()

# -- the serialization counter ------------------------------------------------------


def _ship_constant_five(subject, args, ctx):
    # an unmarked constant that happens to be the subject's (cached) int object
    return RemoteValue(args[0].map(Stage("add", (InlineValue(5),))).descriptor)


def _ship_subject_through_derived_handle(subject, args, ctx):
    derived = args[0].map(Stage("inc"))
    inner = Stage("pair_equals_inner", (ctx.subject_capture(subject),))
    return RemoteValue(derived.map(inner).descriptor)


def _counting_pair(locality):
    """A server hosting 5 and 7 and a client; the server may ship to itself."""
    registry = default_registry()
    registry.register("ship_constant_five", 1, _ship_constant_five)
    registry.register("ship_subject_through_derived_handle", 1, _ship_subject_through_derived_handle)
    network = LoopbackNetwork()
    server = Node.loopback(network, registry=registry, locality_replacement=locality)
    client = Node.loopback(network)
    return server, client


@pytest.mark.parametrize(
    "locality, stages, expected",
    [
        (True, ["pair_equals_outer"], 0),
        (False, ["pair_equals_outer"], 1),
        (False, ["identity", "pair_equals_outer"], 1),
        (False, ["inc", "pair_equals_outer"], 0),
        (False, ["ship_constant_five"], 0),
        (False, ["ship_subject_through_derived_handle"], 1),
    ],
    ids=[
        "locality_on",
        "locality_off",
        "identity_first",
        "inc_first",
        "constant_equal_to_the_subject",
        "subject_through_derived_handle",
    ],
)
def test_serializations_count_shipped_subject_captures(locality, stages, expected):
    server, client = _counting_pair(locality)
    try:
        ra = client.export_to(server.endpoint, 5)
        rb = client.export_to(server.endpoint, 7)
        *plain, last = stages
        pipeline = ShippedFn(
            tuple(client.stage(fn_id) for fn_id in plain) + (client.stage(last, rb),)
        )
        ra.flat_map(pipeline)
        assert ra.stats() == (expected, 0)
    finally:
        client.close()
        server.close()


def test_marked_capture_counts_when_its_map_is_answered_with_an_error():
    server, client = _counting_pair(locality=False)
    try:
        ra = client.export_to(server.endpoint, 5)
        dangling = client._materialize(RemoteRefDescriptor(server.endpoint, ObjectId(1234, 1)))
        with pytest.raises(UnknownObjectError):
            ra.flat_map(client.stage("pair_equals_outer", dangling))
        assert ra.stats() == (1, 0)
    finally:
        client.close()
        server.close()


def test_subject_that_cannot_be_encoded_counts_nothing():
    server, client = _counting_pair(locality=False)
    try:
        server.rebind("tok_a", server.new_token())
        server.rebind("tok_b", server.new_token())
        ta = client.lookup(server.endpoint, "tok_a")
        tb = client.lookup(server.endpoint, "tok_b")
        with pytest.raises(NotSerializableError):
            ta.flat_map(client.stage("pair_equals_outer", tb))
        assert ta.stats() == (0, 0)
    finally:
        client.close()
        server.close()


# -- a node's requests to itself fail as remote ones do ------------------------------


def _pair(kind, make_registry=default_registry, locality=True):
    """A server and a client of one transport kind, each with its own registry."""
    make = partial(Node.loopback, LoopbackNetwork()) if kind == "loopback" else Node.tcp
    server = make(registry=make_registry(), locality_replacement=locality)
    return server, make(registry=make_registry())


def _raise_surrogate(subject):
    raise ValueError("bad \ud800")


def _surrogate_registry():
    registry = default_registry()
    registry.lift("raise_surrogate", _raise_surrogate)
    return registry


_FAILURES = {
    "map-unknown-object": lambda node, five, ghost: ghost.map(Stage("inc")),
    "flat_map-unknown-object": lambda node, five, ghost: ghost.flat_map(Stage("pure")),
    "rebind-unknown-object": lambda node, five, ghost: node.rebind("x", ghost),
    "stats-unknown-object": lambda node, five, ghost: ghost.stats(),
    "map-unknown-function": lambda node, five, ghost: five.map(Stage("nope")),
    "flat_map-unknown-function": lambda node, five, ghost: five.flat_map(Stage("nope")),
    "map-contract-violation": lambda node, five, ghost: five.map(Stage("pure")),
    "flat_map-contract-violation": lambda node, five, ghost: five.flat_map(Stage("inc")),
    "lookup-not-found": lambda node, five, ghost: node.lookup(five.descriptor.endpoint, "x"),
    "map-surrogate-text": lambda node, five, ghost: five.map(Stage("raise_surrogate")),
    "flat_map-surrogate-text": lambda node, five, ghost: five.flat_map(Stage("raise_surrogate")),
}


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
@pytest.mark.parametrize("failure", list(_FAILURES))
def test_self_addressed_request_fails_as_a_remote_one(kind, failure):
    server, client = _pair(kind, _surrogate_registry)
    try:
        five = server.table.export(5)
        ghost = RemoteRefDescriptor(server.endpoint, ObjectId(server.table.incarnation, 999))
        raised = []
        for node in (server, client):
            with pytest.raises(RemoteError) as caught:
                _FAILURES[failure](node, node._materialize(five), node._materialize(ghost))
            raised.append((type(caught.value), str(caught.value)))
        assert raised[0] == raised[1]
        assert server.transport.request_frames == 0
    finally:
        client.close()
        server.close()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_locality_off_node_sends_its_own_rebind_lookup_and_stats(kind):
    server, client = _pair(kind, locality=False)
    try:
        server.rebind("n", 5)
        handle = server.lookup(server.endpoint, "n")
        assert not handle.is_local
        assert handle.stats() == (0, 0)
        counts = server.transport.frame_counts
        assert (counts["Rebind"], counts["Lookup"], counts["Stats"]) == (1, 1, 1)
    finally:
        client.close()
        server.close()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_locality_off_node_runs_a_nested_flat_map_on_its_own_value(kind):
    # the body calls the same node again; answered in process, it cannot wait
    # on the transport its own caller is holding
    server, client = _pair(kind, locality=False)
    out = {}

    def run():
        handle = server.apply(5).flat_map(server.stage("kleisli_int_then", [0, 0], [1, 3]))
        out["value"] = handle.get()

    try:
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(10)
        assert not worker.is_alive(), "nested flat_map on a locality-off node hung"
        assert out["value"] == 18
        assert server.transport.frame_counts["FlatMap"] == 0
    finally:
        client.close()
        server.close()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_registry_of_only_lifted_functions_serves_a_deferred_chain(kind):
    def lifted_only():
        registry = FnRegistry()
        registry.lift("floor", math.floor)
        return registry

    server, client = _pair(kind, lifted_only)
    try:
        server.rebind("ratio", Fraction(7, 2))
        deferred = DeferredHandle.wrap(client.lookup(server.endpoint, "ratio"))
        deferred = deferred.map(client.stage("floor"))
        before = client.transport.request_frames
        assert deferred.get() == 3
        assert client.transport.request_frames - before == 2
    finally:
        client.close()
        server.close()


# -- a peer that answers with the wrong variant -----------------------------------


@pytest.fixture(params=["loopback", "tcp"])
def wrong_variant_peer(request):
    """A client and the endpoint of a peer that answers every request with ``reply``."""
    replies = {"reply": RespAck()}
    if request.param == "loopback":
        network = LoopbackNetwork()
        client = Node.loopback(network)
        endpoint = network.allocate_endpoint()
        network.attach(endpoint, lambda frame: encode_message(replies["reply"]))
        yield client, endpoint, replies
        client.close()
    else:
        server, client = Node.tcp(), Node.tcp()
        server.host.dispatch = lambda message: replies["reply"]
        yield client, server.endpoint, replies
        client.close()
        server.close()


@pytest.mark.parametrize(
    "operation, request_name, reply",
    [
        ("lookup", "Lookup", RespAck()),
        ("export_to", "Export", RespAck()),
        ("map", "Map", RespAck()),
        ("get", "Get", RespAck()),
        ("stats", "Stats", RespAck()),
        ("rebind", "Rebind", RespStats(0, 0)),
    ],
    ids=["lookup", "export_to", "map", "get", "stats", "rebind"],
)
def test_wrong_reply_variant_is_a_protocol_error(wrong_variant_peer, operation, request_name, reply):
    client, endpoint, replies = wrong_variant_peer
    replies["reply"] = reply
    handle = client._materialize(RemoteRefDescriptor(endpoint, ObjectId(1, 1)))
    calls = {
        "lookup": lambda: client.lookup(endpoint, "x"),
        "export_to": lambda: client.export_to(endpoint, 1),
        "map": lambda: handle.map(client.stage("inc")),
        "get": handle.get,
        "stats": handle.stats,
        "rebind": lambda: client.rebind("x", handle),
    }
    expected = f"{request_name} answered with {type(reply).__name__}"
    with pytest.raises(ProtocolError, match=f"^{expected}$"):
        calls[operation]()


# -- error text that has no UTF-8 encoding ------------------------------------------


@pytest.mark.parametrize("pair", ["loop_pair", "tcp_pair"])
@pytest.mark.parametrize(
    "message, shown",
    [("bad \ud800", "bad \\ud800"), ("x" * 70_000, "x" * 1000)],
    ids=["lone_surrogate", "longer_than_a_name"],
)
def test_body_error_text_always_reaches_the_caller(request, pair, message, shown):
    server, client = request.getfixturevalue(pair)

    def raise_message(subject, args, ctx):
        raise ValueError(message)

    server.registry.register("raise_message", 0, raise_message)
    subject = client.export_to(server.endpoint, 5)
    with pytest.raises(ExecutionError, match=re.escape(shown)) as caught:
        subject.map(Stage("raise_message"))
    assert len(str(caught.value).encode("utf-8")) <= 0xFFFF
    channels = getattr(client.transport, "_channels", {})  # TCP only
    channel = channels.get(server.endpoint)
    assert subject.map(client.stage("inc")).get() == 6
    assert channels.get(server.endpoint) is channel


# -- existing functions, lifted unchanged -------------------------------------------


def _stdlib_registry():
    # the stock set already lifts operator.add as "add"
    registry = default_registry()
    registry.lift("floor", math.floor)
    registry.lift("limit_denominator", Fraction.limit_denominator)
    registry.lift("total", Counter.total)
    registry.lift("get", dict.get)
    return registry


@pytest.fixture(params=["loopback", "tcp"])
def stdlib_pair(request):
    """A server and a client whose registries add lifted stdlib functions to the stock set."""
    if request.param == "loopback":
        network = LoopbackNetwork()
        server = Node.loopback(network, registry=_stdlib_registry())
        client = Node.loopback(network, registry=_stdlib_registry())
    else:
        server = Node.tcp(registry=_stdlib_registry())
        client = Node.tcp(registry=_stdlib_registry())
    yield server, client
    client.close()
    server.close()


def test_stdlib_values_compose_through_lifted_stdlib_functions(stdlib_pair):
    server, client = stdlib_pair
    ratio, counts = Fraction(31415926, 10000000), Counter("abracadabra")
    server.rebind("ratio", ratio)
    server.rebind("counts", counts)
    remote_ratio = client.lookup(server.endpoint, "ratio")
    remote_counts = client.lookup(server.endpoint, "counts")
    ratio_stages = [
        client.stage("limit_denominator"),
        client.stage("add", 2),
        client.stage("floor"),
    ]
    counts_stages = [client.stage("get", "a"), client.stage("add", 1)]
    expected_ratio = math.floor(ratio.limit_denominator() + 2)
    expected_counts = counts.get("a") + 1

    eager = remote_ratio
    for stage in ratio_stages:
        eager = eager.map(stage)
    assert eager.get() == expected_ratio
    assert remote_counts.map(client.stage("total")).get() == counts.total() == 11
    eager = remote_counts
    for stage in counts_stages:
        eager = eager.map(stage)
    assert eager.get() == expected_counts

    for handle, stages, expected in [
        (remote_ratio, ratio_stages, expected_ratio),
        (remote_counts, counts_stages, expected_counts),
    ]:
        deferred = DeferredHandle.wrap(handle)
        for stage in stages:
            deferred = deferred.map(stage)
        before = client.transport.request_frames
        assert deferred.get() == expected
        assert client.transport.request_frames - before == 2


@pytest.mark.parametrize("pair", ["loop_pair", "tcp_pair"])
def test_lifted_function_that_raises_names_its_fn_id(request, pair):
    server, client = request.getfixturevalue(pair)
    server.registry.lift("div", operator.floordiv)
    subject = client.export_to(server.endpoint, 5)
    with pytest.raises(ExecutionError, match="^div: integer division or modulo by zero$"):
        subject.map(client.stage("div", 0))
    assert subject.map(client.stage("div", 2)).get() == 2


# -- randomized laws (small; the acceptance suite runs the full battery) ----------


def test_monad_laws_on_sampled_pipelines(loop_pair):
    server, client = loop_pair
    rng = random.Random(7)
    for _ in range(25):
        x = rng.randint(-50, 50)
        f_ops = random_ops(rng)
        g_ops = random_ops(rng)
        rx = client.export_to(server.endpoint, x)

        pure = client.stage("pure")
        f = client.stage("kleisli_int", f_ops)
        g = client.stage("kleisli_int", g_ops)
        f_then_g = client.stage("kleisli_int_then", f_ops, g_ops)

        # left identity: wrapping then binding f is just f
        assert rx.flat_map(pure).flat_map(f).get() == run_int_pipeline(f_ops, x)
        # right identity: binding the wrapper changes nothing
        assert rx.flat_map(f).flat_map(pure).get() == rx.flat_map(f).get()
        # associativity: rebracketing the chain is invisible
        assert (
            rx.flat_map(f).flat_map(g).get()
            == rx.flat_map(f_then_g).get()
            == run_int_pipeline(g_ops, run_int_pipeline(f_ops, x))
        )


def test_map_pipelines_match_the_eager_oracle(loop_pair):
    server, client = loop_pair
    rng = random.Random(11)
    for _ in range(25):
        x = rng.randint(-50, 50)
        ops = random_ops(rng, min_len=1)
        handle = client.export_to(server.endpoint, x)
        for stage in stages_for_ops(ops):
            handle = handle.map(stage)
        assert handle.get() == run_int_pipeline(ops, x)


@pytest.mark.parametrize("kind", ["local", "loopback", "tcp"])
def test_a_bare_capture_is_refused_before_any_frame(kind):
    server, client = _pair("loopback" if kind == "local" else kind)
    try:
        handle = client.apply(5) if kind == "local" else client.export_to(server.endpoint, 5)
        before = client.transport.request_frames
        with pytest.raises(ValueError, match="must be an InlineValue or a RemoteRef, got 3"):
            handle.map(Stage("add", (3,)))
        with pytest.raises(ValueError, match="must be an InlineValue or a RemoteRef"):
            handle.map(Stage("pair_equals_outer", (handle,)))
        assert client.transport.request_frames == before
    finally:
        client.close()
        server.close()
