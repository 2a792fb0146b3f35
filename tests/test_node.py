import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from remotable import (
    ContractViolationError,
    DeferredHandle,
    ExecutionError,
    InlineValue,
    LoopbackNetwork,
    Node,
    NotFoundError,
    NotSerializableError,
    ObjectId,
    ProtocolError,
    RemoteRefDescriptor,
    RemoteValue,
    ShippedFn,
    Stage,
    UnknownFunctionError,
    UnknownObjectError,
    default_registry,
    encode_message,
)
from remotable.protocol import RespAck, RespStats

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
    connection = client.transport._connections[server.endpoint]
    assert client.lookup(server.endpoint, "good").get() == "ok"
    assert client.transport._connections[server.endpoint] is connection


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
    connections = getattr(client.transport, "_connections", {})  # TCP only
    connection = connections.get(server.endpoint)
    assert subject.map(client.stage("inc")).get() == 6
    assert connections.get(server.endpoint) is connection


# -- existing functions, lifted unchanged -------------------------------------------


def _stdlib_registry():
    # the stock set already lifts operator.add as "add", and has the
    # "identity" stage that DeferredHandle.wrap starts from
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
