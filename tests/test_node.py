import random
import re

import pytest

from remotable import (
    ContractViolationError,
    LoopbackNetwork,
    Node,
    NotFoundError,
    NotSerializableError,
    ObjectId,
    RemoteRefDescriptor,
    UnknownFunctionError,
    UnknownObjectError,
)

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
