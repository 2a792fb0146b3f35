import gc
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings

import remotable.protocol
import remotable.transport
from remotable import (
    ContractViolationError,
    EndpointAddr,
    ErrorCode,
    HostContext,
    InlineValue,
    LoopbackNetwork,
    Node,
    NotSerializableError,
    ObjectId,
    PlainValue,
    ProtocolError,
    RemoteRefDescriptor,
    RemoteValue,
    ShippedFn,
    Stage,
    TransportError,
    UnknownObjectError,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
)
from remotable.protocol import (
    CODEC_RV1,
    Export,
    FlatMap,
    Get,
    Lookup,
    Map,
    Rebind,
    RespAck,
    RespDescriptor,
    RespError,
    RespStats,
    RespValue,
    Stats,
    ValuePayload,
    decode_frame,
)
from remotable.model import Encoded
from remotable.transport import LoopbackTransport, TcpTransport, read_frame
from test_protocol import values


@pytest.fixture
def node():
    n = Node.loopback(LoopbackNetwork())
    yield n
    n.close()


def _pipeline(*stages):
    return ShippedFn(tuple(stages))


def test_rebind_then_lookup_returns_home_descriptor(node):
    descriptor = node.table.export(5)
    assert node.host.dispatch(Rebind("n", RemoteRefDescriptor(node.endpoint, descriptor.id))) == RespAck()
    response = node.host.dispatch(Lookup("n"))
    assert response == RespDescriptor(descriptor)


def test_lookup_of_unbound_name(node):
    response = node.host.dispatch(Lookup("ghost"))
    assert isinstance(response, RespError)
    assert response.code == ErrorCode.NOT_FOUND


def test_rebind_of_unknown_object(node):
    foreign = RemoteRefDescriptor(node.endpoint, ObjectId(123, 9))
    response = node.host.dispatch(Rebind("n", foreign))
    assert response.code == ErrorCode.UNKNOWN_OBJECT


def test_map_runs_pipeline_and_rehosts_here(node):
    descriptor = node.table.export(5)
    response = node.host.dispatch(Map(descriptor.id, _pipeline(Stage("inc"), Stage("inc"))))
    assert isinstance(response, RespDescriptor)
    assert response.descriptor.endpoint == node.endpoint
    assert node.table.value(response.descriptor.id) == 7


def test_map_with_unknown_target(node):
    response = node.host.dispatch(Map(ObjectId(1, 1), _pipeline(Stage("inc"))))
    assert response.code == ErrorCode.UNKNOWN_OBJECT


def test_map_with_unknown_function_names_it(node):
    descriptor = node.table.export(5)
    response = node.host.dispatch(Map(descriptor.id, _pipeline(Stage("frobnicate"))))
    assert response.code == ErrorCode.UNKNOWN_FUNCTION
    assert "frobnicate" in response.text


def _recording(server):
    """Register ``rehost`` (a flat_map body) and ``keep`` (a map body); each keeps its ctx."""
    seen = []

    def rehost(subject, args, ctx):
        seen.append(ctx)
        return RemoteValue(ctx.apply(subject).descriptor)

    def keep(subject, args, ctx):
        seen.append(ctx)
        return PlainValue(subject)

    server.registry.register("rehost", 0, rehost)
    server.registry.register("keep", 0, keep)
    return seen


def test_map_result_must_be_plain(node, loop_pair, tcp_pair):
    descriptor = node.table.export(5)
    response = node.host.dispatch(Map(descriptor.id, _pipeline(Stage("pure"))))
    assert response.code == ErrorCode.CONTRACT_VIOLATION
    for server, client in (loop_pair, tcp_pair):
        seen = _recording(server)
        five = client.export_to(server.endpoint, 5)
        with pytest.raises(ContractViolationError) as caught:
            five.map(_pipeline(Stage("inc"), Stage("rehost")))
        assert str(caught.value) == "'rehost' returned RemoteValue, not a PlainValue"
        (ctx,) = seen
        assert isinstance(ctx, HostContext)
        assert ctx.subject_id == five.descriptor.id
        assert five.map(_pipeline(Stage("keep"), Stage("inc"))).get() == 6


def test_flatmap_result_must_be_remote(node, loop_pair, tcp_pair):
    descriptor = node.table.export(5)
    response = node.host.dispatch(FlatMap(descriptor.id, _pipeline(Stage("inc"))))
    assert response.code == ErrorCode.CONTRACT_VIOLATION
    for server, client in (loop_pair, tcp_pair):
        seen = _recording(server)
        five = client.export_to(server.endpoint, 5)
        with pytest.raises(ContractViolationError) as caught:
            five.flat_map(_pipeline(Stage("inc"), Stage("keep")))
        assert str(caught.value) == "'keep' returned PlainValue, not a RemoteValue"
        (ctx,) = seen
        assert isinstance(ctx, HostContext)
        assert ctx.subject_id == five.descriptor.id
        assert five.flat_map(_pipeline(Stage("inc"), Stage("rehost"))).get() == 6


def test_flatmap_passes_descriptor_through(node):
    somewhere = RemoteRefDescriptor(EndpointAddr("10.1.1.1", 7099), ObjectId(5, 5))
    descriptor = node.table.export(0)
    held = node._materialize(somewhere)
    response = node.host.dispatch(
        FlatMap(descriptor.id, _pipeline(node.stage("const_ref", held)))
    )
    assert response == RespDescriptor(somewhere)


def test_failing_body_reports_execution_error(node):
    descriptor = node.table.export("text")
    response = node.host.dispatch(Map(descriptor.id, _pipeline(Stage("inc"))))
    assert response.code == ErrorCode.EXECUTION_ERROR
    assert "inc" in response.text


def test_get_serializes_and_counts(node):
    descriptor = node.table.export(41)
    response = node.host.dispatch(Get(descriptor.id))
    assert response == RespValue(encode_value(41))
    assert node.table.count(descriptor.id) == (1, 1)


def test_get_of_opaque_value(node):
    descriptor = node.table.export(node.new_token())
    response = node.host.dispatch(Get(descriptor.id))
    assert response.code == ErrorCode.NOT_SERIALIZABLE
    # the failed attempt is not billed as a serialization
    assert node.table.count(descriptor.id) == (0, 0)


def test_export_hosts_decoded_value(node):
    response = node.host.dispatch(Export(encode_value([1, 2])))
    assert node.table.value(response.descriptor.id) == [1, 2]


DEEP_PAYLOAD = ValuePayload(CODEC_RV1, b"\x06\x00\x00\x00\x01" * 5000 + encode_value(1).data)


def test_export_of_deeply_nested_payload_is_a_protocol_error(node):
    raw = node.host.handle_frame(encode_message(Export(DEEP_PAYLOAD)))
    decoded, _ = decode_message(raw)
    assert decoded.code == ErrorCode.PROTOCOL_ERROR
    assert "nested deeper" in decoded.text


def test_get_of_deeply_nested_value_is_not_serializable(node):
    value = 1
    for _ in range(5000):
        value = [value]
    descriptor = node.table.export(value)
    response = node.host.dispatch(Get(descriptor.id))
    assert response.code == ErrorCode.NOT_SERIALIZABLE
    assert "nested deeper" in response.text


@pytest.mark.parametrize(
    "value", ["\ud800", ["a", "\ud800"], [["\ud800"]]], ids=["text", "text_list", "nested_list"]
)
def test_get_of_lone_surrogate_is_not_serializable(node, value):
    descriptor = node.table.export(value)
    response = node.host.dispatch(Get(descriptor.id))
    assert response.code == ErrorCode.NOT_SERIALIZABLE
    assert node.table.count(descriptor.id) == (0, 0)


def test_stats_roundtrip(node):
    descriptor = node.table.export(1)
    node.table.count(descriptor.id, 1)
    assert node.host.dispatch(Stats(descriptor.id)) == RespStats(1, 0)
    assert node.host.dispatch(Stats(descriptor.id)) == RespStats(1, 0)  # asking counts nothing


def test_stats_of_unknown_id_names_the_id(node):
    ghost = ObjectId(node.table.incarnation, 999)
    response = node.host.dispatch(Stats(ghost))
    assert response == RespError(int(ErrorCode.UNKNOWN_OBJECT), f"no hosted value under id {ghost}")


def test_response_variant_is_not_a_request(node):
    response = node.host.dispatch(RespAck())
    assert response.code == ErrorCode.PROTOCOL_ERROR


def test_an_unforeseen_fault_is_an_internal_error_reply(node):
    node.table._first = 2**64 - 1
    node.table.export(1)  # takes the last serial there is
    export = Export(encode_value(2))
    expected = RespError(int(ErrorCode.EXECUTION_ERROR), "internal error: object id serial space exhausted")
    assert node.host.dispatch(export) == expected
    assert decode_frame(node.host.handle_frame(encode_message(export))) == expected


def test_handle_frame_rejects_garbage_with_error_frame(node):
    raw = node.host.handle_frame(b"\x00\x00\x00\x01\xff")
    decoded, _ = decode_message(raw)
    assert decoded.code == ErrorCode.PROTOCOL_ERROR


def _map_with_long_codec_id(target):
    """A Map whose inline capture names a 65535-byte codec: its error text is longer."""
    frame = encode_message(Map(target, _pipeline(Stage("add", (InlineValue(1),)))))
    body = frame[4:].replace(b"\x00\x03rv1", b"\xff\xff" + b"x" * 0xFFFF)
    return len(body).to_bytes(4, "big") + body


def test_handle_frame_answers_an_over_long_protocol_error(node):
    descriptor = node.table.export(5)
    decoded, _ = decode_message(node.host.handle_frame(_map_with_long_codec_id(descriptor.id)))
    assert decoded.code == ErrorCode.PROTOCOL_ERROR
    assert decoded.text.startswith("stage 0 capture 0: unknown codec id 'xxx")


# -- the TCP front ------------------------------------------------------------


@pytest.fixture
def tcp_node():
    n = Node.tcp()
    yield n
    n.close()


def _raw_call(endpoint, payload):
    with socket.create_connection((endpoint.host, endpoint.port), timeout=5) as sock:
        sock.sendall(payload)
        return read_frame(sock)


def test_tcp_answers_framed_requests(tcp_node):
    descriptor = tcp_node.table.export(5)
    frame = _raw_call(tcp_node.endpoint, encode_message(Get(descriptor.id)))
    decoded, _ = decode_message(frame)
    assert decoded == RespValue(encode_value(5))


def test_tcp_pipelined_requests_answer_in_order(tcp_node):
    d1 = tcp_node.table.export(1)
    d2 = tcp_node.table.export(2)
    with socket.create_connection((tcp_node.endpoint.host, tcp_node.endpoint.port), timeout=5) as sock:
        sock.sendall(encode_message(Get(d1.id)) + encode_message(Get(d2.id)))
        first = read_frame(sock)
        second = read_frame(sock)
    assert decode_message(first)[0] == RespValue(encode_value(1))
    assert decode_message(second)[0] == RespValue(encode_value(2))


def test_tcp_large_frame_in_many_reads_then_pipelined_request(tcp_node):
    value = list(range(100_000))  # a ~900 KB frame, many socket reads long
    with socket.create_connection((tcp_node.endpoint.host, tcp_node.endpoint.port), timeout=5) as sock:
        sock.sendall(encode_message(Export(encode_value(value))) + encode_message(Lookup("ghost")))
        exported = decode_message(read_frame(sock))[0]
        missing = decode_message(read_frame(sock))[0]
        sock.sendall(encode_message(Get(exported.descriptor.id)))
        fetched = decode_message(read_frame(sock))[0]
    assert tcp_node.table.value(exported.descriptor.id) == value
    assert missing.code == ErrorCode.NOT_FOUND
    assert fetched == RespValue(encode_value(value))


def test_tcp_export_of_deeply_nested_payload_answers_then_closes(tcp_node):
    with socket.create_connection((tcp_node.endpoint.host, tcp_node.endpoint.port), timeout=5) as sock:
        sock.sendall(encode_message(Export(DEEP_PAYLOAD)))
        decoded, _ = decode_message(read_frame(sock))
        assert decoded.code == ErrorCode.PROTOCOL_ERROR
        assert sock.recv(1) == b""  # server hung up


def test_tcp_garbage_gets_error_then_close_without_hurting_others(tcp_node):
    descriptor = tcp_node.table.export(9)
    frame = _raw_call(tcp_node.endpoint, b"\x00\x00\x00\x02\xff\xff")
    decoded, _ = decode_message(frame)
    assert isinstance(decoded, RespError)
    assert decoded.code == ErrorCode.PROTOCOL_ERROR
    # the host is still alive for everyone else
    frame = _raw_call(tcp_node.endpoint, encode_message(Get(descriptor.id)))
    decoded, _ = decode_message(frame)
    assert decoded == RespValue(encode_value(9))


def test_tcp_answers_an_over_long_protocol_error_then_closes(tcp_node):
    descriptor = tcp_node.table.export(9)
    with socket.create_connection((tcp_node.endpoint.host, tcp_node.endpoint.port), timeout=5) as sock:
        sock.sendall(_map_with_long_codec_id(descriptor.id))
        decoded, _ = decode_message(read_frame(sock))
        assert decoded.code == ErrorCode.PROTOCOL_ERROR
        assert decoded.text.startswith("stage 0 capture 0: unknown codec id 'xxx")
        assert sock.recv(1) == b""  # server hung up
    frame = _raw_call(tcp_node.endpoint, encode_message(Get(descriptor.id)))
    assert decode_message(frame)[0] == RespValue(encode_value(9))


def test_tcp_closes_connection_after_protocol_error(tcp_node):
    with socket.create_connection((tcp_node.endpoint.host, tcp_node.endpoint.port), timeout=5) as sock:
        sock.sendall(b"\x00\x00\x00\x01\xff")
        read_frame(sock)  # the error response
        sock.settimeout(5)
        assert sock.recv(1) == b""  # server hung up


def test_idle_connections_hold_no_reply(tcp_node):
    # a few connections, each left open after a Get of about 700 KB
    descriptor = tcp_node.table.export(bytes(700_000))
    request = encode_message(Get(descriptor.id))
    address = (tcp_node.endpoint.host, tcp_node.endpoint.port)
    socks = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            socks.append(socket.create_connection(address, timeout=5))
            socks[-1].sendall(request)
            assert len(read_frame(socks[-1])) > 700_000
        # a handler lets its reply go just after the send returns; give it that moment
        deadline = time.monotonic() + 2
        while True:
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
            if held < 500_000 or time.monotonic() > deadline:
                break
            time.sleep(0.01)
    finally:
        tracemalloc.stop()
        for sock in socks:
            sock.close()
    assert held < 500_000


def test_closing_a_tcp_node_with_a_connected_client_returns_at_once():
    server, client = Node.tcp(), Node.tcp()
    try:
        assert client.export_to(server.endpoint, 5).get() == 5  # connection left open
        started = time.perf_counter()
        server.close()
        assert time.perf_counter() - started < 0.25
    finally:
        client.close()
        server.close()


# Runs in a child process, so that only the child's own descriptor limit is lowered.
_ACCEPT_WITHOUT_DESCRIPTORS = """
import os, resource, socket, time
from remotable import Node

node = Node.tcp()
client = socket.socket()
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
held = []
try:
    while True:
        held.append(os.open(os.devnull, os.O_RDONLY))
except OSError:
    pass
client.connect((node.endpoint.host, node.endpoint.port))  # accept has no descriptor for it
time.sleep(0.1)
started = time.process_time()
time.sleep(1)
print(time.process_time() - started, flush=True)
for fd in held:
    os.close(fd)
client.close()
node.close()
"""


def test_an_accept_that_keeps_failing_does_not_spin():
    child = subprocess.run(
        [sys.executable, "-c", _ACCEPT_WITHOUT_DESCRIPTORS], capture_output=True, timeout=60
    )
    assert child.returncode == 0, child.stderr.decode()
    assert float(child.stdout) < 0.25  # CPU seconds over one wall second


def test_client_reserves_no_memory_for_a_reply_header_it_never_gets_the_body_of():
    claimed = 256 * 2**20  # the reply header's body length; no body follows
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def peer():
            conn, _ = listener.accept()
            with conn:
                read_frame(conn)  # the request
                conn.sendall(claimed.to_bytes(4, "big"))

        thread = threading.Thread(target=peer)
        thread.start()
        host, port = listener.getsockname()
        transport = TcpTransport()
        tracemalloc.start()
        try:
            with pytest.raises(TransportError, match="closed mid-frame"):
                transport.call(EndpointAddr(host, port), Get(ObjectId(1, 1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            transport.close()
            thread.join(timeout=5)
    assert peak < 8 * 2**20


def test_reading_a_frame_copies_it_once():
    frame = encode_message(RespValue(ValuePayload(CODEC_RV1, bytes(700_000))))
    left, right = socket.socketpair()
    with left, right:
        sender = threading.Thread(target=left.sendall, args=(frame,))
        tracemalloc.start()
        try:
            sender.start()
            read = read_frame(right)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            sender.join(timeout=5)
    assert not sender.is_alive()
    assert read == frame
    assert peak < 1.2 * len(frame)


def _dribble(sock, data, step=3):
    """Send ``data`` a few bytes at a time, each piece in its own segment."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    for start in range(0, len(data), step):
        sock.sendall(data[start:start + step])
        time.sleep(0.001)


def _one_reply_peer(listener, answer):
    """Accept one connection, read its request, and ``answer(conn)``."""
    def peer():
        conn, _ = listener.accept()
        with conn:
            read_frame(conn)
            answer(conn)

    thread = threading.Thread(target=peer)
    thread.start()
    return thread


def test_client_reads_a_reply_that_arrives_a_few_bytes_at_a_time():
    reply = RespValue(encode_value(list(range(20))))
    transport = TcpTransport()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        thread = _one_reply_peer(listener, lambda conn: _dribble(conn, encode_message(reply)))
        try:
            assert transport.call(EndpointAddr(*listener.getsockname()), Get(ObjectId(1, 1))) == reply
        finally:
            transport.close()
            thread.join(timeout=5)
    assert not thread.is_alive()


def test_a_frame_whose_prefix_arrives_split_reads_whole_on_a_socket_with_a_timeout():
    # a peek on a socket with a timeout returns the 2 bytes there are, so the
    # prefix is read before the body
    frame = encode_message(RespValue(encode_value(list(range(20)))))
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with socket.create_connection(listener.getsockname(), timeout=5) as sender:
            reader, _ = listener.accept()
            with reader:
                reader.settimeout(5)
                sender.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

                def send():
                    sender.sendall(frame[:2])
                    time.sleep(0.05)
                    sender.sendall(frame[2:])

                thread = threading.Thread(target=send)
                thread.start()
                try:
                    assert read_frame(reader) == frame
                finally:
                    thread.join(timeout=5)


def test_client_fails_typed_when_the_peer_closes_inside_a_reply_header():
    transport = TcpTransport()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        endpoint = EndpointAddr(*listener.getsockname())
        thread = _one_reply_peer(listener, lambda conn: conn.sendall(b"\x00\x00"))
        try:
            with pytest.raises(TransportError) as caught:
                transport.call(endpoint, Get(ObjectId(1, 1)))
        finally:
            transport.close()
            thread.join(timeout=5)
    assert not thread.is_alive()
    assert str(caught.value) == f"call to {endpoint} failed: connection closed mid-frame"


def test_host_reads_a_request_that_arrives_a_few_bytes_at_a_time(tcp_node):
    value = list(range(20))
    with socket.create_connection((tcp_node.endpoint.host, tcp_node.endpoint.port), timeout=5) as sock:
        _dribble(sock, encode_message(Export(encode_value(value))))
        exported = decode_frame(read_frame(sock))
        _dribble(sock, encode_message(Get(exported.descriptor.id)))
        assert decode_frame(read_frame(sock)) == RespValue(encode_value(value))


def test_host_ends_a_connection_that_closes_inside_a_request_header(tcp_node, monkeypatch):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    channels = tcp_node._server._channels
    with socket.create_connection((tcp_node.endpoint.host, tcp_node.endpoint.port), timeout=5) as sock:
        sock.sendall(b"\x00\x00")
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(1) == b""  # the host hung up without a reply
    deadline = time.monotonic() + 2
    while channels and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not channels and not crashes
    descriptor = tcp_node.table.export(9)  # and serves the next connection
    frame = _raw_call(tcp_node.endpoint, encode_message(Get(descriptor.id)))
    assert decode_frame(frame) == RespValue(encode_value(9))


def test_both_ends_of_a_served_connection_send_without_delay(tcp_pair):
    server, client = tcp_pair
    assert client.export_to(server.endpoint, 5).get() == 5
    (client_end,) = client.transport._channels.values()
    (host_end,) = server._server._channels
    for channel in (client_end, host_end):
        assert channel.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1


def test_every_tcp_transport_error_names_its_endpoint():
    transport = TcpTransport()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def peer():
            conn, _ = listener.accept()
            with conn:
                read_frame(conn)  # the request, answered by hanging up

        thread = threading.Thread(target=peer)
        thread.start()
        hung_up = EndpointAddr(*listener.getsockname())
        try:
            with pytest.raises(TransportError) as mid_frame:
                transport.call(hung_up, Get(ObjectId(1, 1)))
        finally:
            thread.join(timeout=5)
    with socket.create_server(("127.0.0.1", 0)) as unused:
        refusing = EndpointAddr(*unused.getsockname())  # closed below, so nothing listens
    with pytest.raises(TransportError) as refused:
        transport.call(refusing, Get(ObjectId(1, 1)))
    transport.close()
    with pytest.raises(TransportError) as closed:
        transport.call(hung_up, Get(ObjectId(1, 1)))
    for caught, endpoint, text in [(mid_frame, hung_up, "call to {} failed: connection closed mid-frame"),
                                   (refused, refusing, "cannot connect to {}: "),
                                   (closed, hung_up, "transport closed: no call to {}")]:
        assert caught.value.endpoint == endpoint
        assert str(caught.value).startswith(text.format(endpoint))


def test_concurrent_clients_get_distinct_results(tcp_node):
    subject = tcp_node.table.export(100)

    def one_map(_):
        client = Node.tcp()
        try:
            handle = client._materialize(RemoteRefDescriptor(tcp_node.endpoint, subject.id))
            result = handle.map(client.stage("inc"))
            assert result.get() == 101
            return result.descriptor.id
        finally:
            client.close()

    with ThreadPoolExecutor(max_workers=6) as pool:
        ids = list(pool.map(one_map, range(12)))
    assert len(set(ids)) == 12


# -- exported values are hosted as their rv1 bytes ------------------------------


def _append_seven(subject, args, ctx):
    subject.append(7)
    return PlainValue(len(subject))


def _pair(transport):
    if transport == "loopback":
        network = LoopbackNetwork()
        server, client = Node.loopback(network), Node.loopback(network)
    else:
        server, client = Node.tcp(), Node.tcp()
    server.registry.register("append_seven", 0, _append_seven)
    return server, client


@pytest.fixture(params=["loopback", "tcp"])
def pair(request):
    server, client = _pair(request.param)
    yield server, client
    client.close()
    server.close()


def _kept(table, object_id):
    """The Export payload the table still keeps for ``object_id``, or None once decoded."""
    hosted = table.hosted(object_id)
    return hosted.payload if type(hosted) is Encoded else None


@pytest.fixture(scope="module", params=["loopback", "tcp"])
def shared_pair(request):
    server, client = _pair(request.param)
    yield server, client
    client.close()
    server.close()


@given(value=values)
@settings(max_examples=60, deadline=None)
def test_export_then_get_answers_the_exported_bytes(shared_pair, value):
    server, client = shared_pair
    payload = encode_value(value)
    exported = client.transport.call(server.endpoint, Export(payload))
    reply = client.transport.call(server.endpoint, Get(exported.descriptor.id))
    assert reply == RespValue(payload)
    assert _kept(server.table, exported.descriptor.id) == payload  # not decoded


def test_get_of_kept_bytes_counts_one_serialization_and_one_get(pair):
    server, client = pair
    handle = client.export_to(server.endpoint, [1.5, 2.5])
    assert handle.stats() == (0, 0)
    assert handle.get() == [1.5, 2.5]
    assert handle.stats() == (1, 1)


def test_concurrent_gets_count_exactly_and_keep_the_exported_bytes(tcp_pair):
    server, client = tcp_pair
    payload = encode_value(list(range(100)))
    target = client.transport.call(server.endpoint, Export(payload)).descriptor.id
    threads, gets = 6, 50
    barrier = threading.Barrier(threads)

    def get_many(_):
        transport = _own_transport(client)  # a connection, and a host thread, each
        try:
            barrier.wait(timeout=5)
            return [transport.call(server.endpoint, Get(target)) for _ in range(gets)]
        finally:
            transport.close()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        replies = [reply for replies in pool.map(get_many, range(threads)) for reply in replies]
    assert replies == [RespValue(payload)] * (threads * gets)
    assert client.transport.call(server.endpoint, Stats(target)) == RespStats(300, 300)
    assert _kept(server.table, target) == payload  # not a decoded copy


def test_get_after_a_map_encodes_the_decoded_object(pair):
    server, client = pair
    handle = client.export_to(server.endpoint, [1, 2])
    assert handle.map(client.stage("append_seven")).get() == 3
    assert _kept(server.table, handle.descriptor.id) is None  # the bytes went when the map decoded them
    assert handle.get() == [1, 2, 7]  # the body's mutation, not the exported bytes
    assert handle.stats() == (1, 1)


def test_a_body_that_returns_a_payload_is_hosted_as_that_object(pair):
    server, client = pair
    forged = ValuePayload(CODEC_RV1, b"\xff")  # not rv1: it must never reach a Get as bytes
    server.registry.register("forge", 0, lambda subject, args, ctx: PlainValue(forged))
    handle = client.export_to(server.endpoint, 1).map(Stage("forge"))
    assert _kept(server.table, handle.descriptor.id) is None
    assert server.table.value(handle.descriptor.id) is forged
    with pytest.raises(NotSerializableError):
        handle.get()


def _own_transport(client):
    if isinstance(client.transport, LoopbackTransport):
        return LoopbackTransport(client.transport.network)
    return TcpTransport()


def test_requests_that_decode_together_share_one_object(pair, monkeypatch):
    server, client = pair
    handle = client.export_to(server.endpoint, list(range(1000)))
    subjects = []
    server.registry.register(
        "keep_subject", 0, lambda subject, args, ctx: subjects.append((subject, ctx)) or PlainValue(0)
    )
    decodes = []
    decode_value = remotable.protocol.decode_value

    def slow_decode(payload):
        decodes.append(payload)
        time.sleep(0.05)  # the other requests reach the entry while this one decodes
        return decode_value(payload)

    monkeypatch.setattr(remotable.protocol, "decode_value", slow_decode)
    threads = 6
    barrier = threading.Barrier(threads)
    request = Map(handle.descriptor.id, _pipeline(Stage("keep_subject")))

    def map_once(_):
        transport = _own_transport(client)
        try:
            barrier.wait(timeout=5)
            return transport.call(server.endpoint, request)
        finally:
            transport.close()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        replies = list(pool.map(map_once, range(threads)))
    assert all(isinstance(reply, RespDescriptor) for reply in replies)
    assert len(decodes) == 1
    first = subjects[0][0]
    assert first == list(range(1000))
    assert all(subject is first and ctx.subject_value is first for subject, ctx in subjects)
    assert len(subjects) == threads


@pytest.mark.parametrize(
    "payload",
    [
        DEEP_PAYLOAD,
        ValuePayload(CODEC_RV1, encode_value([1, 2, 3]).data[:-1]),
        ValuePayload(CODEC_RV1, encode_value(1).data + b"\x00"),
        ValuePayload("rv2", encode_value(1).data),
    ],
    ids=["deep", "truncated", "trailing", "codec"],
)
def test_hostile_export_is_a_protocol_error_and_hosts_nothing(pair, payload):
    server, client = pair
    before = len(server.table)
    reply = client.transport.call(server.endpoint, Export(payload))
    assert reply.code == ErrorCode.PROTOCOL_ERROR
    assert len(server.table) == before


# -- an Export is checked exactly as decode_value would check it --------------

# Each value's encoding is corrupted at every truncation and at every byte
# replaced by 0xFF. The int and float lists sit on both sides of
# BULK_MIN_FIXED, and the texts put 2-, 3- and 4-byte characters at the
# edges of their elements.
EXPORT_VALUES = {
    "ints_short": [1, -2, 2**62],
    "ints_bulk": list(range(-4, 5)),
    "floats_short": [0.5, -1e300],
    "floats_bulk": [k / 3 for k in range(8)],
    "bools": [True, False, True],
    "nested": [[1, 2], [], [3]],
    "nested_texts": [["é"], ["€", ""]],
    "empty": [],
    "blob": b"\x00\xff\x80",
    "empty_blob": b"",
    "texts": ["é", "€a", "a😀", "😀€é", "", "x"],
    "text": "a€😀",
}


def _text_list(*bodies):
    out = bytearray(b"\x06" + len(bodies).to_bytes(4, "big"))
    for body in bodies:
        out += b"\x04" + len(body).to_bytes(4, "big") + body
    return ValuePayload(CODEC_RV1, bytes(out))


# Every element is cut inside one character, though the bodies joined are
# valid UTF-8.
SPLIT_CHARACTERS = {
    "two_byte": _text_list(b"\xc3", b"\xa9"),
    "three_byte": _text_list(b"a\xe2\x82", b"\xac"),
    "four_byte": _text_list(b"\xf0\x9f", b"\x98", b"\x80"),
    "after_empty": _text_list(b"\xc3", b"", b"\xa9b"),
}


def _corruptions(data):
    for end in range(len(data)):
        yield data[:end]
    for index in range(len(data)):
        yield data[:index] + b"\xff" + data[index + 1:]


def _assert_export_checks_like_decode_value(node, payload):
    try:
        decode_value(payload)
    except ProtocolError as exc:
        expected = RespError(int(ErrorCode.PROTOCOL_ERROR), str(exc))
    else:
        expected = None
    before = len(node.table)
    reply = node.host.dispatch(Export(payload))
    if expected is None:
        assert _kept(node.table, reply.descriptor.id) == payload
    else:
        assert reply == expected, payload.data
        assert len(node.table) == before


@pytest.mark.parametrize("value", EXPORT_VALUES.values(), ids=EXPORT_VALUES.keys())
def test_export_of_corrupted_bytes_answers_what_decode_value_raises(node, value):
    for data in _corruptions(encode_value(value).data):
        _assert_export_checks_like_decode_value(node, ValuePayload(CODEC_RV1, data))


@pytest.mark.parametrize("payload", SPLIT_CHARACTERS.values(), ids=SPLIT_CHARACTERS.keys())
def test_export_of_a_character_split_across_texts_is_rejected(node, payload):
    with pytest.raises(ProtocolError, match="bad UTF-8 in text"):
        decode_value(payload)
    _assert_export_checks_like_decode_value(node, payload)


def test_export_builds_no_value(node):
    value = list(range(100_000))
    payload = encode_value(value)
    request = Export(payload)
    tracemalloc.start()
    try:
        built = decode_value(payload)
        _, build_peak = tracemalloc.get_traced_memory()
        del built
        tracemalloc.reset_peak()
        reply = node.host.dispatch(request)
        _, export_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(reply, RespDescriptor)
    assert build_peak > 3_600_000  # the list and its ints alone take about 3.6 MB
    assert export_peak < build_peak / 10


# -- Rebind binds only values hosted here -------------------------------------


def test_rebind_naming_another_endpoint_is_unknown_even_when_the_id_is_here(node):
    local = node.table.export(5)
    elsewhere = RemoteRefDescriptor(EndpointAddr("elsewhere", 9), local.id)
    response = node.host.dispatch(Rebind("x", elsewhere))
    assert response.code == ErrorCode.UNKNOWN_OBJECT
    assert node.host.dispatch(Lookup("x")).code == ErrorCode.NOT_FOUND


def test_rebind_naming_another_endpoint_over_the_wire(pair):
    server, client = pair
    local = server.table.export(5)
    elsewhere = RemoteRefDescriptor(client.endpoint, local.id)
    reply = client.transport.call(server.endpoint, Rebind("x", elsewhere))
    assert reply.code == ErrorCode.UNKNOWN_OBJECT
    assert client.transport.call(server.endpoint, Lookup("x")).code == ErrorCode.NOT_FOUND
    home = RemoteRefDescriptor(server.endpoint, local.id)
    assert client.transport.call(server.endpoint, Rebind("x", home)) == RespAck()


def _threads_left(before, within_s):
    """Threads started since ``before`` that are still alive ``within_s`` from now."""
    deadline = time.monotonic() + within_s
    while True:
        left = [t for t in threading.enumerate() if t not in before]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.01)


def test_closing_a_tcp_node_ends_the_connections_it_serves():
    server, client = Node.tcp(), Node.tcp()
    try:
        before = set(threading.enumerate())
        handle = client.export_to(server.endpoint, 5)
        assert handle.get() == 5  # the connection is open and served
        server.close()
        with pytest.raises(TransportError):
            handle.map(client.stage("inc")).get()
        assert _threads_left(before, 1.0) == []
    finally:
        client.close()
        server.close()


def test_first_calls_that_race_to_connect_share_one_channel():
    server = Node.tcp()
    transport = TcpTransport()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            calls = [pool.submit(transport.call, server.endpoint, Lookup("missing"))
                     for _ in range(32)]
            replies = [call.result(timeout=10) for call in calls]
        assert {reply.code for reply in replies} == {ErrorCode.NOT_FOUND}
        assert list(transport._channels) == [server.endpoint]
        # each losing connect was closed, so the host is left serving one channel
        deadline = time.monotonic() + 2.0
        while len(server._server._channels) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server._server._channels) == 1
    finally:
        sys.setswitchinterval(interval)
        transport.close()
        server.close()


def test_a_transport_closed_while_it_connects_keeps_no_channel(monkeypatch):
    transport = TcpTransport()
    connect = socket.create_connection
    made = []

    def connect_then_close(*args, **kwargs):
        made.append(connect(*args, **kwargs))
        transport.close()
        return made[-1]

    monkeypatch.setattr(remotable.transport.socket, "create_connection", connect_then_close)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        endpoint = EndpointAddr(*listener.getsockname())
        with pytest.raises(TransportError) as refused:
            transport.call(endpoint, Lookup("x"))
    assert str(refused.value) == f"transport closed: no call to {endpoint}"
    assert refused.value.endpoint is endpoint
    assert made[0].fileno() == -1  # the fresh socket is closed
    assert transport._channels == {}


def test_a_host_restarted_on_its_port_binds_and_its_old_client_reconnects():
    server, client = Node.tcp(), Node.tcp()
    try:
        handle = client.export_to(server.endpoint, 5)
        assert handle.get() == 5  # the client's connection to the old host is open
        server.close()
        # the old host's connections linger in TIME_WAIT; the port binds anyway
        server = Node.tcp(port=server.endpoint.port)
        assert server.endpoint == handle.descriptor.endpoint
        with pytest.raises(TransportError) as lost:
            handle.get()  # on the connection the old host ended
        assert lost.value.endpoint == server.endpoint
        with pytest.raises(UnknownObjectError):
            handle.get()  # a new connection, to a new incarnation
    finally:
        client.close()
        server.close()


def test_closing_a_tcp_transport_ends_a_call_to_a_silent_peer():
    transport = TcpTransport()
    out = {}

    def run():
        try:
            transport.call(endpoint, Get(ObjectId(1, 1)))
        except TransportError as exc:
            out["error"] = exc

    with socket.socket() as listener:  # accepts, and never answers
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        endpoint = EndpointAddr("127.0.0.1", listener.getsockname()[1])
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(0.2)
        assert worker.is_alive()
        transport.close()
        worker.join(1.0)
        assert not worker.is_alive(), "the call still waits 1 s after close()"
    assert isinstance(out.get("error"), TransportError)
