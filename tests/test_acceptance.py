"""The package's acceptance checks, one test per numbered criterion.

Each criterion prints a PASS/FAIL line in the terminal summary (see conftest).
These deliberately re-walk the headline behaviors end to end: monad laws over
real transports, the demo session semantics, locality counters, the
serializability boundary, async and deferred contracts, and wire conformance
including a cross-process run.
"""
import random
import re
import subprocess
import sys
import time

import pytest

from remotable import (
    AsyncHandle,
    DeferredHandle,
    EndpointAddr,
    InlineValue,
    LoopbackNetwork,
    Node,
    NotSerializableError,
    ObjectId,
    RemoteRef,
    RemoteRefDescriptor,
    ShippedFn,
    Stage,
    decode_message,
    encode_message,
    encode_value,
)
from remotable.funcs import OP_INC, OP_MUL, run_int_pipeline
from remotable.protocol import (
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
)

from helpers import random_ops, stages_for_ops, stall_at_fabric

HANDLE_SHAPE = re.compile(r"^remote\[endpoint=[^ ]+:\d+ id=[0-9a-f]{16}:\d+\]$")


def _int_ops(rng, max_len=4):
    """Random pipelines over the integer stage set {inc, mul(k)} only."""
    ops = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.5:
            ops.extend([OP_INC, 0])
        else:
            ops.extend([OP_MUL, rng.randint(-5, 5)])
    return ops


def _check_laws(server, client, rng, rounds):
    for _ in range(rounds):
        x = rng.randint(-100, 100)
        f_ops = _int_ops(rng)
        g_ops = _int_ops(rng)
        rx = client.export_to(server.endpoint, x)

        pure = client.stage("pure")
        f = client.stage("kleisli_int", f_ops)
        g = client.stage("kleisli_int", g_ops)
        f_then_g = client.stage("kleisli_int_then", f_ops, g_ops)

        fx = run_int_pipeline(f_ops, x)
        assert rx.flat_map(pure).flat_map(f).get() == fx
        assert rx.flat_map(f).flat_map(pure).get() == rx.flat_map(f).get() == fx
        assert (
            rx.flat_map(f).flat_map(g).get()
            == rx.flat_map(f_then_g).get()
            == run_int_pipeline(g_ops, fx)
        )


def test_criterion_1_monad_laws_on_both_transports():
    started = time.monotonic()
    rng = random.Random(2024)

    network = LoopbackNetwork()
    server = Node.loopback(network)
    client = Node.loopback(network)
    try:
        _check_laws(server, client, rng, rounds=200)
    finally:
        client.close()
        server.close()

    server = Node.tcp()
    client = Node.tcp()
    try:
        _check_laws(server, client, rng, rounds=200)
    finally:
        client.close()
        server.close()

    assert time.monotonic() - started < 60


def _lifted_stages(client, rng):
    """One to three random stages of the lifted map functions inc, add and mul."""
    stages = []
    for _ in range(rng.randint(1, 3)):
        fn_id = rng.choice(("inc", "add", "mul"))
        captures = () if fn_id == "inc" else (rng.randint(-9, 9),)
        stages.append(client.stage(fn_id, *captures))
    return stages


def _check_functor_laws(server, client, rng, rounds):
    identity = client.stage("identity")
    for _ in range(rounds):
        rx = client.export_to(server.endpoint, rng.randint(-100, 100))
        f = ShippedFn(tuple(_lifted_stages(client, rng)))
        g = ShippedFn(tuple(_lifted_stages(client, rng)))
        assert rx.map(identity).get() == rx.get()
        assert rx.map(f).map(g).get() == rx.map(ShippedFn(f.stages + g.stages)).get()


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_functor_laws_for_lifted_map_functions(transport):
    rng = random.Random(2025)
    if transport == "loopback":
        network = LoopbackNetwork()
        server, client = Node.loopback(network), Node.loopback(network)
    else:
        server, client = Node.tcp(), Node.tcp()
    try:
        _check_functor_laws(server, client, rng, rounds=100)
    finally:
        client.close()
        server.close()


def test_criterion_2_session_reproduction(loop_pair):
    server, client = loop_pair
    server.rebind("obj", server.new_token())

    # single object: map to its rendering, then force
    ra = client.lookup(server.endpoint, "obj")
    unforced = ra.map(client.stage("to_text"))
    printed = repr(unforced)
    assert HANDLE_SHAPE.match(printed), printed
    assert "token" not in printed  # the value itself never leaks into the rendering
    assert unforced.get() == "token#1"

    # two co-located objects: composed equality forces to false
    seed = client.export_to(server.endpoint, 0)
    rb = seed.map(client.stage("new_token"))
    rc = ra.flat_map(client.stage("pair_equals_outer", rb))
    assert rc.get() is False


def test_criterion_3_locality_switch_controls_serialization(loop_pair):
    started = time.monotonic()

    def run(locality):
        network = LoopbackNetwork()
        server = Node.loopback(network, locality_replacement=locality)
        client = Node.loopback(network)
        try:
            ra = client.export_to(server.endpoint, 5)
            rb = client.export_to(server.endpoint, 7)
            rc = ra.flat_map(client.stage("pair_equals_outer", rb))
            assert rc.get() is False
            # read through the wire-visible Stats request, not the table
            serializations, _ = ra.stats()
            return serializations
        finally:
            client.close()
            server.close()

    assert run(locality=True) == 0
    assert run(locality=False) >= 1
    assert time.monotonic() - started < 5


def test_criterion_4_serializability_matters_only_at_get(loop_pair):
    server, client = loop_pair
    server.rebind("tok", server.new_token())
    base = client.lookup(server.endpoint, "tok")

    for length in range(1, 11):
        handle = base
        for step in range(length):
            if step % 2 == 0:
                handle = handle.map(client.stage("identity"))
            else:
                handle = handle.flat_map(client.stage("pure"))
        # the chain itself never needed the value's bytes
        assert handle.descriptor.endpoint == server.endpoint
        with pytest.raises(NotSerializableError):
            handle.get()
        # and the value is still intact behind the reference
        assert handle.map(client.stage("to_text")).get() == "token#1"


def test_criterion_5_async_equivalence_and_non_blocking():
    rng = random.Random(99)
    network = LoopbackNetwork()
    server = Node.loopback(network)
    client = Node.loopback(network)
    try:
        for _ in range(100):
            x = rng.randint(-100, 100)
            ops = random_ops(rng, min_len=1)
            sync_h = client.export_to(server.endpoint, x)
            async_h = AsyncHandle.wrap(sync_h)
            for stage in stages_for_ops(ops):
                sync_h = sync_h.map(stage)
                async_h = async_h.map(stage)
            assert async_h.force(30) == sync_h.get()
    finally:
        client.close()
        server.close()

    # composition must return immediately even when every call stalls 200 ms
    network = LoopbackNetwork()
    server = Node.loopback(network)
    slow_client = Node.loopback(network)
    stall_at_fabric(network, server, 0.2)
    try:
        server.rebind("n", 1)
        handle = slow_client.lookup(server.endpoint, "n")  # pays one stall up front
        wrapped = AsyncHandle.wrap(handle)
        started = time.perf_counter()
        for _ in range(10):
            wrapped = wrapped.map(slow_client.stage("inc"))
        future = wrapped.get()
        compose_elapsed = time.perf_counter() - started
        value = future.result(60)
        force_elapsed = time.perf_counter() - started
        assert compose_elapsed < 0.05, f"composition blocked for {compose_elapsed:.3f}s"
        assert force_elapsed >= 0.2
        assert value == 11
    finally:
        slow_client.close()
        server.close()


@pytest.mark.parametrize("n", [0, 1, 5, 20])
def test_criterion_6_deferred_frame_economy(n, loop_pair):
    server, client = loop_pair
    rng = random.Random(n)
    x = rng.randint(-50, 50)
    ops = random_ops(rng, min_len=n, max_len=n)
    assert len(ops) == 2 * n
    stages = stages_for_ops(ops)
    expected = run_int_pipeline(ops, x)
    base = client.export_to(server.endpoint, x)

    # eager mirror: one map per stage plus the identity the wrapper ships
    maps_before = client.transport.frame_counts["Map"]
    gets_before = client.transport.frame_counts["Get"]
    eager = base.map(client.stage("identity"))
    for stage in stages:
        eager = eager.map(stage)
    assert eager.get() == expected
    assert client.transport.frame_counts["Map"] - maps_before == n + 1
    assert client.transport.frame_counts["Get"] - gets_before == 1

    deferred = DeferredHandle.wrap(base)
    for stage in stages:
        deferred = deferred.map(stage)
    frames_before = client.transport.request_frames
    assert deferred.get() == expected
    assert client.transport.request_frames - frames_before == 2


_DESCRIPTOR = RemoteRefDescriptor(EndpointAddr("10.0.0.1", 7099), ObjectId(77, 3))
_PIPELINE = ShippedFn(
    (Stage("kleisli_int", (InlineValue([0, 0, 1, 3]),)),
     Stage("pair_equals_outer", (RemoteRef(_DESCRIPTOR),)))
)
CONFORMANCE_SAMPLES = [
    Rebind("obj", _DESCRIPTOR),
    Lookup("obj"),
    Map(_DESCRIPTOR.id, _PIPELINE),
    FlatMap(_DESCRIPTOR.id, _PIPELINE),
    Get(_DESCRIPTOR.id),
    Export(encode_value("five")),
    Stats(_DESCRIPTOR.id),
    RespDescriptor(_DESCRIPTOR),
    RespValue(encode_value([1, 2, 3])),
    RespStats(0, 2),
    RespAck(),
    RespError(3, "frobnicate is not registered"),
]

# Whole frames (length prefix, tag, fields) of CONFORMANCE_SAMPLES, in order.
# A round trip alone would not notice a swapped tag or a reordered field.
_PIPELINE_HEX = (
    "0002040000000b6b6c6569736c695f696e7400010100037276310000002906000000040100"
    "000000000000000100000000000000000100000000000000010100000000000000030400"
    "000011706169725f657175616c735f6f75746572000102040000000d31302e302e302e31"
    "3a37303939000000000000004d0000000000000003"
)
CONFORMANCE_FRAMES_HEX = [
    "000000280100036f626a040000000d31302e302e302e313a37303939"
    "000000000000004d0000000000000003",
    "000000060200036f626a",
    "0000009303000000000000004d0000000000000003" + _PIPELINE_HEX,
    "0000009304000000000000004d0000000000000003" + _PIPELINE_HEX,
    "0000001105000000000000004d0000000000000003",
    "0000001306000372763100000009040000000466697665",
    "0000001107000000000000004d0000000000000003",
    "0000002308040000000d31302e302e302e313a37303939000000000000004d0000000000000003",
    "0000002a090003727631000000200600000003010000000000000001010000000000000002"
    "010000000000000003",
    "000000110a00000000000000000000000000000002",
    "000000010b",
    "000000200c03001c66726f626e6963617465206973206e6f742072656769737465726564",
]


@pytest.mark.parametrize(
    "message, expected_hex",
    list(zip(CONFORMANCE_SAMPLES, CONFORMANCE_FRAMES_HEX)),
    ids=[type(message).__name__ for message in CONFORMANCE_SAMPLES],
)
def test_criterion_7_sample_frames_are_pinned(message, expected_hex):
    assert encode_message(message).hex() == expected_hex


def test_criterion_7_protocol_conformance_and_cross_process_run():
    for message in CONFORMANCE_SAMPLES:
        frame = encode_message(message)
        decoded, consumed = decode_message(frame)
        assert decoded == message and consumed == len(frame)
        assert encode_message(decoded) == frame  # canonical

    in_process = subprocess.run(
        [sys.executable, "-m", "remotable", "demo", "--output", "records", "--seed", "7"],
        capture_output=True,
        timeout=180,
    )
    cross_process = subprocess.run(
        [sys.executable, "-m", "remotable", "demo", "--output", "records",
         "--seed", "7", "--distributed"],
        capture_output=True,
        timeout=180,
    )
    assert in_process.returncode == 0, in_process.stderr.decode()
    assert cross_process.returncode == 0, cross_process.stderr.decode()
    assert in_process.stdout == cross_process.stdout  # bit-identical records
