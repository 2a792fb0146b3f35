"""Long endpoint texts from a peer pin no memory in the codec's memos.

A peer may name any endpoint: in a Rebind, in a Map's reference capture, or
in the reply to a flat_map whose function hands back a reference it was
given. The codec parses and renders each distinct endpoint text once and
remembers it, but each memo is bounded by bytes (protocol.MEMO_BYTES) and
keeps no entry larger than that budget. So distinct 1 MiB hosts sent down
every one of these paths, on either transport, leave each memo within its
budget and the process holding no more than a few MB afterwards.
"""
import gc
import tracemalloc

import pytest

from remotable import EndpointAddr, ErrorCode, ObjectId, RemoteRef, RemoteRefDescriptor, ShippedFn, Stage
from remotable.protocol import MEMO_BYTES, Map, Rebind, RespError

from helpers import MEMOS, charged

HOSTS_PER_PATH = 6
HOST_BYTES = 1 << 20


def _far(tag, i):
    """A reference to an endpoint with a distinct host of about HOST_BYTES."""
    return RemoteRefDescriptor(EndpointAddr(f"{tag}{i}-" + "x" * HOST_BYTES, 1), ObjectId(1, 1))


def _refused(reply, code):
    assert isinstance(reply, RespError) and reply.code == code, reply


@pytest.mark.parametrize("pair", ["loop_pair", "tcp_pair"])
def test_distinct_long_hosts_keep_every_memo_within_its_budget(pair, request):
    server, client = request.getfixturevalue(pair)
    target = client.export_to(server.endpoint, 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(HOSTS_PER_PATH):
            # read, then refused: a name binds only a value hosted at the server
            reply = client.transport.call(server.endpoint, Rebind("far", _far(f"{pair}-rebind", i)))
            _refused(reply, ErrorCode.UNKNOWN_OBJECT)
            # read, then refused: a Map's function must yield a plain value
            stage = Stage("const_ref", (RemoteRef(_far(f"{pair}-map", i)),))
            reply = client.transport.call(server.endpoint, Map(target.descriptor.id, ShippedFn((stage,))))
            _refused(reply, ErrorCode.CONTRACT_VIOLATION)
            # written and read both ways: in the request and in its reply
            far = _far(f"{pair}-flat_map", i)
            assert client.flat_map(target, client.stage("const_ref", far)).descriptor == far
            del far, stage
            for memo in MEMOS:
                assert charged(memo) <= MEMO_BYTES
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # each host, held once anywhere, would take 1 MiB; eighteen were sent
    assert held < 4_000_000
