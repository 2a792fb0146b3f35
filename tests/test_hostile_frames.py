"""Golden outcomes of decoding corrupted conformance frames.

Every frame of CONFORMANCE_SAMPLES is corrupted two ways: its body cut short
at every length (with the length prefix rewritten to match), and each of its
bytes in turn replaced by 0xFF. ``hostile_frames.json`` holds the outcome of
``decode_frame`` on each case, an error's class name and text or the
re-encoded frame of a message that still decodes. The table pins the byte
offsets and wording of every decode error, and shows that hostile input only
ever raises ProtocolError. Each case is also sent over TCP to a host, which
must answer it as ``Host.handle_frame`` does in process.

Regenerate the table (only when an error text is meant to change) with:

    PYTHONPATH=src python tests/test_hostile_frames.py
"""
import functools
import json
import socket
import struct
from pathlib import Path

import pytest

from remotable import ErrorCode, Node, ProtocolError, encode_message
from remotable.protocol import Lookup, RespError, decode_frame
from remotable.transport import read_frame

from test_acceptance import CONFORMANCE_SAMPLES

TABLE = Path(__file__).with_name("hostile_frames.json")


def corrupted_frames(name, message):
    """(case id, corrupted frame) for every truncation and every 0xFF byte."""
    frame = encode_message(message)
    body = frame[4:]
    for length in range(len(body)):
        yield f"{name}/cut{length}", struct.pack(">I", length) + body[:length]
    for pos in range(len(frame)):
        yield f"{name}/ff{pos}", frame[:pos] + b"\xff" + frame[pos + 1:]


def _cases(index):
    message = CONFORMANCE_SAMPLES[index]
    return corrupted_frames(f"{index}-{type(message).__name__}", message)


def _all_cases():
    for index in range(len(CONFORMANCE_SAMPLES)):
        yield from _cases(index)


def outcome(frame):
    try:
        message = decode_frame(frame)
    except Exception as exc:  # any class is recorded, so a stray one shows
        return [type(exc).__name__, str(exc)]
    return ["ok", encode_message(message).hex()]


@functools.cache
def _golden():
    return json.loads(TABLE.read_text())


def test_table_covers_every_case():
    assert sorted(_golden()) == sorted(case for case, _ in _all_cases())


@pytest.mark.parametrize(
    "index", range(len(CONFORMANCE_SAMPLES)),
    ids=[type(message).__name__ for message in CONFORMANCE_SAMPLES],
)
def test_corrupted_frame_outcomes_are_pinned(index):
    outcomes = {case: outcome(frame) for case, frame in _cases(index)}
    assert outcomes == {case: _golden()[case] for case in outcomes}
    assert {kind for kind, _ in outcomes.values()} <= {"ok", ProtocolError.__name__}


# A stream cannot tell a frame whose prefix claims more bytes than follow
# from one still arriving: such a case gets no reply, only a close at EOF.
LENGTH_MISMATCH = ["ProtocolError", "frame length does not match its declared body"]


@pytest.mark.parametrize(
    "index", range(len(CONFORMANCE_SAMPLES)),
    ids=[type(message).__name__ for message in CONFORMANCE_SAMPLES],
)
def test_corrupted_frames_over_tcp_get_the_loopback_reply(index):
    node = Node.tcp()
    address = (node.endpoint.host, node.endpoint.port)
    try:
        for case, frame in _cases(index):
            with socket.create_connection(address, timeout=5) as sock:
                sock.sendall(frame)
                if _golden()[case] == LENGTH_MISMATCH:
                    sock.shutdown(socket.SHUT_WR)
                    assert sock.recv(1) == b"", case
                    continue
                want = decode_frame(node.host.handle_frame(frame))
                got = decode_frame(read_frame(sock))
                assert type(got) is type(want), case
                if isinstance(want, RespError):
                    assert (got.code, got.text) == (want.code, want.text), case
                if isinstance(want, RespError) and want.code == ErrorCode.PROTOCOL_ERROR:
                    assert sock.recv(1) == b"", case  # closed right after the reply
                else:  # still open: a next request is answered
                    sock.sendall(encode_message(Lookup("ghost")))
                    after = decode_frame(read_frame(sock))
                    assert after.code == ErrorCode.NOT_FOUND, case
    finally:
        node.close()


if __name__ == "__main__":
    TABLE.write_text(json.dumps({case: outcome(frame) for case, frame in _all_cases()},
                                indent=0, sort_keys=True) + "\n")
