"""Golden outcomes of decoding corrupted conformance frames.

Every frame of CONFORMANCE_SAMPLES is corrupted two ways: its body cut short
at every length (with the length prefix rewritten to match), and each of its
bytes in turn replaced by 0xFF. ``hostile_frames.json`` holds the outcome of
``decode_frame`` on each case, an error's class name and text or the
re-encoded frame of a message that still decodes. The table pins the byte
offsets and wording of every decode error, and shows that hostile input only
ever raises ProtocolError.

Regenerate the table (only when an error text is meant to change) with:

    PYTHONPATH=src python tests/test_hostile_frames.py
"""
import functools
import json
import struct
from pathlib import Path

import pytest

from remotable import ProtocolError, encode_message
from remotable.protocol import decode_frame

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


if __name__ == "__main__":
    TABLE.write_text(json.dumps({case: outcome(frame) for case, frame in _all_cases()},
                                indent=0, sort_keys=True) + "\n")
