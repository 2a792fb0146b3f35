"""Golden outcomes of decoding corrupted Map and FlatMap frames.

The same corruptions as ``test_hostile_frames.py`` (every truncation, every
0xFF byte), applied to pipeline frames of shapes the conformance samples do
not have: the benchmark's one-stage ``add``, a stage with no captures, inline
captures of every rv1 kind, empty and nested lists, a non-ASCII fn id, and a
longer pipeline mixing inline and reference captures. ``hostile_pipelines.json``
pins each outcome. The pipeline reader names each fault where it finds it,
and an inline capture's fault by reading that capture's payload alone; these
tables, and the forged frames below for faults no corruption reaches, pin
every such error text and offset.

Regenerate the table (only when an error text is meant to change) with:

    PYTHONPATH=src python tests/test_hostile_pipelines.py
"""
import functools
import json
import re
from pathlib import Path

import pytest

from remotable import ProtocolError
from remotable.model import EndpointAddr, ObjectId, RemoteRefDescriptor
from remotable.protocol import FlatMap, Map, decode_frame, encode_message, encode_value
from remotable.shipping import InlineValue, RemoteRef, ShippedFn, Stage

from test_hostile_frames import TABLE as FRAMES_TABLE, corrupted_frames, outcome
from test_protocol import assert_constructors_accept

TABLE = Path(__file__).with_name("hostile_pipelines.json")

_TARGET = ObjectId(0x1234, 9)
_REF = RemoteRef(RemoteRefDescriptor(EndpointAddr("loop", 2), ObjectId(5, 1)))


def _one(fn_id, *captures):
    return ShippedFn((Stage(fn_id, tuple(map(InlineValue, captures))),))


PIPELINE_SAMPLES = {
    "add-int": Map(_TARGET, _one("add", 3)),
    "no-captures": FlatMap(_TARGET, _one("identity")),
    "scalars": Map(_TARGET, _one("mix", 2.5, True, "é€😀", b"\x00\xff")),
    "lists": Map(_TARGET, _one("zip", [], [[1, 2], [], [3]])),
    "non-ascii-fn": FlatMap(_TARGET, _one("größe", 7)),
    "mixed-stages": FlatMap(_TARGET, ShippedFn((
        Stage("inc"),
        Stage("add", (InlineValue(-1), _REF)),
        Stage("pair_equals_outer", (_REF,)),
        Stage("mul", (InlineValue(2),)),
    ))),
}


def _cases(name):
    return corrupted_frames(name, PIPELINE_SAMPLES[name])


@functools.cache
def _golden():
    return json.loads(TABLE.read_text())


def test_table_covers_every_case():
    every = [case for name in PIPELINE_SAMPLES for case, _ in _cases(name)]
    assert sorted(_golden()) == sorted(every)


@pytest.mark.parametrize("name", PIPELINE_SAMPLES)
def test_corrupted_pipeline_outcomes_are_pinned(name):
    outcomes = {case: outcome(frame) for case, frame in _cases(name)}
    assert outcomes == {case: _golden()[case] for case in outcomes}
    assert {kind for kind, _ in outcomes.values()} <= {"ok", ProtocolError.__name__}


@pytest.mark.parametrize("name", PIPELINE_SAMPLES)
def test_corrupted_pipeline_outcomes_hold_when_decoded_again(name):
    # the second decoding meets every pipeline the first ones remembered, so a
    # fault must still be found and named where it is, at the same offset
    golden = _golden()
    for case, frame in _cases(name):
        assert outcome(frame) == outcome(frame) == golden[case], case


# Faults that no corruption above reaches, forged into the two-capture ``add``
# frame below. Body offsets: stage count 17, fn id 19, capture 0 at 29 (codec
# name length 30, payload length 35, value 39), capture 1 at 48, end 67.
_FORGED_FROM = Map(_TARGET, _one("add", 3, 4))


def _forged(at, cut, insert):
    """_FORGED_FROM's frame with ``cut`` body bytes at ``at`` replaced by ``insert``."""
    body = encode_message(_FORGED_FROM)[4:]
    body = body[:at] + insert + body[at + cut:]
    return len(body).to_bytes(4, "big") + body


FORGED = {
    "payload-trailing-byte": (
        _forged(35, 13, (10).to_bytes(4, "big") + encode_value(3).data + b"\0"),
        "stage 0 capture 0: 1 trailing bytes after value"),
    "payload-short": (_forged(35, 4, (8).to_bytes(4, "big")),
                      "stage 0 capture 0: short body: need 8 bytes at offset 1, have 7"),
    "payload-long": (_forged(35, 4, (18).to_bytes(4, "big")),
                     "stage 0 capture 0: 9 trailing bytes after value"),
    "codec-name-long": (_forged(30, 2, (4).to_bytes(2, "big")),
                        "short body: need 2305 bytes at offset 40, have 27"),
    "no-stages": (_forged(17, 2, (0).to_bytes(2, "big")), "empty pipeline at offset 17"),
    "fn-id-list-tag": (_forged(19, 1, b"\x06"), "unknown value tag 0x61 at offset 24"),
    # cut inside an int capture's 8 value bytes, after its head: the one-step
    # int read does not apply, and the capture's payload is read alone
    "int-capture-cut": (_forged(44, 23, b""), "short body: need 9 bytes at offset 39, have 5"),
    "second-int-capture-cut": (_forged(63, 4, b""),
                               "short body: need 9 bytes at offset 58, have 5"),
}


@pytest.mark.parametrize("case", FORGED)
def test_forged_pipeline_faults_are_named(case):
    frame, text = FORGED[case]
    with pytest.raises(ProtocolError, match=f"^{re.escape(text)}$"):
        decode_frame(frame)


@pytest.mark.parametrize("table", [FRAMES_TABLE, TABLE], ids=lambda table: table.stem)
def test_decoded_objects_pass_their_constructors(table):
    decoded = [decode_frame(bytes.fromhex(frame))
               for kind, frame in json.loads(table.read_text()).values() if kind == "ok"]
    assert decoded
    for message in decoded:
        assert_constructors_accept(message)


if __name__ == "__main__":
    TABLE.write_text(json.dumps(
        {case: outcome(frame) for name in PIPELINE_SAMPLES for case, frame in _cases(name)},
        indent=0, sort_keys=True) + "\n")
