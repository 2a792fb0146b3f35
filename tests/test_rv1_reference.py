"""The rv1 codec and the value, pipeline and descriptor frames, checked against a plain reference.

``rv1_reference`` is written from the wire description alone, one element at
a time, with none of the library's bulk paths or memos. Here both are given
the same generated values and frames and the same byte-level mutations of
their encodings (a flipped byte, a truncation, an extension, a splice of two
encodings, a rewritten length), and must agree: the same bytes out of every
encoder, and the same bytes accepted, as equal values, by every decoder. A
Map, FlatMap or RespDescriptor frame must also decode the same whether the
codec's memos (endpoints, rendered texts, pipelines) are cold, warm, or just
emptied at their byte budget. Only which bytes are rejected is
compared, not the error texts; ``hostile_frames.json`` and
``hostile_pipelines.json`` pin those, and every case of both tables is also
read through the reference. Hostile bytes may raise nothing but ProtocolError.
"""
import dataclasses
import math
import struct
from enum import IntEnum
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import rv1_reference as ref
from remotable import (
    NotSerializableError, ProtocolError, decode_value, encode_message, encode_value,
)
from remotable import protocol
from remotable.model import EndpointAddr, ObjectId, RemoteRefDescriptor
from remotable.protocol import (
    BULK_MIN_FIXED, CODEC_RV1, Export, FlatMap, Get, Lookup, Map, Rebind, RespAck,
    RespDescriptor, RespError, RespStats, RespValue, Stats, ValuePayload, check_value,
    decode_frame,
)
from remotable.shipping import InlineValue, RemoteRef, ShippedFn, Stage
from helpers import MEMOS, charged, set_memos
import test_hostile_frames
import test_hostile_pipelines
from test_hostile_frames import _all_cases, _golden


class Level(IntEnum):
    LOW = -(2**63)
    HIGH = 2**63 - 1


INT64_BOUNDS = [-(2**63), 2**63 - 1]
# lengths either side of where int and float lists take the bulk path
LENGTHS = [0, 1, BULK_MIN_FIXED - 1, BULK_MIN_FIXED, BULK_MIN_FIXED + 1]

ints = (st.integers(min_value=-(2**63), max_value=2**63 - 1)
        | st.sampled_from(INT64_BOUNDS + [0, -1, 2**63, -(2**63) - 1])  # out of range too
        | st.sampled_from(list(Level)))
floats = st.floats() | st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324])
# any code point, lone surrogates included, which have no UTF-8 encoding
texts = st.text(st.characters(blacklist_categories=()), max_size=6) | st.sampled_from(
    ["", "\x00", "a\x00b", "é", "λ€", "\U0001f600", "\ud800", "x\udfff"])
scalars = ints | floats | st.booleans() | texts | st.binary(max_size=8)


def _lists(elements):
    return st.lists(elements, max_size=BULK_MIN_FIXED + 2)


# Flat lists of one kind, lists of two kinds (bool and int above all), and
# lists of lists; each element kind may also hold a value with no encoding.
flat_lists = st.one_of([_lists(kind) for kind in (ints, floats, st.booleans(), texts,
                                                  st.binary(max_size=8))])
mixed_lists = _lists(st.booleans() | ints) | _lists(scalars)
values = scalars | flat_lists | mixed_lists | st.lists(flat_lists | mixed_lists, max_size=3)

EDGE_VALUES = [
    [], [7], [1] * (BULK_MIN_FIXED - 1), [1] * BULK_MIN_FIXED, [1] * (BULK_MIN_FIXED + 1),
    INT64_BOUNDS * BULK_MIN_FIXED,
    [2**63] + [0] * BULK_MIN_FIXED, [0] * BULK_MIN_FIXED + [-(2**63) - 1],
    [True] + [1] * BULK_MIN_FIXED, [1] * BULK_MIN_FIXED + [False], [True, False] * BULK_MIN_FIXED,
    [Level.HIGH] * (BULK_MIN_FIXED + 1), [0] * BULK_MIN_FIXED + [Level.LOW],
    [0.5] * (BULK_MIN_FIXED - 1) + [1], [math.nan, -0.0] * BULK_MIN_FIXED,
    ["\x00"] * BULK_MIN_FIXED, ["é", "", "\U0001f600"], ["ok", "\ud800"], "\ud800",
    "four", ["four", "five"],
    [[1] * BULK_MIN_FIXED, [2] * BULK_MIN_FIXED], [[], [[]]], [b"", b"\x00"], b"\xff" * 9,
]
REJECT = "rejected"


def _shape(value):
    """What an accepted value must equal: types exact, floats by their bits."""
    if isinstance(value, list):
        return ["list", [_shape(item) for item in value]]
    if isinstance(value, float):
        return ["float", struct.pack(">d", value)]
    return [type(value).__name__, value]


def _reference_decode(data):
    try:
        return _shape(ref.decode(data))
    except ref.Rejected:
        return REJECT


def _library_decode(data):
    payload = ValuePayload(CODEC_RV1, data)
    try:
        decoded = _shape(decode_value(payload))
    except ProtocolError as exc:
        decoded, text = REJECT, str(exc)
    try:
        check_value(payload)
    except ProtocolError as exc:
        assert decoded == REJECT and str(exc) == text
    else:
        assert decoded != REJECT
    return decoded


def _frame_outcome(read, frame):
    try:
        return read(frame)
    except (ProtocolError, ref.Rejected):
        return REJECT


def _library_frame(frame):
    message = decode_frame(frame)
    return type(message).__name__, message.payload.codec_id, message.payload.data


# Byte runs that no UTF-8 decoder may accept: an encoded surrogate, an
# overlong NUL, a code point past U+10FFFF, a stray continuation byte.
BAD_UTF8 = [b"\xed\xa0\x80", b"\xc0\x80", b"\xf4\x90\x80\x80", b"\x80", b"\xff"]


@st.composite
def mutated(draw, data, other, read=ref.decode):
    """``data`` changed the way a broken or hostile peer might change it.

    Besides blind flips, truncations, extensions and splices, the fields that
    ``read`` (the reference's value or frame reader) marks are aimed at: a tag
    byte replaced, a length moved by a few, bad UTF-8 written over a text.
    """
    how = draw(st.sampled_from(["none", "flip", "truncate", "extend", "splice", "length",
                                "retag", "relength", "utf8"]))
    if how == "none" or not data:
        return data
    marks = []
    try:
        read(data, marks)
    except ref.Rejected:  # not what ``read`` reads: only blind mutations
        marks = []
    aimed = {kind: [at for k, at in marks if k == kind]
             for kind in ("tag", "length", "text")}
    field = {"retag": "tag", "relength": "length", "utf8": "text"}.get(how)
    if field and aimed[field]:
        at = draw(st.sampled_from(aimed[field]))
        if how == "retag":
            tag = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 0xff]))
            return data[:at] + bytes([tag]) + data[at + 1:]
        if how == "utf8":
            bad = draw(st.sampled_from(BAD_UTF8))
            return data[:at] + bad + data[at + len(bad):]
        (length,) = struct.unpack_from(">I", data, at)
        length = max(0, length + draw(st.integers(min_value=-3, max_value=3)))
        return data[:at] + struct.pack(">I", length) + data[at + 4:]
    at = draw(st.integers(min_value=0, max_value=len(data) - 1))
    if how == "truncate":
        return data[:at]
    if how == "extend":
        return data + draw(st.binary(min_size=1, max_size=9))
    if how == "splice":
        return data[:at] + other[draw(st.integers(min_value=0, max_value=len(other))):]
    if how == "length":  # four bytes rewritten with a length near what the rest holds
        length = max(0, len(data) - at - 4 + draw(st.integers(min_value=-9, max_value=9)))
        return data[:at] + struct.pack(">I", length) + data[at + 4:]
    bit = draw(st.integers(min_value=0, max_value=7))
    return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1:]


def _encodings(value):
    try:
        expected = ref.encode(value)
    except ref.Unencodable:
        with pytest.raises(NotSerializableError):
            encode_value(value)
        return None
    assert encode_value(value).data == expected
    return expected


def _encodable(value):
    try:
        ref.encode(value)
    except ref.Unencodable:
        return False
    return True


EDGE_ENCODINGS = [ref.encode(value) for value in EDGE_VALUES if _encodable(value)]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=range(len(EDGE_VALUES)))
def test_edge_values_encode_and_decode_as_the_reference_does(value):
    expected = _encodings(value)
    if expected is not None:
        assert _library_decode(expected) == _reference_decode(expected) != REJECT


def _aimed_mutations(data):
    """Every tag byte replaced, every length moved by one, every text spoiled."""
    marks = []
    ref.decode(data, marks)
    for kind, at in marks:
        if kind == "tag":
            for tag in (0, 1, 2, 3, 4, 5, 6, 7, 0xff):
                yield data[:at] + bytes([tag]) + data[at + 1:]
        elif kind == "length":
            (length,) = struct.unpack_from(">I", data, at)
            for moved in (length - 1, length + 1):
                if moved >= 0:
                    yield data[:at] + struct.pack(">I", moved) + data[at + 4:]
        else:
            for bad in BAD_UTF8:
                yield data[:at] + bad + data[at + len(bad):]


def test_every_aimed_mutation_of_the_edge_values_is_read_as_the_reference_reads_it():
    for data in EDGE_ENCODINGS:
        for raw in _aimed_mutations(data):
            assert _library_decode(raw) == _reference_decode(raw), raw.hex()


@seed(2101)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(values)
def test_encode_value_gives_the_reference_bytes(value):
    _encodings(value)


@seed(2102)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_decoders_accept_and_reject_what_the_reference_does(data):
    value = data.draw(values)
    raw = data.draw(mutated(ref.encode(value) if _encodable(value) else b"",
                            data.draw(st.sampled_from(EDGE_ENCODINGS))))
    assert _library_decode(raw) == _reference_decode(raw)


@seed(2103)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_value_frames_encode_and_decode_as_the_reference_does(data):
    variant = data.draw(st.sampled_from([Export, RespValue]))
    codec_id = data.draw(st.sampled_from([CODEC_RV1, "", "x" * 300]) | st.text(max_size=5))
    payload = ValuePayload(codec_id, data.draw(st.binary(max_size=40)
                                               | st.sampled_from(EDGE_ENCODINGS)))
    frame = ref.encode_value_frame(variant.__name__, codec_id, payload.data)
    assert encode_message(variant(payload)) == frame
    other = encode_message(data.draw(st.sampled_from([Export, RespValue]))(encode_value(7)))
    raw = data.draw(mutated(frame, other))
    try:
        expected = _frame_outcome(ref.decode_value_frame, raw)
    except ref.NotCovered:  # a flipped tag made a whole frame of another variant
        _frame_outcome(decode_frame, raw)  # which may raise nothing but ProtocolError
        return
    assert _frame_outcome(_library_frame, raw) == expected


def test_golden_value_frames_read_the_same_through_the_reference():
    checked = 0
    for case, frame in _all_cases():
        try:
            read = ref.decode_value_frame(frame)
        except ref.NotCovered:
            continue
        except ref.Rejected:
            read = None
        kind, outcome = _golden()[case]
        if read is None:
            assert kind == ProtocolError.__name__, case
        else:
            assert [kind, outcome] == ["ok", ref.encode_value_frame(*read).hex()], case
        checked += 1
    assert checked > 50


# -- Map, FlatMap and RespDescriptor frames -----------------------------------

# Hosts and fn ids with and without UTF-8 encodings; an endpoint or fn id
# that has none must be refused with NotSerializableError, as by the reference.
hosts = st.sampled_from(["loop", "h.example", "10.0.0.1", "hôte", "\ud800"])
fn_ids = st.sampled_from(["inc", "add", "größe", "x\udfff"]) | st.text(min_size=1, max_size=4)
descriptors = st.tuples(hosts, st.integers(min_value=1, max_value=65535),
                        st.integers(min_value=0, max_value=2**64 - 1),
                        st.integers(min_value=1, max_value=2**64 - 1))
captures = (st.tuples(st.just("inline"), values)
            | st.tuples(st.just("ref"), descriptors))
stages = st.tuples(fn_ids, st.lists(captures, max_size=3))
object_ids = st.tuples(st.integers(min_value=0, max_value=2**64 - 1),
                       st.integers(min_value=1, max_value=2**64 - 1))
frame_reads = (st.tuples(st.sampled_from(["Map", "FlatMap"]), object_ids,
                         st.lists(stages, min_size=1, max_size=3))
               | st.tuples(st.just("RespDescriptor"), descriptors))
PIPELINE_VARIANTS = {"Map": Map, "FlatMap": FlatMap}


def _library_descriptor(descriptor):
    host, port, incarnation, serial = descriptor
    return RemoteRefDescriptor(EndpointAddr(host, port), ObjectId(incarnation, serial))


OTHER_VARIANTS = {"Rebind": Rebind, "Lookup": Lookup, "Get": Get, "Stats": Stats,
                  "RespStats": RespStats, "RespAck": RespAck, "RespError": RespError}


def _library_message(read):
    """The library's message for the reference's reading ``read``."""
    if read[0] == "RespDescriptor":
        return RespDescriptor(_library_descriptor(read[1]))
    if read[0] == "Rebind":
        return Rebind(read[1], _library_descriptor(read[2]))
    if read[0] in ("Get", "Stats"):
        return OTHER_VARIANTS[read[0]](ObjectId(*read[1]))
    if read[0] in OTHER_VARIANTS:
        return OTHER_VARIANTS[read[0]](*read[1:])
    variant, target, stage_reads = read
    return PIPELINE_VARIANTS[variant](ObjectId(*target), ShippedFn(tuple(
        Stage(fn_id, tuple(InlineValue(held) if kind == "inline" else RemoteRef(_library_descriptor(held))
                           for kind, held in capture_reads))
        for fn_id, capture_reads in stage_reads)))


def _plain_descriptor(descriptor):
    return [descriptor.endpoint.host, descriptor.endpoint.port,
            descriptor.id.incarnation, descriptor.id.serial]


def _library_read(message):
    """``message`` as the reference reads a frame, every inline value shaped."""
    name = type(message).__name__
    if name in ref.VALUE_FRAME_TAGS.values():
        return [name, message.payload.codec_id, message.payload.data]
    if name == "RespDescriptor":
        return [name, _plain_descriptor(message.descriptor)]
    if name == "Rebind":
        return [name, message.name, _plain_descriptor(message.descriptor)]
    if name == "Lookup":
        return [name, message.name]
    if name in ("Get", "Stats"):
        return [name, [message.target.incarnation, message.target.serial]]
    if name == "RespStats":
        return [name, message.serialization_count, message.get_count]
    if name == "RespAck":
        return [name]
    if name == "RespError":
        return [name, message.code, message.text]
    return [name, [message.target.incarnation, message.target.serial], [
        [stage.fn_id, [["inline", _shape(capture.value)] if isinstance(capture, InlineValue)
                       else ["ref", _plain_descriptor(capture.descriptor)]
                       for capture in stage.captures]]
        for stage in message.fn.stages]]


def _reference_read(read):
    if read[0] in ref.VALUE_FRAME_TAGS.values():
        return list(read)
    if read[0] == "RespDescriptor":
        return [read[0], list(read[1])]
    if read[0] == "Rebind":
        return [read[0], read[1], list(read[2])]
    if read[0] in ("Get", "Stats"):
        return [read[0], list(read[1])]
    if read[0] in ref.OTHER_FRAME_TAGS.values():
        return list(read)
    return [read[0], list(read[1]), [
        [fn_id, [["inline", _shape(held)] if kind == "inline" else ["ref", list(held)]
                 for kind, held in capture_reads]]
        for fn_id, capture_reads in read[2]]]


def _reference_outcome(frame):
    """(reading, re-encoded frame) by the reference, or REJECT."""
    try:
        read = ref.decode_frame(frame)
    except ref.Rejected:
        return REJECT
    return _reference_read(read), ref.encode_frame(read)


_MEMO_STATES = ("cold", "warm", "just emptied")


def _library_outcomes(frame):
    """(reading, re-encoded frame) by the library, or REJECT, with the memos in each state."""
    outcomes = []
    for state in _MEMO_STATES:  # "warm" follows the cold decode and re-encode
        set_memos(state)
        try:
            message = decode_frame(frame)
        except ProtocolError:
            outcomes.append(REJECT)
            continue
        outcomes.append((_library_read(message), encode_message(message)))
        for memo in MEMOS:
            assert charged(memo) <= protocol.MEMO_BYTES
    set_memos("cold")  # no filler is left for later tests
    return outcomes


def _agree(frame):
    """The library reads ``frame`` as the reference does, in every memo state."""
    expected = _reference_outcome(frame)
    assert _library_outcomes(frame) == [expected] * len(_MEMO_STATES), frame.hex()


def _encodable_frame(read):
    try:
        return ref.encode_frame(read)
    except ref.Unencodable:
        return None


@seed(2301)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frame_reads)
def test_pipeline_and_descriptor_frames_encode_to_the_reference_bytes(read):
    expected = _encodable_frame(read)
    message = _library_message(read)
    for state in ("cold", "warm"):  # once rendered, once through the text memos
        set_memos(state)
        if expected is None:
            with pytest.raises(NotSerializableError):
                encode_message(message)
        else:
            assert encode_message(message) == expected


# An int capture in range is written and read in one step; a bool, an int
# subclass and an int out of range take the general writer, and a frame cut
# inside the int's 8 bytes the general reader.
INT_CAPTURES = INT64_BOUNDS + [0, True, Level.HIGH, Level.LOW, 2**63, -(2**63) - 1]


@pytest.mark.parametrize("value", INT_CAPTURES, ids=repr)
def test_an_int_capture_is_written_and_read_as_the_reference_does(value):
    read = ("Map", (1, 2), [("add", [("inline", value)]), ("mul", [("inline", -1), ("inline", value)])])
    expected = _encodable_frame(read)
    message = _library_message(read)
    general = type(value) is not int or not INT64_BOUNDS[0] <= value <= INT64_BOUNDS[1]
    if expected is not None:
        encode_message(message)  # renders the fn ids, so the writer below writes only captures
    with mock.patch.object(protocol, "_encode_raw", wraps=protocol._encode_raw) as writer:
        if expected is None:
            with pytest.raises(NotSerializableError, match=(
                    f"^stage 0 capture 0: integer out of 64-bit range: {value}$")):
                encode_message(message)
            return
        frame = encode_message(message)
    assert frame == expected
    assert writer.call_count == (2 if general else 0)  # one per capture of ``value``
    for cut in range(len(frame) - 19, len(frame)):  # every cut in an int capture's 19 bytes
        _agree(len(frame[4:cut]).to_bytes(4, "big") + frame[4:cut])
    _agree(frame)


SAMPLE_FRAMES = [encode_message(message) for message in
                 test_hostile_pipelines.PIPELINE_SAMPLES.values()]


def _serials(frame):
    """The frame offsets of the serials of the object ids in ``frame``."""
    marks = []
    ref.decode_frame(frame, marks)
    return [at for kind, at in marks if kind == "serial"]


@st.composite
def mutated_frames(draw, frame, other):
    """``frame`` mutated as ``mutated`` does, or changed inside its body with
    the length prefix rewritten to match: bytes added after the last field,
    the body cut short, or an object id's serial set to 0."""
    how = draw(st.sampled_from(["mutated", "pad", "cut", "zero serial"]))
    body = frame[4:]
    if how == "pad":
        body += draw(st.binary(min_size=1, max_size=20))
    elif how == "cut" and body:
        body = body[:draw(st.integers(min_value=0, max_value=len(body) - 1))]
    elif how == "zero serial" and frame and _serials(frame):
        at = draw(st.sampled_from(_serials(frame))) - 4
        body = body[:at] + bytes(8) + body[at + 8:]
    else:
        return draw(mutated(frame, other, ref.decode_frame))
    return len(body).to_bytes(4, "big") + body


@seed(2302)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_pipeline_and_descriptor_frames_decode_as_the_reference_does(data):
    frame = _encodable_frame(data.draw(frame_reads)) or b""
    other = data.draw(st.sampled_from(SAMPLE_FRAMES))
    _agree(data.draw(mutated_frames(frame, other)))


HOSTILE_TABLES = {
    "hostile_frames": (test_hostile_frames._all_cases, test_hostile_frames._golden),
    "hostile_pipelines": (
        lambda: (case for name in test_hostile_pipelines.PIPELINE_SAMPLES
                 for case in test_hostile_pipelines._cases(name)),
        test_hostile_pipelines._golden),
}


@pytest.mark.parametrize("table", HOSTILE_TABLES)
def test_every_hostile_case_reads_the_same_through_the_reference(table):
    cases, golden = HOSTILE_TABLES[table]
    covered = 0
    for case, frame in cases():
        expected = _reference_outcome(frame)
        kind, outcome = golden()[case]
        if expected == REJECT:
            assert kind == ProtocolError.__name__, case
        else:
            assert [kind, outcome] == ["ok", expected[1].hex()], case
        _agree(frame)
        covered += 1
    assert covered == len(golden())  # every case, of every variant


# -- Rebind, Lookup, Get, Stats, RespStats, RespAck and RespError frames ---------

# Names with and without UTF-8 encodings; one with none is refused with
# ProtocolError, as the reference refuses it with BadName.
names = texts | st.sampled_from(["name", "é€😀"])
u64s = st.integers(min_value=0, max_value=2**64 - 1) | st.sampled_from([0, 2**64 - 1])
other_reads = st.one_of(
    st.tuples(st.just("Rebind"), names, descriptors),
    st.tuples(st.just("Lookup"), names),
    st.tuples(st.sampled_from(["Get", "Stats"]), object_ids),
    st.tuples(st.just("RespStats"), u64s, u64s),
    st.just(("RespAck",)),
    st.tuples(st.just("RespError"), st.integers(min_value=0, max_value=255), names),
)
# names at and past the most bytes a u16 length can say
LONG_NAMES = ["x" * 0xFFFF, "x" * 0x10000, "é" * 0x7FFF + "x", "é" * 0x8000]


@seed(2401)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(other_reads | st.tuples(st.just("Lookup"), st.sampled_from(LONG_NAMES)))
def test_other_frames_encode_to_the_reference_bytes(read):
    message = _library_message(read)
    try:
        expected = ref.encode_frame(read)
    except ref.BadName:
        with pytest.raises(ProtocolError):
            encode_message(message)
        return
    except ref.Unencodable:  # a descriptor whose endpoint has no encoding
        with pytest.raises(NotSerializableError):
            encode_message(message)
        return
    for state in ("cold", "warm"):
        set_memos(state)
        assert encode_message(message) == expected


OTHER_SAMPLE_FRAMES = [ref.encode_frame(read) for read in [
    ("Rebind", "n", ("loop", 1, 7, 9)), ("Lookup", "name"), ("Get", (1, 2)), ("Stats", (3, 4)),
    ("RespStats", 5, 6), ("RespAck",), ("RespError", 7, "text")]]


@seed(2402)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_other_frames_decode_as_the_reference_does(data):
    frame = _encodable_frame(data.draw(other_reads)) or b""
    other = data.draw(st.sampled_from(SAMPLE_FRAMES + OTHER_SAMPLE_FRAMES))
    _agree(data.draw(mutated_frames(frame, other)))


# -- the one-step paths ----------------------------------------------------------

# Captures holding no list, so that the pipeline is remembered once decoded
unlisted_stages = st.tuples(fn_ids, st.lists(st.tuples(st.just("inline"), scalars)
                                             | st.tuples(st.just("ref"), descriptors),
                                             max_size=3))


def _error_of(frame):
    try:
        decode_frame(frame)
    except ProtocolError as exc:
        return str(exc)
    raise AssertionError(f"{frame.hex()} decoded")


@seed(2403)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["Map", "FlatMap"]), object_ids, st.lists(unlisted_stages, min_size=1, max_size=3))
def test_a_remembered_pipeline_is_read_in_one_step_as_the_reference_reads_it(variant, target, stage_reads):
    read = (variant, target, stage_reads)
    frame = _encodable_frame(read)
    if frame is None:
        return
    zero = frame[:13] + bytes(8) + frame[21:]  # the target's serial set to 0
    set_memos("cold")
    cold_error = _error_of(zero)
    decode_frame(frame)  # the field reader remembers the pipeline
    assert frame[21:] in protocol._PIPELINES
    # with no field reader to fall back on, only the one-step read can succeed
    with mock.patch.object(protocol, "_DECODERS", {}):
        message = decode_frame(frame)
        again, used = protocol.decode_message(frame + frame[:7])
    assert _library_read(message) == _library_read(again) == _reference_read(ref.decode_frame(frame))
    assert used == len(frame)
    assert encode_message(message) == frame
    assert _error_of(zero) == cold_error  # a zero serial still goes to the field reader


@seed(2404)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(descriptors)
def test_a_descriptor_reply_is_written_in_one_step_once_its_endpoint_is_rendered(descriptor):
    read = ("RespDescriptor", descriptor)
    expected = _encodable_frame(read)
    message = _library_message(read)
    endpoint = message.descriptor.endpoint
    for state in ("cold", "just emptied"):
        set_memos(state)
        if expected is None:
            with pytest.raises(NotSerializableError):
                encode_message(message)
            assert endpoint not in protocol._TEXTS
            continue
        assert encode_message(message) == expected  # the field writer renders the endpoint
        assert endpoint in protocol._TEXTS
        # with no field writer to fall back on, only the one-step write can succeed
        with mock.patch.object(protocol, "_ENCODERS", {}):
            assert encode_message(message) == expected
    set_memos("cold")


# -- decoded messages share no mutable object ------------------------------------


def _reachable_mutables(node, found):
    """Map the id of each list, dict, set or bytearray reachable from ``node`` to it.

    Every record met on the way must have no ``__dict__``.
    """
    if isinstance(node, (list, dict, set, bytearray)):
        found[id(node)] = node
        items = node.items() if isinstance(node, dict) else node
        for item in items if not isinstance(node, bytearray) else ():
            _reachable_mutables(item, found)
    elif isinstance(node, tuple):
        for item in node:
            _reachable_mutables(item, found)
    elif dataclasses.is_dataclass(node):
        assert not hasattr(node, "__dict__"), type(node).__name__
        for field in dataclasses.fields(node):
            _reachable_mutables(getattr(node, field.name), found)
    return found


def _assert_unshared(frame):
    """Decodes of ``frame`` (cold, then warm) share no mutable object."""
    set_memos("cold")
    try:
        decodes = [decode_frame(frame) for _ in range(3)]
    except ProtocolError:
        return
    seen = {}
    for message in decodes:
        found = _reachable_mutables(message, {})
        assert not found.keys() & seen.keys(), frame.hex()
        seen.update(found)


@seed(2405)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frame_reads | other_reads)
def test_no_decode_shares_a_mutable_object_with_another(read):
    frame = _encodable_frame(read)
    if frame is not None:
        _assert_unshared(frame)


@pytest.mark.parametrize("table", HOSTILE_TABLES)
def test_no_decode_of_a_hostile_case_shares_a_mutable_object(table):
    cases, golden = HOSTILE_TABLES[table]
    for case, frame in cases():
        if golden()[case][0] == "ok":
            _assert_unshared(frame)
    set_memos("cold")
