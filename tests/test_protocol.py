import hashlib
import random
import struct
import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, fields, is_dataclass
from enum import IntEnum

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from remotable import (
    EndpointAddr,
    InlineValue,
    NotSerializableError,
    ObjectId,
    ProtocolError,
    RemoteRef,
    RemoteRefDescriptor,
    ShippedFn,
    Stage,
    Token,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
)
from remotable import protocol
from remotable.shipping import _new_stage
from remotable.protocol import (
    BULK_MIN_FIXED,
    CODEC_RV1,
    MAX_LIST_DEPTH,
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
    TAG_BLOB,
    TAG_BOOL,
    TAG_FLOAT,
    ValuePayload,
    decode_frame,
)

from helpers import charged, entry_bytes, set_memos

DESCRIPTOR = RemoteRefDescriptor(EndpointAddr("127.0.0.1", 7099), ObjectId(0xAB, 7))
PIPELINE = ShippedFn(
    (
        Stage("inc"),
        Stage("mul", (InlineValue(3),)),
        Stage("pair_equals_outer", (RemoteRef(DESCRIPTOR),)),
    )
)


# -- pinned byte shapes -------------------------------------------------------


def test_zero_int_is_tag_then_eight_zero_bytes():
    assert encode_value(0).data == b"\x01" + b"\x00" * 8


def test_empty_text_is_tag_then_zero_length():
    assert encode_value("").data == b"\x04\x00\x00\x00\x00"


def test_codec_id_is_rv1():
    assert encode_value(5).codec_id == CODEC_RV1


def test_bool_has_its_own_tag_despite_int_subclassing():
    assert encode_value(True).data == bytes([TAG_BOOL, 0x01])
    assert encode_value(False).data == bytes([TAG_BOOL, 0x00])


def test_negative_int_is_twos_complement():
    assert encode_value(-1).data == b"\x01" + b"\xff" * 8


def test_float_is_big_endian_binary64():
    assert encode_value(1.5).data == b"\x02" + struct.pack(">d", 1.5)


def test_blob_and_list_layouts():
    assert encode_value(b"ab").data == b"\x05\x00\x00\x00\x02ab"
    assert encode_value([1]).data == b"\x06\x00\x00\x00\x01" + encode_value(1).data


def test_resp_ack_frame_is_one_byte_body():
    assert encode_message(RespAck()) == b"\x00\x00\x00\x01\x0b"


def test_lookup_body_layout():
    frame = encode_message(Lookup("obj"))
    assert frame == b"\x00\x00\x00\x06" + b"\x02" + b"\x00\x03" + b"obj"


# -- codec errors -------------------------------------------------------------


def test_opaque_values_are_not_serializable():
    with pytest.raises(NotSerializableError):
        encode_value(Token(1))
    with pytest.raises(NotSerializableError):
        encode_value(None)
    with pytest.raises(NotSerializableError):
        encode_value({"a": 1})


def test_int_outside_64_bits_is_not_serializable():
    encode_value(2**63 - 1)
    encode_value(-(2**63))
    with pytest.raises(NotSerializableError):
        encode_value(2**63)
    with pytest.raises(NotSerializableError):
        encode_value(-(2**63) - 1)


def test_mixed_list_is_not_serializable():
    # bool is an int subclass and int converts to float, yet each keeps its own tag
    for value in ([1, "two"], [True, 1], [1, True], [1, 1.0], [1.0, 1]):
        with pytest.raises(NotSerializableError, match="share one codec tag"):
            encode_value(value)


@pytest.mark.parametrize(
    "value",
    ["\ud800", ["a", "\ud800"], [["\ud800"]], ["\udfff", 1]],
    ids=["text", "text_list", "nested_list", "mixed_list"],
)
def test_lone_surrogate_is_not_serializable(value):
    with pytest.raises(NotSerializableError, match="no UTF-8 encoding"):
        encode_value(value)


def test_lone_surrogate_in_a_name_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="no UTF-8 encoding"):
        encode_message(Lookup("\ud800"))


def test_unknown_codec_id_rejected():
    with pytest.raises(ProtocolError):
        decode_value(ValuePayload("xz9", b"\x01" + b"\x00" * 8))


def test_truncated_payload_rejected():
    whole = encode_value(12345).data
    with pytest.raises(ProtocolError):
        decode_value(ValuePayload(CODEC_RV1, whole[:-1]))


def test_trailing_bytes_rejected():
    with pytest.raises(ProtocolError):
        decode_value(ValuePayload(CODEC_RV1, encode_value(1).data + b"\x00"))


def test_bad_bool_byte_rejected():
    with pytest.raises(ProtocolError):
        decode_value(ValuePayload(CODEC_RV1, b"\x03\x02"))


def test_unknown_value_tag_rejected():
    with pytest.raises(ProtocolError):
        decode_value(ValuePayload(CODEC_RV1, b"\xff"))


def test_invalid_utf8_rejected():
    with pytest.raises(ProtocolError):
        decode_value(ValuePayload(CODEC_RV1, b"\x04\x00\x00\x00\x01\xff"))


# -- codec round-trip properties ----------------------------------------------

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
scalars = (
    int64s
    | st.booleans()
    | st.floats(allow_nan=False)
    | st.text(max_size=50)
    | st.binary(max_size=50)
)

# One element type per list level, mirroring the codec's homogeneity rule;
# a list-of-lists is fine because every element then shares the list tag.
flat_lists = st.one_of(
    st.lists(int64s, max_size=8),
    st.lists(st.booleans(), max_size=8),
    st.lists(st.floats(allow_nan=False), max_size=8),
    st.lists(st.text(max_size=10), max_size=8),
    st.lists(st.binary(max_size=10), max_size=8),
)
list_values = st.recursive(flat_lists, lambda inner: st.lists(inner, max_size=4), max_leaves=16)
values = scalars | list_values


@settings(max_examples=1000, deadline=None)
@given(values)
def test_codec_round_trip_identity(value):
    assert decode_value(encode_value(value)) == value


@settings(max_examples=300, deadline=None)
@given(values)
def test_codec_round_trip_preserves_types(value):
    back = decode_value(encode_value(value))
    assert type(back) is type(value)


@settings(max_examples=300, deadline=None)
@given(values)
def test_encoding_is_canonical(value):
    payload = encode_value(value)
    assert encode_value(decode_value(payload)) == payload


# -- bulk lists: byte parity with an element-by-element oracle -----------------


def _oracle(value):
    """rv1 bytes of a flat scalar list, written element by element from the format table."""
    parts = [struct.pack(">BI", 0x06, len(value))]
    for element in value:
        if type(element) is bool:
            parts.append(struct.pack(">BB", 0x03, element))
        elif type(element) is int:
            parts.append(struct.pack(">Bq", 0x01, element))
        elif type(element) is float:
            parts.append(struct.pack(">Bd", 0x02, element))
        else:
            encoded = element.encode("utf-8")
            parts.append(struct.pack(">BI", 0x04, len(encoded)) + encoded)
    return b"".join(parts)


SPECIAL = {
    "int": [-(2**63), 2**63 - 1, 0, -1, 1],
    "float": [-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1.7976931348623157e308],
    "bool": [True, False],
    "text": ["", "é", "λ€", "\U0001f600", "\x00", "ascii"],
}


def _seeded_list(kind, length, seed):
    rng = random.Random(seed)
    draw = {
        "int": lambda: rng.randint(-(2**63), 2**63 - 1),
        "float": lambda: rng.uniform(-1e308, 1e308),
        "bool": lambda: rng.random() < 0.5,
        "text": lambda: "".join(rng.choices("ab z\u00e9\u03bb\u20ac\U0001f600", k=rng.randrange(12))),
    }[kind]
    return [rng.choice(SPECIAL[kind]) if rng.random() < 0.1 else draw() for _ in range(length)]


def _same_elements(back, value):
    # by type and by bytes, so that NaN and -0.0 count as equal only to themselves
    assert [type(x) for x in back] == [type(x) for x in value]
    assert _oracle(back) == _oracle(value)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(SPECIAL)),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=2**32),
)
# either side of the length from which int/float lists take the bulk path
@example("int", BULK_MIN_FIXED - 1, 0)
@example("int", BULK_MIN_FIXED, 0)
@example("float", BULK_MIN_FIXED - 1, 0)
@example("float", BULK_MIN_FIXED, 0)
def test_long_flat_lists_match_the_oracle(kind, length, seed):
    value = _seeded_list(kind, length, seed)
    payload = encode_value(value)
    assert payload.data == _oracle(value)
    _same_elements(decode_value(payload), value)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(int64s | st.sampled_from(SPECIAL["int"]), max_size=40)
    | st.lists(st.floats(), max_size=40)
    | st.lists(st.booleans(), max_size=40)
    | st.lists(st.text(max_size=10), max_size=40)
)
def test_short_flat_lists_match_the_oracle(value):
    payload = encode_value(value)
    assert payload.data == _oracle(value)
    _same_elements(decode_value(payload), value)


# SHA-256 of encode_value for the values below, taken from the element-by-element
# codec; any change to the rv1 bytes of these lists fails here.
GOLDEN_DIGESTS = {
    "int": "517b7588bb210ec968fe65241d72aeda3f40c68aa19a48f0b61fb723e336fc1e",
    "float": "3c358c2bfbcf4c97fc9dea7faeeabd897e0bff03b9caa681087eebe49ccb0ea2",
    "bool": "20020eb6962a8f68d45e9bcd1c15c5634597bb67db09ca914cb43467e3c9bf54",
    "text": "3efc38af54097d49904575c2f77f82ee12bc0ade20dc1e9798cb9f9828d7c9b6",
    "nested": "4520a815a4fa03210f0579447315713bad770a651f518b36bce03f9c4883433c",
}


def _golden_values():
    rng = random.Random(20_000)
    n = 20_000
    ints = [rng.randint(-(2**63), 2**63 - 1) for _ in range(n - 4)]
    ints += [-(2**63), 2**63 - 1, 0, -1]
    floats = [rng.uniform(-1e300, 1e300) for _ in range(n - 6)]
    floats += [-0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 0.0]
    bools = [rng.random() < 0.5 for _ in range(n)]
    alphabet = "abcXYZ019 _-\x00\x7f\u00e9\u03bb\u20ac\U0001f600"
    texts = ["".join(rng.choices(alphabet, k=rng.randrange(0, 24))) for _ in range(n)]
    nested = [[rng.randint(-1000, 1000) for _ in range(rng.randrange(0, 40))] for _ in range(300)]
    nested += [floats[i:i + 7] for i in range(0, 700, 7)]
    nested += [texts[i:i + 3] for i in range(0, 300, 3)]
    nested += [bools[:5], [], [b"blob", b""], [[1, 2], [3]], [["x"], []]]
    return {"int": ints, "float": floats, "bool": bools, "text": texts, "nested": nested}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_digests_pin_the_wire_bytes(name):
    value = _golden_values()[name]
    payload = encode_value(value)
    assert hashlib.sha256(payload.data).hexdigest() == GOLDEN_DIGESTS[name]
    assert encode_value(decode_value(payload)) == payload


def test_out_of_range_int_deep_in_a_long_list():
    value = list(range(1000))
    value[700] = 2**63
    with pytest.raises(NotSerializableError, match=r"^integer out of 64-bit range: 9223372036854775808$"):
        encode_value(value)


class _Small(IntEnum):
    A = 1
    B = 2


def test_int_subclass_elements_encode_as_plain_ints():
    assert encode_value([_Small.A, 2]) == encode_value([1, 2])
    assert encode_value([_Small.A, _Small.B]) == encode_value([1, 2])


def _ints_payload(count):
    return bytearray(encode_value(list(range(count))).data)


def _rejects(data, message):
    with pytest.raises(ProtocolError, match="^" + message + "$"):
        decode_value(ValuePayload(CODEC_RV1, bytes(data)))


def test_wrong_tag_deep_in_an_int_list_names_its_offset():
    data = _ints_payload(1000)
    data[5 + 9 * 700] = TAG_FLOAT
    _rejects(data, "heterogeneous list at offset 6305")


def test_truncated_long_list_names_its_offset():
    data = _ints_payload(1000)
    _rejects(data[:-1], r"short body: need 8 bytes at offset 8997, have 7")
    _rejects(data[:5 + 9 * 500], "truncated list at offset 4505")


def test_bad_bool_byte_deep_in_a_list_names_its_offset():
    data = bytearray(encode_value([True, False] * 500).data)
    data[5 + 2 * 700 + 1] = 0x02
    _rejects(data, "bad boolean byte 0x02 at offset 1405")


def test_bad_utf8_deep_in_a_text_list_names_its_offset():
    data = bytearray(encode_value(["abc"] * 1000).data)
    data[5 + 8 * 700 + 5] = 0xFF
    with pytest.raises(ProtocolError, match="^bad UTF-8 in text at offset 5605: "):
        decode_value(ValuePayload(CODEC_RV1, bytes(data)))


def test_text_list_with_a_foreign_tag_is_heterogeneous():
    data = bytearray(encode_value(["abc"] * 10).data)
    data[5 + 8 * 7] = TAG_BLOB
    _rejects(data, "heterogeneous list at offset 61")


# -- nesting depth ------------------------------------------------------------


def _nested(depth, leaf=1):
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


def test_lists_nest_up_to_the_limit():
    value = _nested(MAX_LIST_DEPTH)
    assert decode_value(encode_value(value)) == value


@pytest.mark.parametrize("depth", [MAX_LIST_DEPTH + 1, 5000])
def test_deeper_nesting_is_not_serializable(depth):
    with pytest.raises(NotSerializableError, match="nested deeper"):
        encode_value(_nested(depth))


def test_self_containing_list_is_not_serializable():
    value = []
    value.append(value)
    with pytest.raises(NotSerializableError, match="nested deeper"):
        encode_value(value)


@pytest.mark.parametrize("depth", [MAX_LIST_DEPTH + 1, 5000])
def test_deeply_nested_payload_is_a_protocol_error(depth):
    data = b"\x06\x00\x00\x00\x01" * depth + encode_value(1).data
    with pytest.raises(ProtocolError, match=f"nested deeper than {MAX_LIST_DEPTH} at offset {5 * MAX_LIST_DEPTH}$"):
        decode_value(ValuePayload(CODEC_RV1, data))


# -- message round trips --------------------------------------------------------

ALL_MESSAGES = [
    Rebind("obj", DESCRIPTOR),
    Lookup("obj"),
    Map(DESCRIPTOR.id, PIPELINE),
    FlatMap(DESCRIPTOR.id, PIPELINE),
    Get(DESCRIPTOR.id),
    Export(encode_value([1, 2, 3])),
    Stats(DESCRIPTOR.id),
    RespDescriptor(DESCRIPTOR),
    RespValue(encode_value("token#1")),
    RespStats(3, 1),
    RespAck(),
    RespError(4, "no codec binding for Token"),
]


@pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_message_round_trip_identity(message):
    frame = encode_message(message)
    decoded, consumed = decode_message(frame)
    assert decoded == message
    assert consumed == len(frame)


@pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_message_encoding_is_canonical(message):
    frame = encode_message(message)
    decoded, _ = decode_message(frame)
    assert encode_message(decoded) == frame


def test_every_frame_prefix_is_incomplete_not_an_error():
    frame = encode_message(Map(DESCRIPTOR.id, PIPELINE))
    for cut in range(len(frame)):
        assert decode_message(frame[:cut]) is None


def test_trailing_bytes_belong_to_the_next_frame():
    frame = encode_message(Get(DESCRIPTOR.id))
    decoded, consumed = decode_message(frame + b"\x99\x99")
    assert decoded == Get(DESCRIPTOR.id)
    assert consumed == len(frame)


def test_two_frames_decode_in_sequence():
    first = encode_message(Lookup("a"))
    second = encode_message(RespAck())
    buffer = first + second
    message, consumed = decode_message(buffer)
    assert message == Lookup("a")
    message2, consumed2 = decode_message(buffer[consumed:])
    assert message2 == RespAck()
    assert consumed + consumed2 == len(buffer)


def test_unknown_message_tag_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        decode_message(b"\x00\x00\x00\x01\xff")


def test_empty_body_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        decode_message(b"\x00\x00\x00\x00")


def test_short_body_reports_an_offset():
    # Lookup claiming a 5-char name but carrying 3 bytes of it
    bad_body = b"\x02" + b"\x00\x05" + b"obj"
    frame = len(bad_body).to_bytes(4, "big") + bad_body
    with pytest.raises(ProtocolError, match=r"\d"):
        decode_message(frame)


def test_unconsumed_body_bytes_are_a_protocol_error():
    body = b"\x0b" + b"\x00"  # RespAck followed by a stray byte inside the body
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(ProtocolError):
        decode_message(frame)


def test_unserializable_capture_blames_its_position():
    pipeline = ShippedFn((Stage("inc"), Stage("add", (InlineValue(Token(1)),))))
    with pytest.raises(NotSerializableError, match="stage 1"):
        encode_message(Map(DESCRIPTOR.id, pipeline))


def test_capture_origin_is_never_encoded():
    def request(capture):
        return Map(DESCRIPTOR.id, ShippedFn((Stage("add", (capture,)),)))

    marked = request(InlineValue(5, origin=DESCRIPTOR.id))
    assert marked == request(InlineValue(5))
    assert encode_message(marked) == encode_message(request(InlineValue(5)))
    decoded, _ = decode_message(encode_message(marked))
    assert decoded.fn.stages[0].captures[0].origin is None


def test_empty_pipeline_on_the_wire_is_rejected():
    # forge a Map frame whose pipeline declares zero stages
    body = bytearray(b"\x03")
    body += (0xAB).to_bytes(8, "big") + (7).to_bytes(8, "big")
    body += (0).to_bytes(2, "big")
    frame = len(body).to_bytes(4, "big") + bytes(body)
    with pytest.raises(ProtocolError):
        decode_message(frame)


@pytest.mark.parametrize("fn_id", ["", 5, ["f"]], ids=["empty", "int", "list"])
def test_stage_whose_fn_id_is_not_non_empty_text_is_rejected(fn_id):
    body = bytearray(b"\x03")
    body += (0xAB).to_bytes(8, "big") + (7).to_bytes(8, "big")
    body += (1).to_bytes(2, "big") + encode_value(fn_id).data + (0).to_bytes(2, "big")
    frame = len(body).to_bytes(4, "big") + bytes(body)
    with pytest.raises(ProtocolError, match=r"^stage 0: bad fn id at offset 19$"):
        decode_frame(frame)


@pytest.mark.parametrize("message, text", [
    (5, "not a protocol message: int"),
    (Map(DESCRIPTOR.id, ShippedFn((Stage("inc"),) * 0x10000)), "too many stages in one pipeline"),
    (Map(DESCRIPTOR.id, ShippedFn((Stage("add", (InlineValue(1),) * 0x10000),))),
     "too many captures in one stage"),
], ids=["not-a-message", "stages", "captures"])
def test_what_no_frame_can_carry_is_refused_at_encode(message, text):
    with pytest.raises(ProtocolError) as refused:
        encode_message(message)
    assert str(refused.value) == text


_REBIND_TAG = encode_message(Rebind("x", DESCRIPTOR))[4:5]
# forged bodies the hostile tables do not reach, each with its ProtocolError's text
FORGED_BODIES = [
    (_REBIND_TAG + b"\x00\x01x" + encode_value(5).data + bytes(8) + (7).to_bytes(8, "big"),
     "descriptor endpoint is not text at offset 4"),
]


@pytest.mark.parametrize("body, text", FORGED_BODIES)
def test_forged_body_is_refused_with_its_text(body, text):
    with pytest.raises(ProtocolError) as refused:
        decode_frame(len(body).to_bytes(4, "big") + body)
    assert str(refused.value) == text


def test_object_id_with_serial_zero_on_the_wire_is_rejected():
    body = b"\x05" + (0xAB).to_bytes(8, "big") + (0).to_bytes(8, "big")
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(ProtocolError, match=r"^bad object id at offset 1: serial must be in "):
        decode_frame(frame)


# -- descriptor corners ---------------------------------------------------------

object_ids = st.builds(
    ObjectId,
    incarnation=st.integers(min_value=0, max_value=2**64 - 1),
    serial=st.integers(min_value=1, max_value=2**64 - 1),
)


@settings(deadline=None)
@given(object_ids)
def test_descriptor_round_trip_at_id_extremes(object_id):
    descriptor = RemoteRefDescriptor(EndpointAddr("h.example", 65535), object_id)
    frame = encode_message(RespDescriptor(descriptor))
    decoded, _ = decode_message(frame)
    assert decoded.descriptor == descriptor


def _descriptor_frame(endpoint_text, incarnation=0xAB, serial=7):
    """A RespDescriptor frame built by hand, so any endpoint text can be sent."""
    text = endpoint_text.encode()
    body = b"\x08\x04" + len(text).to_bytes(4, "big") + text
    body += incarnation.to_bytes(8, "big") + serial.to_bytes(8, "big")
    return len(body).to_bytes(4, "big") + body


def test_endpoint_memo_stays_bounded_over_many_distinct_endpoints():
    set_memos("cold")
    for port in range(1, 10_001):
        descriptor = RemoteRefDescriptor(EndpointAddr(f"h{port % 7}", port), ObjectId(1, port))
        frame = encode_message(RespDescriptor(descriptor))
        assert frame == _descriptor_frame(f"h{port % 7}:{port}", 1, port)
        assert decode_frame(frame).descriptor == descriptor
        assert charged(protocol._ENDPOINTS) <= protocol.MEMO_BYTES
    assert len(protocol._ENDPOINTS) < 10_000  # the endpoints passed the budget
    assert charged(protocol._ENDPOINTS) == entry_bytes(protocol._ENDPOINTS)


@pytest.mark.parametrize(
    "text", ["h:0", "h:99999", "no-port", "h :1", ":1", "h:x1", "h:07", "h:\u0667", "h:\uff17"]
)
def test_bad_endpoint_is_rejected_on_every_repeat(text):
    good = decode_frame(_descriptor_frame("h:1"))  # a valid text is remembered
    for _ in range(3):
        with pytest.raises(ProtocolError, match=r"^bad endpoint at offset 1: "):
            decode_frame(_descriptor_frame(text))
        assert encode_value(text).data not in protocol._ENDPOINTS
    assert decode_frame(_descriptor_frame("h:1")) == good


def test_endpoint_text_memo_writes_the_same_bytes_and_stays_bounded():
    set_memos("cold")
    for port in range(1, 10_001):
        descriptor = RemoteRefDescriptor(EndpointAddr("h", port), ObjectId(1, port))
        for _ in range(2):  # once rendered, once through the memo
            assert encode_message(RespDescriptor(descriptor)) == _descriptor_frame(f"h:{port}", 1, port)
        assert charged(protocol._TEXTS) <= protocol.MEMO_BYTES
    assert len(protocol._TEXTS) < 10_000  # the texts passed the budget
    assert charged(protocol._TEXTS) == entry_bytes(protocol._TEXTS)


def test_endpoint_without_utf8_is_refused_on_every_encode_and_never_remembered():
    endpoint = EndpointAddr("\ud800", 1)
    message = RespDescriptor(RemoteRefDescriptor(endpoint, ObjectId(1, 1)))
    texts = set()
    for _ in range(3):
        with pytest.raises(NotSerializableError) as caught:
            encode_message(message)
        texts.add(str(caught.value))
        assert endpoint not in protocol._TEXTS
    assert len(texts) == 1


@pytest.mark.parametrize("text", ["h:7", "h:10", "h.example:65535", "127.0.0.1:7099"])
def test_decoded_endpoint_re_encodes_to_the_same_bytes(text):
    # only the canonical port text decodes ("h:07" is rejected above), so
    # decoding then re-encoding a descriptor frame reproduces it exactly
    frame = _descriptor_frame(text)
    for _ in range(2):  # once parsed, once through the memo
        assert encode_message(decode_frame(frame)) == frame


def _one_stage_frame(fn_id):
    """A one-stage Map frame with no captures, built by hand."""
    text = fn_id.encode()
    body = b"\x03" + (0xAB).to_bytes(8, "big") + (7).to_bytes(8, "big") + b"\x00\x01"
    body += b"\x04" + len(text).to_bytes(4, "big") + text + b"\x00\x00"
    return len(body).to_bytes(4, "big") + body


def test_endpoint_memo_under_concurrent_threads():
    # more threads than cores, switching often, together cycling through more
    # endpoints and fn ids than the memos hold so that clears race with reads
    # and stores: each endpoint text takes about 60 of the budget's bytes
    errors = []
    host = "t" * 48

    def worker(offset):
        try:
            for port in range(offset, offset + 512):
                descriptor = RemoteRefDescriptor(EndpointAddr(host, port), ObjectId(2, port))
                if decode_frame(encode_message(RespDescriptor(descriptor))).descriptor != descriptor:
                    errors.append(port)
                stage_map = Map(ObjectId(0xAB, 7), ShippedFn((Stage(f"f{port}"),)))
                if encode_message(stage_map) != _one_stage_frame(f"f{port}"):
                    errors.append(f"f{port}")
        except Exception as exc:  # reported below, so a crash fails the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(1 + 1000 * i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for memo in (protocol._ENDPOINTS, protocol._TEXTS):
        assert charged(memo) == entry_bytes(memo) <= protocol.MEMO_BYTES


# -- the fn-id text memo --------------------------------------------------------


def test_fn_id_memo_writes_the_same_bytes_and_stays_bounded():
    set_memos("cold")
    for n in range(10_000):
        message = Map(ObjectId(0xAB, 7), ShippedFn((Stage(f"fn{n}"),)))
        for _ in range(2):  # once rendered, once through the memo
            assert encode_message(message) == _one_stage_frame(f"fn{n}")
        assert charged(protocol._TEXTS) <= protocol.MEMO_BYTES
    assert len(protocol._TEXTS) < 10_000  # the texts passed the budget
    assert charged(protocol._TEXTS) == entry_bytes(protocol._TEXTS)


@pytest.mark.parametrize("fn_id", ["\ud800", "ok\udfff"])
def test_fn_id_without_utf8_is_refused_on_every_encode_and_never_remembered(fn_id):
    # ``Stage`` refuses such an id; built around it, the encoder refuses it too
    message = Map(ObjectId(0xAB, 7), ShippedFn((Stage("inc"), _new_stage(fn_id, ()))))
    texts = set()
    for _ in range(2):
        with pytest.raises(NotSerializableError) as caught:
            encode_message(message)
        texts.add(str(caught.value))
        assert fn_id not in protocol._TEXTS
    assert len(texts) == 1
    assert "inc" in protocol._TEXTS  # the stage before it still encoded


# -- the pipeline memo --------------------------------------------------------


def _map_frame(*captures, target=ObjectId(0xAB, 7)):
    stage = Stage("add", tuple(map(InlineValue, captures)))
    return encode_message(Map(target, ShippedFn((stage,))))


def test_a_pipeline_sent_again_is_looked_up_not_read():
    first = decode_frame(_map_frame(3)).fn
    assert decode_frame(_map_frame(3)).fn is first
    # the key is the pipeline's bytes: another target shares it
    assert decode_frame(_map_frame(3, target=ObjectId(1, 2))).fn is first


def test_a_pipeline_with_a_list_capture_is_read_afresh_each_time():
    frame = _map_frame([[1], [2]], 4)
    first, second = decode_frame(frame).fn, decode_frame(frame).fn
    assert first == second
    assert first.stages[0].captures[0].value is not second.stages[0].captures[0].value
    assert first.stages[0].captures[0].value[1] is not second.stages[0].captures[0].value[1]


def test_a_remembered_pipeline_with_trailing_bytes_is_still_refused():
    frame = _map_frame(3)
    remembered = decode_frame(frame).fn
    body = frame[4:] + b"\x00\x01"
    for _ in range(2):
        with pytest.raises(ProtocolError, match=r"^2 unconsumed bytes inside frame body$"):
            decode_frame(len(body).to_bytes(4, "big") + body)
    assert decode_frame(frame).fn is remembered


def test_pipeline_memo_stays_within_its_byte_budget():
    set_memos("cold")
    for operand in range(10_000):  # enough to empty the memo twice
        assert decode_frame(_map_frame(operand)).fn.stages[0].captures[0].value == operand
        assert charged(protocol._PIPELINES) <= protocol.MEMO_BYTES
    assert len(protocol._PIPELINES) < 10_000
    assert charged(protocol._PIPELINES) == entry_bytes(protocol._PIPELINES)
    # a pipeline longer than the whole budget is never kept
    long_text = "x" * protocol.MEMO_BYTES
    frame = _map_frame(long_text)
    assert decode_frame(frame).fn is not decode_frame(frame).fn
    assert charged(protocol._PIPELINES) == entry_bytes(protocol._PIPELINES) <= protocol.MEMO_BYTES


def test_pipeline_memo_under_concurrent_threads():
    # as the endpoint memo's test above: clears race with reads and stores
    errors = []
    per_thread = protocol.MEMO_BYTES // 16

    def worker(offset):
        try:
            for operand in range(offset, offset + per_thread):
                if decode_frame(_map_frame(operand)).fn.stages[0].captures[0].value != operand:
                    errors.append(operand)
        except Exception as exc:  # reported below, so a crash fails the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(10**6 * i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert charged(protocol._PIPELINES) == entry_bytes(protocol._PIPELINES) <= protocol.MEMO_BYTES


def test_decoding_a_long_int_list_keeps_no_spare_copy():
    value = list(range(100_000))
    payload = encode_value(value)
    tracemalloc.start()
    try:
        back = decode_value(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == value
    # the list and its ints take about 3.6 MB, the array it is built from 0.8 MB
    assert peak < 5_000_000


# A value frame's payload is copied once on each side: into the frame by
# encode_message, and out of it by decode_frame. Each holds at most one frame's
# worth of bytes at a time.
MIB_PAYLOAD = ValuePayload(CODEC_RV1, bytes(range(256)) * 4096)


def _traced_peak(work):
    tracemalloc.start()
    try:
        result = work()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("variant", [Export, RespValue])
def test_encoding_a_value_frame_copies_its_payload_once(variant):
    frame, peak = _traced_peak(lambda: encode_message(variant(MIB_PAYLOAD)))
    assert frame.endswith(MIB_PAYLOAD.data)
    assert peak < 1.2 * len(frame)


@pytest.mark.parametrize("variant", [Export, RespValue])
def test_decoding_a_value_frame_copies_its_payload_once(variant):
    frame = encode_message(variant(MIB_PAYLOAD))
    message, peak = _traced_peak(lambda: decode_frame(frame))
    assert message == variant(MIB_PAYLOAD)
    assert peak < 1.2 * len(frame)


def test_decoding_a_map_too_large_to_remember_copies_no_key():
    # the memo keeps no pipeline over MEMO_BYTES, so none is sliced out as a key
    blob = bytes(range(256)) * 4096
    frame = encode_message(Map(ObjectId(1, 1), ShippedFn((Stage("add", (InlineValue(blob),)),))))
    message, peak = _traced_peak(lambda: decode_frame(frame))
    assert message.fn.stages[0].captures[0].value == blob
    assert peak <= 2.2 * len(frame)


# -- pipeline frames: the flat stage codec and the objects it builds ----------

endpoints = st.builds(
    EndpointAddr, st.sampled_from(["loop", "h.example", "10.0.0.1", "hôte"]),
    st.integers(min_value=1, max_value=65535),
)
captures = st.one_of(
    values.map(InlineValue),
    st.builds(RemoteRefDescriptor, endpoints, object_ids).map(RemoteRef),
)
stages = st.builds(Stage, st.text(min_size=1, max_size=12),
                   st.lists(captures, max_size=4).map(tuple))
pipeline_messages = st.builds(
    lambda variant, target, pipeline: variant(target, pipeline),
    st.sampled_from([Map, FlatMap]),
    object_ids,
    st.lists(stages, min_size=1, max_size=6).map(lambda drawn: ShippedFn(tuple(drawn))),
)


def _hash_or_unhashable(message):
    try:
        return hash(message)
    except TypeError:  # a list capture makes the whole message unhashable
        return "unhashable"


def _decoded_objects(message):
    """(object, the class it must have) for everything decode builds in ``message``."""
    yield message, type(message)
    yield message.target, ObjectId
    yield message.fn, ShippedFn
    for stage in message.fn.stages:
        yield stage, Stage
        for capture in stage.captures:
            if isinstance(capture, RemoteRef):
                yield capture, RemoteRef
                yield capture.descriptor, RemoteRefDescriptor
                yield capture.descriptor.id, ObjectId
            else:
                yield capture, InlineValue


def assert_constructors_accept(obj):
    """Rebuild every dataclass instance inside ``obj`` through its constructor.

    Decoding builds these objects without running __init__ or __post_init__,
    so a constructor rule that the readers do not enforce fails here.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        rebuilt = type(obj)(**{f.name: getattr(obj, f.name) for f in fields(obj) if f.init})
        assert rebuilt == obj
        inner = [getattr(obj, f.name) for f in fields(obj)]
    elif isinstance(obj, (list, tuple)):
        inner = obj
    else:
        return
    for value in inner:
        assert_constructors_accept(value)


@seed(20121)
@settings(max_examples=300, deadline=None)
@given(pipeline_messages)
def test_pipeline_frames_decode_to_equal_frozen_objects_of_the_same_classes(message):
    frame = encode_message(message)
    decoded = decode_frame(frame)
    assert decoded == message
    assert _hash_or_unhashable(decoded) == _hash_or_unhashable(message)
    assert encode_message(decoded) == frame
    built = list(_decoded_objects(decoded))
    assert [cls for _, cls in built] == [type(obj) for obj, _ in _decoded_objects(message)]
    for obj, cls in built:
        assert type(obj) is cls
        with pytest.raises(FrozenInstanceError):
            setattr(obj, fields(obj)[0].name, None)
    assert_constructors_accept(decoded)
    for stage in decoded.fn.stages:
        assert all(capture.origin is None for capture in stage.captures
                   if isinstance(capture, InlineValue))
