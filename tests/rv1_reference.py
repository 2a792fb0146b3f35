"""A plain rv1 codec and value-frame reader, written from the wire description.

This is the reference that the library's codec is checked against
(``test_rv1_reference.py``). It follows README's "Wire format" section field
by field, one element at a time: no bulk path, no memo, no objects built
around their constructors, and nothing imported from ``remotable``. It is
slow, and meant to be obviously right.

rv1, a tag byte then the tag's payload:

    0x01  integer  signed 64-bit, big-endian
    0x02  float    IEEE-754 binary64, big-endian
    0x03  boolean  one byte, 0x00 or 0x01
    0x04  text     u32 length, then that many bytes of UTF-8
    0x05  blob     u32 length, then that many raw bytes
    0x06  list     u32 count, then the elements, all with the first one's tag

A bool is never an integer; any other int (an ``IntEnum`` member, say) is.
Lists nest at most 100 deep. A value must fill its payload exactly.

A value frame is a u32 body length, then the body: the tag of Export (0x06)
or RespValue (0x09), then the payload, which is a u16 length and that many
bytes of UTF-8 naming the codec, then a u32 length and that many bytes of
value. The frame reader does not read the value: a payload's bytes are opaque
to the message layer.
"""
import struct

MAX_LIST_DEPTH = 100
VALUE_FRAME_TAGS = {0x06: "Export", 0x09: "RespValue"}


class Unencodable(Exception):
    """The value has no rv1 encoding."""


class Rejected(Exception):
    """The bytes are not a well-formed value, or frame."""


class NotCovered(Exception):
    """The frame is whole, but of a variant this reference does not read."""


def _tag(value):
    if isinstance(value, bool):
        return 0x03
    if isinstance(value, int):
        return 0x01
    if isinstance(value, float):
        return 0x02
    if isinstance(value, str):
        return 0x04
    if isinstance(value, (bytes, bytearray)):
        return 0x05
    if isinstance(value, list):
        return 0x06
    raise Unencodable(type(value).__name__)


def encode(value, depth=0):
    """The rv1 bytes of ``value``, or Unencodable."""
    tag = _tag(value)
    if tag == 0x03:
        return bytes([tag, 1 if value else 0])
    if tag == 0x01:
        if not -(2**63) <= value <= 2**63 - 1:
            raise Unencodable(f"int out of range: {value}")
        return bytes([tag]) + struct.pack(">q", value)
    if tag == 0x02:
        return bytes([tag]) + struct.pack(">d", value)
    if tag == 0x04:
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise Unencodable(str(exc)) from None
        return bytes([tag]) + struct.pack(">I", len(raw)) + raw
    if tag == 0x05:
        return bytes([tag]) + struct.pack(">I", len(value)) + bytes(value)
    if depth >= MAX_LIST_DEPTH:
        raise Unencodable("lists nested too deep")
    out = bytes([tag]) + struct.pack(">I", len(value))
    for element in value:
        if _tag(element) != _tag(value[0]):
            raise Unencodable("list elements must share one tag")
        out += encode(element, depth + 1)
    return out


def _need(data, pos, size):
    if pos + size > len(data):
        raise Rejected(f"need {size} bytes at offset {pos}, have {len(data) - pos}")
    return data[pos:pos + size]


def _read(data, pos, depth, marks):
    """(value, offset after it) for the value at ``pos``; ``marks`` gets its fields."""
    tag = _need(data, pos, 1)[0]
    marks.append(("tag", pos))
    pos += 1
    if tag == 0x01:
        return struct.unpack(">q", _need(data, pos, 8))[0], pos + 8
    if tag == 0x02:
        return struct.unpack(">d", _need(data, pos, 8))[0], pos + 8
    if tag == 0x03:
        flag = _need(data, pos, 1)[0]
        if flag > 1:
            raise Rejected(f"bad boolean byte {flag}")
        return flag == 1, pos + 1
    if tag in (0x04, 0x05):
        (length,) = struct.unpack(">I", _need(data, pos, 4))
        raw = _need(data, pos + 4, length)
        marks.append(("length", pos))
        if tag == 0x04 and length:
            marks.append(("text", pos + 4))
        if tag == 0x05:
            return raw, pos + 4 + length
        try:
            return raw.decode("utf-8"), pos + 4 + length
        except UnicodeDecodeError as exc:
            raise Rejected(str(exc)) from None
    if tag != 0x06:
        raise Rejected(f"unknown tag {tag}")
    if depth >= MAX_LIST_DEPTH:
        raise Rejected("lists nested too deep")
    (count,) = struct.unpack(">I", _need(data, pos, 4))
    marks.append(("length", pos))
    pos += 4
    first = pos
    items = []
    for _ in range(count):
        if _need(data, pos, 1) != _need(data, first, 1):
            raise Rejected(f"element tag differs at offset {pos}")
        item, pos = _read(data, pos, depth + 1, marks)
        items.append(item)
    return items, pos


def decode(data, marks=None):
    """The value that the rv1 bytes ``data`` hold exactly, or Rejected.

    A ``marks`` list is given (kind, offset) of each field read: "tag" for a
    tag byte, "length" for a u32 length or count, "text" for the first byte
    of a non-empty text.
    """
    value, pos = _read(data, 0, 0, [] if marks is None else marks)
    if pos != len(data):
        raise Rejected(f"{len(data) - pos} trailing bytes")
    return value


def encode_value_frame(variant, codec_id, data):
    """The whole frame of an Export or RespValue carrying ``data``."""
    (tag,) = [tag for tag, name in VALUE_FRAME_TAGS.items() if name == variant]
    codec = codec_id.encode("utf-8")
    body = (bytes([tag]) + struct.pack(">H", len(codec)) + codec
            + struct.pack(">I", len(data)) + data)
    return struct.pack(">I", len(body)) + body


def decode_value_frame(frame):
    """(variant name, codec id, value bytes) of one whole value frame.

    Rejected when the bytes are not exactly one well-formed frame; NotCovered
    when they are one whole frame of another variant, which this reference
    does not read.
    """
    (body_len,) = struct.unpack(">I", _need(frame, 0, 4))
    if 4 + body_len != len(frame):
        raise Rejected("frame length does not match its declared body")
    if body_len == 0:
        raise Rejected("empty body")
    tag = frame[4]
    if tag not in VALUE_FRAME_TAGS:
        raise NotCovered(tag)
    (codec_len,) = struct.unpack(">H", _need(frame, 5, 2))
    try:
        codec_id = _need(frame, 7, codec_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise Rejected(str(exc)) from None
    pos = 7 + codec_len
    (data_len,) = struct.unpack(">I", _need(frame, pos, 4))
    data = _need(frame, pos + 4, data_len)
    if pos + 4 + data_len != len(frame):
        raise Rejected("bytes after the payload")
    return VALUE_FRAME_TAGS[tag], codec_id, data
