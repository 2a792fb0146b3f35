"""A plain rv1 codec and frame reader and writer, written from the wire description.

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

A Map (0x03) or FlatMap (0x04) body is the tag, an object id (u64 incarnation,
u64 serial, the serial not 0), then a pipeline: a u16 stage count (not 0) and
the stages. A stage is its fn id as a non-empty rv1 text, a u16 capture count
and the captures. A capture is 0x01 and a payload whose codec id is "rv1" and
whose bytes are one rv1 value exactly, or 0x02 and a descriptor. A descriptor
is the rv1 text "host:port" (host non-empty, with no colon and no character
that str.isspace calls whitespace; port 1-65535 in ASCII decimal with no
leading zero), then an object id. A
RespDescriptor (0x08) body is the tag and one descriptor.

A name is a u16 length and that many bytes of UTF-8. A Rebind (0x01) body is
the tag, a name and a descriptor; a Lookup (0x02) body the tag and a name; a
Get (0x05) or Stats (0x07) body the tag and an object id; a RespStats (0x0A)
body the tag and two u64 counts (serializations, gets); a RespAck (0x0B) body
the tag alone; a RespError (0x0C) body the tag, a u8 code and a name. In every
body the fields end exactly at the body's end; a body with any other tag is
refused.
"""
import struct

MAX_LIST_DEPTH = 100
VALUE_FRAME_TAGS = {0x06: "Export", 0x09: "RespValue"}
PIPELINE_FRAME_TAGS = {0x03: "Map", 0x04: "FlatMap"}
DESCRIPTOR_FRAME_TAG = 0x08
# The variants whose fields are names, object ids and plain numbers
OTHER_FRAME_TAGS = {0x01: "Rebind", 0x02: "Lookup", 0x05: "Get", 0x07: "Stats",
                    0x0A: "RespStats", 0x0B: "RespAck", 0x0C: "RespError"}


class Unencodable(Exception):
    """The value has no rv1 encoding."""


class BadName(Unencodable):
    """The name has no UTF-8 encoding, or one longer than a u16 length can say."""


class Rejected(Exception):
    """The bytes are not a well-formed value, or frame."""


class NotCovered(Exception):
    """The frame is whole, but not a value frame (``decode_value_frame`` only)."""


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


# -- every other frame -----------------------------------------------------------
#
# Read as plain tuples:
#   ("Map" or "FlatMap", (incarnation, serial), [(fn id, [capture, ...]), ...])
#   ("RespDescriptor", descriptor)
#   ("Rebind", name, descriptor)          ("Lookup", name)
#   ("Get" or "Stats", (incarnation, serial))
#   ("RespStats", serializations, gets)   ("RespAck",)
#   ("RespError", code, text)
# with a capture ("inline", value) or ("ref", descriptor), and a descriptor
# (host, port, incarnation, serial).


def _frame(tag, body):
    body = bytes([tag]) + body
    return struct.pack(">I", len(body)) + body


def _encode_descriptor(descriptor):
    host, port, incarnation, serial = descriptor
    return encode(f"{host}:{port}") + struct.pack(">QQ", incarnation, serial)


def encode_pipeline_frame(variant, target, stages):
    """The whole frame of a Map or FlatMap, or Unencodable."""
    (tag,) = [tag for tag, name in PIPELINE_FRAME_TAGS.items() if name == variant]
    body = struct.pack(">QQ", *target) + struct.pack(">H", len(stages))
    for fn_id, captures in stages:
        body += encode(fn_id) + struct.pack(">H", len(captures))
        for kind, held in captures:
            if kind == "inline":
                value = encode(held)
                body += b"\x01" + struct.pack(">H", 3) + b"rv1" + struct.pack(">I", len(value)) + value
            else:
                body += b"\x02" + _encode_descriptor(held)
    return _frame(tag, body)


def encode_descriptor_frame(descriptor):
    """The whole frame of a RespDescriptor, or Unencodable."""
    return _frame(DESCRIPTOR_FRAME_TAG, _encode_descriptor(descriptor))


def _encode_name(text):
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise BadName(str(exc)) from None
    if len(raw) > 0xFFFF:
        raise BadName(f"{len(raw)} bytes")
    return struct.pack(">H", len(raw)) + raw


def encode_other_frame(read):
    """The whole frame of a Rebind, Lookup, Get, Stats, RespStats, RespAck or
    RespError, or Unencodable."""
    variant, *fields = read
    (tag,) = [tag for tag, name in OTHER_FRAME_TAGS.items() if name == variant]
    if variant == "Rebind":
        body = _encode_name(fields[0]) + _encode_descriptor(fields[1])
    elif variant == "Lookup":
        body = _encode_name(fields[0])
    elif variant in ("Get", "Stats"):
        body = struct.pack(">QQ", *fields[0])
    elif variant == "RespStats":
        body = struct.pack(">QQ", *fields)
    elif variant == "RespAck":
        body = b""
    else:
        body = bytes([fields[0]]) + _encode_name(fields[1])
    return _frame(tag, body)


def encode_frame(read):
    """The frame that ``decode_frame`` read as ``read``."""
    if read[0] in VALUE_FRAME_TAGS.values():
        return encode_value_frame(*read)
    if read[0] == "RespDescriptor":
        return encode_descriptor_frame(read[1])
    if read[0] in OTHER_FRAME_TAGS.values():
        return encode_other_frame(read)
    return encode_pipeline_frame(*read)


def _object_id(frame, pos, marks):
    incarnation, serial = struct.unpack(">QQ", _need(frame, pos, 16))
    marks.append(("serial", pos + 8))
    if serial == 0:
        raise Rejected(f"object id with serial 0 at offset {pos}")
    return (incarnation, serial), pos + 16


def _text(frame, pos, marks):
    """(text, offset after it) for an rv1 text at ``pos``."""
    if _need(frame, pos, 1)[0] != 0x04:
        raise Rejected(f"not a text at offset {pos}")
    marks.append(("tag", pos))
    (length,) = struct.unpack(">I", _need(frame, pos + 1, 4))
    marks.append(("length", pos + 1))
    if length:
        marks.append(("text", pos + 5))
    try:
        return _need(frame, pos + 5, length).decode("utf-8"), pos + 5 + length
    except UnicodeDecodeError as exc:
        raise Rejected(str(exc)) from None


def _name(frame, pos, marks):
    """(text, offset after it) for a name at ``pos``."""
    (length,) = struct.unpack(">H", _need(frame, pos, 2))
    if length:
        marks.append(("text", pos + 2))
    try:
        return _need(frame, pos + 2, length).decode("utf-8"), pos + 2 + length
    except UnicodeDecodeError as exc:
        raise Rejected(str(exc)) from None


def _descriptor(frame, pos, marks):
    text, pos = _text(frame, pos, marks)
    host, sep, port = text.rpartition(":")
    if (not sep or not host or ":" in host or any(ch.isspace() for ch in host)
            or not port or any(ch not in "0123456789" for ch in port) or port[0] == "0"
            or int(port) > 65535):
        raise Rejected(f"bad endpoint {text!r}")
    object_id, pos = _object_id(frame, pos, marks)
    return (host, int(port)) + object_id, pos


def _capture(frame, pos, marks):
    kind = _need(frame, pos, 1)[0]
    marks.append(("tag", pos))
    if kind == 0x02:
        descriptor, pos = _descriptor(frame, pos + 1, marks)
        return ("ref", descriptor), pos
    if kind != 0x01:
        raise Rejected(f"unknown capture kind {kind}")
    (codec_len,) = struct.unpack(">H", _need(frame, pos + 1, 2))
    if _need(frame, pos + 3, codec_len) != b"rv1":
        raise Rejected("inline capture codec is not rv1")
    pos += 3 + codec_len
    (length,) = struct.unpack(">I", _need(frame, pos, 4))
    marks.append(("length", pos))
    inner = []
    value = decode(_need(frame, pos + 4, length), inner)
    marks.extend((kind, at + pos + 4) for kind, at in inner)
    return ("inline", value), pos + 4 + length


def decode_frame(frame, marks=None):
    """The plain reading of one whole frame, of any of the twelve variants.

    Rejected when the bytes are not exactly one well-formed frame. A ``marks``
    list is given (kind, frame offset) of the fields read, as ``decode`` gives
    them, with a capture kind counted as a tag, "text" for the first byte of a
    non-empty name, and "serial" for an object id's serial.
    """
    marks = [] if marks is None else marks
    (body_len,) = struct.unpack(">I", _need(frame, 0, 4))
    if 4 + body_len != len(frame):
        raise Rejected("frame length does not match its declared body")
    if body_len == 0:
        raise Rejected("empty body")
    tag = frame[4]
    marks.append(("length", 0))
    if tag in VALUE_FRAME_TAGS:
        return decode_value_frame(frame)
    if tag == DESCRIPTOR_FRAME_TAG:
        read, pos = _descriptor(frame, 5, marks)
        read = ("RespDescriptor", read)
    elif tag in PIPELINE_FRAME_TAGS:
        target, pos = _object_id(frame, 5, marks)
        (count,) = struct.unpack(">H", _need(frame, pos, 2))
        if count == 0:
            raise Rejected("empty pipeline")
        pos += 2
        stages = []
        for _ in range(count):
            fn_id, pos = _text(frame, pos, marks)
            if not fn_id:
                raise Rejected("empty fn id")
            (ncaptures,) = struct.unpack(">H", _need(frame, pos, 2))
            pos += 2
            captures = []
            for _ in range(ncaptures):
                capture, pos = _capture(frame, pos, marks)
                captures.append(capture)
            stages.append((fn_id, captures))
        read = (PIPELINE_FRAME_TAGS[tag], target, stages)
    elif tag in OTHER_FRAME_TAGS:
        read, pos = _other(OTHER_FRAME_TAGS[tag], frame, marks)
    else:
        raise Rejected(f"unknown tag {tag}")
    if pos != len(frame):
        raise Rejected(f"{len(frame) - pos} bytes after the last field")
    return read


def _other(variant, frame, marks):
    """(reading, offset after it) of the fields of a ``variant`` body at offset 5."""
    if variant == "Rebind":
        name, pos = _name(frame, 5, marks)
        descriptor, pos = _descriptor(frame, pos, marks)
        return (variant, name, descriptor), pos
    if variant == "Lookup":
        name, pos = _name(frame, 5, marks)
        return (variant, name), pos
    if variant in ("Get", "Stats"):
        target, pos = _object_id(frame, 5, marks)
        return (variant, target), pos
    if variant == "RespStats":
        return (variant, *struct.unpack(">QQ", _need(frame, 5, 16))), 21
    if variant == "RespAck":
        return (variant,), 5
    code = _need(frame, 5, 1)[0]
    text, pos = _name(frame, 6, marks)
    return (variant, code, text), pos
