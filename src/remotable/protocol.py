"""Bit-exact wire protocol: value codec, message variants, and framing.

Every host-to-host exchange is one framed request answered by exactly one
framed response. A frame is a 4-byte big-endian body length followed by the
body; the body is a 1-byte variant tag followed by the variant's fields in
declared order. Each variant's layout is one row of the variant table
(_VARIANTS), read by both encode_message and decode_message; a variant's tag
is its row number, and tags are frozen. decode_message reads one frame off the
front of a bytes buffer, and trailing bytes belong to the next frame;
decode_frame reads a buffer that must hold exactly one whole frame.

Value codec ("rv1"), tag byte then payload:

    0x01  integer   signed 64-bit big-endian
    0x02  float     IEEE-754 binary64 big-endian
    0x03  boolean   one byte, 0x00 or 0x01
    0x04  text      u32 length + UTF-8 bytes
    0x05  blob      u32 length + raw bytes
    0x06  list      u32 count + element encodings, all sharing one tag

Sub-encodings used inside message bodies:

    name        u16 length + UTF-8 (Rebind/Lookup names, error text)
    object id   u64 incarnation + u64 serial
    descriptor  "host:port" as an rv1 text + object id
    payload     u16 codec-id length + codec id + u32 length + value bytes
    capture     u8 kind (0x01 inline, 0x02 reference) + payload or descriptor
    stage       fn id as an rv1 text + u16 capture count + captures
    pipeline    u16 stage count + stages

Encodings are canonical: equal values produce byte-equal frames, and
re-encoding a decoded message reproduces the original bytes.

A flat list of texts, or of at least BULK_MIN_FIXED ints or floats (one
exact type throughout, checked with one countOf over the element types), is
encoded and decoded in bulk, with C-level strided copies instead of one
Python call per element; the bytes are the same as element by element. An
int or float list is packed in place: one struct call packs every element
big-endian, the output grows by the list's size with those bytes and the
tag column appended, and the tag column and each of the 8 byte columns are
then copied into the list's 9-byte rows with one strided copy each. No
tagged row template is built; the temporaries besides the packed bytes are
a ninth of the list's size each. Any
irregularity on decode (a wrong tag, truncation, bad UTF-8) falls back to
the element-by-element reader, so errors and their offsets do not depend on
the fast path. Lists may nest at most MAX_LIST_DEPTH deep in either
direction.

A value payload (an Export or a RespValue) is copied once on each side of
the frame. encode_message writes the frame's head (length prefix, tag, codec
id, payload length) and joins the payload's bytes on to it, so they are
copied only into the frame. decode_message slices an rv1 payload that fills
its body straight out of the frame; any other body, well-formed or not, is
read field by field, so every error and offset stays the same.

There is one rv1 reader, and it either builds the value or only checks it.
decode_value builds; check_value, which a host runs on an Export whose bytes
it keeps, walks the same code with building off, so it accepts the same bytes
and raises the same errors at the same offsets. Checking makes no int or float
list and copies no blob; a text list is still decoded, as one joined text.

Decoders return (value, next offset), reading at offsets into the body. An
endpoint text is parsed once, then looked up (_ENDPOINTS), and an endpoint or
a stage's fn id is rendered to rv1 text once, then looked up (_TEXTS).
Endpoints are interned (one EndpointAddr per host:port), so a memo keyed by
endpoint hashes and compares it by identity. The three memos (_ENDPOINTS,
_TEXTS, _PIPELINES) keep one rule, in _remember: at most MEMO_BYTES each,
charged by their keys' bytes (by the texts', in _TEXTS), emptied when the next
entry would pass that, successes only, and no entry larger than the budget.

Three frames of a Map round trip are read or written in one step. decode_message
reads a Map or FlatMap whose pipeline bytes are remembered (see _PIPELINES)
after an object id with a nonzero serial, and a RespDescriptor whose endpoint
text is already in _ENDPOINTS and whose object id ends the body; encode_message
writes a RespDescriptor whose endpoint text is already in _TEXTS. Any
other frame or message, well-formed or not, goes to the field reader or writer,
so every byte, error and offset stays the same.

A Map or FlatMap pipeline is read and written in one flat pass per stage, with
direct struct calls at offsets. An inline capture's value is read by the rv1
reader straight from the frame body and written by the rv1 writer straight
into the frame, its length filled in after; no ValuePayload is made for it.
An inline capture of an int (exactly int, not bool or an IntEnum) that fits
64 bits crosses in one step: it is written as one constant 11-byte head (the
capture kind, the codec id, payload length 9, the int tag) and its 8 bytes,
and a capture that starts with that head and has its 8 bytes in the body is
read with one unpack. Any other capture, or a body cut inside those 8 bytes,
takes the general path, so the bytes, errors and offsets are the same. Each
field is read once, and a fault is named where it is found. An inline capture
that is not an rv1 value ending exactly at its payload's end is named by
reading its payload alone, so offsets inside a capture's value count from its
payload's start. The pipeline's bytes are copied as a memo key only when the
memo will keep it. A pipeline that decodes is remembered by its bytes
(see _PIPELINES); a Map or FlatMap that carries the same bytes again is then
read by decode_message's one-step path, which looks the pipeline up instead of
reading it.

Messages and the records in them are frozen dataclasses with __slots__ and no
__dict__. Decoded ones are built by one builder per class (model._builder)
without running their constructors, since the readers have already checked
what those constructors would; each variant's builder is in its row of
_DECODERS, and a host's replies and a node's requests are built by the same
builders.
"""
from __future__ import annotations

import struct
import sys
import threading
from array import array
from dataclasses import dataclass, fields
from functools import partial
from operator import countOf
from typing import Any, NoReturn, Union

from .errors import NotSerializableError, ProtocolError
from .model import (
    EndpointAddr, ObjectId, RemoteRefDescriptor, _builder, _frozen, _new_descriptor, _new_id,
)
from .shipping import (
    InlineValue, ShippedFn, _new_inline, _new_pipeline, _new_ref, _new_stage,
)

CODEC_RV1 = "rv1"
DEFAULT_PORT = 7099
MAX_BODY_LEN = 2**32 - 1

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
MAX_LIST_DEPTH = 100
# Shorter int/float lists go element by element: the strided copies of the
# bulk path cost more than they save below this length.
BULK_MIN_FIXED = 8
# Bytes each of the codec's memos holds before it starts over (see
# _remember). A budget in bytes, not in entries, so that long endpoint texts
# or pipelines cannot pin large amounts of memory.
MEMO_BYTES = 1 << 16

TAG_INT = 0x01
TAG_FLOAT = 0x02
TAG_BOOL = 0x03
TAG_TEXT = 0x04
TAG_BLOB = 0x05
TAG_LIST = 0x06

_CAPTURE_INLINE = 0x01
_CAPTURE_REF = 0x02

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_TEXT_HEAD = struct.Struct(">BI")
_OBJECT_ID_PAIR = struct.Struct(">QQ")
# The rv1 codec id as a name field, and an inline rv1 capture up to its
# payload length: kind byte, then that name
_RV1_CODEC_NAME = _U16.pack(len(CODEC_RV1)) + CODEC_RV1.encode()
_INLINE_RV1 = _U8.pack(_CAPTURE_INLINE) + _RV1_CODEC_NAME
# An inline rv1 int capture up to its 8 value bytes: that head, the payload
# length 9, then the int tag
_INT_CAPTURE = _INLINE_RV1 + _U32.pack(1 + _I64.size) + bytes((TAG_INT,))
_INT_CAPTURE_SIZE = len(_INT_CAPTURE) + _I64.size

# rv1 numbers are big-endian; array() holds them in native order.
_SWAP = sys.byteorder == "little"


@_frozen
@dataclass(frozen=True, slots=True)
class ValuePayload:
    """Encoded bytes of one value plus the codec that produced them."""

    codec_id: str
    data: bytes


_new_payload = _builder(ValuePayload)

# --------------------------------------------------------------------------
# Message variants. Each one's tag and wire layout is its row of _VARIANTS
# below; requests and responses are disjoint sets.
# --------------------------------------------------------------------------


@_frozen
@dataclass(frozen=True, slots=True)
class Rebind:
    name: str
    descriptor: RemoteRefDescriptor


@_frozen
@dataclass(frozen=True, slots=True)
class Lookup:
    name: str


@_frozen
@dataclass(frozen=True, slots=True)
class Map:
    target: ObjectId
    fn: ShippedFn


@_frozen
@dataclass(frozen=True, slots=True)
class FlatMap:
    target: ObjectId
    fn: ShippedFn


@_frozen
@dataclass(frozen=True, slots=True)
class Get:
    target: ObjectId


@_frozen
@dataclass(frozen=True, slots=True)
class Export:
    payload: ValuePayload


@_frozen
@dataclass(frozen=True, slots=True)
class Stats:
    target: ObjectId


@_frozen
@dataclass(frozen=True, slots=True)
class RespDescriptor:
    descriptor: RemoteRefDescriptor


@_frozen
@dataclass(frozen=True, slots=True)
class RespValue:
    payload: ValuePayload


@_frozen
@dataclass(frozen=True, slots=True)
class RespStats:
    serialization_count: int
    get_count: int


@_frozen
@dataclass(frozen=True, slots=True)
class RespAck:
    pass


@_frozen
@dataclass(frozen=True, slots=True)
class RespError:
    code: int
    text: str


Message = Union[
    Rebind, Lookup, Map, FlatMap, Get, Export, Stats,
    RespDescriptor, RespValue, RespStats, RespAck, RespError,
]

# --------------------------------------------------------------------------
# Value codec
# --------------------------------------------------------------------------


def _tag_for(value: Any) -> int:
    if isinstance(value, bool):
        return TAG_BOOL
    if isinstance(value, int):
        return TAG_INT
    if isinstance(value, float):
        return TAG_FLOAT
    if isinstance(value, str):
        return TAG_TEXT
    if isinstance(value, (bytes, bytearray)):
        return TAG_BLOB
    if isinstance(value, list):
        return TAG_LIST
    raise NotSerializableError(f"no codec binding for {type(value).__name__}")


def _encode_raw(value: Any, out: bytearray, depth: int = 0) -> None:
    tag = _tag_for(value)
    out.append(tag)
    if tag == TAG_BOOL:
        out.append(0x01 if value else 0x00)
    elif tag == TAG_INT:
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise NotSerializableError(f"integer out of 64-bit range: {value}")
        out += _I64.pack(value)
    elif tag == TAG_FLOAT:
        out += _F64.pack(value)
    elif tag == TAG_TEXT:
        try:
            encoded = value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise _not_utf8(exc) from None
        out += _U32.pack(len(encoded))
        out += encoded
    elif tag == TAG_BLOB:
        out += _U32.pack(len(value))
        out += bytes(value)
    elif tag == TAG_LIST:
        if depth >= MAX_LIST_DEPTH:
            raise NotSerializableError(f"lists nested deeper than {MAX_LIST_DEPTH}")
        out += _U32.pack(len(value))
        kind = type(value[0]) if value else None
        bulk = _BULK_ENCODERS.get(kind)
        if (bulk is not None and (bulk is _put_texts or len(value) >= BULK_MIN_FIXED)
                and countOf(map(type, value), kind) == len(value)):
            bulk(value, out)
            return
        element_tag = None
        for element in value:
            found = _tag_for(element)
            if element_tag is None:
                element_tag = found
            elif found != element_tag:
                raise NotSerializableError("list elements must share one codec tag")
            _encode_raw(element, out, depth + 1)


def _not_utf8(exc: UnicodeEncodeError) -> NotSerializableError:
    # a str can hold lone surrogates, which have no UTF-8 encoding
    return NotSerializableError(f"text has no UTF-8 encoding: {exc}")


def _put_fixed(tag: int, fmt: str, value: list, out: bytearray) -> None:
    """Write each element of ``value`` as ``tag`` then its 8 big-endian bytes.

    struct packs the whole list big-endian in one call. ``out`` is grown by
    the list's encoded size by appending the packed bytes and the tag column,
    and then the tag column and each of the 8 byte columns are copied into
    their places in the 9-byte rows with one strided copy each. No tagged row
    template is built; besides the packed bytes, each temporary (the tag
    column, one byte column at a time) is a ninth of the list's size.
    """
    count = len(value)
    data = struct.pack(f">{count}{fmt}", *value)
    tags = bytes((tag,)) * count
    start = len(out)
    out += data
    out += tags
    out[start::9] = tags
    for k in range(8):
        out[start + 1 + k::9] = data[k::8]


def _put_ints(value: list, out: bytearray) -> None:
    try:
        _put_fixed(TAG_INT, "q", value, out)
    except struct.error:
        bad = next(v for v in value if not _INT64_MIN <= v <= _INT64_MAX)
        raise NotSerializableError(f"integer out of 64-bit range: {bad}") from None


def _put_floats(value: list, out: bytearray) -> None:
    _put_fixed(TAG_FLOAT, "d", value, out)


def _put_texts(value: list, out: bytearray) -> None:
    try:
        encoded = list(map(str.encode, value))
    except UnicodeEncodeError as exc:
        raise _not_utf8(exc) from None
    parts: list = [None] * (2 * len(encoded))
    parts[0::2] = [_TEXT_HEAD.pack(TAG_TEXT, n) for n in map(len, encoded)]
    parts[1::2] = encoded
    out += b"".join(parts)


# Keyed by exact type: bool must not take the int path, and int subclasses
# such as IntEnum go element by element like any other mixed list.
_BULK_ENCODERS = {int: _put_ints, float: _put_floats, str: _put_texts}


def encode_value(value: Any) -> ValuePayload:
    """Encode a codec-supported value; equal values give byte-equal payloads."""
    out = bytearray()
    _encode_raw(value, out)
    return _new_payload(CODEC_RV1, bytes(out))


def _short(buf: bytes, pos: int, size: int) -> ProtocolError:
    return ProtocolError(f"short body: need {size} bytes at offset {pos}, have {len(buf) - pos}")


def _unpack(fmt: struct.Struct, buf: bytes, pos: int) -> tuple[Any, int]:
    try:
        return fmt.unpack_from(buf, pos)[0], pos + fmt.size
    except struct.error:
        raise _short(buf, pos, fmt.size) from None


def _take_bytes(buf: bytes, length: int, pos: int,
                build: bool = True) -> tuple[bytes | None, int]:
    end = pos + length
    if end > len(buf):
        raise _short(buf, pos, length)
    return buf[pos:end] if build else None, end


def _take_text(head: struct.Struct, what: str, buf: bytes, pos: int, offset: int = -1) -> tuple:
    """UTF-8 text after a ``head`` length; errors name ``what`` and ``offset`` (default pos)."""
    offset = pos if offset < 0 else offset
    raw, end = _take_bytes(buf, *_unpack(head, buf, pos))
    try:
        return raw.decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad UTF-8 in {what} at offset {offset}: {exc}") from exc


def _take_value(buf: bytes, pos: int, depth: int = 0, build: bool = True) -> tuple[Any, int]:
    """One rv1 value at ``pos``; with ``build`` off, lists and blobs are checked, not built."""
    offset = pos
    if pos >= len(buf):
        raise _short(buf, pos, 1)
    tag = buf[pos]
    pos += 1
    if tag == TAG_INT or tag == TAG_FLOAT:
        return _unpack(_I64 if tag == TAG_INT else _F64, buf, pos)
    if tag == TAG_BOOL:
        flag, pos = _unpack(_U8, buf, pos)
        if flag > 1:
            raise ProtocolError(f"bad boolean byte 0x{flag:02x} at offset {offset}")
        return flag == 1, pos
    if tag == TAG_TEXT:
        return _take_text(_U32, "text", buf, pos, offset)
    if tag == TAG_BLOB:
        return _take_bytes(buf, *_unpack(_U32, buf, pos), build)
    if tag != TAG_LIST:
        raise ProtocolError(f"unknown value tag 0x{tag:02x} at offset {offset}")
    if depth >= MAX_LIST_DEPTH:
        raise ProtocolError(f"lists nested deeper than {MAX_LIST_DEPTH} at offset {offset}")
    count, pos = _unpack(_U32, buf, pos)
    bulk = _BULK_DECODERS.get(buf[pos]) if count and pos < len(buf) else None
    taken = bulk(buf, pos, count, build) if bulk is not None else None
    if taken is not None:
        return taken
    items = []
    first = pos  # every element's tag must match the first one's
    for _ in range(count):
        if pos >= len(buf):
            raise ProtocolError(f"truncated list at offset {pos}")
        if buf[pos] != buf[first]:
            raise ProtocolError(f"heterogeneous list at offset {pos}")
        item, pos = _take_value(buf, pos, depth + 1, build)
        items.append(item)
    return items, pos


# Bulk readers for a list of ``count`` elements starting at ``pos``. Each
# returns (items, next offset), or (None, next offset) when not building, or
# None on anything irregular; the element-by-element reader then produces the
# error.


def _take_fixed(buf: bytes, pos: int, count: int, build: bool, tag: int,
                typecode: str) -> tuple | None:
    end = pos + 9 * count
    if count < BULK_MIN_FIXED or end > len(buf) or buf[pos:end:9].count(tag) != count:
        return None
    if not build:
        return None, end
    raw = bytearray(8 * count)
    for k in range(8):
        raw[k::8] = buf[pos + 1 + k:end:9]
    values = array(typecode, raw)
    del raw  # the list below is built from the array alone
    if _SWAP:
        values.byteswap()
    return values.tolist(), end


def _take_texts(buf: bytes, pos: int, count: int, build: bool) -> tuple | None:
    head = _TEXT_HEAD.unpack_from
    bodies = []
    try:
        for _ in range(count):
            tag, length = head(buf, pos)  # struct.error once pos passes the end
            if tag != TAG_TEXT:
                return None
            start = pos + 5
            pos = start + length
            bodies.append(buf[start:pos])
        if pos > len(buf):
            return None
        if build:
            return list(map(bytes.decode, bodies)), pos
        # NUL is one whole character, so the joined text is UTF-8 exactly
        # when every body is: no character can straddle two bodies
        b"\0".join(bodies).decode()
    except (struct.error, UnicodeDecodeError):
        return None
    return None, pos


_BULK_DECODERS = {TAG_INT: partial(_take_fixed, tag=TAG_INT, typecode="q"),
                  TAG_FLOAT: partial(_take_fixed, tag=TAG_FLOAT, typecode="d"),
                  TAG_TEXT: _take_texts}


def decode_value(payload: ValuePayload) -> Any:
    """Inverse of encode_value; rejects unknown codecs and malformed bytes."""
    return _read_value(payload, True)


def check_value(payload: ValuePayload) -> None:
    """Raise exactly what decode_value would raise, without building the value."""
    _read_value(payload, False)


def _read_value(payload: ValuePayload, build: bool) -> Any:
    if payload.codec_id != CODEC_RV1:
        raise ProtocolError(f"unknown codec id {payload.codec_id!r}")
    data = payload.data
    value, pos = _take_value(data, 0, 0, build)
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes after value")
    return value


# --------------------------------------------------------------------------
# Message bodies
# --------------------------------------------------------------------------


def _put_name(text: str, out: bytearray) -> None:
    try:
        encoded = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ProtocolError(f"name has no UTF-8 encoding: {exc}") from None
    if len(encoded) > 0xFFFF:
        raise ProtocolError(f"name too long: {len(encoded)} bytes")
    out += _U16.pack(len(encoded))
    out += encoded


_take_name = partial(_take_text, _U16, "name")


def _put_object_id(object_id: ObjectId, out: bytearray) -> None:
    out += _OBJECT_ID_PAIR.pack(object_id.incarnation, object_id.serial)


def _take_object_id(buf: bytes, pos: int) -> tuple[ObjectId, int]:
    try:
        incarnation, serial = _OBJECT_ID_PAIR.unpack_from(buf, pos)
    except struct.error:  # name the one of the two u64 reads that overruns
        raise _short(buf, pos if len(buf) - pos < 8 else pos + 8, 8) from None
    if not serial:  # the one rule of ObjectId that a pair of u64s can break
        try:
            ObjectId(incarnation, serial)
        except ValueError as exc:
            raise ProtocolError(f"bad object id at offset {pos}: {exc}") from exc
    return _new_id(incarnation, serial), pos + 16


# The codec's memos, plain dicts read with one .get: endpoints parsed, keyed
# by their raw rv1 text; the rv1 text of endpoints and fn ids written, keyed
# by endpoint or fn id (an EndpointAddr never equals a str); and pipelines
# decoded, keyed by their bytes, if no inline capture is a list, so no
# request is handed a mutable object another request holds. Only successes
# are stored, so a bad one fails the same way every time.
_ENDPOINTS: dict[bytes, EndpointAddr] = {}
_TEXTS: dict[Union[EndpointAddr, str], bytes] = {}
_PIPELINES: dict[bytes, ShippedFn] = {}
# the bytes charged to each memo, by the memo's id
_CHARGED = dict.fromkeys(map(id, (_ENDPOINTS, _TEXTS, _PIPELINES)), 0)
_MEMO_LOCK = threading.Lock()


def _remember(memo: dict, key: Any, value: Any, size: int) -> Any:
    """Store ``value`` under ``key`` in ``memo``, charged ``size`` bytes; return ``value``.

    The one way into a memo. It is emptied first if the entry would take it
    past MEMO_BYTES; an entry larger than MEMO_BYTES is never kept.
    """
    if size > MEMO_BYTES:
        return value
    with _MEMO_LOCK:
        if key in memo:  # another thread stored it first
            return value
        charged = _CHARGED[id(memo)] + size
        if charged > MEMO_BYTES:
            memo.clear()
            charged = size
        memo[key] = value
        _CHARGED[id(memo)] = charged
    return value


def _rendered(key: Any, text: str) -> bytes:
    """The rv1 text of ``text``, kept in _TEXTS under ``key`` once it encodes."""
    rendered = bytearray()
    _encode_raw(text, rendered)
    return _remember(_TEXTS, key, bytes(rendered), len(rendered))


def _put_descriptor(descriptor: RemoteRefDescriptor, out: bytearray) -> None:
    endpoint = descriptor.endpoint
    out += _TEXTS.get(endpoint) or _rendered(endpoint, str(endpoint))
    _put_object_id(descriptor.id, out)


def _take_descriptor(buf: bytes, pos: int) -> tuple[RemoteRefDescriptor, int]:
    offset = pos
    # the rv1 text as long as its head says; cut short, it matches no stored key
    end = pos + 5 + int.from_bytes(buf[pos + 1:pos + 5], "big")
    endpoint = _ENDPOINTS.get(buf[pos:end])
    if endpoint is None:
        rendered, end = _take_value(buf, pos)
        if not isinstance(rendered, str):
            raise ProtocolError(f"descriptor endpoint is not text at offset {offset}")
        try:
            endpoint = EndpointAddr.parse(rendered)
        except ValueError as exc:
            raise ProtocolError(f"bad endpoint at offset {offset}: {exc}") from exc
        _remember(_ENDPOINTS, buf[pos:end], endpoint, end - pos)
    object_id, pos = _take_object_id(buf, end)
    return _new_descriptor(endpoint, object_id), pos


def _put_payload_head(payload: ValuePayload, out: bytearray) -> None:
    """The codec id and the length of ``payload``; encode_message joins its bytes on."""
    _put_name(payload.codec_id, out)
    out += _U32.pack(len(payload.data))


def _take_payload(buf: bytes, pos: int) -> tuple[ValuePayload, int]:
    codec_id, pos = _take_name(buf, pos)
    data, pos = _take_bytes(buf, *_unpack(_U32, buf, pos))
    return _new_payload(codec_id, data), pos


def _put_pipeline(pipeline: ShippedFn, out: bytearray) -> None:
    stages = pipeline.stages
    if len(stages) > 0xFFFF:
        raise ProtocolError("too many stages in one pipeline")
    out += _U16.pack(len(stages))
    for index, stage in enumerate(stages):
        fn_id = stage.fn_id
        out += _TEXTS.get(fn_id) or _rendered(fn_id, fn_id)
        captures = stage.captures
        if len(captures) > 0xFFFF:
            raise ProtocolError("too many captures in one stage")
        out += _U16.pack(len(captures))
        for ci, capture in enumerate(captures):
            if isinstance(capture, InlineValue):
                value = capture.value
                if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
                    out += _INT_CAPTURE
                    out += _I64.pack(value)
                    continue
                # the value is encoded in place, and its length filled in after
                out += _INLINE_RV1
                at = len(out)
                out += b"\0\0\0\0"
                try:
                    _encode_raw(value, out)
                except NotSerializableError as exc:
                    raise NotSerializableError(f"stage {index} capture {ci}: {exc}") from exc
                _U32.pack_into(out, at, len(out) - at - 4)
            else:  # a RemoteRef, the only other kind a Stage admits
                out.append(_CAPTURE_REF)
                _put_descriptor(capture.descriptor, out)


def _bad_fn_id(buf: bytes, pos: int, index: int) -> NoReturn:
    """Raise the fault of stage ``index``, whose fn id at ``pos`` is not one
    whole, non-empty UTF-8 text: the rv1 reader's, if the field is no value."""
    _take_value(buf, pos)
    raise ProtocolError(f"stage {index}: bad fn id at offset {pos}")


def _bad_capture(buf: bytes, pos: int, index: int, ci: int) -> NoReturn:
    """Raise the fault of a capture at ``pos`` that is neither a reference nor
    an rv1 value ending at its payload's end. The payload is read alone, so
    offsets inside the value count from the payload's start."""
    where = f"stage {index} capture {ci}"
    kind, at = _unpack(_U8, buf, pos)
    if kind != _CAPTURE_INLINE:
        raise ProtocolError(f"{where}: unknown capture kind 0x{kind:02x} at offset {pos}")
    payload, _ = _take_payload(buf, at)
    try:
        decode_value(payload)
    except ProtocolError as exc:
        raise ProtocolError(f"{where}: {exc}") from exc
    # not reached while the two reads agree; a disagreement must not pass
    raise ProtocolError(f"{where}: bad inline capture at offset {pos}")


def _take_pipeline(buf: bytes, pos: int) -> tuple[ShippedFn, int]:
    # A pipeline is the last field of its body, so the rest of the body is
    # its key; decode_message looks it up there before this reader runs.
    start = pos
    count, pos = _unpack(_U16, buf, pos)
    if count == 0:
        raise ProtocolError(f"empty pipeline at offset {pos - 2}")
    text_head = _TEXT_HEAD.unpack_from
    u16 = _U16.unpack_from
    u32 = _U32.unpack_from
    i64 = _I64.unpack_from
    stages = []
    shareable = True
    for index in range(count):
        try:
            tag, length = text_head(buf, pos)
            end = pos + 5 + length
            fn_id = buf[pos + 5:end].decode() if tag == TAG_TEXT and end <= len(buf) else ""
        except (struct.error, UnicodeDecodeError):
            fn_id = ""
        if not fn_id:
            _bad_fn_id(buf, pos, index)
        pos = end
        try:
            (ncaptures,) = u16(buf, pos)
        except struct.error:
            raise _short(buf, pos, 2) from None
        pos += 2
        captures = []
        for ci in range(ncaptures):
            end = pos + _INT_CAPTURE_SIZE
            if end <= len(buf) and buf.startswith(_INT_CAPTURE, pos):
                # an int capture whose 8 bytes are all there: read in one step
                captures.append(_new_inline(i64(buf, end - 8)[0], None, True))
                pos = end
            elif buf.startswith(_INLINE_RV1, pos):
                try:
                    (size,) = u32(buf, pos + 6)
                    value, end = _take_value(buf, pos + 10)
                except (struct.error, ProtocolError):
                    _bad_capture(buf, pos, index, ci)
                if end != pos + 10 + size:
                    _bad_capture(buf, pos, index, ci)
                pos = end
                if type(value) is list:
                    shareable = False
                captures.append(_new_inline(value, None, True))
            elif pos < len(buf) and buf[pos] == _CAPTURE_REF:
                descriptor, pos = _take_descriptor(buf, pos + 1)
                captures.append(_new_ref(descriptor))
            else:
                _bad_capture(buf, pos, index, ci)
        stages.append(_new_stage(fn_id, tuple(captures)))
    pipeline = _new_pipeline(tuple(stages))
    # the key is copied only for a pipeline the memo would keep
    if shareable and pos == len(buf) and pos - start <= MEMO_BYTES:
        _remember(_PIPELINES, buf[start:], pipeline, pos - start)
    return pipeline, pos


# Field codecs, each a (put, take) pair.
_NAME = (_put_name, _take_name)
_OBJECT_ID = (_put_object_id, _take_object_id)
_DESCRIPTOR = (_put_descriptor, _take_descriptor)
_PIPELINE = (_put_pipeline, _take_pipeline)
_PAYLOAD = (_put_payload_head, _take_payload)
_UINT8 = (lambda value, out: out.extend(_U8.pack(value)), partial(_unpack, _U8))
_UINT64 = (lambda value, out: out.extend(_U64.pack(value)), partial(_unpack, _U64))

# The variant table: one row per message class and the codecs of its fields
# in declared order. A variant's tag is its row number (Rebind = 1 ...
# RespError = 12); tags are frozen protocol, so new variants go at the end.
_VARIANTS = (
    (Rebind, _NAME, _DESCRIPTOR),
    (Lookup, _NAME),
    (Map, _OBJECT_ID, _PIPELINE),
    (FlatMap, _OBJECT_ID, _PIPELINE),
    (Get, _OBJECT_ID),
    (Export, _PAYLOAD),
    (Stats, _OBJECT_ID),
    (RespDescriptor, _DESCRIPTOR),
    (RespValue, _PAYLOAD),
    (RespStats, _UINT64, _UINT64),
    (RespAck,),
    (RespError, _UINT8, _NAME),
)
# One builder per variant (see model._builder): the decoder, a host's replies
# and a node's requests build messages through them
_BUILDERS = {cls: _builder(cls) for cls, *_ in _VARIANTS}
_new_map = _BUILDERS[Map]
_new_flat_map = _BUILDERS[FlatMap]
_new_resp_descriptor = _BUILDERS[RespDescriptor]
_new_resp_value = _BUILDERS[RespValue]
_new_resp_stats = _BUILDERS[RespStats]
_new_resp_ack = _BUILDERS[RespAck]
_new_resp_error = _BUILDERS[RespError]
# class -> (tag, ((attribute, put), ...)) and tag -> (builder, (take, ...))
_ENCODERS = {
    cls: (tag, tuple((f.name, put) for f, (put, _) in zip(fields(cls), codecs, strict=True)))
    for tag, (cls, *codecs) in enumerate(_VARIANTS, start=1)
}
_DECODERS = {
    tag: (_BUILDERS[cls], tuple(take for _, take in codecs))
    for tag, (cls, *codecs) in enumerate(_VARIANTS, start=1)
}
# Export and RespValue, whose one field is a payload: its bytes end the body.
_PAYLOAD_TAGS = frozenset(
    tag for tag, (cls, *codecs) in enumerate(_VARIANTS, start=1) if codecs == [_PAYLOAD]
)
# In a frame of one of them with an rv1 payload: the codec id at offset 5,
# the payload's u32 length after it, then its bytes.
_RV1_LENGTH_AT = 5 + len(_RV1_CODEC_NAME)
_RV1_DATA_AT = _RV1_LENGTH_AT + _U32.size
_RESP_DESCRIPTOR_TAG = 1 + _VARIANTS.index((RespDescriptor, _DESCRIPTOR))
# A Map or FlatMap frame: the tag, the target's object id, then the pipeline,
# whose bytes start at offset 21 and run to the end of the body
_PIPELINE_BUILDERS = {
    tag: _BUILDERS[cls] for tag, (cls, *codecs) in enumerate(_VARIANTS, start=1)
    if codecs == [_OBJECT_ID, _PIPELINE]
}
_PIPELINE_AT = 5 + _OBJECT_ID_PAIR.size
# The frame head of a RespDescriptor: the length prefix, then the tag
_FRAME_HEAD = struct.Struct(">IB")


# --------------------------------------------------------------------------
# Framing
# --------------------------------------------------------------------------


def encode_message(message: Message) -> bytes:
    """Encode one message as a complete frame (length prefix included)."""
    if type(message) is RespDescriptor:
        # a reply naming an endpoint already rendered is written here in one
        # step; anything else is written below
        descriptor = message.descriptor
        text = _TEXTS.get(descriptor.endpoint)
        if text is not None:
            object_id = descriptor.id
            return b"".join((_FRAME_HEAD.pack(len(text) + 17, _RESP_DESCRIPTOR_TAG), text,
                             _OBJECT_ID_PAIR.pack(object_id.incarnation, object_id.serial)))
    row = _ENCODERS.get(type(message))
    if row is None:
        raise ProtocolError(f"not a protocol message: {type(message).__name__}")
    tag, layout = row
    # The 4-byte length prefix is reserved up front and filled in at the end,
    # so the frame is copied only once, into the returned bytes. A payload's
    # bytes, which end their body, are not written into the head first: they
    # are joined on with it.
    body = bytearray(4)
    body.append(tag)
    for attribute, put in layout:
        put(getattr(message, attribute), body)
    data = message.payload.data if tag in _PAYLOAD_TAGS else b""
    body_len = len(body) - 4 + len(data)
    if body_len > MAX_BODY_LEN:
        raise ProtocolError(f"message body too large: {body_len} bytes")
    _U32.pack_into(body, 0, body_len)
    return b"".join((body, data)) if data else bytes(body)


def decode_message(buf: bytes) -> tuple[Message, int] | None:
    """Decode one message from the front of a bytes buffer.

    Returns (message, bytes consumed) so callers can keep trailing bytes for
    the next frame, or None when the buffer does not yet hold a complete
    frame. Malformed complete frames raise ProtocolError.
    """
    if len(buf) < 4:
        return None
    (body_len,) = _U32.unpack_from(buf)
    end = 4 + body_len
    if len(buf) < end:
        return None
    if body_len == 0:
        raise ProtocolError("empty frame body")
    tag = buf[4]
    if tag in _PIPELINE_BUILDERS:
        # a request whose pipeline bytes are remembered, after an object id
        # with a nonzero serial, is read here in one step; anything else below
        pipeline = _PIPELINES.get(buf[_PIPELINE_AT:end])
        if pipeline is not None:
            incarnation, serial = _OBJECT_ID_PAIR.unpack_from(buf, 5)
            if serial:
                return _PIPELINE_BUILDERS[tag](_new_id(incarnation, serial), pipeline), end
    elif tag == _RESP_DESCRIPTOR_TAG:
        # a reply naming an endpoint already parsed, then an object id that
        # ends the body, is read here in one step; anything else is read below
        text_end = 10 + int.from_bytes(buf[6:10], "big")
        endpoint = _ENDPOINTS.get(buf[5:text_end]) if text_end + 16 == end else None
        if endpoint is not None:
            incarnation, serial = _OBJECT_ID_PAIR.unpack_from(buf, text_end)
            if serial:
                descriptor = _new_descriptor(endpoint, _new_id(incarnation, serial))
                return _new_resp_descriptor(descriptor), end
    elif (tag in _PAYLOAD_TAGS and end >= _RV1_DATA_AT
            and buf.startswith(_RV1_CODEC_NAME, 5)
            and _U32.unpack_from(buf, _RV1_LENGTH_AT)[0] == end - _RV1_DATA_AT):
        # an rv1 payload that fills its body exactly is sliced straight out of
        # the frame; anything else is read below, which names its fault
        payload = _new_payload(CODEC_RV1, buf[_RV1_DATA_AT:end])
        return _DECODERS[tag][0](payload), end
    body = buf[4:end]
    row = _DECODERS.get(tag)
    if row is None:
        raise ProtocolError(f"unknown message tag 0x{tag:02x} at offset 4")
    build, takes = row
    pos, values = 1, []
    for take in takes:
        value, pos = take(body, pos)
        values.append(value)
    if pos != len(body):
        raise ProtocolError(f"{len(body) - pos} unconsumed bytes inside frame body")
    return build(*values), end


def decode_frame(frame: bytes) -> Message:
    """Decode a buffer that must hold exactly one complete frame."""
    decoded = decode_message(frame)
    if decoded is None or decoded[1] != len(frame):
        raise ProtocolError("frame length does not match its declared body")
    return decoded[0]
