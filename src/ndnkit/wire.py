"""TLV wire codec for Interest and Data packets.

Layout is bit-exact and canonical: every field has a fixed position, lengths
use the minimal varint form, and decode(encode(p)) == p for all packets.
Unknown types, duplicated or missing fields, non-minimal lengths, empty name
components, and bytes past the end of the outer TLV are all rejected, each as
a CodecError.

Varint lengths: one byte below 253; 0xFD + 2-byte big-endian up to 65535;
0xFE + 4-byte big-endian below 2^32.  Larger fields do not encode, and a
0xFF (8-byte) prefix decodes as OversizeField.  _Reader.read_len is the one
decoder of this form, for packet TLVs and key records alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .naming import MalformedName, Name

TYPE_INTEREST = 0x05
TYPE_DATA = 0x06
TYPE_NAME = 0x07
TYPE_NAME_COMPONENT = 0x08
TYPE_NONCE = 0x0A
TYPE_LIFETIME = 0x0C
TYPE_CONTENT = 0x15
TYPE_SIGNATURE = 0x17
TYPE_KEY_LOCATOR = 0x1C
TYPE_SCHEME_ID = 0x1D

DEFAULT_LIFETIME_MS = 4000


class CodecError(ValueError):
    """Base class for malformed packet encodings."""


class TruncatedPacket(CodecError):
    pass


class UnknownTlvType(CodecError):
    pass


class DuplicateField(CodecError):
    pass


class MissingField(CodecError):
    pass


class TrailingGarbage(CodecError):
    pass


class NonMinimalLength(CodecError):
    pass


class OversizeField(CodecError):
    pass


class EmptyNameComponent(CodecError):
    """A name or key locator carries a zero-length component."""


@dataclass(frozen=True)
class Interest:
    name: Name
    nonce: int
    lifetime_ms: int = DEFAULT_LIFETIME_MS

    def __post_init__(self):
        if not 0 <= self.nonce < 2**32:
            raise ValueError("nonce out of uint32 range")
        if not 0 <= self.lifetime_ms < 2**32:
            raise ValueError("lifetime out of uint32 range")


@dataclass(frozen=True)
class Data:
    name: Name
    content: bytes
    key_locator: Name
    scheme_id: int
    signature: bytes = b""

    def __post_init__(self):
        if not 0 <= self.scheme_id < 256:
            raise ValueError("scheme_id out of byte range")

    def with_signature(self, sig: bytes) -> "Data":
        return replace(self, signature=sig)


Packet = Interest | Data


def _encode_len(n: int) -> bytes:
    if n < 0xFD:
        return bytes([n])
    if n <= 0xFFFF:
        return b"\xfd" + n.to_bytes(2, "big")
    if n < 2**32:
        return b"\xfe" + n.to_bytes(4, "big")
    raise OversizeField(f"field length {n} exceeds the 4-byte varint range")


def _tlv(typ: int, value: bytes) -> bytes:
    return bytes([typ]) + _encode_len(len(value)) + value


def pack_varbytes(value: bytes) -> bytes:
    """Length-prefix a byte string with the packet varint; key records reuse it."""
    return _encode_len(len(value)) + value


def unpack_varbytes(buf: bytes, pos: int = 0) -> tuple[bytes, int]:
    """Inverse of pack_varbytes; returns (value, next offset)."""
    rd = _Reader(buf, pos, len(buf))
    value = rd.read_value(rd.read_len())
    return value, rd.pos


def _encode_components(name: Name) -> bytes:
    return b"".join(_tlv(TYPE_NAME_COMPONENT, c) for c in name.components)


def _encode_name(name: Name) -> bytes:
    if len(name) == 0:
        raise MalformedName("packets must carry a non-root name")
    return _tlv(TYPE_NAME, _encode_components(name))


def _encode_key_locator(name: Name) -> bytes:
    return _tlv(TYPE_KEY_LOCATOR, _encode_components(name))


def signed_portion(data: Data) -> bytes:
    """The byte string a Data signature covers: every TLV except the signature."""
    return (
        _encode_name(data.name)
        + _tlv(TYPE_CONTENT, data.content)
        + _encode_key_locator(data.key_locator)
        + _tlv(TYPE_SCHEME_ID, bytes([data.scheme_id]))
    )


def encode(packet: Packet) -> bytes:
    if isinstance(packet, Interest):
        body = (
            _encode_name(packet.name)
            + _tlv(TYPE_NONCE, packet.nonce.to_bytes(4, "big"))
            + _tlv(TYPE_LIFETIME, packet.lifetime_ms.to_bytes(4, "big"))
        )
        return _tlv(TYPE_INTEREST, body)
    if isinstance(packet, Data):
        body = signed_portion(packet) + _tlv(TYPE_SIGNATURE, packet.signature)
        return _tlv(TYPE_DATA, body)
    raise TypeError(f"not a packet: {packet!r}")


class _Reader:
    def __init__(self, buf: bytes, pos: int, end: int):
        self.buf = buf
        self.pos = pos
        self.end = end

    def at_end(self) -> bool:
        return self.pos >= self.end

    def read_len(self) -> int:
        """One varint length; the value it announces must fit before end."""
        buf, pos, end = self.buf, self.pos, self.end
        if pos >= end:
            raise TruncatedPacket("missing length prefix")
        first = buf[pos]
        pos += 1
        if first < 0xFD:
            length = first
        elif first == 0xFD:
            if pos + 2 > end:
                raise TruncatedPacket("cut off inside a 2-byte length")
            length = int.from_bytes(buf[pos : pos + 2], "big")
            pos += 2
            if length < 0xFD:
                raise NonMinimalLength("2-byte form used for a short length")
        elif first == 0xFE:
            if pos + 4 > end:
                raise TruncatedPacket("cut off inside a 4-byte length")
            length = int.from_bytes(buf[pos : pos + 4], "big")
            pos += 4
            if length <= 0xFFFF:
                raise NonMinimalLength("4-byte form used for a short length")
        else:
            raise OversizeField("length prefix beyond the 4-byte varint range")
        if pos + length > end:
            raise TruncatedPacket("value runs past the buffer")
        self.pos = pos
        return length

    def read_tl(self) -> tuple[int, int]:
        pos = self.pos
        if pos >= self.end:
            raise TruncatedPacket("header runs past the buffer")
        self.pos = pos + 1
        return self.buf[pos], self.read_len()

    def read_value(self, length: int) -> bytes:
        v = self.buf[self.pos : self.pos + length]
        self.pos += length
        return v


def _decode_components(value: bytes) -> tuple[bytes, ...]:
    rd = _Reader(value, 0, len(value))
    comps = []
    while not rd.at_end():
        typ, length = rd.read_tl()
        if typ != TYPE_NAME_COMPONENT:
            raise UnknownTlvType(f"expected a name component, got type {typ:#04x}")
        if length == 0:
            raise EmptyNameComponent("zero-length name component")
        comps.append(rd.read_value(length))
    return tuple(comps)


_INTEREST_FIELDS = (TYPE_NAME, TYPE_NONCE, TYPE_LIFETIME)
_DATA_FIELDS = (TYPE_NAME, TYPE_CONTENT, TYPE_KEY_LOCATOR, TYPE_SCHEME_ID, TYPE_SIGNATURE)

_FIELD_NAMES = {
    TYPE_NAME: "name",
    TYPE_NONCE: "nonce",
    TYPE_LIFETIME: "lifetime",
    TYPE_CONTENT: "content",
    TYPE_KEY_LOCATOR: "key locator",
    TYPE_SCHEME_ID: "scheme id",
    TYPE_SIGNATURE: "signature",
}


def _read_fields(rd: _Reader, expected: tuple[int, ...]) -> dict[int, bytes]:
    """Read the body TLVs of a packet, enforcing the fixed field order."""
    seen: dict[int, bytes] = {}
    order = 0
    while not rd.at_end():
        typ, length = rd.read_tl()
        if typ in seen:
            raise DuplicateField(f"repeated {_FIELD_NAMES[typ]} field")
        if typ not in expected:
            raise UnknownTlvType(f"type {typ:#04x} not valid here")
        idx = expected.index(typ)
        if idx < order:
            raise DuplicateField(f"repeated {_FIELD_NAMES[typ]} field")
        if idx > order:
            raise MissingField(f"missing {_FIELD_NAMES[expected[order]]} field")
        seen[typ] = rd.read_value(length)
        order += 1
    if order != len(expected):
        raise MissingField(f"missing {_FIELD_NAMES[expected[order]]} field")
    return seen


def decode(buf: bytes) -> Packet:
    """Parse one packet; any bytes-like buffer is accepted and copied once."""
    if not isinstance(buf, bytes):
        buf = bytes(memoryview(buf))
    if len(buf) < 2:
        raise TruncatedPacket("buffer shorter than any packet")
    rd = _Reader(buf, 0, len(buf))
    typ, length = rd.read_tl()
    body_end = rd.pos + length
    if body_end != len(buf):
        raise TrailingGarbage(f"{len(buf) - body_end} bytes past the packet end")
    if typ not in (TYPE_INTEREST, TYPE_DATA):
        raise UnknownTlvType(f"outer type {typ:#04x} is not a packet")

    if typ == TYPE_INTEREST:
        fields = _read_fields(_Reader(buf, rd.pos, body_end), _INTEREST_FIELDS)
        comps = _decode_components(fields[TYPE_NAME])
        if not comps:
            raise MissingField("interest name has no components")
        if len(fields[TYPE_NONCE]) != 4:
            raise TruncatedPacket("nonce must be exactly 4 bytes")
        if len(fields[TYPE_LIFETIME]) != 4:
            raise TruncatedPacket("lifetime must be exactly 4 bytes")
        return Interest(
            name=Name(comps),
            nonce=int.from_bytes(fields[TYPE_NONCE], "big"),
            lifetime_ms=int.from_bytes(fields[TYPE_LIFETIME], "big"),
        )

    fields = _read_fields(_Reader(buf, rd.pos, body_end), _DATA_FIELDS)
    comps = _decode_components(fields[TYPE_NAME])
    if not comps:
        raise MissingField("data name has no components")
    if len(fields[TYPE_SCHEME_ID]) != 1:
        raise TruncatedPacket("scheme id must be exactly 1 byte")
    return Data(
        name=Name(comps),
        content=fields[TYPE_CONTENT],
        key_locator=Name(_decode_components(fields[TYPE_KEY_LOCATOR])),
        scheme_id=fields[TYPE_SCHEME_ID][0],
        signature=fields[TYPE_SIGNATURE],
    )
