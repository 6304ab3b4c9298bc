"""TLV wire codec for Interest and Data packets.

Layout is bit-exact and canonical: every field has a fixed position, lengths
use the minimal varint form, and decode(encode(p)) == p for all packets.
Unknown types, duplicated or missing fields, non-minimal lengths, empty name
components, and bytes past the end of the outer TLV are all rejected, each as
a CodecError.

Varint lengths: one byte below 253; 0xFD + 2-byte big-endian up to 65535;
0xFE + 4-byte big-endian below 2^32.  Larger fields do not encode, and a
0xFF (8-byte) prefix decodes as OversizeField.  _Reader.read_len is the one
decoder of this form, for packet TLVs, name components and key records alike.

The header of every TLV with a one-byte length comes from a table built by
_encode_len, the one varint writer.  A name is encoded and decoded in one
pass: the decoder walks the components by offset, reading each length
through read_len.

decode reads a packet's body in a single walk over its fixed field order,
one TLV per field, and decodes the names after it.  A TLV out of place is
classified by its type: a field already read is a DuplicateField, a type
the packet does not carry an UnknownTlvType, and a later field a
MissingField for the one expected there.  A TLV after the last field is
classified the same way, and a body that ends early is a MissingField.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class Interest:
    name: Name
    nonce: int
    lifetime_ms: int = DEFAULT_LIFETIME_MS

    def __post_init__(self):
        if not 0 <= self.nonce < 2**32:
            raise ValueError("nonce out of uint32 range")
        if not 0 <= self.lifetime_ms < 2**32:
            raise ValueError("lifetime out of uint32 range")


@dataclass(frozen=True, slots=True)
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
        return Data(self.name, self.content, self.key_locator, self.scheme_id, sig)


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
    n = len(value)
    return (_SHORT_HEADERS[typ][n] if n < 0xFD else bytes([typ]) + _encode_len(n)) + value


def pack_varbytes(value: bytes) -> bytes:
    """Length-prefix a byte string with the packet varint; key records reuse it."""
    return _encode_len(len(value)) + value


def unpack_varbytes(buf: bytes, pos: int = 0) -> tuple[bytes, int]:
    """Inverse of pack_varbytes; returns (value, next offset)."""
    rd = _Reader(buf, pos, len(buf))
    value = rd.read_value(rd.read_len())
    return value, rd.pos


# a TLV's type and length bytes, for every type and every length of the
# one-byte form
_SHORT_HEADERS = {
    typ: [bytes([typ]) + _encode_len(n) for n in range(0xFD)]
    for typ in (TYPE_INTEREST, TYPE_DATA, TYPE_NAME, TYPE_NAME_COMPONENT, TYPE_NONCE,
                TYPE_LIFETIME, TYPE_CONTENT, TYPE_SIGNATURE, TYPE_KEY_LOCATOR, TYPE_SCHEME_ID)
}
_COMPONENT_HEADERS = _SHORT_HEADERS[TYPE_NAME_COMPONENT]


def _encode_components(name: Name) -> bytes:
    return b"".join([_COMPONENT_HEADERS[len(c)] + c if len(c) < 0xFD
                     else _tlv(TYPE_NAME_COMPONENT, c) for c in name])


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


def frame_data(portion: bytes, signature: bytes) -> bytes:
    """A Data packet's encoding, from its signed portion and its signature."""
    return _tlv(TYPE_DATA, portion + _tlv(TYPE_SIGNATURE, signature))


def encode(packet: Packet) -> bytes:
    if isinstance(packet, Interest):
        body = (
            _encode_name(packet.name)
            + _tlv(TYPE_NONCE, packet.nonce.to_bytes(4, "big"))
            + _tlv(TYPE_LIFETIME, packet.lifetime_ms.to_bytes(4, "big"))
        )
        return _tlv(TYPE_INTEREST, body)
    if isinstance(packet, Data):
        return frame_data(signed_portion(packet), packet.signature)
    raise TypeError(f"not a packet: {packet!r}")


class _Reader:
    def __init__(self, buf: bytes, pos: int, end: int):
        self.buf = buf
        self.pos = pos
        self.end = end

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


def _decode_components(value: bytes) -> Name:
    rd = _Reader(value, 0, len(value))
    comps = []
    pos = 0
    while pos < rd.end:
        rd.pos = pos + 1
        length = rd.read_len()
        if value[pos] != TYPE_NAME_COMPONENT:
            raise UnknownTlvType(f"expected a name component, got type {value[pos]:#04x}")
        if length == 0:
            raise EmptyNameComponent("zero-length name component")
        pos = rd.pos + length
        comps.append(value[rd.pos : pos])
    return tuple.__new__(Name, comps)  # each component was checked above


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


def _misplaced(typ: int, expected: tuple[int, ...], order: int) -> CodecError:
    """The error for a field of type typ read where expected[order] belongs
    (order == len(expected): past the last field)."""
    if typ in expected[:order]:
        return DuplicateField(f"repeated {_FIELD_NAMES[typ]} field")
    if typ not in expected:
        return UnknownTlvType(f"type {typ:#04x} not valid here")
    return MissingField(f"missing {_FIELD_NAMES[expected[order]]} field")


def _read_fields(rd: _Reader, expected: tuple[int, ...]) -> list[bytes]:
    """The values of a packet's body TLVs, in one walk over their fixed order."""
    buf, end, values = rd.buf, rd.end, []
    for order, want in enumerate(expected):
        if rd.pos >= end:
            raise MissingField(f"missing {_FIELD_NAMES[want]} field")
        typ = buf[rd.pos]
        rd.pos += 1
        length = rd.read_len()
        if typ != want:
            raise _misplaced(typ, expected, order)
        values.append(buf[rd.pos : rd.pos + length])
        rd.pos += length
    if rd.pos < end:
        raise _misplaced(rd.read_tl()[0], expected, len(expected))
    return values


def decode(buf: bytes) -> Packet:
    """Parse one packet; any bytes-like buffer is accepted and copied once."""
    if not isinstance(buf, bytes):
        buf = bytes(memoryview(buf))
    if len(buf) < 2:
        raise TruncatedPacket("buffer shorter than any packet")
    rd = _Reader(buf, 0, len(buf))
    typ, length = rd.read_tl()
    if rd.pos + length != len(buf):
        raise TrailingGarbage(f"{len(buf) - rd.pos - length} bytes past the packet end")

    if typ == TYPE_INTEREST:
        name, nonce, lifetime = _read_fields(rd, _INTEREST_FIELDS)
        name = _decode_components(name)
        if not name:
            raise MissingField("interest name has no components")
        if len(nonce) != 4:
            raise TruncatedPacket("nonce must be exactly 4 bytes")
        if len(lifetime) != 4:
            raise TruncatedPacket("lifetime must be exactly 4 bytes")
        return Interest(name, int.from_bytes(nonce, "big"), int.from_bytes(lifetime, "big"))
    if typ != TYPE_DATA:
        raise UnknownTlvType(f"outer type {typ:#04x} is not a packet")

    name, content, key_locator, scheme_id, signature = _read_fields(rd, _DATA_FIELDS)
    name = _decode_components(name)
    if not name:
        raise MissingField("data name has no components")
    if len(scheme_id) != 1:
        raise TruncatedPacket("scheme id must be exactly 1 byte")
    return Data(name, content, _decode_components(key_locator), scheme_id[0], signature)
