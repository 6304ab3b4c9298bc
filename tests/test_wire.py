import pytest
from hypothesis import given, strategies as st

from ndnkit import wire
from ndnkit.naming import MalformedName, Name, parse_name
from ndnkit.signatures import SCHEME_DSA, ParameterError, load_private, load_public
from ndnkit.wire import (
    CodecError,
    Data,
    DuplicateField,
    EmptyNameComponent,
    Interest,
    MissingField,
    NonMinimalLength,
    OversizeField,
    TrailingGarbage,
    TruncatedPacket,
    UnknownTlvType,
    decode,
    encode,
    signed_portion,
)


def test_interest_worked_example():
    """Interest{/a, nonce 0x01020304, lifetime 4000} assembled TLV by TLV."""
    pkt = Interest(parse_name("/a"), nonce=0x01020304, lifetime_ms=4000)
    name_tlv = bytes([0x07, 0x03, 0x08, 0x01, ord("a")])
    nonce_tlv = bytes([0x0A, 0x04, 0x01, 0x02, 0x03, 0x04])
    lifetime_tlv = bytes([0x0C, 0x04]) + (4000).to_bytes(4, "big")
    body = name_tlv + nonce_tlv + lifetime_tlv
    assert len(body) == 0x11
    expected = bytes([0x05, len(body)]) + body
    assert encode(pkt) == expected
    assert expected.hex() == "05110703080161" + "0a0401020304" + "0c0400000fa0"


def test_interest_round_trip():
    pkt = Interest(parse_name("/snnu/images/a.jpg/v1/s1"), nonce=7, lifetime_ms=1234)
    assert decode(encode(pkt)) == pkt


def test_data_round_trip():
    pkt = Data(
        name=parse_name("/snnu/images/a.jpg/v1/s1"),
        content=b"x" * 300,
        key_locator=parse_name("/snnu/keys/k1"),
        scheme_id=4,
        signature=b"\x01" * 21,
    )
    assert decode(encode(pkt)) == pkt


def test_default_lifetime():
    pkt = Interest(parse_name("/a"), nonce=1)
    assert pkt.lifetime_ms == 4000
    assert decode(encode(pkt)).lifetime_ms == 4000


def test_two_byte_length_form():
    pkt = Data(
        name=parse_name("/a"),
        content=b"z" * 1000,
        key_locator=parse_name("/k"),
        scheme_id=1,
        signature=b"s",
    )
    enc = encode(pkt)
    assert enc[0] == 0x06 and enc[1] == 0xFD
    assert decode(enc) == pkt


def test_signed_portion_excludes_signature():
    base = Data(
        name=parse_name("/a/b"),
        content=b"hello",
        key_locator=parse_name("/k"),
        scheme_id=2,
    )
    sp = signed_portion(base)
    assert sp == signed_portion(base.with_signature(b"anything"))
    assert encode(base.with_signature(b"SIG")) == bytes([0x06, len(sp) + 5]) + sp + bytes(
        [0x17, 3]
    ) + b"SIG"


def test_signed_portion_field_order():
    base = Data(
        name=parse_name("/a"),
        content=b"c",
        key_locator=parse_name("/k"),
        scheme_id=9,
    )
    sp = signed_portion(base)
    assert sp[0] == 0x07
    idx_content = sp.index(bytes([0x15, 0x01]))
    idx_kl = sp.index(bytes([0x1C]))
    idx_scheme = sp.index(bytes([0x1D, 0x01, 9]))
    assert 0 < idx_content < idx_kl < idx_scheme


def test_root_name_refused_in_packets():
    with pytest.raises(MalformedName):
        encode(Interest(Name(()), nonce=1))


def test_trailing_garbage_rejected():
    enc = encode(Interest(parse_name("/a"), nonce=1))
    with pytest.raises(TrailingGarbage):
        decode(enc + b"\x00")


def test_truncation_rejected():
    enc = encode(Interest(parse_name("/a"), nonce=1))
    for cut in range(1, len(enc)):
        with pytest.raises((TruncatedPacket, MissingField)):
            decode(enc[:cut])


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_decode_accepts_bytes_like_buffers(wrap):
    interest = Interest(parse_name("/snnu/a"), nonce=9, lifetime_ms=100)
    data = Data(
        name=parse_name("/snnu/a"),
        content=b"payload",
        key_locator=parse_name("/snnu/keys/k1"),
        scheme_id=4,
        signature=b"\x02" * 21,
    )
    for pkt in (interest, data):
        assert decode(wrap(encode(pkt))) == pkt


def test_truncated_bytearray_is_a_codec_error():
    enc = bytearray(encode(Interest(parse_name("/snnu/a"), nonce=1)))
    for cut in range(len(enc)):
        with pytest.raises(CodecError):
            decode(enc[:cut])


def test_unknown_outer_type():
    with pytest.raises(UnknownTlvType):
        decode(bytes([0x99, 0x00]))


def test_unknown_inner_type():
    # replace the nonce TLV type with an unassigned code
    enc = bytearray(encode(Interest(parse_name("/a"), nonce=1)))
    enc[7] = 0x42
    with pytest.raises(UnknownTlvType):
        decode(bytes(enc))


def test_duplicate_field_rejected():
    name_tlv = bytes([0x07, 0x03, 0x08, 0x01, ord("a")])
    nonce_tlv = bytes([0x0A, 0x04, 0, 0, 0, 1])
    life_tlv = bytes([0x0C, 0x04, 0, 0, 0x0F, 0xA0])
    body = name_tlv + nonce_tlv + nonce_tlv + life_tlv
    with pytest.raises(DuplicateField):
        decode(bytes([0x05, len(body)]) + body)


def test_missing_field_rejected():
    name_tlv = bytes([0x07, 0x03, 0x08, 0x01, ord("a")])
    nonce_tlv = bytes([0x0A, 0x04, 0, 0, 0, 1])
    body = name_tlv + nonce_tlv
    with pytest.raises(MissingField):
        decode(bytes([0x05, len(body)]) + body)


def test_out_of_order_fields_rejected():
    name_tlv = bytes([0x07, 0x03, 0x08, 0x01, ord("a")])
    nonce_tlv = bytes([0x0A, 0x04, 0, 0, 0, 1])
    life_tlv = bytes([0x0C, 0x04, 0, 0, 0x0F, 0xA0])
    body = nonce_tlv + name_tlv + life_tlv
    with pytest.raises((MissingField, DuplicateField)):
        decode(bytes([0x05, len(body)]) + body)


def test_non_minimal_length_rejected():
    # nonce length 4 written in the 2-byte form
    name_tlv = bytes([0x07, 0x03, 0x08, 0x01, ord("a")])
    nonce_tlv = bytes([0x0A, 0xFD, 0x00, 0x04, 0, 0, 0, 1])
    life_tlv = bytes([0x0C, 0x04, 0, 0, 0x0F, 0xA0])
    body = name_tlv + nonce_tlv + life_tlv
    with pytest.raises(NonMinimalLength):
        decode(bytes([0x05, len(body)]) + body)


def test_oversize_field_refused_on_encode():
    with pytest.raises(OversizeField):
        wire._encode_len(2**32)
    assert wire._encode_len(2**32 - 1) == b"\xfe\xff\xff\xff\xff"


# Varint length fields that must not decode, with the CodecError each raises.
_BAD_LENGTHS = [
    (b"\xfd\x01", TruncatedPacket),  # cut off inside a 2-byte length
    (b"\xfe\x00\x00\x01", TruncatedPacket),  # cut off inside a 4-byte length
    (b"\x05", TruncatedPacket),  # announces more bytes than follow
    (b"\xfd\x00\x04", NonMinimalLength),
    (b"\xfe\x00\x00\x00\x04", NonMinimalLength),
    (b"\xfe\x00\x00\xff\xff", NonMinimalLength),
    (b"\xff" + bytes(8), OversizeField),  # 8-byte form: beyond the 4-byte range
]


@pytest.mark.parametrize("prefix, error", _BAD_LENGTHS)
def test_bad_varint_lengths_raise_one_error_per_case(prefix, error):
    name_tlv = bytes([0x07, 0x03, 0x08, 0x01, ord("a")])
    inner = name_tlv + bytes([0x0A]) + prefix  # as the nonce's length
    for blob in (bytes([0x05]) + prefix, bytes([0x05, len(inner)]) + inner):
        with pytest.raises(error):
            decode(blob)
    with pytest.raises(error):
        wire.unpack_varbytes(prefix)
    with pytest.raises(error):
        wire.unpack_varbytes(b"\x00" + prefix, 1)
    for load in (load_public, load_private):
        with pytest.raises(ParameterError):
            load(bytes([SCHEME_DSA]) + prefix)


def test_nonce_must_be_four_bytes():
    name_tlv = bytes([0x07, 0x03, 0x08, 0x01, ord("a")])
    nonce_tlv = bytes([0x0A, 0x02, 0, 1])
    life_tlv = bytes([0x0C, 0x04, 0, 0, 0x0F, 0xA0])
    body = name_tlv + nonce_tlv + life_tlv
    with pytest.raises(TruncatedPacket):
        decode(bytes([0x05, len(body)]) + body)


def test_empty_name_component_is_a_codec_error():
    blob = bytes.fromhex("0513 0705 080161 0800 0a0400000005 0c0400000064")
    with pytest.raises(EmptyNameComponent):
        decode(blob)


names = st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=4).map(
    lambda cs: Name(tuple(cs))
)


@given(names, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_interest_round_trip_random(name, nonce, lifetime):
    pkt = Interest(name, nonce=nonce, lifetime_ms=lifetime)
    enc = encode(pkt)
    assert decode(enc) == pkt
    assert encode(decode(enc)) == enc


@given(
    names,
    st.binary(max_size=400),
    st.lists(st.binary(min_size=1, max_size=8), min_size=0, max_size=3),
    st.integers(0, 255),
    st.binary(max_size=140),
)
def test_data_round_trip_random(name, content, kl, scheme, sig):
    pkt = Data(name, content, Name(tuple(kl)), scheme, sig)
    enc = encode(pkt)
    assert decode(enc) == pkt
    assert encode(decode(enc)) == enc
