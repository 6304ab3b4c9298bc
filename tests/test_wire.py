import hashlib

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("size", [252, 253])
def test_component_length_forms_round_trip(size):
    # 252 is the longest one-byte length; 253 takes the 0xFD form
    comp = b"c" * size
    pkt = Data(Name((comp, b"x")), b"", Name((comp,)), 1, b"s")
    length = bytes([size]) if size < 0xFD else b"\xfd" + size.to_bytes(2, "big")
    enc = encode(pkt)
    assert enc.count(b"\x08" + length + comp) == 2
    assert decode(enc) == pkt


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_decoded_names_are_names(wrap):
    # the codec builds a Name from components it has already checked
    comps = (b"snnu", b"\x00/%", b"c" * 300)
    interest = decode(wrap(encode(Interest(Name(comps), nonce=7))))
    data = decode(wrap(encode(Data(Name(comps[:2]), b"x", Name(comps[1:]), 1, b"s"))))
    for name, expected in ((interest.name, comps), (data.name, comps[:2]),
                           (data.key_locator, comps[1:])):
        assert type(name) is Name
        assert name == Name(expected)
        assert all(type(c) is bytes for c in name)
    # a key locator may be the root name
    root = decode(wrap(_data_located(b"\x08\x01a", b""))).key_locator
    assert type(root) is Name and root == Name()


def _interest_named(value: bytes) -> bytes:
    body = b"\x07" + wire.pack_varbytes(value) + bytes.fromhex("0a0400000005 0c0400000064")
    return b"\x05" + wire.pack_varbytes(body)


def _data_located(name_value: bytes, locator_value: bytes) -> bytes:
    body = (b"\x07" + wire.pack_varbytes(name_value) + b"\x15\x00"
            + b"\x1c" + wire.pack_varbytes(locator_value) + b"\x1d\x01\x04\x17\x00")
    return b"\x06" + wire.pack_varbytes(body)


# Name TLV values that must not decode, with the CodecError each raises.
_BAD_NAME_VALUES = [
    (b"\x08\xfd\x00\x01a", NonMinimalLength),
    (b"\x08\x01a\x08\x05abc", TruncatedPacket),  # component runs past the name
    (b"\x08\x01a\x08", TruncatedPacket),  # length prefix cut off at the end
    (b"\x08\x01a\x08\xfd\x01", TruncatedPacket),  # ... inside its 2-byte form
    (b"\x08\x01a\x0a\x01b", UnknownTlvType),
    (b"\x08\x01a\x0a\x05b", TruncatedPacket),  # the length is read before the type
    (b"\x08\x01a\x08\x00", EmptyNameComponent),
]


@pytest.mark.parametrize("value, error", _BAD_NAME_VALUES)
def test_bad_name_values_raise_one_error_per_case(value, error):
    good = b"\x08\x01k"
    for blob in (_interest_named(value), _data_located(value, good), _data_located(good, value)):
        with pytest.raises(error):
            decode(blob)
    assert decode(_data_located(good, good)).key_locator == Name((b"k",))


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


# near-valid mutations: a byte set, stepped by one or set to a telling length
# value; a cut; an inserted byte; a duplicated run
_LENGTH_BYTES = (0x00, 0x7F, 0x80, 0xFD, 0xFE, 0xFF)
_MUTATIONS = ("set", "step", "length", "truncate", "insert", "duplicate")


@st.composite
def _mutants(draw, blob: bytes) -> bytes:
    buf = bytearray(blob)
    for kind in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2)):
        if kind == "insert":
            i = draw(st.integers(0, len(buf)))
            buf[i:i] = bytes([draw(st.integers(0, 255))])
            continue
        if not buf:
            continue
        i = draw(st.integers(0, len(buf) - 1))
        if kind == "set":
            buf[i] = draw(st.integers(0, 255))
        elif kind == "step":
            buf[i] = (buf[i] + draw(st.sampled_from((1, -1)))) % 256
        elif kind == "length":
            buf[i] = draw(st.sampled_from(_LENGTH_BYTES))
        elif kind == "truncate":
            del buf[i:]
        else:
            j = draw(st.integers(i + 1, min(len(buf), i + 8)))
            buf[j:j] = buf[i:j]
    return bytes(buf)


_SEED_PACKETS = (
    encode(Interest(parse_name("/snnu/videos/clip7/v1"), nonce=0x01020304, lifetime_ms=4000)),
    encode(Data(parse_name("/snnu/videos/clip7/v1"), b"payload " * 4,
                parse_name("/snnu/keys/k1"), 3, bytes(range(40)))),
)


def _assert_codec_error_or_canonical(blob: bytes) -> str:
    """The outcome of decoding blob: the CodecError's class name, or
    "canonical" for a packet that encodes back to blob."""
    try:
        pkt = decode(blob)
    except CodecError as exc:
        return type(exc).__name__
    assert encode(pkt) == blob
    return "canonical"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SEED_PACKETS).flatmap(_mutants))
def test_near_valid_mutants_raise_only_codec_errors(blob):
    _assert_codec_error_or_canonical(blob)


# sha256 of the mutants' outcomes in order, one per line; a decoder rewrite
# must raise the same CodecError class for every mutant
_MUTANT_OUTCOMES_SHA256 = {
    "interest": "4872d61741550a57dbe4dd091368c5479d22c63877aad80f78e603c0ca48f5df",
    "data": "a7bf85c7c67910ba46903bb95d0e44c12df94a7b54156acf4944355cc08beeb9",
}


@pytest.mark.parametrize("kind, blob", list(zip(("interest", "data"), _SEED_PACKETS)),
                         ids=["interest", "data"])
def test_every_one_byte_mutant_raises_only_codec_errors(kind, blob):
    # one mutation at every position: a byte stepped or set to a length
    # value, a cut, a 4-byte run duplicated, a length value inserted
    outcomes = []

    def check(mutant):
        outcomes.append(_assert_codec_error_or_canonical(mutant))
        # the mutant's body again under the seed's type and a length that
        # fits it, so that the mutation reaches the walk over the fields
        # (every seed body and mutant body is under 253 bytes)
        body = mutant[2:]
        outcomes.append(_assert_codec_error_or_canonical(bytes([blob[0], len(body)]) + body))

    for i, b in enumerate(blob):
        for value in sorted({*_LENGTH_BYTES, (b + 1) % 256, (b - 1) % 256}):
            check(blob[:i] + bytes([value]) + blob[i + 1:])
        check(blob[:i])
        check(blob[:i] + blob[i:i + 4] + blob[i:])
        for value in _LENGTH_BYTES:
            check(blob[:i] + bytes([value]) + blob[i:])
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == _MUTANT_OUTCOMES_SHA256[kind]
