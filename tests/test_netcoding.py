import random

import pytest
from hypothesis import given, settings, strategies as st

from ndnkit.netcoding import (
    DATA_SLOTS,
    ELEMENT_BYTES,
    GENERATION_SIZE,
    CodedPacket,
    DimensionError,
    Generation,
    GenerationMismatch,
    MalformedSignaturePoint,
    RankDeficient,
    combine,
    decode,
    nc_keygen,
    nc_sign,
    nc_verify,
    split_and_augment,
)
from ndnkit.pairing import CURVE_ORDER, G1Point
from ndnkit.pairing.curve import CURVE_B, FIELD_PRIME
from ndnkit.signatures import SCHEME_NC, ParameterError
from ndnkit.wire import CodecError

GEN = Generation(b"test-generation", n=4, m=2)


@pytest.fixture(scope="module")
def key():
    return nc_keygen(random.Random(301))


@pytest.fixture(scope="module")
def packets(key):
    content = random.Random(302).randbytes(GEN.capacity())
    return content, [nc_sign(key, GEN, v) for v in split_and_augment(content, GEN.n, GEN.m)]


# --- splitting and packing ---------------------------------------------------


def test_split_produces_unit_coefficients():
    vectors = split_and_augment(b"hello world", 4, 3)
    assert len(vectors) == 3
    for i, v in enumerate(vectors):
        assert len(v) == 7
        assert v[4:] == tuple(1 if k == i else 0 for k in range(3))
        assert all(0 <= el < CURVE_ORDER for el in v)


def test_split_defaults_match_module_dimensions():
    vectors = split_and_augment(b"x")
    assert len(vectors) == GENERATION_SIZE
    assert len(vectors[0]) == DATA_SLOTS + GENERATION_SIZE


def test_split_single_vector_degenerate():
    (vector,) = split_and_augment(b"tiny", 2, 1)
    assert vector[-1] == 1


def test_split_capacity_boundaries():
    gen = Generation(b"cap", n=2, m=2)
    full = b"z" * gen.capacity()
    assert len(split_and_augment(full, 2, 2)) == 2
    with pytest.raises(DimensionError):
        split_and_augment(full + b"!", 2, 2)
    with pytest.raises(DimensionError):
        split_and_augment(b"", 2, 2)


def _dummy_packets(gen, content):
    return [
        CodedPacket(gen, v, G1Point(None))
        for v in split_and_augment(content, gen.n, gen.m)
    ]


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=3 * 4 * ELEMENT_BYTES - 8))
def test_packing_round_trips(content):
    gen = Generation(b"prop", n=4, m=3)
    assert decode(_dummy_packets(gen, content)) == content


# --- signing and verification ------------------------------------------------


def test_originals_sign_and_verify(key, packets):
    _, pkts = packets
    for p in pkts:
        assert nc_verify(key.public(), p)


def test_identity_matrix_decode(key, packets):
    content, pkts = packets
    assert decode(pkts) == content


def test_zero_vector_has_identity_signature(key):
    p = nc_sign(key, GEN, (0,) * GEN.dimension)
    assert p.signature.is_identity()
    assert nc_verify(key.public(), p)


def test_sign_reduces_elements(key):
    v = split_and_augment(b"reduce", GEN.n, GEN.m)[0]
    shifted = tuple(el + CURVE_ORDER for el in v)
    assert nc_sign(key, GEN, shifted) == nc_sign(key, GEN, v)


def test_sign_dimension_guard(key):
    with pytest.raises(DimensionError):
        nc_sign(key, GEN, (1, 2, 3))


def test_nc_keys_are_scheme_tagged(key):
    assert key.scheme_id == SCHEME_NC
    assert key.public().scheme_id == SCHEME_NC


# --- the homomorphic property ------------------------------------------------


def test_combine_identity_law(key, packets):
    _, pkts = packets
    assert combine([pkts[1]], [1]) == pkts[1]


def test_random_combination_verifies(key, packets):
    _, pkts = packets
    rng = random.Random(303)
    mixed = combine(pkts, [rng.randrange(CURVE_ORDER) for _ in pkts])
    assert nc_verify(key.public(), mixed)


def test_combine_linearity(key, packets):
    _, pkts = packets
    rng = random.Random(304)
    c = [rng.randrange(CURVE_ORDER) for _ in pkts]
    d = rng.randrange(CURVE_ORDER)
    once = combine([combine(pkts, c)], [d])
    direct = combine(pkts, [d * ci % CURVE_ORDER for ci in c])
    assert once == direct


def test_combine_zero_coefficients(key, packets):
    _, pkts = packets
    zeroed = combine(pkts, [0] * len(pkts))
    assert zeroed.signature.is_identity()
    assert set(zeroed.vector) == {0}
    assert nc_verify(key.public(), zeroed)


def test_multi_hop_recombination_decodes(key, packets):
    content, pkts = packets
    rng = random.Random(305)
    hop = pkts
    for _ in range(3):
        hop = [
            combine(hop, [rng.randrange(CURVE_ORDER) for _ in hop])
            for _ in range(GEN.m)
        ]
    assert all(nc_verify(key.public(), p) for p in hop)
    assert decode(hop) == content


def test_combine_argument_guards(key, packets):
    _, pkts = packets
    with pytest.raises(ParameterError):
        combine([], [])
    with pytest.raises(ParameterError):
        combine(pkts, [1])
    other = nc_sign(key, Generation(b"elsewhere", n=4, m=2), (0,) * 6)
    with pytest.raises(GenerationMismatch):
        combine([pkts[0], other], [1, 1])


# --- forgery rejection -------------------------------------------------------


def test_single_coordinate_forgeries_rejected(key, packets):
    _, pkts = packets
    p = pkts[0]
    for slot in range(GEN.dimension):
        bumped = list(p.vector)
        bumped[slot] = (bumped[slot] + 1) % CURVE_ORDER
        forged = CodedPacket(GEN, tuple(bumped), p.signature)
        assert not nc_verify(key.public(), forged)


def test_full_size_recombinations_verify_and_edits_are_rejected(key):
    # the default dimensions: a 40-base commitment per verify
    generation = Generation(b"test-full-size")
    rng = random.Random(306)
    content = rng.randbytes(generation.capacity())
    originals = [nc_sign(key, generation, v) for v in split_and_augment(content)]
    for _ in range(8):
        mixed = combine(originals, [rng.randrange(CURVE_ORDER) for _ in originals])
        assert nc_verify(key.public(), mixed)
        slot = rng.randrange(generation.dimension)
        edited = list(mixed.vector)
        edited[slot] = (edited[slot] + rng.randrange(1, CURVE_ORDER)) % CURVE_ORDER
        assert not nc_verify(key.public(), CodedPacket(generation, tuple(edited), mixed.signature))


def test_tampered_signature_rejected(key, packets):
    _, pkts = packets
    p = pkts[0]
    doubled = CodedPacket(GEN, p.vector, p.signature.add(p.signature))
    assert not nc_verify(key.public(), doubled)


def test_wrong_key_rejected(key, packets):
    _, pkts = packets
    other = nc_keygen(random.Random(306))
    assert not nc_verify(other.public(), pkts[0])


def test_cross_generation_replay_rejected(key, packets):
    _, pkts = packets
    p = pkts[0]
    elsewhere = Generation(b"elsewhere", n=4, m=2)
    assert not nc_verify(key.public(), CodedPacket(elsewhere, p.vector, p.signature))


# --- decoding ----------------------------------------------------------------


def test_random_full_rank_combinations_decode(key, packets):
    content, pkts = packets
    rng = random.Random(307)
    mixed = [
        combine(pkts, [rng.randrange(CURVE_ORDER) for _ in pkts]) for _ in range(GEN.m)
    ]
    assert decode(mixed) == content


def test_duplicated_row_is_rank_deficient(packets):
    _, pkts = packets
    with pytest.raises(RankDeficient):
        decode([pkts[0], pkts[0]])


def test_decode_count_guard(packets):
    _, pkts = packets
    with pytest.raises(DimensionError):
        decode(pkts[:1])
    with pytest.raises(DimensionError):
        decode([])


def test_decode_generation_guard(key, packets):
    _, pkts = packets
    other = nc_sign(key, Generation(b"elsewhere", n=4, m=2), (0,) * 6)
    with pytest.raises(GenerationMismatch):
        decode([pkts[0], other])


# --- wire format -------------------------------------------------------------


def test_packet_round_trips_through_bytes(packets):
    _, pkts = packets
    for p in pkts:
        blob = p.to_bytes()
        assert CodedPacket.from_bytes(blob) == p


def test_packet_rejects_malformed_blobs(packets):
    _, pkts = packets
    blob = pkts[0].to_bytes()
    with pytest.raises(CodecError):
        CodedPacket.from_bytes(blob[:-1])
    with pytest.raises(CodecError):
        CodedPacket.from_bytes(blob + b"\x00")
    with pytest.raises(CodecError):
        CodedPacket.from_bytes(b"")
    oversized = bytearray(blob)
    at = len(blob) - G1Point.SIZE - 20 * GEN.dimension
    oversized[at : at + 20] = b"\xff" * 20  # element above the field modulus
    with pytest.raises(CodecError):
        CodedPacket.from_bytes(bytes(oversized))
    zero_dims = bytearray(blob)
    id_len = 1 + len(pkts[0].generation_id)
    zero_dims[id_len : id_len + 4] = b"\x00" * 4
    with pytest.raises(CodecError):
        CodedPacket.from_bytes(bytes(zero_dims))



def test_every_one_byte_mutant_and_truncation_raises_only_codec_errors(packets):
    _, pkts = packets
    blob = pkts[0].to_bytes()
    for i in range(len(blob)):
        with pytest.raises(CodecError):
            CodedPacket.from_bytes(blob[:i])
    decoded = 0
    for i, b in enumerate(blob):
        for value in {(b + 1) % 256, (b - 1) % 256, b ^ 0x80, 0x00, 0xFF} - {b}:
            mutant = blob[:i] + bytes([value]) + blob[i + 1:]
            try:
                packet = CodedPacket.from_bytes(mutant)
            except CodecError:
                continue
            # a mutant that decodes is another well-formed packet
            assert packet.to_bytes() == mutant
            decoded += 1
    # a changed generation id, vector element or point may decode; a changed
    # length or dimension never does
    assert 0 < decoded < 5 * len(blob)


def _off_curve_x() -> int:
    x = 0
    while pow(x**3 + CURVE_B, (FIELD_PRIME - 1) // 2, FIELD_PRIME) != FIELD_PRIME - 1:
        x += 1
    return x


@pytest.mark.parametrize(
    "point",
    [
        bytes([0x05]) + (1).to_bytes(20, "big"),  # bad compression flag
        bytes([0x02]) + _off_curve_x().to_bytes(20, "big"),  # not a curve point
        bytes([0x02]) + FIELD_PRIME.to_bytes(20, "big"),  # x out of range
    ],
)
def test_malformed_signature_point_is_a_codec_error(packets, point):
    _, pkts = packets
    blob = pkts[0].to_bytes()[: -G1Point.SIZE] + point
    with pytest.raises(MalformedSignaturePoint):
        CodedPacket.from_bytes(blob)


def test_generation_validation():
    with pytest.raises(ParameterError):
        Generation(b"")
    with pytest.raises(ParameterError):
        Generation(b"g", n=0)
    with pytest.raises(ParameterError):
        Generation(b"g", m=0)


def test_packet_dimension_validation():
    with pytest.raises(DimensionError):
        CodedPacket(GEN, (1, 2), G1Point(None))
