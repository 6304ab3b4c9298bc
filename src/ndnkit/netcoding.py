"""Homomorphic signatures for randomized linear network coding.

A content object is chunked into ``m`` source vectors of ``n`` field elements
and each vector is augmented with a unit coefficient block, so the i-th
original packet carries ``(data_i | e_i)``. The producer signs each augmented
vector in the exponent of hash-derived group elements, which makes the
signature linear in the vector: an intermediate node can emit any linear
combination of the packets it holds together with the matching combination of
their signatures, and the result still verifies under the producer's key. A
receiver decodes as soon as the coefficient blocks of ``m`` collected packets
form an invertible matrix over the field.

Data-slot generators are fixed system-wide; coefficient-slot generators are
derived from the generation identifier, so a signed vector cannot be replayed
into a different generation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .pairing import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    GT_ONE,
    g2_generator,
    hash_to_g1,
    pairing_product,
    prepare_g2,
)
from .pairing.curve import G1MultiExp, g1_mul, g1_multi_exp, g2_mul_gen
from .signatures.params import SCHEME_NC, ParameterError
from .wire import CodecError, TrailingGarbage, TruncatedPacket, pack_varbytes, unpack_varbytes

# Desk-scale defaults: 8 vectors of 32 elements, 19 payload bytes per element
# (one byte below the field width, so any 19-byte chunk is already reduced).
DATA_SLOTS = 32
GENERATION_SIZE = 8
ELEMENT_BYTES = 19
LENGTH_BYTES = 8

_DATA_TAG = b"ndnkit/nc-data-slot/v1"
_COEFF_TAG = b"ndnkit/nc-coeff-slot/v1"


class DimensionError(ValueError):
    """Content or a vector does not fit the generation's dimensions."""


class GenerationMismatch(ValueError):
    """Packets from different generations were mixed in one operation."""


class RankDeficient(ValueError):
    """The coefficient matrix is singular; gather another packet and retry."""


class MalformedSignaturePoint(CodecError):
    """A coded packet's signature bytes do not decode to a G1 point."""


@dataclass(frozen=True)
class Generation:
    """Parameters binding all coded packets of one content object."""

    generation_id: bytes
    n: int = DATA_SLOTS
    m: int = GENERATION_SIZE

    def __post_init__(self):
        if not self.generation_id:
            raise ParameterError("generation_id must be non-empty")
        if not 1 <= self.n <= 4096 or not 1 <= self.m <= 4096:
            raise ParameterError("generation dimensions must be in 1..4096")

    @property
    def dimension(self) -> int:
        return self.n + self.m

    def capacity(self) -> int:
        """Largest content size in bytes, after the length prefix is paid for."""
        return self.n * self.m * ELEMENT_BYTES - LENGTH_BYTES


@dataclass(frozen=True)
class CodedPacket:
    """One augmented vector with its homomorphic signature.

    Vector layout is data part (n elements) followed by coefficient part
    (m elements); elements are stored reduced mod the generation's field.
    """

    generation: Generation
    vector: tuple
    signature: G1Point

    def __post_init__(self):
        if len(self.vector) != self.generation.dimension:
            raise DimensionError(
                f"vector has {len(self.vector)} elements, "
                f"generation needs {self.generation.dimension}"
            )
        object.__setattr__(self, "vector", tuple(v % CURVE_ORDER for v in self.vector))

    @property
    def generation_id(self) -> bytes:
        return self.generation.generation_id

    @property
    def data_part(self) -> tuple:
        return self.vector[: self.generation.n]

    @property
    def coeff_part(self) -> tuple:
        return self.vector[self.generation.n :]

    def to_bytes(self) -> bytes:
        out = bytearray(pack_varbytes(self.generation_id))
        out += self.generation.n.to_bytes(2, "big")
        out += self.generation.m.to_bytes(2, "big")
        for el in self.vector:
            out += el.to_bytes(20, "big")
        out += self.signature.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CodedPacket":
        gen_id, pos = unpack_varbytes(blob, 0)
        if len(blob) < pos + 4:
            raise TruncatedPacket("coded packet header cut short")
        n = int.from_bytes(blob[pos : pos + 2], "big")
        m = int.from_bytes(blob[pos + 2 : pos + 4], "big")
        try:
            generation = Generation(gen_id, n, m)
        except ParameterError as exc:
            raise CodecError(str(exc)) from None
        pos += 4
        end = pos + generation.dimension * 20 + G1Point.SIZE
        if len(blob) < end:
            raise TruncatedPacket("coded packet vector cut short")
        if len(blob) > end:
            raise TrailingGarbage("bytes after coded packet signature")
        vector = []
        for _ in range(generation.dimension):
            el = int.from_bytes(blob[pos : pos + 20], "big")
            if el >= CURVE_ORDER:
                raise CodecError("vector element exceeds the field modulus")
            vector.append(el)
            pos += 20
        try:
            signature = G1Point.from_bytes(blob[pos:end])
        except ValueError as exc:
            raise MalformedSignaturePoint(str(exc)) from None
        return cls(generation, tuple(vector), signature)


@dataclass(frozen=True)
class NcPublicKey:
    point: G2Point

    scheme_id = SCHEME_NC


@dataclass(frozen=True)
class NcPrivateKey:
    x: int
    point: G2Point

    scheme_id = SCHEME_NC

    def public(self) -> NcPublicKey:
        return NcPublicKey(self.point)


def nc_keygen(rng: random.Random | None = None) -> NcPrivateKey:
    rng = rng or random.SystemRandom()
    x = rng.randrange(1, CURVE_ORDER)
    return NcPrivateKey(x=x, point=G2Point(g2_mul_gen(x)))


@lru_cache(maxsize=4096)
def _data_base(j: int):
    return hash_to_g1(_DATA_TAG + j.to_bytes(4, "big"))


@lru_cache(maxsize=32)
def _generation_bases(generation_id: bytes, n: int, m: int) -> G1MultiExp:
    """Multi-exp tables over the n data bases and m per-generation bases."""
    bases = [_data_base(j) for j in range(n)]
    framed = len(generation_id).to_bytes(4, "big") + generation_id
    for i in range(m):
        bases.append(hash_to_g1(_COEFF_TAG + framed + i.to_bytes(4, "big")))
    return G1MultiExp(bases)


def _vector_commit(generation: Generation, vector) -> G1Point:
    tables = _generation_bases(generation.generation_id, generation.n, generation.m)
    return G1Point(tables.combine(list(vector)))


def split_and_augment(content: bytes, n: int = DATA_SLOTS, m: int = GENERATION_SIZE):
    """Chunk content into m unit-augmented vectors of n field elements.

    The byte stream is an 8-byte big-endian length prefix, the content, and
    zero padding out to n*m element slots of 19 bytes each.
    """
    if not content:
        raise DimensionError("content is empty")
    stream_len = n * m * ELEMENT_BYTES
    if len(content) + LENGTH_BYTES > stream_len:
        raise DimensionError(
            f"{len(content)} bytes exceed the {stream_len - LENGTH_BYTES}-byte "
            f"capacity of n={n}, m={m}"
        )
    stream = len(content).to_bytes(LENGTH_BYTES, "big") + content
    stream = stream.ljust(stream_len, b"\x00")
    vectors = []
    for i in range(m):
        at = i * n * ELEMENT_BYTES
        data = tuple(
            int.from_bytes(stream[at + j * ELEMENT_BYTES : at + (j + 1) * ELEMENT_BYTES], "big")
            for j in range(n)
        )
        vectors.append(data + tuple(1 if k == i else 0 for k in range(m)))
    return vectors


def nc_sign(key: NcPrivateKey, generation: Generation, vector) -> CodedPacket:
    if len(vector) != generation.dimension:
        raise DimensionError(
            f"vector has {len(vector)} elements, generation needs {generation.dimension}"
        )
    sigma = G1Point(g1_mul(_vector_commit(generation, vector).point, key.x))
    return CodedPacket(generation, vector, sigma)


def nc_verify(key: NcPublicKey, packet: CodedPacket) -> bool:
    commit = _vector_commit(packet.generation, packet.vector)
    # e(sigma, g2) == e(commit, pk), checked as a product with one final exp
    return (
        pairing_product(
            [
                (packet.signature, prepare_g2(g2_generator())),
                (commit.neg(), prepare_g2(key.point)),
            ]
        )
        == GT_ONE
    )


def combine(packets, coeffs) -> CodedPacket:
    """Linear combination of packets and signatures with the given coefficients."""
    if not packets or len(packets) != len(coeffs):
        raise ParameterError("need equally many packets and coefficients, at least one")
    generation = packets[0].generation
    for p in packets[1:]:
        if p.generation != generation:
            raise GenerationMismatch("cannot combine packets across generations")
    scalars = [c % CURVE_ORDER for c in coeffs]
    vector = [0] * generation.dimension
    for p, c in zip(packets, scalars):
        if c == 0:
            continue
        for j, v in enumerate(p.vector):
            vector[j] = (vector[j] + c * v) % CURVE_ORDER
    sigma = g1_multi_exp([p.signature.point for p in packets], scalars)
    return CodedPacket(generation, tuple(vector), G1Point(sigma))


def _solve(coeff_rows, data_rows, q):
    """Gauss-Jordan solve of C*X = D over GF(q); rows of X are the originals."""
    m = len(coeff_rows)
    rows = [list(c) + list(d) for c, d in zip(coeff_rows, data_rows)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            raise RankDeficient(f"coefficient matrix is singular at column {col}")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, q)
        rows[col] = [v * inv % q for v in rows[col]]
        for r in range(m):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [(v - f * w) % q for v, w in zip(rows[r], rows[col])]
    return [row[m:] for row in rows]


def decode(packets) -> bytes:
    """Invert the coefficient matrix of m packets and re-assemble the content."""
    if not packets:
        raise DimensionError("no packets to decode")
    generation = packets[0].generation
    for p in packets[1:]:
        if p.generation != generation:
            raise GenerationMismatch("cannot decode packets across generations")
    if len(packets) != generation.m:
        raise DimensionError(f"need exactly {generation.m} packets, got {len(packets)}")
    originals = _solve(
        [p.coeff_part for p in packets],
        [p.data_part for p in packets],
        CURVE_ORDER,
    )
    try:
        stream = b"".join(
            el.to_bytes(ELEMENT_BYTES, "big") for row in originals for el in row
        )
    except OverflowError:
        raise ValueError("decoded element does not fit the byte packing") from None
    length = int.from_bytes(stream[:LENGTH_BYTES], "big")
    if not 0 < length <= generation.capacity():
        raise ValueError("decoded length prefix is implausible")
    return stream[LENGTH_BYTES : LENGTH_BYTES + length]
