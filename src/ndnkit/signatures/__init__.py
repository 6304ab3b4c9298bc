"""Uniform KeyGen/Sign/Verify façade over the six signature schemes.

Scheme-specific key records live in their own modules; this package level
adds the shared Signature envelope, the dispatch table, and byte
serializations for keys.

_SCHEMES maps each scheme id to one record: the public and private key
record classes; keygen; the class sign takes and sign itself; the class
verify takes and verify itself; and one validator each for public and
private key records, run on every record written or loaded.  For every
scheme, sign(key, msg, rng) and verify(key.public(), msg, sig) go through
the table.  Group and ring signers carry more than their key record: a
GroupSigningKey pairs a member's credential with the group key, and a
RingSigningKey holds the ring (a RingKeys, which is what a ring verifier
holds), the signer's index in it and its RingPrivateKey.  Only group keygen
is None: credentials come from group_setup.  SCHEME_NC has no record:
network coding keys live in ndnkit.netcoding.

A key record is the scheme byte followed by the key dataclass's fields in
declaration order, each length-prefixed with the packet varint: an int as
its minimal big-endian bytes, a G2Point as its compressed bytes, and the
group roster as a count followed by its members.  An ECDSA record holds its
integers only, since every ECDSA key is on secp160r1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Callable

from ..pairing import CURVE_ORDER, G2Point
from ..pairing.curve import g2_mul_gen
from ..wire import CodecError, pack_varbytes, unpack_varbytes
from . import bls, dsa, ecdsa, ring, rsa
from .bls import BlsPrivateKey, BlsPublicKey
from .chameleon import (
    ChameleonKey,
    chameleon_collide,
    chameleon_hash,
    chameleon_keygen,
    message_scalar,
)
from .dlgroup import element_valid, gen_pow
from .dsa import DsaPrivateKey, DsaPublicKey
from .ecdsa import EcdsaPrivateKey, EcdsaPublicKey
from .group import (
    GroupPublicKey,
    GroupSetup,
    GroupSigningKey,
    MemberCredential,
    group_setup,
    group_sign,
    group_verify,
)
from .params import (
    DL_Q,
    IndexOutOfRing,
    MixedScheme,
    OpenFailure,
    ParameterError,
    SCHEME_BLS,
    SCHEME_DSA,
    SCHEME_ECDSA,
    SCHEME_GROUP,
    SCHEME_NAMES,
    SCHEME_NC,
    SCHEME_RING,
    SCHEME_RSA,
    SECP160R1,
    SchemeMismatch,
    SchemeParams,
    TokenReused,
    reference_params,
)
from .ring import RingKeys, RingPrivateKey, RingPublicKey, RingSigningKey, ring_sign, ring_verify
from .rsa import RsaPrivateKey, RsaPublicKey

__all__ = [
    "SCHEME_RSA",
    "SCHEME_DSA",
    "SCHEME_ECDSA",
    "SCHEME_BLS",
    "SCHEME_GROUP",
    "SCHEME_RING",
    "SCHEME_NC",
    "SCHEME_NAMES",
    "SchemeParams",
    "reference_params",
    "ParameterError",
    "SchemeMismatch",
    "OpenFailure",
    "IndexOutOfRing",
    "TokenReused",
    "MixedScheme",
    "Signature",
    "signature_data",
    "keygen",
    "sign",
    "verify",
    "dispatch",
    "serialize_public",
    "load_public",
    "serialize_private",
    "load_private",
    "group_setup",
    "group_sign",
    "group_verify",
    "ring_sign",
    "ring_verify",
    "GroupSetup",
    "GroupPublicKey",
    "GroupSigningKey",
    "MemberCredential",
    "RingKeys",
    "RingPublicKey",
    "RingPrivateKey",
    "RingSigningKey",
    "ChameleonKey",
    "chameleon_keygen",
    "chameleon_hash",
    "chameleon_collide",
    "message_scalar",
]

@dataclass(frozen=True)
class Signature:
    """A scheme-tagged signature blob, as carried in a Data packet."""

    scheme_id: int
    data: bytes

    def to_bytes(self) -> bytes:
        return bytes([self.scheme_id]) + self.data

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Signature":
        if not blob or blob[0] not in SCHEME_NAMES:
            raise SchemeMismatch("missing or unknown scheme byte")
        return cls(scheme_id=blob[0], data=blob[1:])


# --- the dispatch table ------------------------------------------------------


def _rsa_private_ok(key: RsaPrivateKey) -> bool:
    """n = pq, and d inverts e modulo lcm(p - 1, q - 1)."""
    p1, q1 = key.p - 1, key.q - 1
    return key.p * key.q == key.n and min(p1, q1) > 0 and key.e * key.d % math.lcm(p1, q1) == 1


def _dl_secret_ok(key) -> bool:
    """DSA and ring private keys and group credentials: 0 < x < q, y = g^x."""
    return 0 < key.x < DL_Q and gen_pow(key.x) == key.y


def _bls_private_ok(key: BlsPrivateKey) -> bool:
    return 0 < key.x < CURVE_ORDER and g2_mul_gen(key.x) == key.point.point


def _group_public_ok(key: GroupPublicKey) -> bool:
    """A non-empty roster without repeats; every element in the order-q subgroup."""
    members = key.members
    return 0 < len(members) == len(set(members)) and all(
        map(element_valid, (key.manager_y, *members))
    )


@dataclass(frozen=True)
class _Scheme:
    public: type  # the public and private key record classes
    private: type
    keygen: Callable | None  # (rng) -> private key
    sign: tuple[type, Callable]  # (signer class, (signer, msg, rng) -> signature bytes)
    # (verifier class, the class of signer.public(); (verifier, msg, sig bytes) -> bool)
    verify: tuple[type, Callable]
    public_ok: Callable  # loaded public key -> passes validation
    private_ok: Callable  # loaded private key -> passes validation


_SCHEMES = {
    SCHEME_RSA: _Scheme(
        RsaPublicKey, RsaPrivateKey, rsa.keygen,
        (RsaPrivateKey, lambda key, msg, rng: rsa.sign(key, msg)), (RsaPublicKey, rsa.verify),
        lambda key: key.n >= 3 and key.e >= 3 and key.e % 2 == 1, _rsa_private_ok,
    ),
    SCHEME_DSA: _Scheme(
        DsaPublicKey, DsaPrivateKey, dsa.keygen,
        (DsaPrivateKey, dsa.sign), (DsaPublicKey, dsa.verify),
        lambda key: element_valid(key.y), _dl_secret_ok,
    ),
    SCHEME_ECDSA: _Scheme(
        EcdsaPublicKey, EcdsaPrivateKey, ecdsa.keygen,
        (EcdsaPrivateKey, ecdsa.sign), (EcdsaPublicKey, ecdsa.verify),
        lambda key: ecdsa.on_curve(key.qx, key.qy),
        lambda key: 0 < key.d < SECP160R1.n and ecdsa.base_mul(key.d) == (key.qx, key.qy),
    ),
    SCHEME_BLS: _Scheme(
        BlsPublicKey, BlsPrivateKey, bls.keygen,
        (BlsPrivateKey, lambda key, msg, rng: bls.sign(key, msg)), (BlsPublicKey, bls.verify),
        # the identity key would accept the identity signature on every message
        lambda key: not key.point.is_identity(), _bls_private_ok,
    ),
    SCHEME_GROUP: _Scheme(
        GroupPublicKey, MemberCredential, None,
        (GroupSigningKey,
         lambda key, msg, rng: group_sign(key.credential, key.group_key, msg, rng)),
        (GroupPublicKey, group_verify),
        _group_public_ok, _dl_secret_ok,
    ),
    SCHEME_RING: _Scheme(
        RingPublicKey, RingPrivateKey, ring.keygen,
        (RingSigningKey,
         lambda key, msg, rng: ring_sign(key.ring.members, key.index, key.key, msg, rng)),
        (RingKeys, lambda key, msg, sig: ring_verify(key.members, msg, sig)),
        lambda key: element_valid(key.y), _dl_secret_ok,
    ),
}


def _record(sid: int | None, op: str, error: type) -> _Scheme:
    """Scheme sid's table record, which must fill the field op."""
    rec = _SCHEMES.get(sid)
    if getattr(rec, op, None) is None:
        raise error(f"scheme {SCHEME_NAMES.get(sid, sid)} has no {op} in the table")
    return rec


def keygen(
    scheme_id: int,
    params: SchemeParams | None = None,
    rng: random.Random | None = None,
):
    """Generate a key pair; group membership runs through group_setup instead.
    A passed params must name scheme_id."""
    rec = _record(scheme_id, "keygen", ParameterError)
    if params is not None and params.scheme_id != scheme_id:
        raise SchemeMismatch("params carry a different scheme id")
    return rec.keygen(rng)


def dispatch(key, op: str) -> Callable:
    """The table's sign or verify (op) for key.  A key of any class but the
    one the table's entry takes raises SchemeMismatch: sign takes a scheme's
    signer, and verify the class of the signer's public()."""
    takes, fn = getattr(_SCHEMES.get(getattr(key, "scheme_id", None)), op, ((), None))
    if not isinstance(key, takes):  # () when key names no scheme
        raise SchemeMismatch(f"{op} takes no {type(key).__name__}")
    return fn


def sign(key, msg: bytes, rng: random.Random | None = None) -> Signature:
    return Signature(scheme_id=key.scheme_id, data=dispatch(key, "sign")(key, msg, rng))


def signature_data(sig: Signature | bytes, expect: int, error: type = SchemeMismatch) -> bytes:
    """sig's bytes; a Signature envelope of any scheme but expect raises error."""
    if isinstance(sig, Signature):
        if sig.scheme_id != expect:
            raise error(
                f"signature is {SCHEME_NAMES.get(sig.scheme_id, sig.scheme_id)}, "
                f"expected {SCHEME_NAMES[expect]}"
            )
        return sig.data
    return sig


def verify(key, msg: bytes, sig: Signature | bytes) -> bool:
    return dispatch(key, "verify")(key, msg, signature_data(sig, key.scheme_id))


# --- key records -------------------------------------------------------------


def _pack_int(v: int) -> bytes:
    return pack_varbytes(v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big"))


class _RecordReader:
    def __init__(self, blob: bytes):
        if not blob:
            raise ParameterError("empty key record")
        self.scheme_id = blob[0]
        self._blob = blob
        self._pos = 1

    def take_bytes(self) -> bytes:
        try:
            value, self._pos = unpack_varbytes(self._blob, self._pos)
        except CodecError as exc:
            raise ParameterError(f"malformed key record: {exc}") from exc
        return value

    def take_int(self) -> int:
        return int.from_bytes(self.take_bytes(), "big")

    def take_ints(self) -> tuple[int, ...]:
        count = self.take_int()
        return tuple(self.take_int() for _ in range(count))

    def take_g2(self) -> G2Point:
        blob = self.take_bytes()
        try:
            return G2Point.from_bytes(blob)
        except ValueError as exc:
            raise ParameterError(f"bad G2 point: {exc}") from exc

    def done(self) -> None:
        if self._pos == len(self._blob):
            return
        # an ECDSA record once led with its curve's name, one field more
        if self.scheme_id == SCHEME_ECDSA and unpack_varbytes(self._blob, 1)[0].isalnum():
            raise ParameterError("ECDSA key record in the old format, which names a curve: "
                                 "regenerate the key with `ndnkit keygen`")
        raise ParameterError("trailing bytes after key record")


# (writer, reader) per key-dataclass field annotation.  A record lists the
# fields in declaration order, so reordering a key dataclass's fields changes
# the wire format.
_FIELD_CODECS = {
    "int": (_pack_int, _RecordReader.take_int),
    "G2Point": (lambda pt: pack_varbytes(pt.to_bytes()), _RecordReader.take_g2),
    "tuple[int, ...]": (
        lambda ys: _pack_int(len(ys)) + b"".join(map(_pack_int, ys)),
        _RecordReader.take_ints,
    ),
}


def _key_class(sid: int | None, public: bool, error: type) -> tuple[type, Callable]:
    """Scheme sid's public or private key record class and its validator."""
    rec = _record(sid, "public", error)
    return (rec.public, rec.public_ok) if public else (rec.private, rec.private_ok)


def _write(key, public: bool) -> bytes:
    cls, ok = _key_class(getattr(key, "scheme_id", None), public, ParameterError)
    if not (isinstance(key, cls) and ok(key)):  # write no record that load_* would refuse
        raise ParameterError(f"{type(key).__name__} is no valid {cls.__name__} record")
    return bytes([key.scheme_id]) + b"".join(
        _FIELD_CODECS[f.type][0](getattr(key, f.name)) for f in fields(cls)
    )


def _read(blob: bytes, public: bool):
    rd = _RecordReader(blob)
    cls, ok = _key_class(rd.scheme_id, public, SchemeMismatch)
    key = cls(**{f.name: _FIELD_CODECS[f.type][1](rd) for f in fields(cls)})
    rd.done()
    if not ok(key):
        raise ParameterError(f"{cls.__name__} holds out-of-range or inconsistent values")
    return key


def serialize_public(key) -> bytes:
    return _write(key, public=True)


def load_public(blob: bytes):
    return _read(blob, public=True)


def serialize_private(key) -> bytes:
    return _write(key, public=False)


def load_private(blob: bytes):
    return _read(blob, public=False)
