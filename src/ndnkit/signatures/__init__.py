"""Uniform KeyGen/Sign/Verify façade over the six signature schemes.

Scheme-specific key records live in their own modules; this package level
adds the shared Signature envelope, the dispatch table, byte serializations
for keys, and verifier_for, which the node layer uses to turn a stored
public key into a verifier callable.

_SCHEMES maps each scheme id to one record: the public and private key
classes; keygen, sign and verify; and one validator each for public and
private keys, run on every key record written or loaded.  keygen, sign and
verify are None where a key alone is not enough: group credentials come
from group_setup and sign through group_sign, and rings sign and verify
through ring_sign and ring_verify (or verifier_for over the ring's key
list).  SCHEME_NC has no record: network coding keys live in ndnkit.netcoding.

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
from typing import Callable, Sequence

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
    MemberCredential,
    group_open,
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
from .ring import RingPrivateKey, RingPublicKey, ring_sign, ring_verify
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
    "verifier_for",
    "serialize_public",
    "load_public",
    "serialize_private",
    "load_private",
    "group_setup",
    "group_sign",
    "group_verify",
    "group_open",
    "ring_sign",
    "ring_verify",
    "GroupSetup",
    "GroupPublicKey",
    "MemberCredential",
    "RingPublicKey",
    "RingPrivateKey",
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
    public: type
    private: type
    keygen: Callable | None  # (rng) -> private key
    sign: Callable | None  # (private key, msg, rng) -> signature bytes
    verify: Callable | None  # (public key, msg, signature bytes) -> bool
    public_ok: Callable  # loaded public key -> passes validation
    private_ok: Callable  # loaded private key -> passes validation


_SCHEMES = {
    SCHEME_RSA: _Scheme(
        RsaPublicKey, RsaPrivateKey, rsa.keygen,
        lambda key, msg, rng: rsa.sign(key, msg), rsa.verify,
        lambda key: key.n >= 3 and key.e >= 3 and key.e % 2 == 1, _rsa_private_ok,
    ),
    SCHEME_DSA: _Scheme(
        DsaPublicKey, DsaPrivateKey, dsa.keygen,
        dsa.sign, dsa.verify,
        lambda key: element_valid(key.y), _dl_secret_ok,
    ),
    SCHEME_ECDSA: _Scheme(
        EcdsaPublicKey, EcdsaPrivateKey, ecdsa.keygen,
        ecdsa.sign, ecdsa.verify,
        lambda key: ecdsa.on_curve(key.qx, key.qy),
        lambda key: 0 < key.d < SECP160R1.n and ecdsa.base_mul(key.d) == (key.qx, key.qy),
    ),
    SCHEME_BLS: _Scheme(
        BlsPublicKey, BlsPrivateKey, bls.keygen,
        lambda key, msg, rng: bls.sign(key, msg), bls.verify,
        # the identity key would accept the identity signature on every message
        lambda key: not key.point.is_identity(), _bls_private_ok,
    ),
    SCHEME_GROUP: _Scheme(
        GroupPublicKey, MemberCredential, None,
        None, group_verify,
        _group_public_ok, _dl_secret_ok,
    ),
    SCHEME_RING: _Scheme(
        RingPublicKey, RingPrivateKey, ring.keygen,
        None, None,
        lambda key: element_valid(key.y), _dl_secret_ok,
    ),
}


def _record(sid: int, op: str, error: type = SchemeMismatch) -> _Scheme:
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


def sign(key, msg: bytes, rng: random.Random | None = None) -> Signature:
    sid = key.scheme_id
    return Signature(scheme_id=sid, data=_record(sid, "sign").sign(key, msg, rng))


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
    sid = key.scheme_id
    return _record(sid, "verify").verify(key, msg, signature_data(sig, sid))


def verifier_for(context) -> Callable[[bytes, bytes], bool]:
    """Close over a public key (or ring key list) as a (msg, sig) predicate."""
    if isinstance(context, Sequence) and not isinstance(context, (bytes, str)):
        ring_keys = tuple(context)
        return lambda msg, sig: ring_verify(ring_keys, msg, sig)
    return lambda msg, sig: verify(context, msg, sig)


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


def _key_class(sid: int, public: bool) -> tuple[type, Callable]:
    """Scheme sid's public or private key class and its validator."""
    rec = _record(sid, "public")
    return (rec.public, rec.public_ok) if public else (rec.private, rec.private_ok)


def _write(key, public: bool) -> bytes:
    cls, ok = _key_class(key.scheme_id, public)
    if not ok(key):  # write no record that load_* would refuse
        raise ParameterError(f"{cls.__name__} holds out-of-range or inconsistent values")
    return bytes([key.scheme_id]) + b"".join(
        _FIELD_CODECS[f.type][0](getattr(key, f.name)) for f in fields(cls)
    )


def _read(blob: bytes, public: bool):
    rd = _RecordReader(blob)
    cls, ok = _key_class(rd.scheme_id, public)
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
