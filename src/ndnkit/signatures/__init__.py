"""Uniform KeyGen/Sign/Verify façade over the six signature schemes.

Scheme-specific key records live in their own modules; this package level
adds the shared Signature envelope, byte serializations for keys (scheme
byte plus length-prefixed big-endian integer fields, reusing the packet
varint), and dispatch helpers the node layer uses to turn a stored public
key into a verifier callable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ..pairing import G2Point
from ..wire import CodecError, pack_varbytes, unpack_varbytes
from . import bls, dsa, ecdsa, group, ring, rsa
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
    CURVES,
    CurveSpec,
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
    SchemeMismatch,
    SchemeParams,
    TokenReused,
    default_params,
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
    "default_params",
    "reference_params",
    "ParameterError",
    "SchemeMismatch",
    "OpenFailure",
    "IndexOutOfRing",
    "TokenReused",
    "MixedScheme",
    "Signature",
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

_KEYGEN = {
    SCHEME_RSA: rsa.keygen,
    SCHEME_DSA: dsa.keygen,
    SCHEME_ECDSA: ecdsa.keygen,
    SCHEME_BLS: bls.keygen,
    SCHEME_RING: ring.keygen,
}


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


def keygen(
    scheme_id: int,
    params: SchemeParams | None = None,
    rng: random.Random | None = None,
):
    """Generate a key pair; group membership runs through group_setup instead."""
    if scheme_id not in _KEYGEN:
        raise ParameterError(f"no direct keygen for scheme {scheme_id}")
    if params is None:
        params = default_params(scheme_id)
    elif params.scheme_id != scheme_id:
        raise SchemeMismatch("params carry a different scheme id")
    return _KEYGEN[scheme_id](params, rng)


def sign(key, msg: bytes, rng: random.Random | None = None) -> Signature:
    sid = key.scheme_id
    if sid == SCHEME_RSA:
        data = rsa.sign(key, msg)
    elif sid == SCHEME_DSA:
        data = dsa.sign(key, msg, rng)
    elif sid == SCHEME_ECDSA:
        data = ecdsa.sign(key, msg, rng)
    elif sid == SCHEME_BLS:
        data = bls.sign(key, msg)
    else:
        raise SchemeMismatch(f"sign() does not cover scheme {sid}")
    return Signature(scheme_id=sid, data=data)


def _raw(sig: Signature | bytes, expect: int) -> bytes:
    if isinstance(sig, Signature):
        if sig.scheme_id != expect:
            raise SchemeMismatch(
                f"signature is {SCHEME_NAMES.get(sig.scheme_id, sig.scheme_id)}, "
                f"key is {SCHEME_NAMES[expect]}"
            )
        return sig.data
    return sig


def verify(key, msg: bytes, sig: Signature | bytes) -> bool:
    sid = key.scheme_id
    data = _raw(sig, sid)
    if sid == SCHEME_RSA:
        return rsa.verify(key, msg, data)
    if sid == SCHEME_DSA:
        return dsa.verify(key, msg, data)
    if sid == SCHEME_ECDSA:
        return ecdsa.verify(key, msg, data)
    if sid == SCHEME_BLS:
        return bls.verify(key, msg, data)
    if sid == SCHEME_GROUP:
        return group_verify(key, msg, data)
    raise SchemeMismatch(f"verify() does not cover scheme {sid}")


def verifier_for(context) -> Callable[[bytes, bytes], bool]:
    """Close over a public key (or ring key list) as a (msg, sig) predicate."""
    if isinstance(context, Sequence) and not isinstance(context, (bytes, str)):
        ring_keys = tuple(context)
        return lambda msg, sig: ring_verify(ring_keys, msg, sig)
    return lambda msg, sig: verify(context, msg, sig)


# --- key serialization -------------------------------------------------------


def _pack_int(v: int) -> bytes:
    return pack_varbytes(v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big"))


def _pack_record(scheme_id: int, *fields: bytes) -> bytes:
    return bytes([scheme_id]) + b"".join(fields)


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

    def take_curve(self) -> CurveSpec:
        try:
            name = self.take_bytes().decode()
        except UnicodeDecodeError as exc:
            raise ParameterError("curve name is not UTF-8") from exc
        if name not in CURVES:
            raise ParameterError(f"unknown curve {name!r}")
        return CURVES[name]

    def take_g2(self) -> G2Point:
        blob = self.take_bytes()
        try:
            return G2Point.from_bytes(blob)
        except ValueError as exc:
            raise ParameterError(f"bad G2 point: {exc}") from exc

    def take_int(self) -> int:
        return int.from_bytes(self.take_bytes(), "big")

    def done(self) -> None:
        if self._pos != len(self._blob):
            raise ParameterError("trailing bytes after key record")


def serialize_public(key) -> bytes:
    sid = key.scheme_id
    if sid == SCHEME_RSA:
        return _pack_record(sid, _pack_int(key.n), _pack_int(key.e))
    if sid == SCHEME_DSA or sid == SCHEME_RING:
        return _pack_record(sid, _pack_int(key.y))
    if sid == SCHEME_ECDSA:
        return _pack_record(
            sid,
            pack_varbytes(key.curve.encode()),
            _pack_int(key.qx),
            _pack_int(key.qy),
        )
    if sid == SCHEME_BLS:
        return _pack_record(sid, pack_varbytes(key.point.to_bytes()))
    if sid == SCHEME_GROUP:
        body = [_pack_int(key.manager_y), _pack_int(len(key.members))]
        body += [_pack_int(y) for y in key.members]
        return _pack_record(sid, *body)
    raise SchemeMismatch(f"cannot serialize scheme {sid} public key")


def load_public(blob: bytes):
    rd = _RecordReader(blob)
    sid = rd.scheme_id
    if sid == SCHEME_RSA:
        key = RsaPublicKey(n=rd.take_int(), e=rd.take_int())
        rd.done()
        if key.n < 3 or key.e < 3 or key.e % 2 == 0:
            raise ParameterError("implausible RSA public key")
        return key
    if sid == SCHEME_DSA or sid == SCHEME_RING:
        y = rd.take_int()
        rd.done()
        if not element_valid(y):
            raise ParameterError("public element outside the order-q subgroup")
        return DsaPublicKey(y) if sid == SCHEME_DSA else RingPublicKey(y)
    if sid == SCHEME_ECDSA:
        spec = rd.take_curve()
        qx, qy = rd.take_int(), rd.take_int()
        rd.done()
        if not (qx < spec.p and qy < spec.p):
            raise ParameterError("point coordinates are not reduced mod p")
        if not ecdsa.on_curve(spec, qx, qy):
            raise ParameterError("point is not on the named curve")
        return EcdsaPublicKey(curve=spec.name, qx=qx, qy=qy)
    if sid == SCHEME_BLS:
        point = rd.take_g2()
        rd.done()
        return BlsPublicKey(point)
    if sid == SCHEME_GROUP:
        manager_y = rd.take_int()
        count = rd.take_int()
        members = tuple(rd.take_int() for _ in range(count))
        rd.done()
        return GroupPublicKey(manager_y=manager_y, members=members)
    raise SchemeMismatch(f"cannot load scheme {sid} public key")


def serialize_private(key) -> bytes:
    sid = key.scheme_id
    if sid == SCHEME_RSA:
        return _pack_record(
            sid,
            _pack_int(key.n),
            _pack_int(key.e),
            _pack_int(key.d),
            _pack_int(key.p),
            _pack_int(key.q),
        )
    if sid == SCHEME_DSA or sid == SCHEME_RING:
        return _pack_record(sid, _pack_int(key.x), _pack_int(key.y))
    if sid == SCHEME_ECDSA:
        return _pack_record(
            sid,
            pack_varbytes(key.curve.encode()),
            _pack_int(key.d),
            _pack_int(key.qx),
            _pack_int(key.qy),
        )
    if sid == SCHEME_BLS:
        return _pack_record(sid, _pack_int(key.x), pack_varbytes(key.point.to_bytes()))
    if sid == SCHEME_GROUP:
        return _pack_record(
            sid,
            _pack_int(key.x),
            _pack_int(key.y),
            _pack_int(key.cert_c),
            _pack_int(key.cert_s),
        )
    raise SchemeMismatch(f"cannot serialize scheme {sid} private key")


def load_private(blob: bytes):
    rd = _RecordReader(blob)
    sid = rd.scheme_id
    if sid == SCHEME_RSA:
        key = RsaPrivateKey(
            n=rd.take_int(),
            e=rd.take_int(),
            d=rd.take_int(),
            p=rd.take_int(),
            q=rd.take_int(),
        )
        rd.done()
        if key.p * key.q != key.n:
            raise ParameterError("RSA factors do not match the modulus")
        return key
    if sid == SCHEME_DSA or sid == SCHEME_RING:
        x, y = rd.take_int(), rd.take_int()
        rd.done()
        if gen_pow(x) != y:
            raise ParameterError("public element does not match the secret")
        return DsaPrivateKey(x, y) if sid == SCHEME_DSA else RingPrivateKey(x, y)
    if sid == SCHEME_ECDSA:
        spec = rd.take_curve()
        d, qx, qy = rd.take_int(), rd.take_int(), rd.take_int()
        rd.done()
        if not 0 < d < spec.n:
            raise ParameterError("secret scalar outside [1, n)")
        if ecdsa.base_mul(spec, d) != (qx, qy):
            raise ParameterError("public point does not match the secret")
        return EcdsaPrivateKey(curve=spec.name, d=d, qx=qx, qy=qy)
    if sid == SCHEME_BLS:
        x = rd.take_int()
        point = rd.take_g2()
        rd.done()
        return BlsPrivateKey(x=x, point=point)
    if sid == SCHEME_GROUP:
        key = MemberCredential(
            x=rd.take_int(), y=rd.take_int(), cert_c=rd.take_int(), cert_s=rd.take_int()
        )
        rd.done()
        return key
    raise SchemeMismatch(f"cannot load scheme {sid} private key")
